"""Multicast address codecs and a hierarchical-tree NoC simulator.

See :mod:`treecast.addressing` for the four destination-set encodings,
:mod:`treecast.scaling` for their closed-form routing-bit and capability
laws (each address class states its own on a ``TreeConfig``),
:mod:`treecast.nocsim` for the tree fabric and energy accounting,
:mod:`treecast.traffic` for workload synthesis, and
:mod:`treecast.experiment` for the end-to-end sweep driver.  The
``treecast`` command is :mod:`treecast.cli`.
"""

__version__ = "0.1.0"
