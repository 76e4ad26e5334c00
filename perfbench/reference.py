"""Host-speed reference: a fixed pure-Python loop, run as its own process.

The machine's speed drifts by a fifth or more over tens of seconds as
other tenants load it, and a child's wall time drifts with it.  ``run.py``
times this script from spawn to exit between every two children and
scales each child's times by the nominal reference time over the mean of
the two references around it.  The loop does tuple, frozenset and dict
work like the simulator's, and it imports nothing from treecast, so a
change to the package cannot move it.
"""

table: dict = {}
for i in range(1_000_000):
    key = (i & 255, frozenset((i % 7, i % 11)))
    table[key] = table.get(key, 0) + i
