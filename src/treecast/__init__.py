"""Multicast address codecs and a hierarchical-tree NoC simulator.

See :mod:`treecast.addressing` for the four destination-set encodings,
:mod:`treecast.scaling` for their closed-form width/capability laws,
:mod:`treecast.nocsim` for the tree fabric and energy accounting,
:mod:`treecast.traffic` for workload synthesis, and
:mod:`treecast.experiment` for the end-to-end sweep driver.
"""

from .addressing import (
    FbsAddress,
    HbsAddress,
    MulticastAddress,
    Scheme,
    Sym,
    SymbolAddress,
    TreeConfig,
    UnicastAddress,
    cover_mask,
    covered_set,
    encode,
    format_address,
    index_of,
    overcoverage,
    parse_address,
    path_of,
    rotate_hbs,
    routing_bit_width,
)
from .experiment import (
    ConfigError,
    ExperimentConfig,
    ExperimentResult,
    RunRecord,
    default_config,
    load_config,
    run_experiment,
    write_runs_csv,
    write_summary_json,
)
from .nocsim import (
    EnergyModel,
    RouteResult,
    SimReport,
    SwitchDecision,
    divergence_depth,
    route_multicast,
    route_unicast_batch,
    simulate,
)
from .scaling import (
    EnumerationBudgetError,
    ScalingRow,
    capability_formula,
    capability_scaling_factor,
    emit_scaling_table,
    enumerate_capability,
    routing_bits_formula,
    routing_scaling_factor,
    write_scaling_csv,
)
from .traffic import (
    Layer,
    NetworkSpec,
    NeuronMapping,
    SpikeTrace,
    build_core_luts,
    default_tag_bits,
    derive_events,
    generate_connectivity,
    load_trace,
    map_neurons,
    save_trace,
    synth_trace,
)

__version__ = "0.1.0"
