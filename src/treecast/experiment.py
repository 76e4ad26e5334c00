"""End-to-end experiment driver: one trace, many mappings, every scheme.

A run sweeps the (addressing scheme x mapping repetition) grid over a
single spike trace, producing one :class:`~treecast.nocsim.SimReport`
row per combination plus an aggregate summary with per-scheme energy
statistics and cross-scheme ratios.  Everything is seeded, so a config
reproduces its reports byte for byte.
"""

from __future__ import annotations

import csv
import json
import statistics
from dataclasses import dataclass, field
from typing import IO, Any, Sequence

import yaml

from .addressing import Scheme, TreeConfig, routing_bit_width
from .nocsim import TURNAROUND_POLICIES, EnergyModel, SimReport, simulate
from .traffic import (
    Layer,
    NetworkSpec,
    SpikeTrace,
    build_core_luts,
    derive_events,
    generate_connectivity,
    load_trace,
    map_neurons,
    synth_trace,
)


class ConfigError(ValueError):
    """Config validation failure; ``errors`` lists one message per bad field."""

    def __init__(self, errors: Sequence[str]):
        self.errors = tuple(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class ExperimentConfig:
    tree: TreeConfig = field(default_factory=lambda: TreeConfig(fan_out=4, levels=2))
    schemes: tuple[Scheme, ...] = tuple(Scheme)
    tag_bits: int = 10
    turnaround: str = "root"
    energy: EnergyModel | None = None  # None -> EnergyModel.default(tree.levels)
    network: NetworkSpec = field(default_factory=NetworkSpec.default_rsnn)
    network_seed: int = 5
    strategy: str = "random_switch"
    capacity: int = 40
    repetitions: int = 50
    switch_prob: float = 0.05
    mapping_seed: int = 7
    trace_source: str = "synth"
    trace_steps: int = 400
    trace_rate: float = 0.05
    trace_seed: int = 42
    trace_path: str | None = None
    runs_csv: str = "runs.csv"
    summary_json: str = "summary.json"

    def energy_model(self) -> EnergyModel:
        return self.energy if self.energy is not None else EnergyModel.default(self.tree.levels)


def default_config() -> ExperimentConfig:
    """The stock 16-core experiment: 600-neuron six-layer network, 50 mappings."""
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# config file loading

def _expect_keys(section: dict, allowed: set[str], prefix: str, errors: list[str]) -> None:
    for key in section:
        if key not in allowed:
            errors.append(f"{prefix}{key}: unknown field")


def load_config(inp: IO[str]) -> ExperimentConfig:
    """Parse a YAML experiment config, collecting every field error at once."""
    raw = yaml.safe_load(inp)
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError(["top level: config must be a mapping"])
    errors: list[str] = []
    defaults = ExperimentConfig()

    _expect_keys(
        raw,
        {"tree", "tag_bits", "schemes", "turnaround", "energy", "network", "mapping", "trace", "output"},
        "",
        errors,
    )

    def section(name: str) -> dict:
        sec = raw.get(name, {})
        if sec is None:
            sec = {}
        if not isinstance(sec, dict):
            errors.append(f"{name}: must be a mapping")
            return {}
        return sec

    def intval(sec: dict, name: str, path: str, default: int, minimum: int | None = None) -> int:
        v = sec.get(name, default)
        if not isinstance(v, int) or isinstance(v, bool):
            errors.append(f"{path}: must be an integer")
            return default
        if minimum is not None and v < minimum:
            errors.append(f"{path}: must be >= {minimum}")
            return default
        return v

    def floatval(sec: dict, name: str, path: str, default: float) -> float:
        v = sec.get(name, default)
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            errors.append(f"{path}: must be a number")
            return default
        return float(v)

    tree_sec = section("tree")
    _expect_keys(tree_sec, {"fan_out", "levels"}, "tree.", errors)
    fan_out = intval(tree_sec, "fan_out", "tree.fan_out", 4, minimum=2)
    levels = intval(tree_sec, "levels", "tree.levels", 2, minimum=1)
    tree = TreeConfig(fan_out=fan_out, levels=levels)

    tag_bits = intval(raw, "tag_bits", "tag_bits", defaults.tag_bits, minimum=1)

    schemes: list[Scheme] = []
    raw_schemes = raw.get("schemes", [s.value for s in defaults.schemes])
    if not isinstance(raw_schemes, list) or not raw_schemes:
        errors.append("schemes: must be a nonempty list of scheme names")
    else:
        for i, s in enumerate(raw_schemes):
            try:
                schemes.append(Scheme(s))
            except ValueError:
                errors.append(
                    f"schemes[{i}]: unknown scheme {s!r} "
                    f"(expected one of {[m.value for m in Scheme]})"
                )
    for s in schemes:
        try:
            routing_bit_width(s, tree)
        except ValueError as exc:
            errors.append(f"schemes: {s.value}: {exc}")

    turnaround = raw.get("turnaround", defaults.turnaround)
    if turnaround not in TURNAROUND_POLICIES:
        errors.append(f"turnaround: must be one of {TURNAROUND_POLICIES}, got {turnaround!r}")

    energy_sec = section("energy")
    _expect_keys(energy_sec, {"link", "base", "level_ratio", "filter_lookup"}, "energy.", errors)
    filter_lookup = floatval(energy_sec, "filter_lookup", "energy.filter_lookup", 8.0)
    energy: EnergyModel | None = None
    if "link" in energy_sec:
        link = energy_sec["link"]
        if (
            not isinstance(link, list)
            or not link
            or any(isinstance(e, bool) or not isinstance(e, (int, float)) for e in link)
        ):
            errors.append("energy.link: must be a nonempty list of numbers (leaf level first)")
        elif len(link) != tree.levels:
            errors.append(f"energy.link: expected {tree.levels} levels, got {len(link)}")
        else:
            try:
                energy = EnergyModel(tuple(float(e) for e in link), filter_lookup)
            except ValueError as exc:
                errors.append(f"energy.link: {exc}")
    else:
        base = floatval(energy_sec, "base", "energy.base", 1.0)
        ratio = floatval(energy_sec, "level_ratio", "energy.level_ratio", 4.0)
        try:
            energy = EnergyModel.default(tree.levels, base, ratio, filter_lookup)
        except ValueError as exc:
            errors.append(f"energy: {exc}")

    net_sec = section("network")
    _expect_keys(
        net_sec,
        {"layers", "layer_size", "recurrent_layers", "feedforward_layers", "density", "literal_fc", "seed"},
        "network.",
        errors,
    )
    density = floatval(net_sec, "density", "network.density", 0.1)
    if not 0.0 < density <= 1.0:
        errors.append(f"network.density: must be in (0, 1], got {density}")
        density = 0.1
    literal_fc = net_sec.get("literal_fc", False)
    if not isinstance(literal_fc, bool):
        errors.append("network.literal_fc: must be a boolean")
        literal_fc = False
    network: NetworkSpec | None = None
    if "layers" in net_sec:
        raw_layers = net_sec["layers"]
        layers: list[Layer] = []
        if not isinstance(raw_layers, list) or not raw_layers:
            errors.append("network.layers: must be a nonempty list of {size, kind}")
        else:
            for i, entry in enumerate(raw_layers):
                if not isinstance(entry, dict):
                    errors.append(f"network.layers[{i}]: must be a mapping with size and kind")
                    continue
                try:
                    layers.append(Layer(entry.get("size", 0), entry.get("kind", "")))
                except ValueError as exc:
                    errors.append(f"network.layers[{i}]: {exc}")
        if layers and not errors:
            network = NetworkSpec(tuple(layers), density, literal_fc)
    else:
        layer_size = intval(net_sec, "layer_size", "network.layer_size", 100, minimum=1)
        rec = intval(net_sec, "recurrent_layers", "network.recurrent_layers", 3, minimum=0)
        ff = intval(net_sec, "feedforward_layers", "network.feedforward_layers", 3, minimum=0)
        if rec + ff < 1:
            errors.append("network: needs at least one layer")
        else:
            network = NetworkSpec.default_rsnn(layer_size, rec, ff, density, literal_fc)
    network_seed = intval(net_sec, "seed", "network.seed", defaults.network_seed)

    map_sec = section("mapping")
    _expect_keys(map_sec, {"strategy", "capacity", "repetitions", "switch_prob", "seed"}, "mapping.", errors)
    strategy = map_sec.get("strategy", defaults.strategy)
    if strategy not in ("sequential", "random_switch"):
        errors.append(f"mapping.strategy: must be sequential or random_switch, got {strategy!r}")
    capacity = intval(map_sec, "capacity", "mapping.capacity", defaults.capacity, minimum=1)
    repetitions = intval(map_sec, "repetitions", "mapping.repetitions", defaults.repetitions, minimum=1)
    switch_prob = floatval(map_sec, "switch_prob", "mapping.switch_prob", defaults.switch_prob)
    if not 0.0 <= switch_prob <= 1.0:
        errors.append(f"mapping.switch_prob: must be in [0, 1], got {switch_prob}")
    mapping_seed = intval(map_sec, "seed", "mapping.seed", defaults.mapping_seed)
    if network is not None and network.total_neurons > tree.core_count * capacity:
        errors.append(
            f"mapping.capacity: {network.total_neurons} neurons exceed "
            f"{tree.core_count} cores x {capacity}"
        )

    trace_sec = section("trace")
    _expect_keys(trace_sec, {"source", "steps", "rate", "seed", "path"}, "trace.", errors)
    trace_source = trace_sec.get("source", defaults.trace_source)
    if trace_source not in ("synth", "file"):
        errors.append(f"trace.source: must be synth or file, got {trace_source!r}")
    trace_steps = intval(trace_sec, "steps", "trace.steps", defaults.trace_steps, minimum=0)
    trace_rate = floatval(trace_sec, "rate", "trace.rate", defaults.trace_rate)
    if not 0.0 <= trace_rate <= 1.0:
        errors.append(f"trace.rate: must be in [0, 1], got {trace_rate}")
    trace_seed = intval(trace_sec, "seed", "trace.seed", defaults.trace_seed)
    trace_path = trace_sec.get("path")
    if trace_source == "file" and not isinstance(trace_path, str):
        errors.append("trace.path: required when trace.source is file")

    out_sec = section("output")
    _expect_keys(out_sec, {"runs_csv", "summary_json"}, "output.", errors)
    runs_csv = out_sec.get("runs_csv", defaults.runs_csv)
    summary_json = out_sec.get("summary_json", defaults.summary_json)
    for path, label in ((runs_csv, "output.runs_csv"), (summary_json, "output.summary_json")):
        if not isinstance(path, str) or not path:
            errors.append(f"{label}: must be a nonempty path")

    if errors:
        raise ConfigError(errors)
    assert network is not None and energy is not None
    return ExperimentConfig(
        tree=tree,
        schemes=tuple(schemes),
        tag_bits=tag_bits,
        turnaround=turnaround,
        energy=energy,
        network=network,
        network_seed=network_seed,
        strategy=strategy,
        capacity=capacity,
        repetitions=repetitions,
        switch_prob=switch_prob,
        mapping_seed=mapping_seed,
        trace_source=trace_source,
        trace_steps=trace_steps,
        trace_rate=trace_rate,
        trace_seed=trace_seed,
        trace_path=trace_path,
        runs_csv=runs_csv,
        summary_json=summary_json,
    )


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class RunRecord:
    """One (scheme, mapping repetition) cell of the experiment grid."""

    scheme: str
    mapping_index: int
    mapping_seed: int
    dropped_spikes: int
    report: SimReport


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[RunRecord, ...]
    summary: dict[str, Any]


def run_experiment(config: ExperimentConfig, trace: SpikeTrace | None = None) -> ExperimentResult:
    """Sweep the scheme x mapping grid over one trace.

    Every scheme sees the exact same events per mapping; reports come
    back in canonical (scheme, mapping index) order regardless of how
    the grid was executed.
    """
    energy = config.energy_model()
    connectivity = generate_connectivity(config.network, config.network_seed)
    if trace is None:
        if config.trace_source == "file":
            with open(config.trace_path, "r", encoding="utf-8") as fh:
                trace = load_trace(fh)
        else:
            trace = synth_trace(config.network, config.trace_steps, config.trace_rate, config.trace_seed)

    records: list[RunRecord] = []
    for rep in range(config.repetitions):
        seed = config.mapping_seed + rep
        mapping = map_neurons(
            config.network,
            config.tree,
            strategy=config.strategy,
            capacity=config.capacity,
            seed=seed,
            switch_prob=config.switch_prob,
        )
        events, dropped = derive_events(trace, connectivity, mapping, config.tag_bits)
        luts = build_core_luts(connectivity, mapping, config.tree.core_count)
        for scheme in config.schemes:
            report = simulate(
                events,
                scheme,
                config.tree,
                mapping,
                energy,
                luts,
                tag_bits=config.tag_bits,
                turnaround=config.turnaround,
            )
            records.append(RunRecord(scheme.value, rep, seed, dropped, report))

    order = {s.value: i for i, s in enumerate(config.schemes)}
    records.sort(key=lambda r: (order[r.scheme], r.mapping_index))
    return ExperimentResult(rows=tuple(records), summary=_summarize(records, config))


#: Cross-scheme ratios in the summary: (name, numerator, denominator, statistic).
_COMPARISONS = (
    ("illegal_hbs_over_symbol", "hbs", "symbol", lambda s: s["illegal_deliveries"]),
    ("total_energy_hbs_over_symbol", "hbs", "symbol", lambda s: s["total_energy"]["sum"]),
    ("total_energy_hbs_over_fbs", "hbs", "fbs", lambda s: s["total_energy"]["sum"]),
)


def _summarize(records: Sequence[RunRecord], config: ExperimentConfig) -> dict[str, Any]:
    by_scheme: dict[str, list[RunRecord]] = {}
    for rec in records:
        by_scheme.setdefault(rec.scheme, []).append(rec)

    schemes: dict[str, Any] = {}
    for scheme, recs in by_scheme.items():
        totals = [r.report.total_energy for r in recs]
        schemes[scheme] = {
            "runs": len(recs),
            "total_energy": {
                "mean": statistics.fmean(totals),
                "min": min(totals),
                "max": max(totals),
                "sum": sum(totals),
            },
            "routing_energy_sum": sum(r.report.routing_energy for r in recs),
            "filtering_energy_sum": sum(r.report.filtering_energy for r in recs),
            "illegal_filtering_energy_sum": sum(
                r.report.illegal_filtering_energy for r in recs
            ),
            "packets_injected": sum(r.report.packets_injected for r in recs),
            "link_bit_traversals": sum(r.report.link_bit_traversals for r in recs),
            "legal_deliveries": sum(r.report.legal_deliveries for r in recs),
            "illegal_deliveries": sum(r.report.illegal_deliveries for r in recs),
        }

    comparisons: dict[str, Any] = {}
    for name, num, den, stat in _COMPARISONS:
        if num in schemes and den in schemes:
            a, b = stat(schemes[num]), stat(schemes[den])
            comparisons[name] = a / b if b else None

    return {
        "tree": {"fan_out": config.tree.fan_out, "levels": config.tree.levels},
        "repetitions": config.repetitions,
        # A spike is dropped when its neuron has no targets, whatever the
        # mapping, so every record carries the same per-trace count.
        "dropped_spikes_total": records[0].dropped_spikes if records else 0,
        "schemes": schemes,
        "comparisons": comparisons,
    }


RUNS_CSV_HEADER = (
    "scheme",
    "mapping_index",
    "mapping_seed",
    "dropped_spikes",
) + SimReport.csv_header()[1:]


def write_runs_csv(records: Sequence[RunRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUNS_CSV_HEADER)
    for rec in records:
        writer.writerow(
            (rec.scheme, rec.mapping_index, rec.mapping_seed, rec.dropped_spikes)
            + rec.report.csv_row()[1:]
        )


def write_summary_json(summary: dict[str, Any], out: IO[str]) -> None:
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
