"""End-to-end experiment driver: one trace, many mappings, every scheme.

A run sweeps the (addressing scheme x mapping repetition) grid over a
single spike trace, producing one :class:`~treecast.nocsim.SimReport`
row per combination plus an aggregate summary with per-scheme energy
statistics and cross-scheme ratios.  Everything is seeded, so a config
reproduces its reports byte for byte.

:data:`FIELDS` is the reference for the YAML config that
:func:`load_config` reads: one row per field, with its type, bounds or
choices, and the fields it cannot be combined with.
"""

from __future__ import annotations

import csv
import json
import re
import statistics
from collections import Counter, namedtuple
from dataclasses import astuple, dataclass, field, fields, replace
from typing import IO, Any, Callable, Sequence

import yaml

from .addressing import Scheme, TreeConfig, address_class
from .nocsim import TURNAROUND_POLICIES, EnergyModel, SimReport, simulate
from .traffic import (
    LAYER_KINDS,
    MAX_TRACE_DRAWS,
    Layer,
    NetworkSpec,
    build_core_luts,
    default_tag_bits,
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
    tag_bits: int | None = None  # None -> default_tag_bits(network.total_neurons)
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

    def tag_width(self) -> int:
        """``tag_bits`` if set, else the width that holds every neuron id of ``network``."""
        if self.tag_bits is None:
            return default_tag_bits(self.network.total_neurons)
        return self.tag_bits

    def energy_model(self) -> EnergyModel:
        return self.energy if self.energy is not None else EnergyModel.default(self.tree.levels)


def default_config() -> ExperimentConfig:
    """The stock 16-core experiment: 600-neuron six-layer network, 50 mappings."""
    return ExperimentConfig()


# ---------------------------------------------------------------------------
# config file loading

_Field = namedtuple("_Field", "path keyword kind allowed excludes", defaults=(None, ()))

#: The config reference: one row per YAML field, with the ExperimentConfig
#: field it sets, its kind (int, float, bool, str or dict; ``[kind]`` is a
#: nonempty list), the interval (on a str's length) or choices it must lie in,
#: and the fields it may not be set with.  Rows setting ``tree``, ``energy`` or
#: ``network`` are arguments of TreeConfig, EnergyModel.default or
#: NetworkSpec.default_rsnn; ``energy.link`` and ``network.layers`` replace
#: what those built; each ``network.layers`` entry has exactly an integer
#: ``size`` >= 1 and a ``kind`` in LAYER_KINDS; TreeConfig bounds the core
#: count, ``tree.fan_out ** tree.levels``, by ``sys.maxsize``; with a synth
#: trace, ``trace.steps`` times the neuron count is at most MAX_TRACE_DRAWS.
#: An absent field keeps the default of what it sets.
FIELDS = (
    _Field("tree.fan_out", "tree", int, "[2, inf)"),
    _Field("tree.levels", "tree", int, "[1, inf)"),
    _Field("tag_bits", "tag_bits", int, "[1, inf)"),
    _Field("schemes", "schemes", [str], tuple(s.value for s in Scheme)),
    _Field("turnaround", "turnaround", str, TURNAROUND_POLICIES),
    _Field("energy.link", "energy", [float]),
    _Field("energy.base", "energy", float, excludes=("energy.link",)),
    _Field("energy.level_ratio", "energy", float, excludes=("energy.link",)),
    _Field("energy.filter_lookup", "energy", float),
    _Field("network.layers", "network", [dict]),
    _Field("network.layer_size", "network", int, "[1, inf)", excludes=("network.layers",)),
    _Field("network.recurrent_layers", "network", int, "[0, inf)", excludes=("network.layers",)),
    _Field("network.feedforward_layers", "network", int, "[0, inf)", excludes=("network.layers",)),
    _Field("network.density", "network", float, "(0, 1]"),
    _Field("network.literal_fc", "network", bool),
    _Field("network.seed", "network_seed", int, "[0, inf)"),
    _Field("mapping.strategy", "strategy", str, ("sequential", "random_switch")),
    _Field("mapping.capacity", "capacity", int, "[1, inf)"),
    _Field("mapping.repetitions", "repetitions", int, "[1, inf)"),
    _Field("mapping.switch_prob", "switch_prob", float, "[0, 1]"),
    _Field("mapping.seed", "mapping_seed", int),
    _Field("trace.source", "trace_source", str, ("synth", "file")),
    _Field("trace.steps", "trace_steps", int, "[0, inf)"),
    _Field("trace.rate", "trace_rate", float, "[0, 1]"),
    _Field("trace.seed", "trace_seed", int, "[0, inf)"),
    _Field("trace.path", "trace_path", str),
    _Field("output.runs_csv", "runs_csv", str, "[1, inf)"),
    _Field("output.summary_json", "summary_json", str, "[1, inf)"),
)
_ROWS = {f.path: f for f in FIELDS}
_SECTIONS = {f.path.split(".")[0] for f in FIELDS if "." in f.path}
_KINDS = {int: "an integer", float: "a number", bool: "a boolean", str: "a string", dict: "a mapping"}


def _within(x: float, span: str) -> bool:
    lo, hi = (float(b) for b in span[1:-1].split(","))
    return (lo < x or x == lo and span[0] == "[") and (x < hi or x == hi and span[-1] == "]")


#: A number with an exponent, as text.  YAML 1.1 reads it as a float only with a
#: dot in the mantissa and a sign on the exponent, and as a string otherwise.
_EXPONENT = re.compile(r"([-+]?(?:[0-9]+\.?[0-9]*|\.[0-9]+))[eE]([-+]?)([0-9]+)")


def _exponent_hint(value: Any) -> str:
    """For a float field given such a string, how to write it so that YAML reads a
    number; otherwise nothing."""
    match = _EXPONENT.fullmatch(value) if isinstance(value, str) else None
    if match is None:
        return ""
    mantissa, sign, digits = match.groups()
    fixed = f"{mantissa}{'' if '.' in mantissa else '.0'}e{sign or '+'}{digits}"
    return f" (YAML 1.1 reads {value!r} as a string: an exponent needs a sign and a dot before it, as in {fixed})"


def _check(path: str, kind: Any, allowed: Any, value: Any, errors: list[str]) -> Any:
    """``value`` if it fits, else None and why in ``errors``; a list keeps None per bad item."""
    if isinstance(kind, list) and not (isinstance(value, list) and value):
        errors.append(f"{path}: must be a nonempty list")
    elif isinstance(kind, list):
        return [_check(f"{path}[{i}]", kind[0], allowed, v, errors) for i, v in enumerate(value)]
    elif type(value) not in ((int, float) if kind is float else (kind,)):
        errors.append(f"{path}: must be {_KINDS[kind]}{_exponent_hint(value) if kind is float else ''}")
    elif isinstance(allowed, tuple) and value not in allowed:
        errors.append(f"{path}: must be one of {allowed}, got {value!r}")
    elif isinstance(allowed, str) and not _within(len(value) if kind is str else value, allowed):
        errors.append(f"{path}: {'length ' * (kind is str)}must be in {allowed}, got {value!r}")
    else:
        return float(value) if kind is float else value
    return None


def _built(errors: list[str], label: str, build: Callable[..., Any], *args: Any, **kw: Any) -> Any:
    """``build(*args, **kw)``, or None with its error in ``errors`` under ``label``."""
    try:
        return build(*args, **kw)
    except (TypeError, ValueError) as exc:
        errors.append(f"{label}: {exc}")
    except OverflowError:
        errors.append(f"{label}: a value overflows a float")
    return None


class _UniqueKeyLoader(yaml.SafeLoader):
    """A safe YAML loader that rejects a repeated mapping key; PyYAML would keep the last value."""

    def construct_mapping(self, node: yaml.MappingNode, deep: bool = False) -> dict[Any, Any]:
        seen: list[Any] = []  # a list, as a key need not be hashable
        for key_node, _value_node in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # ``<<`` merges a mapping, it is no key
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.MarkedYAMLError(None, None, f"repeated key {key!r}", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)


def load_config(inp: IO[str]) -> ExperimentConfig:
    """Parse a YAML experiment config against :data:`FIELDS`, collecting every error at once.

    Text that is not UTF-8, or YAML that does not parse, holds a character
    YAML does not accept, or repeats a key, is one error naming the file
    and line.  A tree whose cores an index cannot count stops the checks
    there, before anything is sized by the tree.
    """
    name = getattr(inp, "name", "<config>")
    try:
        text = inp.read()
    except UnicodeDecodeError:
        # The error's position is in the decoder's last chunk; decoding the
        # whole file again gives the offset of the bad byte in the file.
        inp.buffer.seek(0)
        data = inp.buffer.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ConfigError([f"{name}:{line}: not UTF-8 text"]) from None
    try:
        raw = yaml.load(text, _UniqueKeyLoader)
    except yaml.reader.ReaderError as exc:  # it has a position in the text, not a line mark
        line = text.count("\n", 0, exc.position) + 1
        problem = f"unacceptable character #x{exc.character:04x}: {exc.reason}"
        raise ConfigError([f"{name}:{line}: {problem}"]) from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = name + (f":{mark.line + 1}" if mark else "")
        raise ConfigError([f"{where}: {getattr(exc, 'problem', None) or exc}"]) from None
    if not isinstance(raw, (dict, type(None))):
        raise ConfigError(["top level: config must be a mapping"])
    errors: list[str] = []
    given: dict[Any, Any] = {}
    for key, value in (raw or {}).items():
        if key not in _SECTIONS:
            given[key] = value
        elif isinstance(value, (dict, type(None))):
            given.update((f"{key}.{sub}", v) for sub, v in (value or {}).items())
        else:
            errors.append(f"{key}: must be a mapping")
    kw: dict[str, Any] = {}
    args: dict[str, dict[str, Any]] = {"tree": {}, "energy": {}, "network": {}}
    for path, value in given.items():
        row = _ROWS.get(path)
        if row is None or "." in path and path in raw:  # or a dotted key at the top level
            errors.append(f"{path}: unknown field")
            continue
        errors.extend(f"{path}: not allowed with {x}" for x in row.excludes if x in given)
        value = _check(path, row.kind, row.allowed, value, errors)
        if value is not None and row.keyword in args:
            args[row.keyword][path.split(".")[1]] = value
        elif value is not None:
            kw[row.keyword] = value
    defaults = ExperimentConfig()
    tree = _built(errors, "tree", replace, defaults.tree, **args["tree"])
    if tree is None:  # nothing is sized by a tree that cannot be built
        raise ConfigError(errors)
    link = args["energy"].pop("link", None)
    energy = _built(errors, "energy", EnergyModel.default, tree.levels, **args["energy"])
    if link is not None and len(link) != tree.levels:
        errors.append(f"energy.link: expected {tree.levels} levels, got {len(link)}")
    elif link is not None and energy is not None and None not in link:
        energy = _built(errors, "energy.link", replace, energy, link_energy_per_bit=tuple(link))
    layers = args["network"].pop("layers", None)
    network = _built(errors, "network", NetworkSpec.default_rsnn, **args["network"])
    for i, entry in enumerate(layers or ()):
        if entry is not None:
            at = f"network.layers[{i}]"
            errors.extend(f"{at}.{key}: unknown field" for key in entry if key not in ("size", "kind"))
            size = _check(f"{at}.size", int, "[1, inf)", entry.get("size"), errors)
            kind = _check(f"{at}.kind", str, LAYER_KINDS, entry.get("kind"), errors)
            layers[i] = Layer(size, kind) if size and kind else None
    if layers:
        network = replace(network, layers=tuple(layers)) if network and all(layers) else None
    kw["schemes"] = tuple(Scheme(s) for s in kw.get("schemes", defaults.schemes) if s is not None)
    for scheme, n in Counter(kw["schemes"]).items():
        _built(errors, f"schemes: {scheme.value}", address_class(scheme).width, tree)
        if n > 1:
            errors.append(f"schemes: {scheme.value} is listed {n} times")
    if network is not None:
        n, cores = network.total_neurons, tree.core_count
        capacity = kw.get("capacity", defaults.capacity)
        if n > cores * capacity:
            errors.append(f"mapping.capacity: {n} neurons exceed {cores} cores x {capacity}")
        if "tag_bits" in kw and (n - 1).bit_length() > kw["tag_bits"]:
            errors.append(f"tag_bits: {kw['tag_bits']} bits cannot hold neuron id {n - 1}")
    source = str(given.get("trace.source", defaults.trace_source))
    if source == "file" and "trace.path" not in given:
        errors.append("trace.path: required when trace.source is file")
    steps = kw.get("trace_steps", defaults.trace_steps)
    if source == "synth" and network is not None and steps * network.total_neurons > MAX_TRACE_DRAWS:
        n = network.total_neurons
        errors.append(f"trace.steps: {steps} steps x {n} neurons exceed {MAX_TRACE_DRAWS} draws")
    unread = {"synth": ["trace.path"], "file": ["trace.steps", "trace.rate", "trace.seed"]}.get(source, [])
    errors.extend(f"{p}: not read when trace.source is {source}" for p in unread if p in given)
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(tree=tree, energy=energy, network=network, **kw)


# ---------------------------------------------------------------------------
# running

@dataclass(frozen=True)
class RunRecord:
    """One (scheme, mapping repetition) cell of the experiment grid."""

    mapping_index: int
    mapping_seed: int
    dropped_spikes: int
    report: SimReport


@dataclass(frozen=True)
class ExperimentResult:
    rows: tuple[RunRecord, ...]
    summary: dict[str, Any]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Sweep the scheme x mapping grid over one trace.

    Every scheme sees the exact same traffic per mapping; reports come
    back scheme-major, schemes in config order, then by mapping index.
    """
    energy = config.energy_model()
    tag_bits = config.tag_width()
    if config.trace_source == "file":
        # A file trace is read before the connectivity, so a bad path costs nothing.
        try:
            with open(config.trace_path, "r", encoding="utf-8") as fh:
                trace = load_trace(fh, config.network.total_neurons)
        except OSError as exc:
            raise ValueError(f"trace.path: {config.trace_path}: {exc.strerror}") from None
        except ValueError as exc:
            raise ValueError(f"trace.path: {exc}") from None
    connectivity = generate_connectivity(config.network, config.network_seed)
    if config.trace_source != "file":
        trace = synth_trace(config.network, config.trace_steps, config.trace_rate, config.trace_seed)

    runs: dict[str, list[RunRecord]] = {s.value: [] for s in config.schemes}
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
        luts = build_core_luts(connectivity, mapping, config.tree.core_count)
        demand, dropped = derive_events(trace, luts, mapping, tag_bits)
        for scheme in config.schemes:
            report = simulate(
                demand, scheme, config.tree, energy, tag_bits=tag_bits, turnaround=config.turnaround
            )
            runs[scheme.value].append(RunRecord(rep, seed, dropped, report))

    rows = tuple(rec for recs in runs.values() for rec in recs)
    return ExperimentResult(rows=rows, summary=_summarize(runs, config))


#: Cross-scheme ratios in the summary: (name, numerator, denominator, statistic).
_COMPARISONS = (
    ("illegal_hbs_over_symbol", "hbs", "symbol", lambda s: s["illegal_deliveries"]),
    ("total_energy_hbs_over_symbol", "hbs", "symbol", lambda s: s["total_energy"]["sum"]),
    ("total_energy_hbs_over_fbs", "hbs", "fbs", lambda s: s["total_energy"]["sum"]),
)


def _summarize(runs: dict[str, list[RunRecord]], config: ExperimentConfig) -> dict[str, Any]:
    schemes: dict[str, Any] = {}
    for scheme, recs in runs.items():
        totals = [r.report.total_energy for r in recs]
        stats: dict[str, Any] = {
            "runs": len(recs),
            "total_energy": {
                "mean": statistics.fmean(totals),
                "min": min(totals),
                "max": max(totals),
                "sum": sum(totals),
            },
        }
        for f in fields(SimReport):
            if f.name not in ("scheme", "events", "total_energy"):  # total_energy is nested above
                key = f"{f.name}_sum" if f.name.endswith("_energy") else f.name
                stats[key] = sum(getattr(r.report, f.name) for r in recs)
        schemes[scheme] = stats

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
        "dropped_spikes_total": next((r.dropped_spikes for recs in runs.values() for r in recs), 0),
        "schemes": schemes,
        "comparisons": comparisons,
    }


RUNS_CSV_HEADER = (
    "scheme",
    "mapping_index",
    "mapping_seed",
    "dropped_spikes",
) + tuple(f.name for f in fields(SimReport))[1:]


def write_runs_csv(records: Sequence[RunRecord], out: IO[str]) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(RUNS_CSV_HEADER)
    for rec in records:
        writer.writerow(
            (rec.report.scheme, rec.mapping_index, rec.mapping_seed, rec.dropped_spikes)
            + astuple(rec.report)[1:]
        )


def write_summary_json(summary: dict[str, Any], out: IO[str]) -> None:
    json.dump(summary, out, indent=2, sort_keys=True)
    out.write("\n")
