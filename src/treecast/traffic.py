"""Synthetic spike-traffic workload: connectivity, core mapping, firing traces.

Only the fan-out graph and the firing lists matter to the interconnect,
so there are no neuron dynamics here.  A network is an ordered stack of
layers; recurrent layers get random intra-layer edges, and every
consecutive layer pair gets random inter-layer edges, all at a
configurable density.  Neurons are packed onto cores in id order, either
strictly sequentially or with random core switches, and a firing trace
is an independent Bernoulli draw per neuron per timestep.

Traces round-trip through a small CSV-style text file so externally
recorded traffic can be substituted for the synthetic one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import IO, Mapping, Sequence

import numpy as np

from .addressing import TreeConfig

LAYER_KINDS = ("recurrent", "feedforward")

#: Source tags are at least this wide regardless of network size.
MIN_TAG_BITS = 10


@dataclass(frozen=True)
class Layer:
    size: int
    kind: str

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"layer size must be >= 1, got {self.size}")
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class NetworkSpec:
    """Layer stack plus the edge probability used for every candidate pair."""

    layers: tuple[Layer, ...]
    density: float = 0.1
    literal_fc: bool = False  # wire transitions into feedforward layers at density 1.0

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("network needs at least one layer")
        if not 0.0 < self.density <= 1.0:
            raise ValueError(f"density must be in (0, 1], got {self.density}")

    @property
    def total_neurons(self) -> int:
        return sum(layer.size for layer in self.layers)

    def layer_ranges(self) -> tuple[range, ...]:
        """Global neuron-id range of each layer, in layer order."""
        ranges = []
        start = 0
        for layer in self.layers:
            ranges.append(range(start, start + layer.size))
            start += layer.size
        return tuple(ranges)

    @classmethod
    def default_rsnn(
        cls,
        layer_size: int = 100,
        recurrent_layers: int = 3,
        feedforward_layers: int = 3,
        density: float = 0.1,
        literal_fc: bool = False,
    ) -> "NetworkSpec":
        layers = tuple(Layer(layer_size, "recurrent") for _ in range(recurrent_layers)) + tuple(
            Layer(layer_size, "feedforward") for _ in range(feedforward_layers)
        )
        return cls(layers=layers, density=density, literal_fc=literal_fc)


def default_tag_bits(total_neurons: int) -> int:
    """Source-tag width: enough bits for every neuron id, never below 10."""
    need = max(1, (total_neurons - 1).bit_length())
    return max(MIN_TAG_BITS, need)


def generate_connectivity(spec: NetworkSpec, seed: int) -> dict[int, tuple[int, ...]]:
    """Random fan-out graph: source neuron id -> sorted target neuron ids.

    Recurrent layers draw every ordered intra-layer pair (self-edges
    excluded) at the spec density; every consecutive layer pair draws
    all cross pairs, at density 1.0 for transitions into feedforward
    layers when ``literal_fc`` is set.
    """
    rng = np.random.default_rng(seed)
    ranges = spec.layer_ranges()
    targets: dict[int, list[int]] = {n: [] for n in range(spec.total_neurons)}

    def wire(sources: range, sinks: range, density: float, skip_self: bool) -> None:
        draw = rng.random((len(sources), len(sinks)))
        hits = draw < density
        for i, s in enumerate(sources):
            row = np.flatnonzero(hits[i])
            ts = [sinks[j] for j in row]
            if skip_self:
                ts = [t for t in ts if t != s]
            targets[s].extend(ts)

    for li, layer in enumerate(spec.layers):
        if layer.kind == "recurrent":
            wire(ranges[li], ranges[li], spec.density, skip_self=True)
        if li + 1 < len(spec.layers):
            density = spec.density
            if spec.literal_fc and spec.layers[li + 1].kind == "feedforward":
                density = 1.0
            wire(ranges[li], ranges[li + 1], density, skip_self=False)

    return {n: tuple(sorted(ts)) for n, ts in targets.items()}


@dataclass(frozen=True)
class NeuronMapping:
    """Placement of every neuron onto a core, respecting a per-core capacity."""

    assignment: tuple[int, ...]  # core index per neuron id
    core_capacity: int

    def __post_init__(self) -> None:
        counts: dict[int, int] = {}
        for core in self.assignment:
            counts[core] = counts.get(core, 0) + 1
            if counts[core] > self.core_capacity:
                raise ValueError(f"core {core} exceeds capacity {self.core_capacity}")

    def __getitem__(self, neuron: int) -> int:
        return self.assignment[neuron]


def map_neurons(
    spec: NetworkSpec,
    cfg: TreeConfig,
    strategy: str = "sequential",
    capacity: int = 40,
    seed: int = 0,
    switch_prob: float = 0.05,
) -> NeuronMapping:
    """Assign neurons to cores in id order.

    ``sequential`` fills core 0 to capacity, then core 1, and so on.
    ``random_switch`` additionally jumps to a random non-full core with
    probability ``switch_prob`` per neuron, and always jumps when the
    current core is full.
    """
    total = spec.total_neurons
    n_cores = cfg.core_count
    if total > n_cores * capacity:
        raise ValueError(
            f"{total} neurons exceed {n_cores} cores x {capacity} capacity"
        )
    if strategy == "sequential":
        return NeuronMapping(
            assignment=tuple(n // capacity for n in range(total)),
            core_capacity=capacity,
        )
    if strategy != "random_switch":
        raise ValueError(f"unknown mapping strategy {strategy!r}")
    rng = random.Random(seed)
    counts = [0] * n_cores
    current = 0
    assignment = []
    for _ in range(total):
        if counts[current] >= capacity or rng.random() < switch_prob:
            candidates = [c for c in range(n_cores) if counts[c] < capacity and c != current]
            if candidates:
                current = rng.choice(candidates)
        assignment.append(current)
        counts[current] += 1
    return NeuronMapping(assignment=tuple(assignment), core_capacity=capacity)


@dataclass(frozen=True)
class SpikeTrace:
    """Firing list: (timestep, neuron id) events, nondecreasing in timestep."""

    steps: int
    events: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        last = -1
        for t, _n in self.events:
            if not 0 <= t < self.steps:
                raise ValueError(f"timestep {t} out of range [0, {self.steps})")
            if t < last:
                raise ValueError("trace events must be nondecreasing in timestep")
            last = t


def synth_trace(spec: NetworkSpec, steps: int = 400, rate: float = 0.05, seed: int = 0) -> SpikeTrace:
    """Independent Bernoulli firing at ``rate`` per neuron per step."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    fires = rng.random((steps, spec.total_neurons)) < rate
    events = tuple((int(t), int(n)) for t, n in np.argwhere(fires))
    return SpikeTrace(steps=steps, events=events)


def save_trace(trace: SpikeTrace, out: IO[str]) -> None:
    out.write("timestep,neuron_id\n")
    for t, n in trace.events:
        out.write(f"{t},{n}\n")


def load_trace(inp: IO[str], steps: int | None = None) -> SpikeTrace:
    """Read a trace file; ``steps`` defaults to last timestep + 1."""
    header = inp.readline().strip()
    if header != "timestep,neuron_id":
        raise ValueError(f"bad trace header {header!r}")
    events = []
    for line in inp:
        line = line.strip()
        if not line:
            continue
        t_text, n_text = line.split(",")
        events.append((int(t_text), int(n_text)))
    if steps is None:
        steps = events[-1][0] + 1 if events else 0
    return SpikeTrace(steps=steps, events=tuple(events))


def derive_events(
    trace: SpikeTrace,
    connectivity: Mapping[int, Sequence[int]],
    mapping: NeuronMapping,
    tag_bits: int,
) -> tuple[list[tuple[int, frozenset[int]]], int]:
    """Turn spikes into (source tag, destination core set) events.

    The tag is the global neuron id and must fit ``tag_bits``.  Spikes
    whose fan-out is empty produce no event; the count of those dropped
    spikes is returned alongside the event list.
    """
    limit = 1 << tag_bits
    events: list[tuple[int, frozenset[int]]] = []
    dropped = 0
    core_cache: dict[int, frozenset[int]] = {}
    for _t, neuron in trace.events:
        if neuron >= limit:
            raise ValueError(
                f"neuron id {neuron} does not fit in {tag_bits} tag bits; "
                f"need at least {default_tag_bits(neuron + 1)}"
            )
        cores = core_cache.get(neuron)
        if cores is None:
            cores = frozenset(mapping[t] for t in connectivity.get(neuron, ()))
            core_cache[neuron] = cores
        if not cores:
            dropped += 1
            continue
        events.append((neuron, cores))
    return events, dropped


def build_core_luts(
    connectivity: Mapping[int, Sequence[int]],
    mapping: NeuronMapping,
    n_cores: int,
) -> tuple[frozenset[int], ...]:
    """Per-core legal-source sets: tags of neurons with a synapse onto the core."""
    luts: list[set[int]] = [set() for _ in range(n_cores)]
    for source, targets in connectivity.items():
        for t in targets:
            luts[mapping[t]].add(source)
    return tuple(frozenset(s) for s in luts)
