"""Synthetic spike-traffic workload: connectivity, core mapping, firing traces.

Only the fan-out graph and the firing lists matter to the interconnect,
so there are no neuron dynamics here.  A network is an ordered stack of
layers; recurrent layers get random intra-layer edges, and every
consecutive layer pair gets random inter-layer edges, all at a
configurable density, held as CSR arrays behind a read-only mapping.
Neurons are packed onto cores in id order, either strictly sequentially
or with random core switches, and a firing trace is an independent
Bernoulli draw per neuron per timestep.  The per-core LUTs of legal
sources are stored as one core bitmask per source tag, which is also the
neuron's destination core set: :func:`derive_events` reads it there.

Traces round-trip through a small CSV-style text file so externally
recorded traffic can be substituted for the synthetic one.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .addressing import TreeConfig

LAYER_KINDS = ("recurrent", "feedforward")

#: Source tags are at least this wide regardless of network size.
MIN_TAG_BITS = 10

#: Rows of uniform draws held at once while drawing a connectivity block.
DRAW_ROWS = 256


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


class Connectivity(Mapping[int, np.ndarray]):
    """Read-only fan-out graph in CSR form: neuron id -> sorted target ids.

    The targets of neuron n are ``targets[indptr[n]:indptr[n + 1]]``.
    """

    def __init__(self, indptr: Sequence[int], targets: Sequence[int]) -> None:
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.targets = np.asarray(targets, dtype=np.int32)
        self.indptr.flags.writeable = self.targets.flags.writeable = False

    def __getitem__(self, neuron: int) -> np.ndarray:
        if not 0 <= neuron < len(self):
            raise KeyError(neuron)
        return self.targets[self.indptr[neuron] : self.indptr[neuron + 1]]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connectivity):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(self.targets, other.targets)


def _draw_block(rng: np.random.Generator, rows: int, cols: int, density: float) -> np.ndarray:
    """The block ``rng.random((rows, cols)) < density``, drawn ``DRAW_ROWS`` rows at a time."""
    block = np.empty((rows, cols), dtype=bool)
    for start in range(0, rows, DRAW_ROWS):
        chunk = block[start : start + DRAW_ROWS]
        np.less(rng.random(chunk.shape), density, out=chunk)
    return block


def generate_connectivity(spec: NetworkSpec, seed: int) -> Connectivity:
    """Random fan-out graph: source neuron id -> sorted target neuron ids.

    Recurrent layers draw every ordered intra-layer pair (self-edges
    excluded) at the spec density; every consecutive layer pair draws
    all cross pairs, at density 1.0 for transitions into feedforward
    layers when ``literal_fc`` is set.  A layer's recurrent block and its
    block into the next layer span ascending target ids side by side, so
    their row-major hits list each source's targets in sorted order.
    """
    rng = np.random.default_rng(seed)
    ranges = spec.layer_ranges()
    counts, targets = [], []
    for li, layer in enumerate(spec.layers):
        blocks = [np.zeros((layer.size, 0), dtype=bool)]
        if layer.kind == "recurrent":
            blocks.append(_draw_block(rng, layer.size, layer.size, spec.density))
            np.fill_diagonal(blocks[-1], False)
        if li + 1 < len(spec.layers):
            density = spec.density
            if spec.literal_fc and spec.layers[li + 1].kind == "feedforward":
                density = 1.0
            blocks.append(_draw_block(rng, layer.size, spec.layers[li + 1].size, density))
        first = ranges[li].start if layer.kind == "recurrent" else ranges[li].stop
        hits = np.hstack(blocks)
        counts.append(np.count_nonzero(hits, axis=1))
        targets.append((np.flatnonzero(hits) % hits.shape[1] + first).astype(np.int32))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    return Connectivity(indptr, np.concatenate(targets))


def map_neurons(
    spec: NetworkSpec,
    cfg: TreeConfig,
    strategy: str = "sequential",
    capacity: int = 40,
    seed: int = 0,
    switch_prob: float = 0.05,
) -> tuple[int, ...]:
    """Assign neurons to cores in id order; returns the core of each neuron id.

    ``sequential`` fills core 0 to capacity, then core 1, and so on.
    ``random_switch`` additionally jumps to a random non-full core with
    probability ``switch_prob`` per neuron, and always jumps when the
    current core is full.  Either way every core is in ``[0, N)`` and
    holds at most ``capacity`` neurons.  The jump draws from an ascending
    list of the non-full cores, which loses a core when it fills, so a
    jump costs no scan of the N cores.
    """
    total = spec.total_neurons
    n_cores = cfg.core_count
    if total > n_cores * capacity:
        raise ValueError(
            f"{total} neurons exceed {n_cores} cores x {capacity} capacity"
        )
    if strategy == "sequential":
        return tuple(n // capacity for n in range(total))
    if strategy != "random_switch":
        raise ValueError(f"unknown mapping strategy {strategy!r}")
    rng = random.Random(seed)
    counts = [0] * n_cores
    open_cores = list(range(n_cores))  # the non-full cores, ascending
    current = 0
    assignment = []
    for _ in range(total):
        if counts[current] >= capacity or rng.random() < switch_prob:
            # The candidates are the open cores but current; choosing an index
            # into them draws what rng.choice over that list would.
            at = bisect.bisect_left(open_cores, current)
            here = at < len(open_cores) and open_cores[at] == current
            m = len(open_cores) - here
            if m:
                i = rng.choice(range(m))
                current = open_cores[i + 1 if here and i >= at else i]
        assignment.append(current)
        counts[current] += 1
        if counts[current] == capacity:
            del open_cores[bisect.bisect_left(open_cores, current)]
    return tuple(assignment)


@dataclass(frozen=True)
class SpikeTrace:
    """Firing list: (timestep, neuron id) events, nondecreasing in timestep
    (:func:`load_trace` checks that order, and :func:`synth_trace` builds it)."""

    events: tuple[tuple[int, int], ...]

    @cached_property
    def spike_counts(self) -> dict[int, int]:
        """Spikes per neuron id, in first-spike order; counted on first read."""
        return dict(Counter(neuron for _t, neuron in self.events))


def synth_trace(spec: NetworkSpec, steps: int = 400, rate: float = 0.05, seed: int = 0) -> SpikeTrace:
    """Independent Bernoulli firing at ``rate`` per neuron per step."""
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    rng = np.random.default_rng(seed)
    fires = rng.random((steps, spec.total_neurons)) < rate
    # Row by row: column lists of the whole np.argwhere are as fast, but their
    # buffers raise the peak resident memory of a run.
    events: list[tuple[int, int]] = []
    for t, row in enumerate(fires):
        events.extend((t, n) for n in np.flatnonzero(row).tolist())
    return SpikeTrace(tuple(events))


def save_trace(trace: SpikeTrace, out: IO[str]) -> None:
    out.write("timestep,neuron_id\n")
    for t, n in trace.events:
        out.write(f"{t},{n}\n")


def load_trace(inp: IO[str], neurons: int) -> SpikeTrace:
    """Read a trace file of a ``neurons``-neuron network.

    This is where a trace from outside the program is checked: a malformed
    line, a timestep below 0 or below the one before, or a neuron id outside
    ``[0, neurons)`` raises ValueError naming the file and line number.
    """
    name = getattr(inp, "name", "<trace>")
    header = inp.readline().strip()
    if header != "timestep,neuron_id":
        raise ValueError(f"{name}:1: bad trace header {header!r}")
    events = []
    for lineno, line in enumerate(inp, start=2):
        line = line.strip()
        if not line:
            continue
        try:
            t_text, n_text = line.split(",")
            t, n = int(t_text), int(n_text)
        except ValueError:
            raise ValueError(f"{name}:{lineno}: expected two integers, got {line!r}") from None
        last = events[-1][0] if events else 0
        if t < last:
            raise ValueError(f"{name}:{lineno}: timestep {t} is below {last}; it must not decrease")
        if not 0 <= n < neurons:
            raise ValueError(f"{name}:{lineno}: neuron id {n} is outside the network's {neurons} neurons")
        events.append((t, n))
    return SpikeTrace(tuple(events))


def derive_events(
    trace: SpikeTrace,
    luts: Sequence[int],
    mapping: Sequence[int],
    tag_bits: int,
) -> tuple[list[tuple[int, tuple[tuple[int, int], ...]]], int]:
    """The trace's traffic, one entry per distinct destination core mask:
    (mask, ((source core, spike count), ...)).

    A neuron's mask is its LUT row, and the trace's ``spike_counts`` are
    summed per source core under each mask; masks and their senders are
    listed in first-spike order.  The neuron id is the source tag: it must
    fit ``tag_bits`` and have a LUT row and a core, or it raises.  Spikes
    of a neuron whose row is 0 (an empty fan-out) make no entry; their
    count is returned alongside the entries.
    """
    demand: dict[int, dict[int, int]] = {}
    dropped = 0
    for neuron, count in trace.spike_counts.items():
        if neuron >= 1 << tag_bits:
            raise ValueError(
                f"neuron id {neuron} does not fit in {tag_bits} tag bits; "
                f"need at least {default_tag_bits(neuron + 1)}"
            )
        if not 0 <= neuron < len(luts):
            raise ValueError(f"neuron id {neuron} is outside the network's {len(luts)} neurons")
        if neuron >= len(mapping):
            raise ValueError(f"unmapped neuron {neuron}")
        mask = luts[neuron]
        if mask:
            senders, core = demand.setdefault(mask, {}), mapping[neuron]
            senders[core] = senders.get(core, 0) + count
        else:
            dropped += count
    return [(mask, tuple(senders.items())) for mask, senders in demand.items()], dropped


def build_core_luts(
    connectivity: Connectivity,
    mapping: Sequence[int],
    n_cores: int,
) -> tuple[int, ...]:
    """Legal-source LUTs by tag: bit c of ``luts[tag]`` is set when core c's
    LUT holds the tag, that is when the neuron has a synapse onto core c.
    ``mapping`` holds the core of each neuron id; one outside ``[0, n_cores)``
    raises, where numpy would index a negative core from the end."""
    for neuron, core in enumerate(mapping):
        if not 0 <= core < n_cores:
            raise ValueError(f"neuron {neuron} is mapped to core {core}, outside the {n_cores} cores")
    listen = np.zeros((len(connectivity), n_cores), dtype=bool)
    sources = np.repeat(np.arange(len(connectivity), dtype=np.int32), np.diff(connectivity.indptr))
    listen[sources, np.asarray(mapping, dtype=np.int32)[connectivity.targets]] = True
    packed = np.packbits(listen, axis=1, bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))
