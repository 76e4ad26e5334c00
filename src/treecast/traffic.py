"""Synthetic spike-traffic workload: connectivity, core mapping, firing traces.

Only the fan-out graph and the firing lists matter to the interconnect,
so there are no neuron dynamics here.  A network is an ordered stack of
layers; recurrent layers get random intra-layer edges, and every
consecutive layer pair gets random inter-layer edges, all at a
configurable density, held as CSR arrays behind a read-only mapping.
The edges are the uniforms of one ``default_rng(seed)`` stream taken
block by block, row-major, so row r of a block of c columns that starts at
stream offset o reads draws ``o + r * c`` onwards.  Each chunk of
``DRAW_ROWS`` source rows is drawn on its own from a generator advanced to
that offset, which lets the chunks run on a thread pool: one thread per
``DRAWS_PER_THREAD`` draws of the network, at most one per CPU, and no
pool for one thread.  The chunks are mapped over twice: the first pass
packs their hits 1 bit per draw into one buffer and writes their edge
counts into the indptr, the second unpacks the bits into one target array
of exactly the edge count, so drawing holds 4 bytes per edge, 1 bit per
draw, the indptr and each thread's scratch.
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
import os
import random
import threading
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterator, Mapping, Sequence

import numpy as np

from .addressing import TreeConfig

LAYER_KINDS = ("recurrent", "feedforward")

#: Source tags are at least this wide regardless of network size.
MIN_TAG_BITS = 10

#: Source rows per job of :func:`generate_connectivity`, and per block of
#: :func:`build_core_luts`.
DRAW_ROWS = 256

#: Source rows per piece that pass 2 of :func:`generate_connectivity` unpacks
#: at once; a multiple of 8, so that every piece starts on a byte.
FILL_ROWS = 32

#: Uniform draws of a network that pay for one more drawing thread.
DRAWS_PER_THREAD = 1 << 22

#: The most uniforms :func:`synth_trace` draws, steps x neurons: 1 GiB of
#: float64 in its one call.
MAX_TRACE_DRAWS = 1 << 27


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
    :func:`generate_connectivity` counts each row's targets straight into
    ``indptr``, then allocates ``targets`` once, at its exact size, and
    fills it from one buffer of hit bits packed 1 per draw, so building the
    graph takes 4 bytes per edge, 8 per neuron, 1 bit per draw and
    per-thread scratch.
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


#: A block of source rows x target columns: (stream offset, columns, density, drop diagonal).
Part = tuple[int, int, float, bool]


def _layer_parts(spec: NetworkSpec) -> list[tuple[range, int, tuple[Part, ...]]]:
    """Per layer, its neuron ids, its first target id and its parts: the
    recurrent block, then the block into the next layer.  A part's offset is
    where the one-stream draw of every block in turn reaches it."""
    offset = 0
    layers = []
    for li, (layer, ids) in enumerate(zip(spec.layers, spec.layer_ranges())):
        parts = []
        if layer.kind == "recurrent":
            parts.append((offset, layer.size, spec.density, True))
            offset += layer.size * layer.size
        if li + 1 < len(spec.layers):
            after = spec.layers[li + 1]
            density = 1.0 if spec.literal_fc and after.kind == "feedforward" else spec.density
            parts.append((offset, after.size, density, False))
            offset += layer.size * after.size
        first = ids.start if layer.kind == "recurrent" else ids.stop
        layers.append((ids, first, tuple(parts)))
    return layers


def _draw_rows(seed: int, parts: tuple[Part, ...], start: int, rows: int, floats, hits, counts, packed) -> None:
    """Pass 1 of a job: write the targets per source row of rows
    ``start:start + rows`` of one layer into ``counts``, and the row-major
    hit rows packed 8 draws to a byte into ``packed``.

    Each part's rows are drawn from the seed's stream advanced to where the
    one-stream draw reaches them.  The parts fill the hit rows side by side,
    so the row-major hits list each source's targets in ascending order.
    ``floats`` and ``hits`` are flat scratch buffers large enough for the rows.
    """
    width = sum(cols for _offset, cols, _density, _drop in parts)
    hit = hits[: rows * width].reshape(rows, width)
    at = 0
    for offset, cols, density, drop_diagonal in parts:
        stream = np.random.PCG64(seed)
        stream.advance(offset + start * cols)
        drawn = floats[: rows * cols].reshape(rows, cols)
        np.random.Generator(stream).random(out=drawn)
        block = hit[:, at : at + cols]
        np.less(drawn, density, out=block)
        if drop_diagonal:
            np.fill_diagonal(block[:, start:], False)
        at += cols
    counts[:] = hit.view(np.uint8).sum(axis=1, dtype=np.int32)  # 2.5x faster than bools or int64 sums
    packed[:] = np.packbits(hit)


def _fill_rows(packed: np.ndarray, parts: tuple[Part, ...], rows: int, first: int, out: np.ndarray) -> None:
    """Pass 2 of a job: write the target ids of its ``rows`` packed hit rows,
    whose first column is target ``first``, into ``out``, ``FILL_ROWS`` rows
    at a time, so the unpacked bits and their indices stay small."""
    width = sum(cols for _offset, cols, _density, _drop in parts)
    at = 0
    for row in range(0, rows, FILL_ROWS):
        # The piece starts on a byte as FILL_ROWS is a multiple of 8; the last
        # byte is padded, so only the first count bits are draws.  nonzero
        # reads bools several times faster than the unpacked bytes.
        bits = np.unpackbits(packed[row * width // 8 :], count=min(FILL_ROWS, rows - row) * width)
        hit_at = np.flatnonzero(bits.view(bool))
        np.remainder(hit_at, width, out=hit_at)
        np.add(hit_at, first, out=out[at : at + hit_at.size], casting="unsafe")
        at += hit_at.size


def generate_connectivity(spec: NetworkSpec, seed: int) -> Connectivity:
    """Random fan-out graph: source neuron id -> sorted target neuron ids.

    Recurrent layers draw every ordered intra-layer pair (self-edges
    excluded) at the spec density; every consecutive layer pair draws
    all cross pairs, at density 1.0 for transitions into feedforward
    layers when ``literal_fc`` is set.

    The draws are those of one ``default_rng(seed)`` stream of uniforms
    taken block by block, row-major: per layer, its recurrent block, then
    its block into the next layer.  Row r of a block of c columns that
    starts at offset o of the stream reads draws ``o + r * c`` onwards.  So
    every chunk of ``DRAW_ROWS`` source rows of a layer is an independent
    job that advances a fresh ``PCG64(seed)`` to its rows.  The jobs run on
    one thread per ``DRAWS_PER_THREAD`` uniform draws of the whole network,
    at least one and at most one per CPU this process may run on: one
    thread is the caller's own, more are a thread pool's.

    Every job runs twice.  Pass 1 draws its rows, writes their edge counts
    into its rows of the indptr and packs their hits 1 bit per draw into
    its own bytes of one buffer.  Between the passes a running sum turns
    the counts into the indptr, whose last entry sizes one target array.
    Pass 2 unpacks each job's bits, ``FILL_ROWS`` rows at a time, straight
    into its slice of that array.  So the peak holds 4 bytes per edge, 1
    bit per draw and 8 bytes per neuron (the indptr), plus the scratch of
    each thread: a job's floats and hits in pass 1, a piece's unpacked bits
    and hit indices in pass 2.  The first job error reaches the caller with
    the job's frames, after the queued jobs are cancelled and every pool
    thread has ended.
    """
    layers = _layer_parts(spec)
    jobs = [
        (parts, start, min(DRAW_ROWS, len(ids) - start), first, ids.start + start)
        for ids, first, parts in layers
        for start in range(0, len(ids), DRAW_ROWS)
    ]
    columns = [[cols for _offset, cols, _density, _drop in parts] for _ids, _first, parts in layers]
    draws = sum(len(ids) * sum(cols) for (ids, _first, _parts), cols in zip(layers, columns))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    threads = max(1, min(draws // DRAWS_PER_THREAD, cpus, len(jobs)))
    sizes = (DRAW_ROWS * max(max(c, default=0) for c in columns), DRAW_ROWS * max(sum(c) for c in columns))
    # Job i packs its hit bits into bytes ends[i]:ends[i + 1], so every job starts on a byte.
    ends = [0]
    for parts, _start, rows, _first, _row in jobs:
        ends.append(ends[-1] + (rows * sum(cols for _offset, cols, _density, _drop in parts) + 7) // 8)
    packed = np.empty(ends[-1], dtype=np.uint8)
    indptr = np.zeros(spec.total_neurons + 1, dtype=np.int64)
    scratch = threading.local()

    def draw_job(i: int) -> None:
        parts, start, rows, _first, row = jobs[i]
        if not hasattr(scratch, "floats"):  # the thread's first job
            scratch.floats, scratch.hits = np.empty(sizes[0]), np.empty(sizes[1], dtype=bool)
        counts = indptr[row + 1 : row + rows + 1]
        _draw_rows(seed, parts, start, rows, scratch.floats, scratch.hits, counts, packed[ends[i] : ends[i + 1]])

    def fill_job(i: int) -> None:
        parts, _start, rows, first, row = jobs[i]
        _fill_rows(packed[ends[i] : ends[i + 1]], parts, rows, first, targets[indptr[row] : indptr[row + rows]])

    pool = None
    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # an import that one thread need not pay for

        pool = ThreadPoolExecutor(threads)
    run = map if pool is None else pool.map
    try:
        list(run(draw_job, range(len(jobs))))
        del scratch  # frees every thread's pass-1 scratch
        targets = np.empty(np.cumsum(indptr, out=indptr)[-1], dtype=np.int32)
        list(run(fill_job, range(len(jobs))))
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return Connectivity(indptr, targets)


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
    """Independent Bernoulli firing at ``rate`` per neuron per step.

    It draws one uniform per neuron per step, in one call, so ``steps``
    times the neuron count must be at most :data:`MAX_TRACE_DRAWS`.
    """
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"rate must be in [0, 1], got {rate}")
    if steps * spec.total_neurons > MAX_TRACE_DRAWS:
        n = spec.total_neurons
        raise ValueError(f"{steps} steps x {n} neurons exceed {MAX_TRACE_DRAWS} draws")
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
    fit ``tag_bits`` and have a LUT row and a core, or it raises.  Those
    checks are one test of the lowest and highest id against the smallest
    of the three bounds; only when it fails are the ids checked one by one,
    in ``spike_counts`` order, so the message names the first offender and
    its first failed check.  Spikes of a neuron whose row is 0 (an empty
    fan-out) make no entry; their count is returned alongside the entries.
    """
    counts = trace.spike_counts
    if counts and not 0 <= min(counts) <= max(counts) < min(1 << tag_bits, len(luts), len(mapping)):
        for neuron in counts:
            if neuron >= 1 << tag_bits:
                raise ValueError(
                    f"neuron id {neuron} does not fit in {tag_bits} tag bits; "
                    f"need at least {default_tag_bits(neuron + 1)}"
                )
            if not 0 <= neuron < len(luts):
                raise ValueError(f"neuron id {neuron} is outside the network's {len(luts)} neurons")
            if neuron >= len(mapping):
                raise ValueError(f"unmapped neuron {neuron}")
    demand: dict[int, dict[int, int]] = {}
    dropped = 0
    for neuron, count in counts.items():
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
    raises, where numpy would index a negative core from the end.  That check
    is one test of the lowest and highest core; only when it fails, or a core
    does not fit an index, are the cores checked one by one, so the message
    names the first offender.  The tags x cores bit matrix is filled and
    packed ``DRAW_ROWS`` tags at a time; ``take`` gathers each block's cores
    from the mapping, faster than fancy indexing with the int32 targets."""
    try:
        core_of = np.asarray(mapping, dtype=np.intp)
        fits = not len(core_of) or 0 <= core_of.min() <= core_of.max() < n_cores
    except OverflowError:  # a core beyond an index: the loop below names it
        fits = False
    if not fits:
        for neuron, core in enumerate(mapping):
            if not 0 <= core < n_cores:
                raise ValueError(f"neuron {neuron} is mapped to core {core}, outside the {n_cores} cores")
    indptr = connectivity.indptr
    listen = np.zeros((min(DRAW_ROWS, len(connectivity)), n_cores), dtype=bool)
    width = -(-n_cores // 8)
    luts: list[int] = []
    for start in range(0, len(connectivity), DRAW_ROWS):
        # Set bit (row, core) of every edge of the block's source rows at once.
        block = listen[: min(DRAW_ROWS, len(connectivity) - start)].reshape(-1)
        block[:] = False
        ends = indptr[start : start + DRAW_ROWS + 1]
        spots = np.repeat(np.arange(0, block.size, n_cores), np.diff(ends))
        spots += core_of.take(connectivity.targets[ends[0] : ends[-1]])
        block[spots] = True
        data = np.packbits(block.reshape(-1, n_cores), axis=1, bitorder="little").tobytes()
        luts.extend(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))
    return tuple(luts)
