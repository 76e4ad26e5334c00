import io
import itertools
import os
import re
import sys
import threading
import tracemalloc
import traceback
from collections import Counter
from functools import cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from treecast.addressing import TreeConfig
from treecast.experiment import default_config
from treecast.traffic import (
    DRAW_ROWS,
    LAYER_KINDS,
    Connectivity,
    Layer,
    NetworkSpec,
    SpikeTrace,
    build_core_luts,
    derive_events,
    generate_connectivity,
    load_trace,
    map_neurons,
    save_trace,
    synth_trace,
    _draw_rows,
    _fill_rows,
)
from treecast import traffic

import oracles

SMALL = NetworkSpec((Layer(20, "recurrent"), Layer(15, "feedforward"), Layer(10, "recurrent")), 0.3)


def test_trace_round_trip():
    trace = synth_trace(SMALL, steps=30, rate=0.1, seed=3)
    assert trace.events
    buf = io.StringIO()
    save_trace(trace, buf)
    buf.seek(0)
    assert load_trace(buf, SMALL.total_neurons) == trace


def test_synth_trace_events_are_plain_int_pairs():
    spec = NetworkSpec.default_rsnn(50)
    fires = np.random.default_rng(9).random((40, spec.total_neurons)) < 0.05
    trace = synth_trace(spec, steps=40, rate=0.05, seed=9)
    assert trace.events == tuple((int(t), int(n)) for t, n in np.argwhere(fires))
    assert trace.events
    assert all(type(t) is int and type(n) is int for t, n in trace.events)


def test_synth_trace_is_bounded_by_its_draws(monkeypatch):
    # One step over the bound is rejected before anything is drawn.
    steps = traffic.MAX_TRACE_DRAWS // SMALL.total_neurons + 1
    with pytest.raises(ValueError, match=f"^{steps} steps x 45 neurons exceed {traffic.MAX_TRACE_DRAWS} draws$"):
        synth_trace(SMALL, steps=steps)
    # A bound of 3 steps of SMALL: at it the trace is drawn, one step over it is not.
    monkeypatch.setattr(traffic, "MAX_TRACE_DRAWS", 3 * SMALL.total_neurons)
    assert synth_trace(SMALL, steps=3, rate=1.0).events == tuple(
        (t, n) for t in range(3) for n in range(SMALL.total_neurons)
    )
    with pytest.raises(ValueError, match=f"^4 steps x 45 neurons exceed {3 * 45} draws$"):
        synth_trace(SMALL, steps=4, rate=1.0)


def test_load_trace_rejects_bad_header():
    with pytest.raises(ValueError, match="header"):
        load_trace(io.StringIO("time,neuron\n0,1\n"), 2)


def test_load_trace_names_the_line_of_a_negative_first_timestep():
    with pytest.raises(ValueError, match="^<trace>:2: timestep -1 is below 0; it must not decrease$"):
        load_trace(io.StringIO("timestep,neuron_id\n-1,0\n0,1\n"), 2)


def test_load_trace_names_the_line_of_a_neuron_outside_the_network():
    text = "timestep,neuron_id\n0,1\n1,599\n1,-3\n2,600\n"
    assert len(load_trace(io.StringIO(text.replace("1,-3\n", "")), 601).events) == 3
    with pytest.raises(ValueError, match="^<trace>:4: neuron id -3 is outside the network's 600 neurons$"):
        load_trace(io.StringIO(text), 600)
    with pytest.raises(ValueError, match="^<trace>:4: neuron id 600 is outside the network's 600 neurons$"):
        load_trace(io.StringIO(text.replace("1,-3\n", "")), 600)


def test_connectivity_is_seeded_sorted_and_free_of_self_edges():
    conn = generate_connectivity(SMALL, seed=11)
    assert conn == generate_connectivity(SMALL, seed=11)
    assert conn != generate_connectivity(SMALL, seed=12)
    assert sorted(conn) == list(range(SMALL.total_neurons))
    assert all(list(ts) == sorted(ts) for ts in conn.values())
    for layer, ids in zip(SMALL.layers, SMALL.layer_ranges()):
        if layer.kind == "recurrent":
            assert not any(n in conn[n] for n in ids)
    # The last layer has no successor and, being recurrent, wires only to itself.
    assert all(set(conn[n]) <= set(SMALL.layer_ranges()[2]) for n in SMALL.layer_ranges()[2])


specs = st.builds(
    NetworkSpec,
    st.lists(st.builds(Layer, st.integers(1, 30), st.sampled_from(LAYER_KINDS)), min_size=1, max_size=4)
    .map(tuple),
    st.floats(0.01, 1.0),
    st.booleans(),
)


@settings(max_examples=100, deadline=None)
@given(specs, st.integers(0, 2**32 - 1))
@example(NetworkSpec((Layer(5, "feedforward"), Layer(7, "recurrent")), 0.5), 3)
@example(NetworkSpec((Layer(9, "feedforward"),), 1.0, literal_fc=True), 4)
def test_connectivity_matches_row_by_row_oracle(spec, seed):
    conn = generate_connectivity(spec, seed)
    assert {n: tuple(conn[n].tolist()) for n in conn} == oracles.connectivity(spec, seed)


ROW_SPANS = ((0, DRAW_ROWS), (DRAW_ROWS, 2 * DRAW_ROWS), (DRAW_ROWS - 3, DRAW_ROWS + 4), (2 * DRAW_ROWS, 2 * DRAW_ROWS + 3))


@pytest.mark.parametrize("a, b", ROW_SPANS)
def test_offset_draw_equals_the_one_shot_draw(a, b):
    # A part of 5 columns at stream offset 41: rows a:b drawn from a PCG64
    # advanced to 41 + a * 5 are rows a:b of the one-shot draw, and their
    # packed hits unpack to the one-shot draw's targets.
    rows, cols, offset = 2 * DRAW_ROWS + 3, 5, 41
    one_shot = np.random.default_rng(17).random(offset + rows * cols)[offset:].reshape(rows, cols)
    floats, hits = np.empty(DRAW_ROWS * 2 * cols), np.empty(DRAW_ROWS * 2 * cols, dtype=bool)
    parts = ((offset, cols, 0.3, False),)
    counts, packed = np.empty(b - a, dtype=np.int64), np.empty(((b - a) * cols + 7) // 8, dtype=np.uint8)
    _draw_rows(17, parts, a, b - a, floats, hits, counts, packed)
    targets = np.empty(counts.sum(), dtype=np.int32)
    _fill_rows(packed, parts, b - a, 100, targets)
    assert np.array_equal(floats[: (b - a) * cols].reshape(b - a, cols), one_shot[a:b])
    assert np.array_equal(counts, np.count_nonzero(one_shot[a:b] < 0.3, axis=1))
    assert np.array_equal(targets, np.flatnonzero(one_shot[a:b] < 0.3) % cols + 100)


# Layers that span several draw jobs, with literal feedforward wiring, ending
# in a feedforward layer that has no block of its own.
CHUNKED = (
    NetworkSpec(
        (
            Layer(2 * DRAW_ROWS + 3, "recurrent"),
            Layer(DRAW_ROWS, "feedforward"),
            Layer(DRAW_ROWS, "recurrent"),
            Layer(2 * DRAW_ROWS + 3, "feedforward"),
        ),
        0.05,
        literal_fc=True,
    ),
    NetworkSpec((Layer(DRAW_ROWS, "feedforward"), Layer(2 * DRAW_ROWS + 3, "recurrent")), 0.1),
)


@cache
def _chunked_oracle(i):
    return oracles.connectivity(CHUNKED[i], 23)


class CountedThread(threading.Thread):
    starts = 0

    def start(self):
        CountedThread.starts += 1
        super().start()


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("i", range(len(CHUNKED)))
def test_threaded_connectivity_matches_row_by_row_oracle(i, threads, monkeypatch):
    # Every draw pays for a thread, so the CPU count sets the thread count.
    monkeypatch.setattr(traffic, "DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "starts", 0)
    before, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL over as often as possible
    try:
        conn = generate_connectivity(CHUNKED[i], 23)
    finally:
        sys.setswitchinterval(interval)
    # The pool starts a thread per job queued while its threads are busy, up to its size.
    assert CountedThread.starts <= (0 if threads == 1 else threads)
    assert threading.active_count() == before
    assert {n: tuple(conn[n].tolist()) for n in conn} == _chunked_oracle(i)


def test_a_thread_starts_once_the_draws_pay_for_it(monkeypatch):
    monkeypatch.setattr(threading, "Thread", CountedThread)
    monkeypatch.setattr(CountedThread, "starts", 0)
    generate_connectivity(NetworkSpec.default_rsnn(), 5)  # 80,000 draws
    assert CountedThread.starts == 0
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    spec = NetworkSpec((Layer(2048, "recurrent"), Layer(2048, "feedforward")), 0.001)
    generate_connectivity(spec, 5)  # 2^23 draws pay for a pool of two threads
    assert 1 <= CountedThread.starts <= 2


class JobFailed(Exception):
    pass


class DaemonThread(threading.Thread):
    # A thread that hangs does not keep the test process from exiting.
    def __init__(self, *args, **kwargs):
        super().__init__(*args, daemon=True, **kwargs)


def _error_of_a_draw_that_must_not_hang() -> BaseException:
    """The error of drawing CHUNKED[0] in a helper thread, which fails the
    test if the draw hangs or leaves a thread running."""
    outcome = []

    def call():
        try:
            generate_connectivity(CHUNKED[0], 23)
        except BaseException as exc:
            outcome.append(exc)

    before = threading.active_count()
    caller = DaemonThread(target=call)
    caller.start()
    caller.join(timeout=60)
    assert not caller.is_alive(), "generate_connectivity hung"
    assert threading.active_count() == before
    [exc] = outcome
    return exc


@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("stage", ["pass 1", "between the passes", "pass 2"])
def test_a_failed_job_reaches_the_caller_and_stops_every_thread(stage, threads, monkeypatch):
    monkeypatch.setattr(traffic, "DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(threads)))
    monkeypatch.setattr(threading, "Thread", DaemonThread)
    if stage == "between the passes":
        empty = np.empty

        def fails(shape, dtype=float, *args, **kwargs):  # the target array's allocation
            if dtype is np.int32:
                raise JobFailed(stage)
            return empty(shape, dtype, *args, **kwargs)

        monkeypatch.setattr(np, "empty", fails)
        caller = "generate_connectivity"
    else:
        name = "_fill_rows" if stage == "pass 2" else "_draw_rows"
        job, calls = getattr(traffic, name), itertools.count()

        def fails(*args):  # the third job
            if next(calls) == 2:
                raise JobFailed(stage)
            return job(*args)

        monkeypatch.setattr(traffic, name, fails)
        caller = "fill_job" if stage == "pass 2" else "draw_job"
    exc = _error_of_a_draw_that_must_not_hang()
    assert isinstance(exc, JobFailed) and exc.args == (stage,)
    # The failing frame travels with the error, from a pool thread too.
    assert [frame.name for frame in traceback.extract_tb(exc.__traceback__)][-2:] == [caller, "fails"]


def test_a_thread_that_fails_to_start_stops_the_started_ones(monkeypatch):
    monkeypatch.setattr(traffic, "DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})

    class SecondFailsToStart(DaemonThread):
        starts = 0

        def start(self):
            SecondFailsToStart.starts += 1
            if SecondFailsToStart.starts == 2:
                raise RuntimeError("can't start new thread")
            super().start()

    monkeypatch.setattr(threading, "Thread", SecondFailsToStart)
    exc = _error_of_a_draw_that_must_not_hang()
    assert isinstance(exc, RuntimeError) and exc.args == ("can't start new thread",)


def test_connectivity_peak_holds_each_edge_once():
    # A recurrent layer, then eight feedforward layers wired at density 1, of
    # 2 * DRAW_ROWS + 3 neurons each: 2.4M draws on one thread, 2.1M edges.
    size = 2 * DRAW_ROWS + 3
    spec = NetworkSpec((Layer(size, "recurrent"),) + (Layer(size, "feedforward"),) * 8, 0.05, literal_fc=True)
    tracemalloc.start()
    try:
        conn = generate_connectivity(spec, 29)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    edges, draws, neurons = len(conn.targets), size * size * 9, spec.total_neurons
    # One thread's scratch, at most: 8 bytes per draw of the widest part (the
    # floats), and per draw of the widest rows 1 byte each for the hits and
    # the unpacked bits and 8 for a hit's index; 32 bytes per neuron hold the
    # indptr, which also takes the counts, with room to spare.  Per-job target
    # pieces joined by a concatenation would hold about 8 bytes per edge.
    scratch = DRAW_ROWS * (8 * size + 10 * 2 * size) + 32 * neurons
    assert edges > 2_000_000
    assert peak < 4 * edges + draws / 8 + scratch


def test_sequential_mapping_packs_in_id_order():
    mapping = map_neurons(SMALL, TreeConfig(4, 2), strategy="sequential", capacity=4)
    assert mapping == tuple(n // 4 for n in range(SMALL.total_neurons))


def test_mapping_rejects_too_many_neurons():
    with pytest.raises(ValueError, match="exceed"):
        map_neurons(SMALL, TreeConfig(2, 2), capacity=10)


@settings(max_examples=100, deadline=None)
@given(
    specs,
    st.sampled_from([TreeConfig(2, 1), TreeConfig(3, 2), TreeConfig(4, 2)]),
    st.sampled_from(["sequential", "random_switch"]),
    st.integers(0, 3),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)
@example(NetworkSpec((Layer(9, "recurrent"),)), TreeConfig(2, 1), "random_switch", 0, 0.0, 1)
@example(NetworkSpec((Layer(30, "recurrent"),)), TreeConfig(4, 2), "random_switch", 0, 1.0, 2)
def test_mapping_puts_each_neuron_on_a_core_of_the_tree_within_capacity(
    spec, cfg, strategy, spare, switch_prob, seed
):
    # With no spare room the cores fill up, so random_switch must jump off a full core.
    capacity = -(-spec.total_neurons // cfg.core_count) + spare
    mapping = map_neurons(spec, cfg, strategy, capacity, seed, switch_prob)
    assert len(mapping) == spec.total_neurons
    assert all(0 <= core < cfg.core_count for core in mapping)
    assert max(Counter(mapping).values()) <= capacity


SWITCH_TREES = ((4, 2), (2, 4), (2, 10), (4, 4), (2, 12))


@pytest.mark.parametrize("k, levels", SWITCH_TREES, ids=[f"{k}x{levels}" for k, levels in SWITCH_TREES])
def test_random_switch_mapping_equals_the_full_scan(k, levels):
    # map_neurons draws from its list of open cores; the oracle lists every
    # core on each switch.  Both consume the same rng stream.
    spec, cfg = NetworkSpec.default_rsnn(), TreeConfig(k, levels)
    for capacity in (1, 5, 40, 600):
        if spec.total_neurons > cfg.core_count * capacity:
            continue
        for switch_prob in (0.0, 0.05, 0.2, 1.0):
            for seed in range(3):
                got = map_neurons(spec, cfg, "random_switch", capacity, seed, switch_prob)
                want = oracles.random_switch_mapping(
                    spec.total_neurons, cfg.core_count, capacity, seed, switch_prob
                )
                assert got == want, (capacity, switch_prob, seed)


def test_build_core_luts_rejects_a_hand_built_mapping_outside_the_tree():
    for bad in (99, -1):
        with pytest.raises(ValueError, match=f"neuron 1 is mapped to core {bad}, outside the 16 cores"):
            build_core_luts(Connectivity((0, 1, 1), (1,)), (0, bad), 16)
    # One test of the lowest and highest core passes a mapping in range.  When
    # it fails, the cores are checked in neuron order, so the message names
    # the first offender whatever a later core is, and a core too large for
    # an index raises ValueError too, not OverflowError.
    conn = Connectivity((0, 1, 1, 2), (1, 0))  # fan-outs 0: (1,), 1: (), 2: (0,)
    for bad in (-1, 16, 2**70, -(2**70)):
        for later in (-5, 99, 2**80):
            with pytest.raises(ValueError, match=f"^neuron 1 is mapped to core {bad}, outside the 16 cores$"):
                build_core_luts(conn, (0, bad, later), 16)
    with pytest.raises(ValueError, match="^neuron 0 is mapped to core 16, outside the 16 cores$"):
        build_core_luts(conn, np.array([16, 0, -1]), 16)
    assert build_core_luts(conn, (3, 5, 7), 16) == (1 << 5, 0, 1 << 3)
    assert build_core_luts(conn, np.array([3, 5, 7]), 16) == (1 << 5, 0, 1 << 3)
    assert build_core_luts(Connectivity((0,), ()), (), 16) == ()


def test_core_luts_fill_block_by_block_as_the_oracle():
    # More source rows than one block holds, scattered over a 4x3 tree.
    spec, cfg = NetworkSpec((Layer(2 * DRAW_ROWS + 3, "recurrent"),), 0.02), TreeConfig(4, 3)
    conn = generate_connectivity(spec, 3)
    mapping = map_neurons(spec, cfg, "random_switch", 10, 3, 0.2)
    luts = build_core_luts(conn, mapping, cfg.core_count)
    assert len(luts) == len(conn)
    assert [{n for n in conn if luts[n] >> core & 1} for core in range(cfg.core_count)] == oracles.core_luts(
        conn, mapping, cfg.core_count
    )


def test_derive_events_on_hand_built_network():
    # fan-outs 0: (1, 2), 1: (), 2: (0, 3), 3: (3,)
    conn = Connectivity((0, 2, 2, 4, 5), (1, 2, 0, 3, 3))
    mapping = (0, 0, 1, 2)
    luts = build_core_luts(conn, mapping, 4)
    assert luts == (0b011, 0, 0b101, 0b100)
    trace = SpikeTrace(((0, 2), (0, 0), (0, 1), (1, 2), (1, 0), (2, 3), (2, 1), (2, 2)))
    demand, dropped = derive_events(trace, luts, mapping, tag_bits=10)
    # first-spike order; neuron 1 has no targets, so its two spikes are dropped
    assert demand == [(0b101, ((1, 3),)), (0b011, ((0, 2),)), (0b100, ((2, 1),))]
    assert dropped == 2
    # the error names the first spike whose id does not fit
    with pytest.raises(ValueError, match="neuron id 2 does not fit in 1 tag bits"):
        derive_events(trace, luts, mapping, tag_bits=1)


def test_derive_events_sums_spikes_per_source_core_and_mask():
    # Neurons 0 and 1 share core 0 and a mask, so their spikes make one sender;
    # neuron 2 has the same mask on core 1, so it is a second sender of that
    # mask's entry; neuron 3's LUT row is empty.
    luts = (0b110, 0b110, 0b110, 0, 0b001)
    mapping = (0, 0, 1, 1, 0)
    trace = SpikeTrace(tuple((0, n) for n in (2, 0, 1, 3, 0, 4, 2, 3)))
    demand, dropped = derive_events(trace, luts, mapping, tag_bits=10)
    assert demand == [(0b110, ((1, 2), (0, 3))), (0b001, ((0, 1),))]
    assert dropped == 2


def test_derive_events_rejects_neurons_outside_the_network():
    conn = Connectivity((0, 1, 2), (1, 0))  # fan-outs 0: (1,), 1: (0,)
    mapping = (0, 1)
    luts = build_core_luts(conn, mapping, 2)
    for bad in (-1, 2, 7):
        trace = SpikeTrace(((0, 0), (0, bad), (0, 7)))
        with pytest.raises(ValueError, match=f"neuron id {bad} is outside the network's 2 neurons"):
            derive_events(trace, luts, mapping, tag_bits=10)


def test_derive_events_rejects_overwide_and_unmapped_neurons():
    luts = (0b01, 0b10, 0b01)
    mapping = (0, 1)
    with pytest.raises(ValueError, match="unmapped neuron 2"):
        derive_events(SpikeTrace(((0, 0), (0, 2))), luts, mapping, tag_bits=10)
    with pytest.raises(ValueError, match="neuron id 5000 does not fit in 10 tag bits"):
        derive_events(SpikeTrace(((0, 5000),)), luts, mapping, tag_bits=10)


def test_derive_events_checks_once_and_names_the_first_offender():
    # One test of the lowest and highest neuron id passes a trace in range.
    # When it fails, the ids are checked in spike_counts (first-spike) order,
    # so the message names the first offender and the first check it fails,
    # even when a later id fails another check.
    luts, mapping = (0b01, 0b10, 0b01), (0, 1)
    cases = [
        ((0, 5000, 2, -1), "neuron id 5000 does not fit in 10 tag bits; need at least 13"),
        ((0, -1, 5000, 2), "neuron id -1 is outside the network's 3 neurons"),
        ((1, 3, -1, 5000), "neuron id 3 is outside the network's 3 neurons"),
        ((1, 2, 5000, -1), "unmapped neuron 2"),
        ((2, 0), "unmapped neuron 2"),
    ]
    for neurons, message in cases:
        trace = SpikeTrace(tuple((t, n) for t, n in enumerate((*neurons, neurons[0]))))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            derive_events(trace, luts, mapping, tag_bits=10)
    with pytest.raises(ValueError, match="^unmapped neuron 0$"):
        derive_events(SpikeTrace(((0, 0),)), luts, (), tag_bits=10)
    trace = SpikeTrace(((0, 1), (0, 0), (1, 1)))
    want = ([(0b10, ((1, 2),)), (0b01, ((0, 1),))], 0)
    assert derive_events(trace, luts, mapping, tag_bits=10) == want
    assert derive_events(trace, luts, np.array(mapping), tag_bits=10) == want
    assert derive_events(SpikeTrace(()), luts, mapping, tag_bits=10) == ([], 0)
    assert derive_events(SpikeTrace(()), (), (), tag_bits=10) == ([], 0)


def _default_mapping(config):
    return map_neurons(
        config.network, config.tree, config.strategy, config.capacity, config.mapping_seed,
        config.switch_prob,
    )


def test_core_luts_hold_exactly_the_destination_tags():
    config = default_config()
    conn = generate_connectivity(config.network, config.network_seed)
    mapping = _default_mapping(config)
    luts = build_core_luts(conn, mapping, config.tree.core_count)
    assert luts == tuple(
        sum(1 << core for core in {mapping[t] for t in conn[n]}) for n in conn
    )
    every_neuron = SpikeTrace(tuple((0, n) for n in conn))
    demand, dropped = derive_events(every_neuron, luts, mapping, config.tag_width())
    assert dropped == luts.count(0) > 0
    assert sum(count for _mask, senders in demand for _core, count in senders) == len(conn) - dropped


class CountedEvents(tuple):
    """A trace's events that count how often they are iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_spike_counts_are_computed_once_per_trace():
    config = default_config()
    conn = generate_connectivity(config.network, config.network_seed)
    plain = synth_trace(config.network, config.trace_steps, config.trace_rate, config.trace_seed)
    events = CountedEvents(plain.events)
    trace = SpikeTrace(events)
    constructed = events.iterations
    results = []
    for seed in (config.mapping_seed, config.mapping_seed + 1):
        mapping = map_neurons(
            config.network, config.tree, config.strategy, config.capacity, seed, config.switch_prob
        )
        luts = build_core_luts(conn, mapping, config.tree.core_count)
        result = derive_events(trace, luts, mapping, config.tag_width())
        assert result == oracles.demand(plain.events, luts, mapping)
        results.append(result)
    assert results[0] != results[1]
    assert events.iterations == constructed + 1


def test_derive_events_counts_every_spike_once():
    config = default_config()
    conn = generate_connectivity(config.network, config.network_seed)
    trace = synth_trace(config.network, config.trace_steps, config.trace_rate, config.trace_seed)
    mapping = _default_mapping(config)
    luts = build_core_luts(conn, mapping, config.tree.core_count)
    demand, dropped = derive_events(trace, luts, mapping, config.tag_width())
    assert len({mask for mask, _senders in demand}) == len(demand)
    assert all(len(dict(senders)) == len(senders) for _mask, senders in demand)
    assert dropped > 0
    assert sum(count for _mask, senders in demand for _core, count in senders) + dropped == len(trace.events)
