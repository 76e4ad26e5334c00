import math
import random
from collections import Counter, defaultdict
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast import nocsim
from treecast.addressing import (
    FbsAddress,
    HbsAddress,
    Scheme,
    SymbolAddress,
    TreeConfig,
    UnicastAddress,
    covered_set,
    encode,
)
from treecast.nocsim import (
    TURNAROUND_POLICIES,
    EnergyModel,
    SimReport,
    route_multicast,
    route_unicast_batch,
    simulate,
)
from treecast.traffic import Connectivity, SpikeTrace, build_core_luts, derive_events

import oracles
from oracles import mask_of

CFG16 = TreeConfig(4, 2)
CFG64 = TreeConfig(4, 3)

MULTICAST_SCHEMES = (Scheme.FBS, Scheme.SYMBOL, Scheme.HBS)


# ---------------------------------------------------------------------------
# energy model

def test_energy_model_validation_and_default():
    e = EnergyModel.default(2)
    assert e.link_energy_per_bit == (1.0, 4.0)
    assert e.filter_energy_per_lookup == 8.0
    assert EnergyModel.default(3).link_energy_per_bit == (1.0, 4.0, 16.0)
    with pytest.raises(ValueError):
        EnergyModel((4.0, 1.0), 8.0)  # root cheaper than leaf
    with pytest.raises(ValueError):
        EnergyModel((1.0, -1.0), 8.0)
    with pytest.raises(ValueError):
        EnergyModel((1.0, 4.0), -1.0)
    # A NaN fails every comparison, so only a range check that must pass catches it.
    for links, lookup in (((math.nan, 4.0), 8.0), ((1.0, math.inf), 8.0), ((1.0, 4.0), math.nan)):
        with pytest.raises(ValueError, match="must be finite and nonnegative"):
            EnergyModel(links, lookup)


# ---------------------------------------------------------------------------
# multicast routing

def test_route_hbs_worked_example():
    # root-level digits {1, 2}, leaf-level digit {0}
    addr = HbsAddress((0b0110, 0b0001))
    assert encode(Scheme.HBS, mask_of({4, 8}), CFG16) == addr
    r = route_multicast(addr, 0, CFG16)
    assert r.delivered == (4, 8)
    assert r.up_links == ((1, 0), (2, 0))
    assert set(r.down_links) == {(2, 1), (2, 2), (1, 4), (1, 8)}
    assert len(r.links) == 6


def test_route_fbs_sibling_transits_root():
    # singleton mask for the source's sibling still climbs to the root
    addr = encode(Scheme.FBS, mask_of({1}), CFG16)
    r = route_multicast(addr, 0, CFG16)
    assert r.delivered == (1,)
    assert len(r.up_links) == 2
    assert len(r.down_links) == 2
    assert len(r.links) == 4


def test_route_hbs_broadcast_uses_every_link_once():
    addr = encode(Scheme.HBS, mask_of(range(16)), CFG16)
    r = route_multicast(addr, 3, CFG16)
    assert set(r.delivered) == set(range(16))
    all_edges = {(1, c) for c in range(16)} | {(2, c) for c in range(4)}
    assert sorted(r.down_links) == sorted(all_edges)
    assert len(r.down_links) == len(set(r.down_links))


def test_source_receives_own_packet_when_covered():
    addr = encode(Scheme.HBS, mask_of({6}), CFG16)
    r = route_multicast(addr, 6, CFG16)
    assert r.delivered == (6,)
    assert len(r.links) == 4  # up to root and straight back down


def test_delivery_exactness_random():
    rng = random.Random(21)
    for cfg in (CFG16, CFG64):
        n = cfg.core_count
        for _ in range(300):
            dests = frozenset(rng.sample(range(n), rng.randint(1, n)))
            source = rng.randrange(n)
            scheme = rng.choice(MULTICAST_SCHEMES)
            addr = encode(scheme, mask_of(dests), cfg)
            r = route_multicast(addr, source, cfg)
            assert frozenset(r.delivered) == covered_set(addr, cfg)
            assert len(r.delivered) == len(set(r.delivered))


def test_no_link_twice_per_phase_and_down_is_path_union():
    rng = random.Random(22)
    for cfg in (CFG16, CFG64):
        n = cfg.core_count
        for _ in range(200):
            dests = frozenset(rng.sample(range(n), rng.randint(1, n // 2)))
            source = rng.randrange(n)
            scheme = rng.choice(MULTICAST_SCHEMES)
            addr = encode(scheme, mask_of(dests), cfg)
            r = route_multicast(addr, source, cfg)
            assert len(r.up_links) == len(set(r.up_links))
            assert len(r.down_links) == len(set(r.down_links))
            union = set()
            for core in covered_set(addr, cfg):
                union.update(oracles.root_to_leaf_edges(core, cfg.fan_out, cfg.levels))
            assert set(r.down_links) == union
            assert len(r.down_links) == len(union)


def test_rotation_state_is_depth_indexed():
    # After d per-hop rotations the head is level d's slice of the field.
    rng = random.Random(23)
    for turnaround in ("root", "lca"):
        for cfg in (CFG16, TreeConfig(2, 3), TreeConfig(3, 2), CFG64):
            for _ in range(60):
                masks = tuple(
                    rng.randint(1, (1 << cfg.fan_out) - 1) for _ in range(cfg.levels)
                )
                addr = HbsAddress(masks)
                source = rng.randrange(cfg.core_count)
                r = route_multicast(addr, source, cfg, turnaround)
                assert r.decisions
                for d in r.decisions:
                    assert d.field == masks[d.depth]
        for cfg in (CFG16, TreeConfig(2, 4), CFG64):
            m = cfg.index_bits // cfg.levels
            for _ in range(60):
                masks = tuple(rng.choice((0b01, 0b10, 0b11)) for _ in range(cfg.index_bits))
                addr = SymbolAddress(masks)
                source = rng.randrange(cfg.core_count)
                r = route_multicast(addr, source, cfg, turnaround)
                assert r.decisions
                for d in r.decisions:
                    assert d.field == masks[d.depth * m : (d.depth + 1) * m]


def test_multicast_rejects_unicast_and_bad_policy():
    with pytest.raises(ValueError):
        route_multicast(UnicastAddress((1 << 1,)), 0, CFG16)
    addr = encode(Scheme.FBS, mask_of({1}), CFG16)
    with pytest.raises(ValueError):
        route_multicast(addr, 0, CFG16, turnaround="bounce")


def test_lca_turnaround_shortens_local_traffic():
    addr = encode(Scheme.FBS, mask_of({1}), CFG16)
    r = route_multicast(addr, 0, CFG16, turnaround="lca")
    assert r.delivered == (1,)
    assert r.links == ((1, 0), (1, 1))
    # deliveries are policy-independent
    rng = random.Random(24)
    for _ in range(100):
        cfg = CFG64
        dests = frozenset(rng.sample(range(64), rng.randint(1, 10)))
        source = rng.randrange(64)
        scheme = rng.choice(MULTICAST_SCHEMES)
        addr = encode(scheme, mask_of(dests), cfg)
        root = route_multicast(addr, source, CFG64, turnaround="root")
        lca = route_multicast(addr, source, CFG64, turnaround="lca")
        assert frozenset(root.delivered) == frozenset(lca.delivered)
        assert len(lca.links) <= len(root.links)


# ---------------------------------------------------------------------------
# unicast routing

def test_unicast_examples():
    r = route_unicast_batch(UnicastAddress((1 << 1,)), 0, CFG16)
    assert r.links == ((1, 0), (1, 1))
    r = route_unicast_batch(UnicastAddress((1 << 5,)), 0, CFG16)
    assert len(r.links) == 4
    r = route_unicast_batch(encode(Scheme.UNICAST, mask_of(range(16)), CFG16), 0, CFG16)
    assert r.covered == 16
    assert r.delivered == tuple(range(16))


def test_unicast_self_delivery_turns_at_leaf_switch():
    r = route_unicast_batch(UnicastAddress((1 << 7,)), 7, CFG16)
    assert r.links == ((1, 7), (1, 7))


def test_unicast_dominance_two_levels():
    # downward multicast traversals never exceed the whole unicast batch
    rng = random.Random(25)
    for _ in range(500):
        dests = frozenset(rng.sample(range(16), rng.randint(1, 16)))
        source = rng.randrange(16)
        fbs = route_multicast(encode(Scheme.FBS, mask_of(dests), CFG16), source, CFG16)
        uni = route_unicast_batch(encode(Scheme.UNICAST, mask_of(dests), CFG16), source, CFG16)
        assert len(fbs.down_links) <= len(uni.links)


def test_unicast_dominance_three_levels_outside_local_region():
    # With deeper trees the root-turnaround multicast can lose against a
    # tiny batch that stays inside the source's leaf region, so the
    # comparison is scoped to sets reaching beyond it.
    rng = random.Random(26)
    k, levels = CFG64.fan_out, CFG64.levels
    checked = 0
    while checked < 300:
        dests = frozenset(rng.sample(range(64), rng.randint(1, 20)))
        source = rng.randrange(64)
        local = {c for c in dests if c // k == source // k}
        if dests == local and len(dests) < levels - 1:
            continue
        fbs = route_multicast(encode(Scheme.FBS, mask_of(dests), CFG64), source, CFG64)
        uni = route_unicast_batch(encode(Scheme.UNICAST, mask_of(dests), CFG64), source, CFG64)
        assert len(fbs.down_links) <= len(uni.links)
        checked += 1


# ---------------------------------------------------------------------------
# closed-form counts against the switch-by-switch walk

ROUTE_TREES = [TreeConfig(k, levels) for k in (2, 3, 4) for levels in range(1, 6)]
ROUTE_TREES += [TreeConfig(2, 10), TreeConfig(8, 2), TreeConfig(32, 2)]


@st.composite
def route_cases(draw):
    cfg = draw(st.sampled_from(ROUTE_TREES))
    schemes = [s for s in Scheme if s is not Scheme.SYMBOL or cfg.fan_out != 3]
    cores = st.integers(0, cfg.core_count - 1)
    dests = draw(st.sets(cores, min_size=1, max_size=40))
    return cfg, draw(st.sampled_from(schemes)), dests, draw(cores)


@settings(max_examples=400, deadline=None)
@given(route_cases(), st.sampled_from(TURNAROUND_POLICIES))
def test_closed_form_counts_equal_the_walk(case, turnaround):
    cfg, scheme, dests, source = case
    addr = encode(scheme, mask_of(dests), cfg)
    if scheme is Scheme.UNICAST:
        r = route_unicast_batch(addr, source, cfg)
    else:
        r = route_multicast(addr, source, cfg, turnaround)
    per_level = Counter(level for level, _child in r.up_links + r.down_links)
    assert r.level_links == tuple(per_level[level] for level in range(1, cfg.levels + 1))
    assert r.covered == len(r.delivered)
    assert addr.cover(cfg) == sum(1 << core for core in r.delivered)
    assert addr.cover(cfg).bit_count() == len(r.delivered)
    if scheme is not Scheme.UNICAST:
        assert addr.cover_bounds(cfg) == (min(r.delivered), max(r.delivered))
        # Below the turn, a height's covered nodes are the nodes the descent
        # enters there; the root is covered by every address.
        entered = Counter(level - 1 for level, _child in r.down_links)
        heights = addr.covered_per_height(cfg)
        assert len(heights) == cfg.levels + 1 and heights[-1] == 1
        assert all(heights[h] == n for h, n in entered.items())


@settings(max_examples=100, deadline=None)
@given(route_cases(), st.sampled_from(TURNAROUND_POLICIES))
def test_carried_counts_equal_the_checked_derivation(case, turnaround):
    # An encoded address carries the counts its encoder derived, and the
    # routers read them on the TreeConfig instance it was encoded on.  The same
    # masks built by hand, and the encoded address on an equal but distinct
    # tree, take the checked derivation instead; the three must agree from
    # every source core, and the derivation must agree with the walk.
    cfg, scheme, dests, source = case
    addr = encode(scheme, mask_of(dests), cfg)
    by_hand = type(addr)(addr.masks)
    equal_tree = TreeConfig(cfg.fan_out, cfg.levels)
    assert equal_tree == cfg and equal_tree is not cfg
    assert addr._carried[0] is cfg and by_hand._carried == (None, None)
    assert by_hand == addr and hash(by_hand) == hash(addr) and repr(by_hand) == repr(addr)
    assert [f.name for f in fields(addr)] == ["masks"]
    assert replace(addr) == addr and vars(replace(addr)) == {"masks": addr.masks}

    def route(a, core, tree):
        if scheme is Scheme.UNICAST:
            return route_unicast_batch(a, core, tree)
        return route_multicast(a, core, tree, turnaround)

    def counts(a, core, tree):
        r = route(a, core, tree)
        return r.covered, r.level_links, a.covered_per_height(tree), a.cover_bounds(tree)

    for core in range(cfg.core_count):
        want = counts(addr, core, cfg)
        assert counts(by_hand, core, cfg) == want, core
        assert counts(addr, core, equal_tree) == want, core
    r = route(by_hand, source, cfg)
    per_level = Counter(level for level, _child in r.links)
    assert r.level_links == tuple(per_level[level] for level in range(1, cfg.levels + 1))
    assert r.covered == len(r.delivered)

    # A field of the wrong length, or with a mask wider than the tree it
    # describes, is still rejected by both routers.  Symbol's constructor
    # already rejects a mask wider than 2 bits.
    malformed = [type(addr)(addr.masks + (1,))]
    if scheme is not Scheme.SYMBOL:
        wide = addr.masks[0] | 1 << type(addr)._tree(cfg).fan_out
        malformed.append(type(addr)((wide, *addr.masks[1:])))
    for bad in malformed:
        with pytest.raises(ValueError):
            route_multicast(bad, source, cfg, turnaround)
        with pytest.raises(ValueError):
            route_unicast_batch(bad, source, cfg)


@pytest.mark.parametrize("turnaround", TURNAROUND_POLICIES)
def test_an_address_routed_on_another_tree_reads_that_tree(turnaround):
    # The carried counts hold for the tree the address was encoded on, not for
    # another tree of as many cores: there a flat mask gets that tree's counts
    # and level masks of another fan-out are rejected.
    mask, binary = mask_of({0, 5, 6}), TreeConfig(2, 4)

    def route(scheme, tree):
        addr = encode(scheme, mask, tree)
        if scheme is Scheme.UNICAST:
            return addr, route_unicast_batch(addr, 9, binary)
        return addr, route_multicast(addr, 9, binary, turnaround)

    for scheme in (Scheme.FBS, Scheme.UNICAST):
        (addr, got), (on_binary, want) = route(scheme, CFG16), route(scheme, binary)
        assert addr == on_binary and len(got.level_links) == 4
        assert (got.covered, got.level_links) == (want.covered, want.level_links)
        assert addr.covered_per_height(binary) == on_binary.covered_per_height(binary)
    with pytest.raises(ValueError, match="^expected 4 level masks, got 2$"):
        route_multicast(encode(Scheme.HBS, mask, CFG16), 9, binary, turnaround)


def count_calls(monkeypatch, *names, owner=nocsim, calls=None):
    """Counter of calls to each named function of ``owner``, through wrappers put in its place.

    nocsim looks these functions up as module attributes on every call (the
    traced benchmark run relies on that), and a method is looked up on its
    class, so the wrappers see every call made after this.  Given ``calls``,
    the counts go into that Counter.
    """
    calls = Counter() if calls is None else calls

    def counted(name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name))
    return calls


def test_walk_runs_once_on_first_read(monkeypatch):
    calls = count_calls(monkeypatch, "_walk_multicast", "_walk_unicast")
    addr = encode(Scheme.HBS, mask_of({4, 8}), CFG16)
    r = route_multicast(addr, 0, CFG16)
    assert addr.cover(CFG16) == 1 << 4 | 1 << 8
    assert r.level_links == (3, 3)
    with pytest.raises(AttributeError, match="'walk'"):
        r.walk  # not a walk field: reading it walks nothing
    assert not calls
    assert r.delivered == (4, 8)
    assert len(r.decisions) == 3
    assert len(r.links) == 6
    assert r.up_links == ((1, 0), (2, 0))
    assert calls == Counter({"_walk_multicast": 1})

    addr = encode(Scheme.UNICAST, mask_of({4, 8}), CFG16)
    r = route_unicast_batch(addr, 0, CFG16)
    assert addr.cover(CFG16) == 1 << 4 | 1 << 8
    assert r.level_links == (4, 4)
    assert r.covered == 2
    assert calls == Counter({"_walk_multicast": 1})
    assert r.delivered == (4, 8)
    assert r.decisions == ()
    assert len(r.links) == 8
    assert r.down_links == ((2, 1), (1, 4), (2, 2), (1, 8))
    assert calls == Counter({"_walk_multicast": 1, "_walk_unicast": 1})


# ---------------------------------------------------------------------------
# filtering and divergence

def test_divergence_depth():
    # legal targets {0, 5}: cores 1 and 4 diverge at the leaf switches,
    # core 10 diverges at the root
    assert oracles.divergence_depth(1, {0, 5}, 4, 2) == 1
    assert oracles.divergence_depth(4, {0, 5}, 4, 2) == 1
    assert oracles.divergence_depth(10, {0, 5}, 4, 2) == 0
    with pytest.raises(ValueError):
        oracles.divergence_depth(5, {0, 5}, 4, 2)
    with pytest.raises(ValueError):
        oracles.divergence_depth(1, set(), 4, 2)


# ---------------------------------------------------------------------------
# simulate

def random_demand(rng, draws, max_dests, masks=None):
    """Hand-built demand on CFG16, grouped as derive_events groups it:
    (destination mask, ((source core, spike count), ...)) per distinct mask.

    Each of ``draws`` draws a source core, a fresh random mask and a spike
    count.  Given ``masks``, each draw instead picks one of that many random
    masks, so most masks have several senders.
    """

    def fresh():
        return mask_of(rng.sample(range(16), rng.randint(1, max_dests)))

    pool = [fresh() for _ in range(masks)] if masks else None
    grouped = defaultdict(Counter)
    for _ in range(draws):
        core = rng.randrange(16)
        mask = rng.choice(pool) if pool else fresh()
        grouped[mask][core] += rng.randint(1, 4)
    return [(mask, tuple(senders.items())) for mask, senders in grouped.items()]


def test_simulate_empty_event_list():
    report = simulate([], Scheme.FBS, CFG16, EnergyModel.default(2))
    assert report.events == 0
    assert report.packets_injected == 0
    assert report.total_energy == 0.0
    assert report.link_bit_traversals == 0


def test_simulate_single_fbs_event_energy():
    # one spike from core 0 to core 5: 26-bit header over links costing
    # 1 + 4 + 4 + 1 energy units per bit
    report = simulate([(1 << 5, ((0, 1),))], Scheme.FBS, CFG16, EnergyModel.default(2))
    assert report.events == 1
    assert report.packets_injected == 1
    assert report.illegal_deliveries == 0
    assert report.legal_deliveries == 1
    assert report.routing_energy == pytest.approx(26 * 10.0)
    assert report.link_bit_traversals == 26 * 4
    assert report.filtering_energy == pytest.approx(8.0)
    assert report.illegal_filtering_energy == 0.0
    assert report.total_energy == pytest.approx(report.routing_energy + report.filtering_energy)


def test_simulate_counters_close_against_manual_recount():
    demand = random_demand(random.Random(27), 40, 6)
    energy = EnergyModel.default(2)

    for scheme in Scheme:
        report = simulate(demand, scheme, CFG16, energy)
        routing = 0.0
        link_bits = 0
        legal = illegal = packets = 0
        header = {"fbs": 26, "symbol": 18, "hbs": 18, "unicast": 14}[scheme.value]
        spikes = [(core, mask) for mask, senders in demand for core, count in senders for _ in range(count)]
        for core, mask in spikes:
            addr = encode(scheme, mask, CFG16)
            if scheme is Scheme.UNICAST:
                r = route_unicast_batch(addr, core, CFG16)
            else:
                r = route_multicast(addr, core, CFG16)
            packets += len(r.delivered) if scheme is Scheme.UNICAST else 1
            link_bits += len(r.links) * header
            routing += header * sum(energy.link_energy_per_bit[lvl - 1] for lvl, _ in r.links)
            for c in r.delivered:
                if mask >> c & 1:
                    legal += 1
                else:
                    illegal += 1
        assert report.events == len(spikes)
        assert report.packets_injected == packets
        assert report.link_bit_traversals == link_bits
        assert report.routing_energy == pytest.approx(routing)
        assert report.legal_deliveries == legal
        assert report.illegal_deliveries == illegal
        assert report.filtering_energy == pytest.approx((legal + illegal) * 8.0)
        assert report.total_energy == pytest.approx(report.routing_energy + report.filtering_energy)
        # delivery balance: every covered core filters once
        covered_total = sum(
            len(covered_set(encode(scheme, mask, CFG16), CFG16)) for _, mask in spikes
        )
        assert report.legal_deliveries + report.illegal_deliveries == covered_total
        if scheme in (Scheme.FBS, Scheme.UNICAST):
            assert report.illegal_deliveries == 0


def test_simulate_hbs_never_more_illegal_than_symbol():
    demand = random_demand(random.Random(28), 60, 8)
    energy = EnergyModel.default(2)
    hbs = simulate(demand, Scheme.HBS, CFG16, energy)
    sym = simulate(demand, Scheme.SYMBOL, CFG16, energy)
    assert hbs.illegal_deliveries <= sym.illegal_deliveries
    assert hbs.routing_energy <= sym.routing_energy


def test_simulate_rejects_a_hand_built_mapping_outside_the_tree():
    # A hand-built mapping may place a neuron past the tree, and its demand
    # then names that core.  The second sender shares the first one's
    # root-turnaround route, so only simulate's own check can see the core.
    demand = [(1 << 2, ((0, 1), (99, 1)))]
    with pytest.raises(ValueError, match="source core 99 is outside the 16 cores"):
        simulate(demand, Scheme.HBS, CFG16, EnergyModel.default(2))


def test_simulate_energy_model_must_match_tree_depth():
    with pytest.raises(ValueError):
        simulate([], Scheme.FBS, CFG16, EnergyModel.default(3))


def test_simulate_deterministic():
    demand = random_demand(random.Random(29), 30, 5)
    a = simulate(demand, Scheme.SYMBOL, CFG16, EnergyModel.default(2))
    b = simulate(demand, Scheme.SYMBOL, CFG16, EnergyModel.default(2))
    assert a == b


@pytest.mark.parametrize("turnaround", TURNAROUND_POLICIES)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_simulate_encodes_each_set_once_and_routes_each_key_once(monkeypatch, scheme, turnaround):
    # Demand is grouped by mask, so the data's shape alone gives one encode per
    # mask, and one route per mask (root multicast) or per sender (otherwise).
    demand = random_demand(random.Random(31), 50, 5, masks=6)
    senders = sum(len(s) for _mask, s in demand)
    assert len(demand) < senders
    energy = EnergyModel.default(2)
    want = simulate(demand, scheme, CFG16, energy, 10, turnaround)

    calls = count_calls(monkeypatch, "encode", "route_multicast", "route_unicast_batch")
    assert simulate(demand, scheme, CFG16, energy, 10, turnaround) == want

    router = "route_unicast_batch" if scheme is Scheme.UNICAST else "route_multicast"
    routes = len(demand) if scheme is not Scheme.UNICAST and turnaround == "root" else senders
    assert calls == Counter({"encode": len(demand), router: routes})


@pytest.mark.parametrize("turnaround", TURNAROUND_POLICIES)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_simulate_derives_each_encoded_address_counts_once(monkeypatch, scheme, turnaround):
    # An lca packet is routed once per sender, but only its turn level depends
    # on the sender: its address derives its counts when it is encoded, and its
    # cover bounds on the first route, and carries both.  A root route reads no
    # bounds, and a unicast address derives no multicast counts.
    demand = random_demand(random.Random(43), 50, 5, masks=6)
    assert len(demand) < sum(len(s) for _mask, s in demand)
    energy = EnergyModel.default(2)
    want = simulate(demand, scheme, CFG16, energy, 10, turnaround)

    calls = count_calls(monkeypatch, "_counts", "_bounds", owner=HbsAddress)
    count_calls(monkeypatch, "_counts", owner=FbsAddress, calls=calls)
    assert simulate(demand, scheme, CFG16, energy, 10, turnaround) == want

    multicast = scheme is not Scheme.UNICAST
    bounds = multicast and turnaround == "lca"
    assert calls == Counter({"_counts": len(demand) * multicast, "_bounds": len(demand) * bounds})


@pytest.mark.parametrize("turnaround", TURNAROUND_POLICIES)
@pytest.mark.parametrize("scheme", MULTICAST_SCHEMES)
def test_simulate_builds_no_multicast_cover(monkeypatch, scheme, turnaround):
    # simulate reads the covered count off the level masks; fbs and symbol
    # inherit HbsAddress.cover, so this stops all three from building a cover.
    def no_cover(*args):
        raise AssertionError("simulate built a multicast cover")

    demand = random_demand(random.Random(41), 40, 6, masks=8)
    want = simulate(demand, scheme, CFG16, EnergyModel.default(2), 10, turnaround)
    monkeypatch.setattr(HbsAddress, "cover", no_cover)
    assert simulate(demand, scheme, CFG16, EnergyModel.default(2), 10, turnaround) == want


@pytest.mark.parametrize("turnaround", TURNAROUND_POLICIES)
@pytest.mark.parametrize("scheme", list(Scheme))
def test_simulate_never_walks(monkeypatch, scheme, turnaround):
    # simulate reads only the closed-form counts of each route.
    def no_walk(*args):
        raise AssertionError("simulate ran the switch-by-switch walk")

    demand = random_demand(random.Random(37), 40, 6, masks=8)
    want = simulate(demand, scheme, CFG16, EnergyModel.default(2), 10, turnaround)
    monkeypatch.setattr(nocsim, "_walk_multicast", no_walk)
    monkeypatch.setattr(nocsim, "_walk_unicast", no_walk)
    assert simulate(demand, scheme, CFG16, EnergyModel.default(2), 10, turnaround) == want


# Oracle: oracles.per_spike_report, every spike routed on its own, filtered
# against LUTs built from the connectivity.  k = 3 trees have no symbol scheme.
ORACLE_TREES = [
    TreeConfig(k, levels)
    for k, levels in ((2, 1), (2, 3), (2, 5), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3))
]


@st.composite
def oracle_cases(draw):
    cfg = draw(st.sampled_from(ORACLE_TREES))
    n = draw(st.integers(1, 30))
    assignment = draw(st.lists(st.integers(0, cfg.core_count - 1), min_size=n, max_size=n))
    neuron = st.integers(0, n - 1)
    connectivity = {s: tuple(sorted(draw(st.sets(neuron, max_size=6)))) for s in range(n)}
    counts = draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
    fired = draw(st.permutations([i for i, c in enumerate(counts) for _ in range(c)]))
    trace = SpikeTrace(tuple((0, i) for i in fired))
    if draw(st.booleans()):
        value = st.integers(0, 50).map(float)
    else:
        value = st.floats(0, 50, allow_nan=False, allow_infinity=False)
    links = sorted(draw(st.lists(value, min_size=cfg.levels, max_size=cfg.levels)))
    energy = EnergyModel(tuple(links), draw(value))
    schemes = [s for s in Scheme if s is not Scheme.SYMBOL or cfg.fan_out != 3]
    return cfg, assignment, connectivity, trace, energy, draw(st.sampled_from(schemes))


@settings(max_examples=150, deadline=None)
@given(oracle_cases(), st.sampled_from(TURNAROUND_POLICIES))
def test_simulate_matches_per_spike_oracle(case, turnaround):
    cfg, assignment, connectivity, trace, energy, scheme = case
    rows = [connectivity[s] for s in range(len(assignment))]
    view = Connectivity(np.cumsum([0] + [len(r) for r in rows]), [t for r in rows for t in r])
    luts = build_core_luts(view, assignment, cfg.core_count)
    demand, dropped = derive_events(trace, luts, assignment, tag_bits=10)
    assert len({mask for mask, _senders in demand}) == len(demand)
    assert all(len(dict(senders)) == len(senders) for _mask, senders in demand)
    spikes = Counter({(core, mask): count for mask, senders in demand for core, count in senders})
    assert spikes == Counter(
        (assignment[n], mask_of(assignment[t] for t in connectivity[n]))
        for _t, n in trace.events
        if connectivity[n]
    )
    assert sum(spikes.values()) + dropped == len(trace.events)

    got = simulate(demand, scheme, cfg, energy, 10, turnaround)
    want = oracles.per_spike_report(trace, connectivity, assignment, scheme, cfg, energy, 10, turnaround)
    integer_energies = all(e.is_integer() for e in energy.link_energy_per_bit) and (
        energy.filter_energy_per_lookup.is_integer()
    )
    for f in fields(SimReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if integer_energies or not isinstance(b, float):
            assert a == b, f.name
        else:
            assert math.isclose(a, b, rel_tol=1e-12), f.name


@st.composite
def root_key_cases(draw):
    cfg = draw(st.sampled_from(ORACLE_TREES))
    schemes = [s for s in MULTICAST_SCHEMES if s is not Scheme.SYMBOL or cfg.fan_out != 3]
    dests = draw(st.sets(st.integers(0, cfg.core_count - 1), min_size=1))
    return cfg, draw(st.sampled_from(schemes)), dests


@settings(max_examples=150, deadline=None)
@given(root_key_cases())
def test_root_route_counts_do_not_depend_on_the_source_core(case):
    # Why simulate routes a root-turnaround multicast packet once per destination mask.
    cfg, scheme, dests = case
    addr = encode(scheme, mask_of(dests), cfg)
    routes = {
        (r.covered, r.level_links)
        for r in (route_multicast(addr, s, cfg, "root") for s in range(cfg.core_count))
    }
    assert len(routes) == 1


def test_lca_route_counts_depend_on_the_source_core():
    # Why simulate routes an lca packet once per sender of a mask: from
    # core 0 the packet for cores {0, 1} turns at the leaf-adjacent switch,
    # from core 15 it climbs to the root.
    addr = encode(Scheme.FBS, mask_of({0, 1}), CFG16)
    near, far = (route_multicast(addr, s, CFG16, "lca") for s in (0, 15))
    assert near.delivered == far.delivered == (0, 1)
    assert near.level_links == (3, 0)
    assert far.level_links == (3, 2)
