import random

import pytest

from treecast.addressing import (
    HbsAddress,
    Scheme,
    Sym,
    SymbolAddress,
    TreeConfig,
    UnicastAddress,
    covered_set,
    encode,
)
from treecast.nocsim import (
    EnergyModel,
    divergence_depth,
    route_multicast,
    route_unicast_batch,
    simulate,
)

import oracles

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


# ---------------------------------------------------------------------------
# multicast routing

def test_route_hbs_worked_example():
    # root-level digits {1, 2}, leaf-level digit {0}
    addr = HbsAddress((0b0110, 0b0001))
    assert HbsAddress.encode({4, 8}, CFG16) == addr
    r = route_multicast(addr, 0, CFG16)
    assert r.delivered == (4, 8)
    assert r.up_links == ((1, 0), (2, 0))
    assert set(r.down_links) == {(2, 1), (2, 2), (1, 4), (1, 8)}
    assert len(r.links) == 6


def test_route_fbs_sibling_transits_root():
    # singleton mask for the source's sibling still climbs to the root
    addr = encode(Scheme.FBS, {1}, CFG16)
    r = route_multicast(addr, 0, CFG16)
    assert r.delivered == (1,)
    assert len(r.up_links) == 2
    assert len(r.down_links) == 2
    assert len(r.links) == 4


def test_route_hbs_broadcast_uses_every_link_once():
    addr = encode(Scheme.HBS, range(16), CFG16)
    r = route_multicast(addr, 3, CFG16)
    assert set(r.delivered) == set(range(16))
    all_edges = {(1, c) for c in range(16)} | {(2, c) for c in range(4)}
    assert sorted(r.down_links) == sorted(all_edges)
    assert len(r.down_links) == len(set(r.down_links))


def test_source_receives_own_packet_when_covered():
    addr = encode(Scheme.HBS, {6}, CFG16)
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
            addr = encode(scheme, dests, cfg)
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
            addr = encode(scheme, dests, cfg)
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
                symbols = tuple(rng.choice(list(Sym)) for _ in range(cfg.index_bits))
                addr = SymbolAddress(symbols)
                source = rng.randrange(cfg.core_count)
                r = route_multicast(addr, source, cfg, turnaround)
                assert r.decisions
                for d in r.decisions:
                    assert d.field == symbols[d.depth * m : (d.depth + 1) * m]


def test_multicast_rejects_unicast_and_bad_policy():
    with pytest.raises(ValueError):
        route_multicast(UnicastAddress((1,)), 0, CFG16)
    addr = encode(Scheme.FBS, {1}, CFG16)
    with pytest.raises(ValueError):
        route_multicast(addr, 0, CFG16, turnaround="bounce")


def test_lca_turnaround_shortens_local_traffic():
    addr = encode(Scheme.FBS, {1}, CFG16)
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
        addr = encode(scheme, dests, cfg)
        root = route_multicast(addr, source, CFG64, turnaround="root")
        lca = route_multicast(addr, source, CFG64, turnaround="lca")
        assert frozenset(root.delivered) == frozenset(lca.delivered)
        assert len(lca.links) <= len(root.links)


# ---------------------------------------------------------------------------
# unicast routing

def test_unicast_examples():
    r = route_unicast_batch(UnicastAddress((1,)), 0, CFG16)
    assert r.links == ((1, 0), (1, 1))
    r = route_unicast_batch(UnicastAddress((5,)), 0, CFG16)
    assert len(r.links) == 4
    r = route_unicast_batch(UnicastAddress.encode(range(16), CFG16), 0, CFG16)
    assert r.packets == 16
    assert r.delivered == tuple(range(16))


def test_unicast_self_delivery_turns_at_leaf_switch():
    r = route_unicast_batch(UnicastAddress((7,)), 7, CFG16)
    assert r.links == ((1, 7), (1, 7))


def test_unicast_dominance_two_levels():
    # downward multicast traversals never exceed the whole unicast batch
    rng = random.Random(25)
    for _ in range(500):
        dests = frozenset(rng.sample(range(16), rng.randint(1, 16)))
        source = rng.randrange(16)
        fbs = route_multicast(encode(Scheme.FBS, dests, CFG16), source, CFG16)
        uni = route_unicast_batch(UnicastAddress.encode(dests, CFG16), source, CFG16)
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
        fbs = route_multicast(encode(Scheme.FBS, dests, CFG64), source, CFG64)
        uni = route_unicast_batch(UnicastAddress.encode(dests, CFG64), source, CFG64)
        assert len(fbs.down_links) <= len(uni.links)
        checked += 1


# ---------------------------------------------------------------------------
# filtering and divergence

def test_divergence_depth():
    # legal targets {0, 5}: cores 1 and 4 diverge at the leaf switches,
    # core 10 diverges at the root
    assert divergence_depth(1, {0, 5}, CFG16) == 1
    assert divergence_depth(4, {0, 5}, CFG16) == 1
    assert divergence_depth(10, {0, 5}, CFG16) == 0
    with pytest.raises(ValueError):
        divergence_depth(5, {0, 5}, CFG16)
    with pytest.raises(ValueError):
        divergence_depth(1, set(), CFG16)


# ---------------------------------------------------------------------------
# simulate

def luts_from_events(events, n_cores):
    """Legal-source sets consistent with the event list itself."""
    luts = [set() for _ in range(n_cores)]
    for tag, cores in events:
        for c in cores:
            luts[c].add(tag)
    return tuple(frozenset(s) for s in luts)


def test_simulate_empty_event_list():
    report = simulate([], Scheme.FBS, CFG16, {}, EnergyModel.default(2), [set()] * 16)
    assert report.events == 0
    assert report.packets_injected == 0
    assert report.total_energy == 0.0
    assert report.link_bit_traversals == 0


def test_simulate_single_fbs_event_energy():
    # one spike from core 0 to core 5: 26-bit header over links costing
    # 1 + 4 + 4 + 1 energy units per bit
    events = [(3, frozenset({5}))]
    mapping = {3: 0}
    luts = luts_from_events(events, 16)
    report = simulate(events, Scheme.FBS, CFG16, mapping, EnergyModel.default(2), luts)
    assert report.packets_injected == 1
    assert report.illegal_deliveries == 0
    assert report.legal_deliveries == 1
    assert report.routing_energy == pytest.approx(26 * 10.0)
    assert report.link_bit_traversals == 26 * 4
    assert report.filtering_energy == pytest.approx(8.0)
    assert report.illegal_filtering_energy == 0.0
    assert report.total_energy == pytest.approx(report.routing_energy + report.filtering_energy)


def test_simulate_counters_close_against_manual_recount():
    rng = random.Random(27)
    events = []
    for tag in range(40):
        dests = frozenset(rng.sample(range(16), rng.randint(1, 6)))
        for _ in range(rng.randint(1, 3)):
            events.append((tag, dests))
    rng.shuffle(events)
    mapping = {tag: rng.randrange(16) for tag in range(40)}
    luts = luts_from_events(events, 16)
    energy = EnergyModel.default(2)

    for scheme in Scheme:
        report = simulate(events, scheme, CFG16, mapping, energy, luts)
        routing = 0.0
        link_bits = 0
        legal = illegal = packets = 0
        header = {"fbs": 26, "symbol": 18, "hbs": 18, "unicast": 14}[scheme.value]
        for tag, dests in events:
            addr = encode(scheme, dests, CFG16)
            if scheme is Scheme.UNICAST:
                r = route_unicast_batch(addr, mapping[tag], CFG16)
            else:
                r = route_multicast(addr, mapping[tag], CFG16)
            packets += r.packets
            link_bits += len(r.links) * header
            routing += header * sum(energy.link_energy(lvl) for lvl, _ in r.links)
            for core in r.delivered:
                if tag in luts[core]:
                    legal += 1
                else:
                    illegal += 1
        assert report.packets_injected == packets
        assert report.link_bit_traversals == link_bits
        assert report.routing_energy == pytest.approx(routing)
        assert report.legal_deliveries == legal
        assert report.illegal_deliveries == illegal
        assert report.filtering_energy == pytest.approx((legal + illegal) * 8.0)
        assert report.total_energy == pytest.approx(report.routing_energy + report.filtering_energy)
        # delivery balance: every covered core filters once
        covered_total = sum(
            len(covered_set(encode(scheme, dests, CFG16), CFG16)) for _, dests in events
        )
        assert report.legal_deliveries + report.illegal_deliveries == covered_total
        if scheme in (Scheme.FBS, Scheme.UNICAST):
            assert report.illegal_deliveries == 0


def test_simulate_hbs_never_more_illegal_than_symbol():
    rng = random.Random(28)
    events = []
    for tag in range(60):
        dests = frozenset(rng.sample(range(16), rng.randint(1, 8)))
        events.append((tag, dests))
    mapping = {tag: rng.randrange(16) for tag in range(60)}
    luts = luts_from_events(events, 16)
    energy = EnergyModel.default(2)
    hbs = simulate(events, Scheme.HBS, CFG16, mapping, energy, luts)
    sym = simulate(events, Scheme.SYMBOL, CFG16, mapping, energy, luts)
    assert hbs.illegal_deliveries <= sym.illegal_deliveries
    assert hbs.routing_energy <= sym.routing_energy


def test_simulate_rejects_unmapped_and_overwide_tags():
    events = [(5, frozenset({1}))]
    with pytest.raises(ValueError, match="unmapped"):
        simulate(events, Scheme.FBS, CFG16, {}, EnergyModel.default(2), [set()] * 16)
    with pytest.raises(ValueError, match="tag"):
        simulate(
            [(5000, frozenset({1}))],
            Scheme.FBS,
            CFG16,
            {5000: 0},
            EnergyModel.default(2),
            [set()] * 16,
        )


def test_simulate_energy_model_must_match_tree_depth():
    with pytest.raises(ValueError):
        simulate([], Scheme.FBS, CFG16, {}, EnergyModel.default(3), [set()] * 16)


def test_simulate_deterministic():
    rng = random.Random(29)
    events = [
        (tag, frozenset(rng.sample(range(16), rng.randint(1, 5)))) for tag in range(30)
    ]
    mapping = {tag: rng.randrange(16) for tag in range(30)}
    luts = luts_from_events(events, 16)
    a = simulate(events, Scheme.SYMBOL, CFG16, mapping, EnergyModel.default(2), luts)
    b = simulate(events, Scheme.SYMBOL, CFG16, mapping, EnergyModel.default(2), luts)
    assert a == b
