import dataclasses
import gc
import random
import re
import sys
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from treecast.addressing import (
    FbsAddress,
    HbsAddress,
    Scheme,
    SymbolAddress,
    TreeConfig,
    UnicastAddress,
    address_class,
    cores,
    covered_set,
    encode,
    overcoverage,
    rotate_hbs,
)
from treecast.nocsim import TURNAROUND_POLICIES, route_multicast, route_unicast_batch

import oracles
from oracles import mask_of

CFG16 = TreeConfig(fan_out=4, levels=2)
CFG16_BIN = TreeConfig(fan_out=2, levels=4)
CFG27 = TreeConfig(fan_out=3, levels=3)


def random_dests(rng, n, max_size=None):
    size = rng.randint(1, max_size or n)
    return frozenset(rng.sample(range(n), size))


# ---------------------------------------------------------------------------
# tree config and paths

def test_tree_config_core_count():
    assert CFG16.core_count == 16
    assert CFG27.core_count == 27
    assert TreeConfig(2, 10).core_count == 1024


def test_tree_config_cached_constants_leave_equality_alone():
    cfg, fresh = TreeConfig(4, 2), TreeConfig(4, 2)
    assert (cfg.core_count, cfg.block_leaders) == (16, (0xFFFF, 0x1111, 0x1))
    assert cfg == fresh and hash(cfg) == hash(fresh)
    deeper = dataclasses.replace(cfg, levels=3)
    assert deeper.core_count == 64
    assert deeper.block_leaders == tuple(
        sum(1 << j * 4**level for j in range(64 // 4**level)) for level in range(4)
    )
    assert deeper != cfg and dataclasses.replace(deeper, levels=2) == cfg
    for cls, tree in ((SymbolAddress, TreeConfig(2, 4)), (FbsAddress, TreeConfig(16, 1))):
        assert cls._tree(cfg) == cls._tree(fresh) == cls._tree(TreeConfig(4, 2)) == tree


# {0, 5} and {1, 4} on 4x2 fold to one hbs and one symbol address.
FOLDED = (mask_of({0, 5}), mask_of({1, 4}))


def test_equal_folds_on_one_tree_return_one_interned_address():
    cfg = TreeConfig(4, 2)
    for scheme, text in ((Scheme.HBS, "0011/0011"), (Scheme.SYMBOL, "0*0*")):
        first, second = (encode(scheme, mask, cfg) for mask in FOLDED)
        assert first is second and first.text(cfg) == text
        assert cfg.interned[type(first), first.masks] is first
        assert first._carried[0] is cfg
    assert len(cfg.interned) == 2


def test_hbs_and_symbol_never_share_an_interned_address():
    # On the binary tree hbs and symbol give equal masks tuples.
    cfg, mask = TreeConfig(2, 4), mask_of({0, 5, 6})
    hbs, symbol = encode(Scheme.HBS, mask, cfg), encode(Scheme.SYMBOL, mask, cfg)
    assert hbs.masks == symbol.masks and hbs != symbol
    assert (type(hbs), hbs.scheme) == (HbsAddress, Scheme.HBS)
    assert (type(symbol), symbol.scheme) == (SymbolAddress, Scheme.SYMBOL)
    assert encode(Scheme.SYMBOL, mask, cfg) is symbol and encode(Scheme.HBS, mask, cfg) is hbs


def test_equal_trees_never_share_an_address():
    # Each instance interns its own addresses, carrying counts for itself, and
    # frees them with itself.
    cfg, other = TreeConfig(4, 2), TreeConfig(4, 2)
    for scheme in (Scheme.HBS, Scheme.SYMBOL):
        mine, theirs = encode(scheme, FOLDED[0], cfg), encode(scheme, FOLDED[1], other)
        assert mine == theirs and mine is not theirs
        assert mine._carried[0] is cfg and theirs._carried[0] is other
    gone = weakref.ref(other)
    del other, theirs
    gc.collect()
    assert gone() is None


def test_fbs_and_unicast_addresses_are_not_interned():
    cfg = TreeConfig(4, 2)
    for scheme in (Scheme.FBS, Scheme.UNICAST):
        first, second = (encode(scheme, FOLDED[0], cfg) for _ in range(2))
        assert first == second and first is not second
    assert not cfg.interned


def test_interning_leaves_equality_hash_repr_and_replace_alone():
    cfg, fresh = TreeConfig(4, 2), TreeConfig(4, 2)
    addr = encode(Scheme.HBS, FOLDED[0], cfg)
    assert cfg.interned and not fresh.__dict__.get("interned")
    assert cfg == fresh and hash(cfg) == hash(fresh) and repr(cfg) == repr(fresh)
    assert repr(cfg) == "TreeConfig(fan_out=4, levels=2)"
    assert dataclasses.replace(cfg) == cfg and not dataclasses.replace(cfg).interned
    by_hand = HbsAddress((3, 3))
    assert addr == by_hand and hash(addr) == hash(by_hand) and repr(addr) == repr(by_hand)
    assert vars(dataclasses.replace(addr)) == {"masks": (3, 3)}


def test_a_parsed_address_equal_to_an_interned_one_is_checked(monkeypatch):
    cfg = TreeConfig(4, 2)
    interned = encode(Scheme.HBS, FOLDED[0], cfg)
    parsed = HbsAddress.parse("0011/0011", cfg)
    assert parsed == interned and parsed is not interned
    assert parsed._carried == (None, None)
    checked = []
    original = HbsAddress._checked_tree
    monkeypatch.setattr(HbsAddress, "_checked_tree", lambda a, tree: checked.append(a) or original(a, tree))
    assert parsed.route_counts(cfg) == interned.route_counts(cfg)
    assert parsed.cover_bounds(cfg) == interned.cover_bounds(cfg)
    assert checked == [parsed, parsed]


def test_tree_config_rejects_bad_shape():
    with pytest.raises(ValueError):
        TreeConfig(1, 2)
    with pytest.raises(ValueError):
        TreeConfig(4, 0)


def test_tree_config_counts_its_cores_in_an_index():
    # levels is checked first, so a huge one costs no power.
    assert TreeConfig(2, 62).core_count == 1 << 62
    assert TreeConfig(sys.maxsize, 1).core_count == sys.maxsize
    for fan_out, levels in ((2, 63), (2, 10**20), (sys.maxsize + 1, 1), (3, 40)):
        with pytest.raises(ValueError, match=f"^{fan_out} \\*\\* {levels} cores exceed {sys.maxsize}, "):
            TreeConfig(fan_out, levels)


def test_index_bits_requires_power_of_two():
    assert CFG16.index_bits == 4
    with pytest.raises(ValueError):
        CFG27.index_bits


def test_path_of_examples():
    # A core's root-to-leaf path is its base-k digits, root level first.
    assert oracles.digits_of(0, 4, 2) == (0, 0)
    assert oracles.digits_of(15, 4, 2) == (3, 3)
    assert oracles.digits_of(6, 4, 2) == (1, 2)
    assert encode(Scheme.HBS, mask_of({6}), CFG16).masks == (1 << 1, 1 << 2)


def test_path_of_out_of_range():
    # A core outside [0, k**L) has no root-to-leaf path, so no per-level mask.
    for cfg in (CFG16, CFG27):
        for mask in (1 << cfg.core_count, 1 << cfg.core_count | 1, -1):
            with pytest.raises(ValueError):
                encode(Scheme.HBS, mask, cfg)


@pytest.mark.parametrize("cfg", [CFG16, CFG16_BIN, CFG27, TreeConfig(5, 2)])
def test_path_index_bijection(cfg):
    seen = set()
    for i in range(cfg.core_count):
        digits = oracles.digits_of(i, cfg.fan_out, cfg.levels)
        assert len(digits) == cfg.levels
        assert all(0 <= d < cfg.fan_out for d in digits)
        assert oracles.index_from_digits(digits, cfg.fan_out) == i
        assert encode(Scheme.HBS, mask_of({i}), cfg).masks == tuple(1 << d for d in digits)
        seen.add(digits)
    assert len(seen) == cfg.core_count


# ---------------------------------------------------------------------------
# encoders

def test_encode_fbs_examples():
    assert encode(Scheme.FBS, mask_of({5}), CFG16).masks == (1 << 5,)
    assert encode(Scheme.FBS, mask_of(range(16)), CFG16).masks == (0xFFFF,)
    a = encode(Scheme.FBS, mask_of({0, 3, 12}), CFG16)
    assert a.masks[0].bit_count() == 3
    assert covered_set(a, CFG16) == frozenset({0, 3, 12})


def test_encode_rejects_empty_and_out_of_range():
    for scheme in Scheme:
        with pytest.raises(ValueError, match="nonempty"):
            encode(scheme, 0, CFG16)
        # a core past the tree, alone or beside a valid one, and a negative mask
        for mask in (1 << 16, 1 << 16 | 1, -1):
            with pytest.raises(ValueError, match=r"\[0, 16\)"):
                encode(scheme, mask, CFG16)


def test_encode_symbol_examples():
    a = encode(Scheme.SYMBOL, mask_of({0b0000, 0b0001}), CFG16)
    assert a.text(CFG16) == "000*"
    assert covered_set(a, CFG16) == frozenset({0, 1})
    assert overcoverage(a, mask_of({0, 1}), CFG16) == 0

    b = encode(Scheme.SYMBOL, mask_of({0b0000, 0b1111}), CFG16)
    assert b.text(CFG16) == "****"
    assert len(covered_set(b, CFG16)) == 16
    assert overcoverage(b, mask_of({0, 15}), CFG16) == 14

    c = encode(Scheme.SYMBOL, mask_of({7}), CFG16)
    assert c.text(CFG16) == "0111"
    assert covered_set(c, CFG16) == frozenset({7})


def test_encode_symbol_minimality_matches_brute_force():
    covers = [oracles.symbol_cover(p, 16) for p in oracles.all_symbol_patterns(16)]
    rng = random.Random(11)
    for _ in range(100):
        dests = random_dests(rng, 16)
        got = covered_set(encode(Scheme.SYMBOL, mask_of(dests), CFG16), CFG16)
        best, hits = oracles.minimal_covers(dests, covers)
        assert len(got) == best
        assert got in hits


def test_encode_symbol_requires_power_of_two():
    with pytest.raises(ValueError):
        encode(Scheme.SYMBOL, mask_of({0, 1}), CFG27)


def test_encode_hbs_examples():
    a = encode(Scheme.HBS, mask_of({0, 5}), CFG16)
    assert a.masks == (0b0011, 0b0011)
    assert covered_set(a, CFG16) == frozenset({0, 1, 4, 5})
    assert overcoverage(a, mask_of({0, 5}), CFG16) == 2

    b = encode(Scheme.HBS, mask_of(range(16)), CFG16)
    assert b.masks == (0b1111, 0b1111)

    c = encode(Scheme.HBS, mask_of({9}), CFG16)
    assert oracles.digits_of(9, 4, 2) == (2, 1)
    assert c.masks == (0b0100, 0b0010)
    assert covered_set(c, CFG16) == frozenset({9})


def test_encode_hbs_minimality_matches_brute_force():
    covers = [oracles.hbs_cover(m, 4) for m in oracles.all_hbs_masks(4, 2)]
    rng = random.Random(12)
    for _ in range(100):
        dests = random_dests(rng, 16)
        got = covered_set(encode(Scheme.HBS, mask_of(dests), CFG16), CFG16)
        best, hits = oracles.minimal_covers(dests, covers)
        assert len(got) == best
        assert got in hits


def test_encode_hbs_works_for_non_power_of_two_fan_out():
    a = encode(Scheme.HBS, mask_of({0, 26}), CFG27)
    assert a.masks == (0b101, 0b101, 0b101)
    assert covered_set(a, CFG27) == frozenset(
        oracles.index_from_digits(d, 3)
        for d in [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    )


def test_encode_unicast_examples():
    assert encode(Scheme.UNICAST, mask_of({3}), CFG16).targets == (3,)
    assert encode(Scheme.UNICAST, mask_of({11, 2, 7}), CFG16).targets == (2, 7, 11)
    assert len(encode(Scheme.UNICAST, mask_of(range(16)), CFG16).targets) == 16


ENCODER_TREES = [TreeConfig(k, levels) for k in (2, 3, 4) for levels in range(1, 6)]
ENCODER_TREES.append(TreeConfig(2, 10))


@st.composite
def encoder_cases(draw):
    cfg = draw(st.sampled_from(ENCODER_TREES))
    schemes = [s for s in Scheme if s is not Scheme.SYMBOL or cfg.fan_out != 3]
    dests = draw(st.sets(st.integers(0, cfg.core_count - 1), min_size=1, max_size=40))
    return cfg, draw(st.sampled_from(schemes)), frozenset(dests)


@settings(max_examples=300, deadline=None)
@given(encoder_cases())
def test_encoder_containment_minimality_round_trip(case):
    cfg, scheme, dests = case
    addr = encode(scheme, mask_of(dests), cfg)
    text = addr.text(cfg)
    assert address_class(scheme).parse(text, cfg) == addr
    if scheme is Scheme.SYMBOL:
        # each position is the destinations' common bit, or * when they differ
        bits = cfg.index_bits
        for pos, c in enumerate(text):
            seen = {oracles.digits_of(d, 2, bits)[pos] for d in dests}
            assert c == ("*" if len(seen) == 2 else str(seen.pop()))
        cover = oracles.symbol_cover(text, cfg.core_count)
    elif scheme is Scheme.HBS:
        # each level mask holds exactly the destinations' digits at that level
        for lvl, mask in enumerate(addr.masks):
            seen = {oracles.digits_of(d, cfg.fan_out, cfg.levels)[lvl] for d in dests}
            assert mask == sum(1 << digit for digit in seen)
        cover = oracles.hbs_cover(addr.masks, cfg.fan_out)
    else:
        cover = dests
    assert dests <= cover
    assert covered_set(addr, cfg) == cover


FOLD_TREES = [
    TreeConfig(k, levels) for k, deepest in ((2, 10), (3, 5), (4, 5), (8, 3)) for levels in range(1, deepest + 1)
]


@st.composite
def fold_cases(draw):
    cfg = draw(st.sampled_from(FOLD_TREES))
    n = cfg.core_count
    dests = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=40) | st.just(frozenset(range(n))))
    return cfg, frozenset(dests)


@settings(max_examples=300, deadline=None)
@given(fold_cases())
def test_mask_encoders_match_member_wise_oracles(case):
    # The mask fold against the set-in encoders; k = 3 is not a power of two, so no symbol.
    # The encoders build their result without the validating constructor,
    # which must accept it as it is; the multicast counts read its masks.
    cfg, dests = case
    mask = mask_of(dests)
    assert encode(Scheme.FBS, mask, cfg).masks == (mask,)
    assert encode(Scheme.HBS, mask, cfg).masks == oracles.hbs_encode(dests, cfg.fan_out, cfg.levels)
    assert encode(Scheme.UNICAST, mask, cfg).targets == oracles.unicast_encode(dests)
    if cfg.fan_out != 3:
        assert encode(Scheme.SYMBOL, mask, cfg).masks == oracles.symbol_encode(dests, cfg.core_count)
    for scheme in Scheme:
        if scheme is Scheme.SYMBOL and cfg.fan_out == 3:
            continue
        addr = encode(scheme, mask, cfg)
        assert type(addr)(addr.masks) == addr
        if scheme in (Scheme.HBS, Scheme.SYMBOL):
            step = len(addr.masks) // cfg.levels
            assert addr.covered_per_height(cfg) == oracles.covered_per_height(addr.masks, step)
        else:  # the flat mask covers the destinations exactly
            k = cfg.fan_out
            assert addr.covered_per_height(cfg) == tuple(
                len({d // k**h for d in dests}) for h in range(cfg.levels + 1)
            )


@pytest.mark.parametrize("cfg", [CFG16, TreeConfig(3, 2), TreeConfig(2, 5)])
def test_fbs_is_hbs_on_the_one_level_tree(cfg):
    # As symbol is hbs on the binary tree, fbs is hbs on TreeConfig(N, 1).
    n = cfg.core_count
    flat = TreeConfig(n, 1)
    fbs, hbs = address_class(Scheme.FBS), address_class(Scheme.HBS)
    assert fbs.width(cfg) == fbs.routing_bits(cfg) == hbs.width(flat) == hbs.routing_bits(flat) == n
    assert fbs.capability(cfg) == hbs.capability(flat) == 2**n - 1
    rng = random.Random(n)
    for _ in range(100):
        mask = mask_of(random_dests(rng, n))
        a, b = encode(Scheme.FBS, mask, cfg), encode(Scheme.HBS, mask, flat)
        assert a.masks == b.masks == (mask,)
        assert a.cover(cfg) == b.cover(flat) == mask
        assert a.text(cfg) == b.text(flat) == format(mask, f"0{n}b")
        assert fbs.parse(a.text(cfg), cfg) == a


@st.composite
def mask_cases(draw):
    cfg = draw(st.sampled_from(ENCODER_TREES))
    return cfg, draw(st.integers(1, (1 << cfg.core_count) - 1))


@settings(max_examples=300, deadline=None)
@given(mask_cases())
def test_unicast_is_fbs_sent_one_packet_per_target(case):
    cfg, mask = case
    unicast = encode(Scheme.UNICAST, mask, cfg)
    assert unicast.masks == encode(Scheme.FBS, mask, cfg).masks == (mask,)
    assert unicast.targets == oracles.unicast_encode(t for t in range(cfg.core_count) if mask >> t & 1)
    assert address_class(Scheme.UNICAST).parse(unicast.text(cfg), cfg) == unicast


def test_unicast_rejects_repeated_targets():
    # Only text from outside can repeat a target; a mask holds each core once.
    with pytest.raises(ValueError, match="^unicast targets must not repeat$"):
        address_class(Scheme.UNICAST).parse("1,3,1", CFG16)
    assert encode(Scheme.UNICAST, mask_of([3, 3, 1]), CFG16) == UnicastAddress((mask_of({1, 3}),))


@pytest.mark.parametrize("text, target", [("-1", -1), ("2,16", 16), ("3,-4,5", -4)])
def test_unicast_parse_rejects_targets_out_of_range(text, target):
    with pytest.raises(ValueError, match=re.escape(f"unicast target {target} out of range [0, 16)")):
        address_class(Scheme.UNICAST).parse(text, CFG16)


# ---------------------------------------------------------------------------
# decoding and containment

def test_covered_set_examples():
    assert covered_set(HbsAddress((0b0110, 0b0001)), CFG16) == frozenset({4, 8})
    assert covered_set(address_class(Scheme.SYMBOL).parse("1***", CFG16), CFG16) == frozenset(
        range(8, 16)
    )
    assert covered_set(FbsAddress((0b1,)), CFG16) == frozenset({0})


@settings(max_examples=200, deadline=None)
@given(st.integers(0, (1 << 2048) - 1) | st.sets(st.integers(0, 2047)).map(lambda s: sum(1 << i for i in s)))
def test_cores_lists_the_set_bits_in_ascending_order(mask):
    assert cores(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_covered_set_matches_oracle_for_all_small_addresses():
    for pattern in oracles.all_symbol_patterns(16):
        addr = address_class(Scheme.SYMBOL).parse(pattern, CFG16)
        assert covered_set(addr, CFG16) == oracles.symbol_cover(pattern, 16)
    for masks in oracles.all_hbs_masks(4, 2):
        assert covered_set(HbsAddress(masks), CFG16) == oracles.hbs_cover(masks, 4)


def test_round_trip_containment_and_exactness():
    rng = random.Random(13)
    for cfg in (CFG16, CFG16_BIN):
        for _ in range(200):
            dests = random_dests(rng, cfg.core_count)
            for scheme in Scheme:
                cover = covered_set(encode(scheme, mask_of(dests), cfg), cfg)
                assert cover >= dests
                if scheme in (Scheme.FBS, Scheme.UNICAST):
                    assert cover == dests


def test_nesting_hbs_within_symbol():
    rng = random.Random(14)
    for cfg in (CFG16, CFG16_BIN, TreeConfig(4, 3)):
        for _ in range(150):
            dests = random_dests(rng, cfg.core_count, max_size=min(cfg.core_count, 10))
            hbs = encode(Scheme.HBS, mask_of(dests), cfg).cover(cfg)
            sym = encode(Scheme.SYMBOL, mask_of(dests), cfg).cover(cfg)
            assert hbs & ~sym == 0  # hbs cover is a subset
            assert hbs.bit_count() <= sym.bit_count()


def test_address_to_cover_injective_for_region_schemes():
    sym_covers = {
        covered_set(address_class(Scheme.SYMBOL).parse(p, CFG16), CFG16)
        for p in oracles.all_symbol_patterns(16)
    }
    assert len(sym_covers) == 3**4
    hbs_covers = {covered_set(HbsAddress(m), CFG16) for m in oracles.all_hbs_masks(4, 2)}
    assert len(hbs_covers) == 15**2
    cfg9 = TreeConfig(3, 2)
    covers9 = {covered_set(HbsAddress(m), cfg9) for m in oracles.all_hbs_masks(3, 2)}
    assert len(covers9) == 7**2


def test_overcoverage_examples_and_error():
    rng = random.Random(15)
    for _ in range(50):
        dests = random_dests(rng, 16)
        mask = mask_of(dests)
        assert overcoverage(encode(Scheme.FBS, mask, CFG16), mask, CFG16) == 0
    sym = address_class(Scheme.SYMBOL).parse("00**", CFG16)
    assert overcoverage(sym, mask_of({0, 3}), CFG16) == 2
    hbs = HbsAddress((0b0011, 0b0011))
    assert overcoverage(hbs, mask_of({0, 5}), CFG16) == 2
    with pytest.raises(ValueError):
        overcoverage(FbsAddress((0b1,)), mask_of({0, 1}), CFG16)  # cover misses dest 1
    with pytest.raises(ValueError, match="nonempty"):
        overcoverage(hbs, 0, CFG16)


# ---------------------------------------------------------------------------
# rotation

def test_rotate_examples():
    assert rotate_hbs(HbsAddress((0b0001, 0b0110))).masks == (0b0110, 0b0001)
    addr = HbsAddress((1, 2, 4))
    assert rotate_hbs(rotate_hbs(rotate_hbs(addr))) == addr


@st.composite
def hbs_addresses(draw):
    cfg = TreeConfig(draw(st.sampled_from([2, 3, 4, 8])), draw(st.integers(1, 4)))
    mask = st.integers(1, (1 << cfg.fan_out) - 1)
    return cfg, HbsAddress(tuple(draw(st.lists(mask, min_size=cfg.levels, max_size=cfg.levels))))


@settings(max_examples=200, deadline=None)
@given(hbs_addresses())
def test_rotate_full_cycle_identity_random(case):
    cfg, addr = case
    out = addr
    for _ in range(cfg.levels):
        out = rotate_hbs(out)
    assert out == addr


@settings(max_examples=200, deadline=None)
@given(hbs_addresses())
def test_each_rotation_moves_the_root_digit_of_every_covered_core_last(case):
    cfg, addr = case
    k, levels = cfg.fan_out, cfg.levels
    for _ in range(levels):
        rotated = rotate_hbs(addr)
        moved = set()
        for core in covered_set(addr, cfg):
            digits = oracles.digits_of(core, k, levels)
            moved.add(oracles.index_from_digits(digits[1:] + digits[:1], k))
        assert covered_set(rotated, cfg) == moved
        addr = rotated


def test_rotation_permutes_cover_digits():
    addr = HbsAddress((0b0001, 0b0110))  # level sets {0} then {1, 2}
    rotated = rotate_hbs(addr)
    cover = covered_set(addr, CFG16)
    rotated_cover = covered_set(rotated, CFG16)
    swap = {
        oracles.index_from_digits((a, b), 4): oracles.index_from_digits((b, a), 4)
        for a in range(4)
        for b in range(4)
    }
    assert rotated_cover == frozenset(swap[c] for c in cover)


# ---------------------------------------------------------------------------
# widths

def test_width_examples():
    assert address_class(Scheme.FBS).width(CFG16) == 16
    assert address_class(Scheme.HBS).width(CFG16) == 8
    assert address_class(Scheme.SYMBOL).width(CFG16) == 8
    assert address_class(Scheme.UNICAST).width(CFG16) == 4


def test_header_widths_with_ten_bit_tag():
    tag = 10
    assert address_class(Scheme.FBS).width(CFG16) + tag == 26
    assert address_class(Scheme.SYMBOL).width(CFG16) + tag == 18
    assert address_class(Scheme.HBS).width(CFG16) + tag == 18


def test_width_non_power_of_two():
    assert address_class(Scheme.HBS).width(CFG27) == 9
    assert address_class(Scheme.UNICAST).width(CFG27) == 5  # ceil(log2 27)
    with pytest.raises(ValueError):
        address_class(Scheme.SYMBOL).width(CFG27)


# ---------------------------------------------------------------------------
# construction guards

def test_malformed_addresses_rejected():
    with pytest.raises(ValueError):
        FbsAddress((0,))
    with pytest.raises(ValueError):
        HbsAddress((0b0011, 0))
    with pytest.raises(ValueError):
        HbsAddress(())
    with pytest.raises(ValueError):
        UnicastAddress(())
    with pytest.raises(ValueError):
        SymbolAddress(())


def test_wrong_width_addresses_rejected_on_decode():
    malformed = (
        FbsAddress((1 << 16,)),
        HbsAddress((0b0011,)),  # one mask, two levels
        HbsAddress((0b10000, 0b0011)),  # mask wider than k
        SymbolAddress((0b01,)),
        UnicastAddress((1 << 16,)),  # core 16 of 16
    )
    for addr in malformed:
        with pytest.raises(ValueError) as decoded:
            addr.cover(CFG16)
        # The routers reject the field with the cover's own message; a
        # multicast route reads its counts off the masks, not off the cover.
        exact = f"^{re.escape(str(decoded.value))}$"
        if isinstance(addr, UnicastAddress):
            with pytest.raises(ValueError, match=exact):
                route_unicast_batch(addr, 0, CFG16)
            continue
        for read in (addr.covered_per_height, addr.cover_bounds):
            with pytest.raises(ValueError, match=exact):
                read(CFG16)
        for turnaround in TURNAROUND_POLICIES:
            with pytest.raises(ValueError, match=exact):
                route_multicast(addr, 0, CFG16, turnaround)


def test_decode_is_deterministic_function():
    a = HbsAddress((0b0101, 0b0011))
    b = HbsAddress((0b0101, 0b0011))
    assert a == b
    assert covered_set(a, CFG16) == covered_set(b, CFG16)


# ---------------------------------------------------------------------------
# canonical text form

def test_format_examples():
    assert FbsAddress((0b1,)).text(TreeConfig(2, 2)) == "0001"
    assert HbsAddress((0b0011, 0b1100)).text(CFG16) == "0011/1100"
    assert UnicastAddress((mask_of({2, 7, 11}),)).text(CFG16) == "2,7,11"


def test_format_parse_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        dests = random_dests(rng, 16)
        for scheme in Scheme:
            addr = encode(scheme, mask_of(dests), CFG16)
            text = addr.text(CFG16)
            assert address_class(scheme).parse(text, CFG16) == addr


def test_parse_rejects_malformed_text():
    for text in ("0101", "0000/0000"):  # wrong length, two masks
        with pytest.raises(ValueError, match="^fbs address must be a 16-char binary string$"):
            address_class(Scheme.FBS).parse(text, CFG16)
    with pytest.raises(ValueError):
        address_class(Scheme.SYMBOL).parse("00*", CFG16)
    with pytest.raises(ValueError):
        address_class(Scheme.SYMBOL).parse("00x*", CFG16)
    with pytest.raises(ValueError, match="^hbs address must be 2 slash-separated 4-char binary masks$"):
        address_class(Scheme.HBS).parse("0011", CFG16)  # one mask
    with pytest.raises(ValueError):
        address_class(Scheme.HBS).parse("0000/0011", CFG16)  # zero mask
    with pytest.raises(ValueError):
        address_class(Scheme.UNICAST).parse("1,a", CFG16)
    with pytest.raises(ValueError):
        address_class(Scheme.UNICAST).parse("1,99", CFG16)
