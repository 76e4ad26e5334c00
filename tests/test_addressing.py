import random

import pytest

from treecast.addressing import (
    FbsAddress,
    HbsAddress,
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

import oracles

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


def test_tree_config_rejects_bad_shape():
    with pytest.raises(ValueError):
        TreeConfig(1, 2)
    with pytest.raises(ValueError):
        TreeConfig(4, 0)


def test_index_bits_requires_power_of_two():
    assert CFG16.index_bits == 4
    with pytest.raises(ValueError):
        CFG27.index_bits


def test_path_of_examples():
    assert path_of(0, CFG16) == (0, 0)
    assert path_of(15, CFG16) == (3, 3)
    assert path_of(6, CFG16) == (1, 2)


def test_path_of_out_of_range():
    with pytest.raises(ValueError):
        path_of(16, CFG16)
    with pytest.raises(ValueError):
        path_of(-1, CFG16)


@pytest.mark.parametrize("cfg", [CFG16, CFG16_BIN, CFG27, TreeConfig(5, 2)])
def test_path_index_bijection(cfg):
    seen = set()
    for i in range(cfg.core_count):
        digits = path_of(i, cfg)
        assert len(digits) == cfg.levels
        assert all(0 <= d < cfg.fan_out for d in digits)
        assert index_of(digits, cfg) == i
        seen.add(digits)
    assert len(seen) == cfg.core_count


# ---------------------------------------------------------------------------
# encoders

def test_encode_fbs_examples():
    assert FbsAddress.encode({5}, CFG16).mask == 1 << 5
    assert FbsAddress.encode(range(16), CFG16).mask == 0xFFFF
    a = FbsAddress.encode({0, 3, 12}, CFG16)
    assert a.mask.bit_count() == 3
    assert covered_set(a, CFG16) == frozenset({0, 3, 12})


def test_encode_rejects_empty_and_out_of_range():
    for scheme in Scheme:
        with pytest.raises(ValueError):
            encode(scheme, [], CFG16)
        with pytest.raises(ValueError):
            encode(scheme, [16], CFG16)


def test_encode_symbol_examples():
    a = SymbolAddress.encode({0b0000, 0b0001}, CFG16)
    assert format_address(a, CFG16) == "000*"
    assert covered_set(a, CFG16) == frozenset({0, 1})
    assert overcoverage(a, {0, 1}, CFG16) == 0

    b = SymbolAddress.encode({0b0000, 0b1111}, CFG16)
    assert format_address(b, CFG16) == "****"
    assert len(covered_set(b, CFG16)) == 16
    assert overcoverage(b, {0, 15}, CFG16) == 14

    c = SymbolAddress.encode({7}, CFG16)
    assert format_address(c, CFG16) == "0111"
    assert covered_set(c, CFG16) == frozenset({7})


def test_encode_symbol_minimality_matches_brute_force():
    covers = [oracles.symbol_cover(p, 16) for p in oracles.all_symbol_patterns(16)]
    rng = random.Random(11)
    for _ in range(100):
        dests = random_dests(rng, 16)
        got = covered_set(SymbolAddress.encode(dests, CFG16), CFG16)
        best, hits = oracles.minimal_covers(dests, covers)
        assert len(got) == best
        assert got in hits


def test_encode_symbol_requires_power_of_two():
    with pytest.raises(ValueError):
        SymbolAddress.encode({0, 1}, CFG27)


def test_encode_hbs_examples():
    a = HbsAddress.encode({0, 5}, CFG16)
    assert a.masks == (0b0011, 0b0011)
    assert covered_set(a, CFG16) == frozenset({0, 1, 4, 5})
    assert overcoverage(a, {0, 5}, CFG16) == 2

    b = HbsAddress.encode(range(16), CFG16)
    assert b.masks == (0b1111, 0b1111)

    c = HbsAddress.encode({9}, CFG16)
    assert path_of(9, CFG16) == (2, 1)
    assert c.masks == (0b0100, 0b0010)
    assert covered_set(c, CFG16) == frozenset({9})


def test_encode_hbs_minimality_matches_brute_force():
    covers = [oracles.hbs_cover(m, 4) for m in oracles.all_hbs_masks(4, 2)]
    rng = random.Random(12)
    for _ in range(100):
        dests = random_dests(rng, 16)
        got = covered_set(HbsAddress.encode(dests, CFG16), CFG16)
        best, hits = oracles.minimal_covers(dests, covers)
        assert len(got) == best
        assert got in hits


def test_encode_hbs_works_for_non_power_of_two_fan_out():
    a = HbsAddress.encode({0, 26}, CFG27)
    assert a.masks == (0b101, 0b101, 0b101)
    assert covered_set(a, CFG27) == frozenset(
        oracles.index_from_digits(d, 3)
        for d in [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
    )


def test_encode_unicast_examples():
    assert UnicastAddress.encode({3}, CFG16).targets == (3,)
    assert UnicastAddress.encode({11, 2, 7}, CFG16).targets == (2, 7, 11)
    assert len(UnicastAddress.encode(range(16), CFG16).targets) == 16


# ---------------------------------------------------------------------------
# decoding and containment

def test_covered_set_examples():
    assert covered_set(HbsAddress((0b0110, 0b0001)), CFG16) == frozenset({4, 8})
    assert covered_set(parse_address(Scheme.SYMBOL, "1***", CFG16), CFG16) == frozenset(
        range(8, 16)
    )
    assert covered_set(FbsAddress(0b1), CFG16) == frozenset({0})


def test_covered_set_matches_oracle_for_all_small_addresses():
    for pattern in oracles.all_symbol_patterns(16):
        addr = parse_address(Scheme.SYMBOL, pattern, CFG16)
        assert covered_set(addr, CFG16) == oracles.symbol_cover(pattern, 16)
    for masks in oracles.all_hbs_masks(4, 2):
        assert covered_set(HbsAddress(masks), CFG16) == oracles.hbs_cover(masks, 4)


def test_round_trip_containment_and_exactness():
    rng = random.Random(13)
    for cfg in (CFG16, CFG16_BIN):
        for _ in range(200):
            dests = random_dests(rng, cfg.core_count)
            for scheme in Scheme:
                cover = covered_set(encode(scheme, dests, cfg), cfg)
                assert cover >= dests
                if scheme in (Scheme.FBS, Scheme.UNICAST):
                    assert cover == dests


def test_nesting_hbs_within_symbol():
    rng = random.Random(14)
    for cfg in (CFG16, CFG16_BIN, TreeConfig(4, 3)):
        for _ in range(150):
            dests = random_dests(rng, cfg.core_count, max_size=min(cfg.core_count, 10))
            hbs = cover_mask(HbsAddress.encode(dests, cfg), cfg)
            sym = cover_mask(SymbolAddress.encode(dests, cfg), cfg)
            assert hbs & ~sym == 0  # hbs cover is a subset
            assert hbs.bit_count() <= sym.bit_count()


def test_address_to_cover_injective_for_region_schemes():
    sym_covers = {
        covered_set(parse_address(Scheme.SYMBOL, p, CFG16), CFG16)
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
        assert overcoverage(FbsAddress.encode(dests, CFG16), dests, CFG16) == 0
    sym = parse_address(Scheme.SYMBOL, "00**", CFG16)
    assert overcoverage(sym, {0, 3}, CFG16) == 2
    hbs = HbsAddress((0b0011, 0b0011))
    assert overcoverage(hbs, {0, 5}, CFG16) == 2
    with pytest.raises(ValueError):
        overcoverage(FbsAddress(0b1), {0, 1}, CFG16)  # cover misses dest 1


# ---------------------------------------------------------------------------
# rotation

def test_rotate_examples():
    assert rotate_hbs(HbsAddress((0b0001, 0b0110))).masks == (0b0110, 0b0001)
    addr = HbsAddress((1, 2, 4))
    assert rotate_hbs(rotate_hbs(rotate_hbs(addr))) == addr


def test_rotate_full_cycle_identity_random():
    rng = random.Random(16)
    for _ in range(200):
        k = rng.choice([2, 3, 4, 8])
        levels = rng.randint(1, 4)
        masks = tuple(rng.randint(1, (1 << k) - 1) for _ in range(levels))
        addr = HbsAddress(masks)
        out = addr
        for _ in range(levels):
            out = rotate_hbs(out)
        assert out == addr


def test_rotation_permutes_cover_digits():
    addr = HbsAddress((0b0001, 0b0110))  # level sets {0} then {1, 2}
    rotated = rotate_hbs(addr)
    cover = covered_set(addr, CFG16)
    rotated_cover = covered_set(rotated, CFG16)
    swap = {index_of((a, b), CFG16): index_of((b, a), CFG16) for a in range(4) for b in range(4)}
    assert rotated_cover == frozenset(swap[c] for c in cover)


# ---------------------------------------------------------------------------
# widths

def test_routing_bit_width_examples():
    assert routing_bit_width(Scheme.FBS, CFG16) == 16
    assert routing_bit_width(Scheme.HBS, CFG16) == 8
    assert routing_bit_width(Scheme.SYMBOL, CFG16) == 8
    assert routing_bit_width(Scheme.UNICAST, CFG16) == 4


def test_header_widths_with_ten_bit_tag():
    tag = 10
    assert routing_bit_width(Scheme.FBS, CFG16) + tag == 26
    assert routing_bit_width(Scheme.SYMBOL, CFG16) + tag == 18
    assert routing_bit_width(Scheme.HBS, CFG16) + tag == 18


def test_routing_bit_width_non_power_of_two():
    assert routing_bit_width(Scheme.HBS, CFG27) == 9
    assert routing_bit_width(Scheme.UNICAST, CFG27) == 5  # ceil(log2 27)
    with pytest.raises(ValueError):
        routing_bit_width(Scheme.SYMBOL, CFG27)


# ---------------------------------------------------------------------------
# construction guards

def test_malformed_addresses_rejected():
    with pytest.raises(ValueError):
        FbsAddress(0)
    with pytest.raises(ValueError):
        HbsAddress((0b0011, 0))
    with pytest.raises(ValueError):
        HbsAddress(())
    with pytest.raises(ValueError):
        UnicastAddress(())
    with pytest.raises(ValueError):
        SymbolAddress(())


def test_wrong_width_addresses_rejected_on_decode():
    with pytest.raises(ValueError):
        cover_mask(FbsAddress(1 << 16), CFG16)
    with pytest.raises(ValueError):
        cover_mask(HbsAddress((0b0011,)), CFG16)  # one mask, two levels
    with pytest.raises(ValueError):
        cover_mask(HbsAddress((0b10000, 0b0011)), CFG16)  # mask wider than k
    with pytest.raises(ValueError):
        cover_mask(SymbolAddress((Sym.ZERO,)), CFG16)
    with pytest.raises(ValueError):
        cover_mask(UnicastAddress((16,)), CFG16)


def test_decode_is_deterministic_function():
    a = HbsAddress((0b0101, 0b0011))
    b = HbsAddress((0b0101, 0b0011))
    assert a == b
    assert covered_set(a, CFG16) == covered_set(b, CFG16)


# ---------------------------------------------------------------------------
# canonical text form

def test_format_examples():
    assert format_address(FbsAddress(0b1), TreeConfig(2, 2)) == "0001"
    assert format_address(HbsAddress((0b0011, 0b1100)), CFG16) == "0011/1100"
    assert format_address(UnicastAddress((2, 7, 11)), CFG16) == "2,7,11"


def test_format_parse_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        dests = random_dests(rng, 16)
        for scheme in Scheme:
            addr = encode(scheme, dests, CFG16)
            text = format_address(addr, CFG16)
            assert parse_address(scheme, text, CFG16) == addr


def test_parse_rejects_malformed_text():
    with pytest.raises(ValueError):
        parse_address(Scheme.FBS, "0101", CFG16)  # wrong length
    with pytest.raises(ValueError):
        parse_address(Scheme.SYMBOL, "00*", CFG16)
    with pytest.raises(ValueError):
        parse_address(Scheme.SYMBOL, "00x*", CFG16)
    with pytest.raises(ValueError):
        parse_address(Scheme.HBS, "0011", CFG16)  # one mask
    with pytest.raises(ValueError):
        parse_address(Scheme.HBS, "0000/0011", CFG16)  # zero mask
    with pytest.raises(ValueError):
        parse_address(Scheme.UNICAST, "1,a", CFG16)
    with pytest.raises(ValueError):
        parse_address(Scheme.UNICAST, "1,99", CFG16)
