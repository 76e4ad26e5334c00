import io

import pytest

from treecast.addressing import Scheme, TreeConfig, address_class
from treecast.scaling import (
    CSV_HEADER,
    EnumerationBudgetError,
    capability_scaling_factor,
    emit_scaling_table,
    enumerate_capability,
    routing_scaling_factor,
    write_scaling_csv,
)

import oracles


CFG16 = TreeConfig(4, 2)


def test_routing_bits_examples():
    assert address_class(Scheme.UNICAST).routing_bits(CFG16) == 64
    assert address_class(Scheme.UNICAST).routing_bits(TreeConfig(2, 4)) == 64
    assert address_class(Scheme.HBS).routing_bits(TreeConfig(4, 4)) == 16
    assert address_class(Scheme.FBS).routing_bits(TreeConfig(2, 1)) == 2
    assert address_class(Scheme.FBS).routing_bits(CFG16) == 16
    assert address_class(Scheme.SYMBOL).routing_bits(CFG16) == 8
    assert address_class(Scheme.SYMBOL).routing_bits(TreeConfig(2, 4)) == 8
    assert address_class(Scheme.HBS).routing_bits(CFG16) == 8
    assert address_class(Scheme.HBS).routing_bits(TreeConfig(2, 4)) == 8
    # 9 cores: unicast stores up to 9 targets of ceil(log2 9) = 4 bits each
    assert address_class(Scheme.UNICAST).routing_bits(TreeConfig(3, 2)) == 36
    assert address_class(Scheme.HBS).routing_bits(TreeConfig(3, 2)) == 6


def test_capability_examples():
    assert address_class(Scheme.SYMBOL).capability(CFG16) == 81
    assert address_class(Scheme.SYMBOL).capability(TreeConfig(2, 4)) == 81
    assert address_class(Scheme.HBS).capability(CFG16) == 225
    assert address_class(Scheme.HBS).capability(TreeConfig(2, 4)) == 81
    assert address_class(Scheme.FBS).capability(CFG16) == 65535
    assert address_class(Scheme.UNICAST).capability(CFG16) == 65535


def test_capability_is_exact_arbitrary_precision():
    cap = address_class(Scheme.FBS).capability(TreeConfig(2, 12))
    assert isinstance(cap, int)
    assert cap == 2**4096 - 1
    assert cap.bit_length() == 4096
    assert address_class(Scheme.HBS).capability(TreeConfig(4, 6)) == 15**6


def test_formula_input_validation():
    with pytest.raises(ValueError):
        address_class(Scheme.SYMBOL).routing_bits(TreeConfig(3, 2))  # not a power of two
    with pytest.raises(ValueError):
        address_class(Scheme.SYMBOL).capability(TreeConfig(3, 2))
    with pytest.raises(ValueError):
        routing_scaling_factor(1)
    with pytest.raises(ValueError):
        capability_scaling_factor(1)


def test_routing_scaling_factor_values():
    assert routing_scaling_factor(2) == pytest.approx(2.0, abs=1e-12)
    assert routing_scaling_factor(4) == pytest.approx(2.0, abs=1e-12)
    assert routing_scaling_factor(3) == pytest.approx(3 / 1.584962500721156, rel=1e-12)
    values = {k: routing_scaling_factor(k) for k in range(2, 17)}
    assert min(values, key=values.get) == 3


def test_capability_scaling_factor_values():
    assert capability_scaling_factor(2) == pytest.approx(3.0, abs=1e-12)
    assert capability_scaling_factor(4) == pytest.approx(15**0.5, rel=1e-12)
    assert capability_scaling_factor(8) == pytest.approx(255 ** (1 / 3), rel=1e-12)
    values = [capability_scaling_factor(k) for k in range(2, 17)]
    assert all(a < b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# enumeration oracle

def test_enumerate_fbs_small():
    assert enumerate_capability(Scheme.FBS, TreeConfig(2, 2)) == 15
    assert enumerate_capability(Scheme.FBS, TreeConfig(2, 4)) == 65535


def test_enumerate_symbol_small():
    for levels in (1, 2, 3, 4):
        cfg = TreeConfig(2, levels)
        assert enumerate_capability(Scheme.SYMBOL, cfg) == 3**levels


def test_enumerate_hbs_matches_formula_and_brute_covers():
    cfg = TreeConfig(4, 2)
    assert enumerate_capability(Scheme.HBS, cfg) == 225
    # cross-check against a fully independent cover materialization
    covers = {oracles.hbs_cover(m, 4) for m in oracles.all_hbs_masks(4, 2)}
    assert len(covers) == 225


def test_enumerate_matches_formula_grid():
    grids = {
        Scheme.HBS: [(2, 5), (3, 3), (4, 3), (8, 2), (5, 2)],
        Scheme.SYMBOL: [(2, 1), (2, 4), (4, 2), (8, 1)],
        # fbs and unicast have one address per subset: keep N small
        Scheme.FBS: [(2, 1), (2, 3), (3, 2), (4, 2)],
        Scheme.UNICAST: [(2, 1), (2, 3), (3, 2), (4, 2)],
    }
    for scheme, grid in grids.items():
        for k, levels in grid:
            cfg = TreeConfig(k, levels)
            assert enumerate_capability(scheme, cfg) == address_class(scheme).capability(cfg)


def test_enumerate_budget_error():
    with pytest.raises(EnumerationBudgetError):
        enumerate_capability(Scheme.FBS, TreeConfig(2, 6), max_addresses=10)
    with pytest.raises(EnumerationBudgetError):
        enumerate_capability(Scheme.HBS, TreeConfig(8, 4))  # 255**4 addresses


# ---------------------------------------------------------------------------
# table emission

def test_emit_scaling_table_shape_and_values():
    rows = emit_scaling_table([16, 64, 256, 1024], [4])
    assert len(rows) == 16
    at16 = {r.scheme: r for r in rows if r.n == 16}
    assert [at16[s].routing_bits for s in ("fbs", "symbol", "hbs", "unicast")] == [16, 8, 8, 64]
    assert [at16[s].capability for s in ("fbs", "symbol", "hbs", "unicast")] == [
        65535,
        81,
        225,
        65535,
    ]


def test_emit_scaling_table_empty():
    assert emit_scaling_table([], [2, 4]) == []


def test_scaling_csv_deterministic_bytes():
    rows = emit_scaling_table([4, 16], [2, 4])
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        write_scaling_csv(rows, buf)
        bufs.append(buf.getvalue())
    assert bufs[0] == bufs[1]
    lines = bufs[0].splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    assert lines[1] == "fbs,4,2,4,15"
