"""Closed-form scaling laws of the addressing schemes, with enumeration oracles.

Routing-field width and addressing capability (number of distinct
nonempty covers a scheme can express) both have closed forms:

============  =============  ======================
scheme        routing bits   capability
============  =============  ======================
fbs           N              2**N - 1
symbol        2*log2(N)      3**log2(N)
hbs           k*log_k(N)     (2**k - 1)**log_k(N)
unicast       N*log2(N)      2**N - 1
============  =============  ======================

The unicast row is the worst-case total across the per-target packet
iteration (its per-packet field is just log2(N) bits, see
:func:`treecast.addressing.routing_bit_width`).

``enumerate_capability`` recounts capability by brute force: it walks
every well-formed address of a scheme, materializes its cover, and
counts distinct covers.  All capability arithmetic is exact integers.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import IO, Iterable, Sequence

from .addressing import Scheme, TreeConfig, address_class


class EnumerationBudgetError(RuntimeError):
    """Raised when brute-force enumeration would exceed the address budget."""


def routing_bits_formula(scheme: Scheme, n: int, k: int | None = None) -> int:
    """Routing bits of ``scheme`` at node count ``n`` (``k`` only for hbs)."""
    return address_class(scheme).routing_bits(n, k)


def capability_formula(scheme: Scheme, n: int, k: int | None = None) -> int:
    """Distinct nonempty covers expressible by ``scheme`` at node count ``n``."""
    return address_class(scheme).capability(n, k)


def routing_scaling_factor(k: int) -> float:
    """Growth factor k/log2(k) of the hierarchical routing-bit count.

    Minimized over the integers at k=3; k=2 and k=4 both give exactly 2,
    which matches the symbol scheme's two bits per index bit.  (Over the
    reals the minimum sits at e.)
    """
    if k < 2:
        raise ValueError(f"nodes per level must be >= 2, got {k}")
    return k / math.log2(k)


def capability_scaling_factor(k: int) -> float:
    """Growth factor (2**k - 1)**(1/log2(k)) of hierarchical capability.

    Strictly increasing in k; at k=2 it equals 3, the symbol scheme's
    three values per symbol.
    """
    if k < 2:
        raise ValueError(f"nodes per level must be >= 2, got {k}")
    return (2**k - 1) ** (1.0 / math.log2(k))


# ---------------------------------------------------------------------------
# brute-force oracle

#: Default ceiling on the number of addresses a single enumeration may walk.
DEFAULT_ENUMERATION_BUDGET = 2_000_000


def enumerate_capability(
    scheme: Scheme,
    cfg: TreeConfig,
    max_addresses: int = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """Count distinct nonempty covers by walking every well-formed address.

    Serves as the independent check of :func:`capability_formula`.
    Raises :class:`EnumerationBudgetError` when the scheme has more than
    ``max_addresses`` well-formed addresses on ``cfg`` (e.g. hbs with
    fan_out 8 and 3+ levels runs into billions of addresses).  The
    address count is the product of the choices per address field, which
    is what the closed form computes; the count of distinct covers comes
    from the walk alone.
    """
    cls = address_class(scheme)
    total = cls.capability(cfg.core_count, cfg.fan_out)
    if total > max_addresses:
        raise EnumerationBudgetError(
            f"{cls.scheme.value}: {total} addresses exceed budget {max_addresses}"
        )
    return len({addr.cover(cfg) for addr in cls.addresses(cfg)})


# ---------------------------------------------------------------------------
# tabular report

CSV_HEADER = ("scheme", "N", "k", "routing_bits", "capability", "lut_bits_per_source")


@dataclass(frozen=True)
class ScalingRow:
    """One (scheme, N, k) evaluation of the closed forms.

    ``lut_bits_per_source`` is the per-source-neuron LUT storage.  Every
    scheme stores one routing field per source (unicast: up to N targets
    of log2(N) bits), so it equals ``routing_bits``.
    """

    scheme: str
    n: int
    k: int
    routing_bits: int
    capability: int
    lut_bits_per_source: int


def emit_scaling_table(n_values: Iterable[int], k_values: Iterable[int]) -> list[ScalingRow]:
    """One row per (scheme, N, k), N-major then scheme then k.

    Every (N, k) pair must be valid for every scheme (N a power of two
    and of k), so pass matching ranges, e.g. powers of 4 with k in {2,4}.
    """
    rows = []
    for n in n_values:
        for scheme in Scheme:
            for k in k_values:
                bits = routing_bits_formula(scheme, n, k)
                rows.append(
                    ScalingRow(scheme.value, n, k, bits, capability_formula(scheme, n, k), bits)
                )
    return rows


def write_scaling_csv(rows: Sequence[ScalingRow], out: IO[str]) -> None:
    """Write rows as CSV; capabilities are printed in full decimal."""
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in rows:
        writer.writerow([r.scheme, r.n, r.k, r.routing_bits, r.capability, r.lut_bits_per_source])
