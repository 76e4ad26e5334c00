"""Destination-set address codecs for cores at the leaves of a k-ary tree.

Cores sit at the leaves of a balanced tree with ``fan_out`` children per
switch and ``levels`` levels, so there are ``fan_out ** levels`` cores.
A multicast address names a set of destination cores in one of four
interchangeable encodings:

* flat bitmask (``fbs``)     -- one bit per core; exact, header width N
* symbol string (``symbol``) -- one {0,1,*} symbol per index bit; width
  2*log2(N), may cover extra cores
* hierarchical masks (``hbs``) -- one k-bit child mask per tree level;
  width k*levels, may cover extra cores but never more than the symbol
  encoding of the same destinations (for power-of-two fan-out)
* unicast list (``unicast``) -- plain target indices, one packet each

The region-based encodings (symbol, hbs) trade header width for
overcoverage: cores outside the requested set that still receive the
packet and must filter it.  ``covered_set`` and ``overcoverage``
quantify that trade.

Each encoding is one frozen address class that owns everything specific
to its scheme: ``encode``, ``cover``, the header ``width``, the text form
(``text`` and ``parse``), the switch port choice ``select``, the closed
forms ``routing_bits`` and ``capability``, and ``addresses``, which walks
every well-formed address.  The registry :func:`address_class` maps a
:class:`Scheme` to its class; the module functions below are each one
lookup or method call, and no other module branches on the scheme.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence, Union


class Scheme(str, Enum):
    """Identifier for the four addressing encodings."""

    FBS = "fbs"
    SYMBOL = "symbol"
    HBS = "hbs"
    UNICAST = "unicast"


class Sym(str, Enum):
    """One position of a symbol address: fixed bit value or wildcard."""

    ZERO = "0"
    ONE = "1"
    STAR = "*"


@dataclass(frozen=True)
class TreeConfig:
    """Shape of the core tree: ``fan_out`` children per switch, ``levels`` deep."""

    fan_out: int
    levels: int

    def __post_init__(self) -> None:
        if not isinstance(self.fan_out, int) or self.fan_out < 2:
            raise ValueError(f"fan_out must be an integer >= 2, got {self.fan_out!r}")
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ValueError(f"levels must be an integer >= 1, got {self.levels!r}")

    @property
    def core_count(self) -> int:
        return self.fan_out ** self.levels

    @property
    def index_bits(self) -> int:
        """log2 of the core count.  Raises when it is not a power of two."""
        n = self.core_count
        b = n.bit_length() - 1
        if (1 << b) != n:
            raise ValueError(
                f"core count {n} (fan_out={self.fan_out}, levels={self.levels}) "
                "is not a power of two; the symbol scheme does not apply"
            )
        return b


def tree_levels(n: int, k: int) -> int:
    """Levels L with k**L == n, or ValueError."""
    if k < 2:
        raise ValueError(f"nodes per level must be >= 2, got {k}")
    levels = 0
    m = 1
    while m < n:
        m *= k
        levels += 1
    if m != n or levels == 0:
        raise ValueError(f"node count {n} is not a positive power of k={k}")
    return levels


# ---------------------------------------------------------------------------
# core index <-> tree path

def path_of(index: int, cfg: TreeConfig) -> tuple[int, ...]:
    """Base-k digits of a core index, root-level digit first."""
    n = cfg.core_count
    if not 0 <= index < n:
        raise ValueError(f"core index {index} out of range [0, {n})")
    k = cfg.fan_out
    digits = [0] * cfg.levels
    for i in range(cfg.levels - 1, -1, -1):
        digits[i] = index % k
        index //= k
    return tuple(digits)


def index_of(digits: Sequence[int], cfg: TreeConfig) -> int:
    """Inverse of :func:`path_of`."""
    if len(digits) != cfg.levels:
        raise ValueError(f"expected {cfg.levels} digits, got {len(digits)}")
    k = cfg.fan_out
    index = 0
    for d in digits:
        if not 0 <= d < k:
            raise ValueError(f"digit {d} out of range [0, {k})")
        index = index * k + d
    return index


def _check_dests(dests: Iterable[int], cfg: TreeConfig) -> frozenset[int]:
    members = frozenset(dests)
    if not members:
        raise ValueError("destination set must be nonempty")
    n = cfg.core_count
    for d in members:
        if not 0 <= d < n:
            raise ValueError(f"destination {d} out of range [0, {n})")
    return members


# ---------------------------------------------------------------------------
# one class per scheme
#
# ``select(depth, switch, cfg)`` is the port choice of the switch ``switch``
# at ``depth`` hops below the root: it returns the head field that switch
# reads and the Down ports (child digits) it forwards to.  ``routing_bits``
# and ``capability`` take the node count ``n`` and the per-level fan-out
# ``k``, which only hbs needs.

@dataclass(frozen=True)
class FbsAddress:
    """Flat bitmask: bit i set means core i is a destination."""

    mask: int

    scheme = Scheme.FBS

    def __post_init__(self) -> None:
        if self.mask <= 0:
            raise ValueError("flat bitmask must be a nonzero positive integer")

    @classmethod
    def encode(cls, dests: Iterable[int], cfg: TreeConfig) -> FbsAddress:
        """Exact flat bitmask of the destination set."""
        mask = 0
        for d in _check_dests(dests, cfg):
            mask |= 1 << d
        return cls(mask)

    def cover(self, cfg: TreeConfig) -> int:
        n = cfg.core_count
        if self.mask >= (1 << n):
            raise ValueError(f"flat bitmask wider than {n} cores")
        return self.mask

    @staticmethod
    def width(cfg: TreeConfig) -> int:
        return cfg.core_count

    def text(self, cfg: TreeConfig) -> str:
        """N-char binary string, bit N-1 leftmost."""
        return format(self.mask, f"0{cfg.core_count}b")

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> FbsAddress:
        n = cfg.core_count
        if len(text) != n or any(c not in "01" for c in text):
            raise ValueError(f"fbs address must be a {n}-char binary string")
        return cls(int(text, 2))

    def select(self, depth: int, switch: int, cfg: TreeConfig) -> tuple[None, tuple[int, ...]]:
        """No head field: forward to every child whose core block the mask touches."""
        k = cfg.fan_out
        span = k ** (cfg.levels - depth - 1)
        block = (1 << span) - 1
        return None, tuple(
            d for d in range(k) if self.mask & (block << ((switch * k + d) * span))
        )

    @staticmethod
    def routing_bits(n: int, k: int | None = None) -> int:
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        return n

    @staticmethod
    def capability(n: int, k: int | None = None) -> int:
        if n < 1:
            raise ValueError(f"node count must be >= 1, got {n}")
        return 2**n - 1

    @classmethod
    def addresses(cls, cfg: TreeConfig) -> Iterator[FbsAddress]:
        return (cls(mask) for mask in range(1, 1 << cfg.core_count))


@dataclass(frozen=True)
class SymbolAddress:
    """Per-index-bit symbols, root-level bit first."""

    symbols: tuple[Sym, ...]

    scheme = Scheme.SYMBOL

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("symbol address must have at least one symbol")
        if not all(isinstance(s, Sym) for s in self.symbols):
            raise ValueError("symbol address entries must be Sym values")

    @classmethod
    def encode(cls, dests: Iterable[int], cfg: TreeConfig) -> SymbolAddress:
        """Minimal covering symbol string.

        Each index-bit position gets a fixed symbol when all destinations
        agree there, and the wildcard otherwise.  The resulting cover is the
        smallest symbol-expressible superset of the destinations.
        """
        members = _check_dests(dests, cfg)
        bits = cfg.index_bits
        symbols = []
        for pos in range(bits):
            shift = bits - 1 - pos  # pos 0 is the root-level (most significant) bit
            seen = {(d >> shift) & 1 for d in members}
            if seen == {0}:
                symbols.append(Sym.ZERO)
            elif seen == {1}:
                symbols.append(Sym.ONE)
            else:
                symbols.append(Sym.STAR)
        return cls(tuple(symbols))

    def cover(self, cfg: TreeConfig) -> int:
        # Build the cover bitmask from the least significant index bit up:
        # each fixed symbol shifts the partial cover into one half, the
        # wildcard keeps both halves.
        bits = cfg.index_bits
        if len(self.symbols) != bits:
            raise ValueError(
                f"expected {bits} symbols for {cfg.core_count} cores, got {len(self.symbols)}"
            )
        cover = 1
        span = 1
        for sym in reversed(self.symbols):
            if sym is Sym.ONE:
                cover = cover << span
            elif sym is Sym.STAR:
                cover = cover | (cover << span)
            span <<= 1
        return cover

    @staticmethod
    def width(cfg: TreeConfig) -> int:
        return 2 * cfg.index_bits

    def text(self, cfg: TreeConfig) -> str:
        """{0,1,*} string, root-level bit first."""
        return "".join(s.value for s in self.symbols)

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> SymbolAddress:
        bits = cfg.index_bits
        if len(text) != bits or any(c not in "01*" for c in text):
            raise ValueError(f"symbol address must be {bits} chars over 0/1/*")
        return cls(tuple(Sym(c) for c in text))

    def select(
        self, depth: int, switch: int, cfg: TreeConfig
    ) -> tuple[tuple[Sym, ...], tuple[int, ...]]:
        """Head: the ``m`` symbols of this level's digit, m = log2(fan_out).

        ``index_bits`` passing means k**levels is a power of two, so k is one.
        """
        m = cfg.index_bits // cfg.levels
        head = self.symbols[depth * m : (depth + 1) * m]
        fixed = value = 0
        for sym in head:
            fixed = fixed << 1 | (sym is not Sym.STAR)
            value = value << 1 | (sym is Sym.ONE)
        return head, tuple(d for d in range(cfg.fan_out) if d & fixed == value)

    @staticmethod
    def routing_bits(n: int, k: int | None = None) -> int:
        return 2 * tree_levels(n, 2)

    @staticmethod
    def capability(n: int, k: int | None = None) -> int:
        return 3 ** tree_levels(n, 2)

    @classmethod
    def addresses(cls, cfg: TreeConfig) -> Iterator[SymbolAddress]:
        return (cls(s) for s in itertools.product(tuple(Sym), repeat=cfg.index_bits))


@dataclass(frozen=True)
class HbsAddress:
    """One k-bit child mask per tree level, root level first.

    Bit d of a level mask selects child digit d at that level.  A zero
    mask would select no child and is rejected.
    """

    masks: tuple[int, ...]

    scheme = Scheme.HBS

    def __post_init__(self) -> None:
        if not self.masks:
            raise ValueError("hierarchical address must have at least one level mask")
        if any(m <= 0 for m in self.masks):
            raise ValueError("every level mask must be nonzero (a zero mask covers no core)")

    @classmethod
    def encode(cls, dests: Iterable[int], cfg: TreeConfig) -> HbsAddress:
        """Minimal covering hierarchical masks.

        The level-l mask is the union of level-l path digits over all
        destinations; the cover is the Cartesian product of the per-level
        digit sets, the smallest such product containing the destinations.
        """
        masks = [0] * cfg.levels
        for d in _check_dests(dests, cfg):
            for lvl, digit in enumerate(path_of(d, cfg)):
                masks[lvl] |= 1 << digit
        return cls(tuple(masks))

    def cover(self, cfg: TreeConfig) -> int:
        # Replicate the partial cover into the block of every selected
        # child digit, leaf level first.
        k = cfg.fan_out
        if len(self.masks) != cfg.levels:
            raise ValueError(f"expected {cfg.levels} level masks, got {len(self.masks)}")
        if any(m >= (1 << k) for m in self.masks):
            raise ValueError(f"level mask wider than fan_out={k} bits")
        cover = 1
        span = 1
        for m in reversed(self.masks):
            acc = 0
            for d in range(k):
                if m & (1 << d):
                    acc |= cover << (d * span)
            cover = acc
            span *= k
        return cover

    @staticmethod
    def width(cfg: TreeConfig) -> int:
        return cfg.fan_out * cfg.levels

    def text(self, cfg: TreeConfig) -> str:
        """Slash-separated k-bit binary masks, root level first."""
        return "/".join(format(m, f"0{cfg.fan_out}b") for m in self.masks)

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> HbsAddress:
        parts = text.split("/")
        if len(parts) != cfg.levels:
            raise ValueError(f"hbs address must have {cfg.levels} slash-separated masks")
        k = cfg.fan_out
        if any(len(p) != k or any(c not in "01" for c in p) for p in parts):
            raise ValueError(f"each hbs level mask must be a {k}-char binary string")
        return cls(tuple(int(p, 2) for p in parts))

    def select(self, depth: int, switch: int, cfg: TreeConfig) -> tuple[int, tuple[int, ...]]:
        """Head: the level mask that ``depth`` rotations bring to the front."""
        mask = self.masks[depth]
        return mask, tuple(d for d in range(cfg.fan_out) if mask >> d & 1)

    @staticmethod
    def routing_bits(n: int, k: int | None = None) -> int:
        if k is None:
            raise ValueError("hbs routing bits require k")
        return k * tree_levels(n, k)

    @staticmethod
    def capability(n: int, k: int | None = None) -> int:
        if k is None:
            raise ValueError("hbs capability requires k")
        return (2**k - 1) ** tree_levels(n, k)

    @classmethod
    def addresses(cls, cfg: TreeConfig) -> Iterator[HbsAddress]:
        masks = range(1, 1 << cfg.fan_out)
        return (cls(m) for m in itertools.product(masks, repeat=cfg.levels))


@dataclass(frozen=True)
class UnicastAddress:
    """Explicit target list; the simulator emits one packet per entry."""

    targets: tuple[int, ...]

    scheme = Scheme.UNICAST

    def __post_init__(self) -> None:
        if not self.targets:
            raise ValueError("unicast target list must be nonempty")
        if any(t < 0 for t in self.targets):
            raise ValueError("unicast targets must be nonnegative core indices")

    @classmethod
    def encode(cls, dests: Iterable[int], cfg: TreeConfig) -> UnicastAddress:
        """Target list in ascending core-index order."""
        return cls(tuple(sorted(_check_dests(dests, cfg))))

    def cover(self, cfg: TreeConfig) -> int:
        n = cfg.core_count
        mask = 0
        for t in self.targets:
            if t >= n:
                raise ValueError(f"unicast target {t} out of range [0, {n})")
            mask |= 1 << t
        return mask

    @staticmethod
    def width(cfg: TreeConfig) -> int:
        """Per-packet target index width, rounded up for non-power-of-two trees."""
        return max(1, (cfg.core_count - 1).bit_length())

    def text(self, cfg: TreeConfig) -> str:
        """Comma-separated decimal indices."""
        return ",".join(str(t) for t in self.targets)

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> UnicastAddress:
        try:
            targets = tuple(int(p) for p in text.split(","))
        except ValueError:
            raise ValueError("unicast address must be comma-separated decimal indices") from None
        addr = cls(targets)
        addr.cover(cfg)  # range check
        return addr

    @staticmethod
    def routing_bits(n: int, k: int | None = None) -> int:
        """Worst-case total over the per-target packets: N targets of log2(N) bits."""
        return n * tree_levels(n, 2)

    @staticmethod
    def capability(n: int, k: int | None = None) -> int:
        return FbsAddress.capability(n)

    @classmethod
    def addresses(cls, cfg: TreeConfig) -> Iterator[UnicastAddress]:
        n = cfg.core_count
        return (
            cls(tuple(t for t in range(n) if mask >> t & 1)) for mask in range(1, 1 << n)
        )


MulticastAddress = Union[FbsAddress, SymbolAddress, HbsAddress, UnicastAddress]

_ADDRESS_CLASSES = {
    cls.scheme: cls for cls in (FbsAddress, SymbolAddress, HbsAddress, UnicastAddress)
}


def address_class(scheme: Scheme | str) -> type:
    """The address class that implements ``scheme``."""
    return _ADDRESS_CLASSES[Scheme(scheme)]


# ---------------------------------------------------------------------------
# scheme-independent entry points

def encode(scheme: Scheme, dests: Iterable[int], cfg: TreeConfig) -> MulticastAddress:
    """Minimal ``scheme`` address covering ``dests``."""
    return address_class(scheme).encode(dests, cfg)


def cover_mask(addr: MulticastAddress, cfg: TreeConfig) -> int:
    """Covered set as a core bitmask (bit i set means core i receives)."""
    return addr.cover(cfg)


def covered_set(addr: MulticastAddress, cfg: TreeConfig) -> frozenset[int]:
    """The set of cores that will receive a packet carrying ``addr``."""
    mask = addr.cover(cfg)
    out = []
    idx = 0
    while mask:
        if mask & 1:
            out.append(idx)
        mask >>= 1
        idx += 1
    return frozenset(out)


def overcoverage(addr: MulticastAddress, dests: Iterable[int], cfg: TreeConfig) -> int:
    """How many covered cores are not actual destinations."""
    members = _check_dests(dests, cfg)
    cm = addr.cover(cfg)
    dm = 0
    for d in members:
        dm |= 1 << d
    if dm & ~cm:
        raise ValueError("address does not cover every destination (encoder bug?)")
    return cm.bit_count() - dm.bit_count()


def rotate_hbs(addr: HbsAddress) -> HbsAddress:
    """Cyclic left rotation of the level masks by one level.

    This is the per-hop header transformation of the tree switches:
    every switch reads the head mask, and rotation realigns the field
    so the next level's mask is at the head for the switches below.
    """
    masks = addr.masks
    return HbsAddress(masks[1:] + masks[:1])


def routing_bit_width(scheme: Scheme, cfg: TreeConfig) -> int:
    """Per-packet routing field width of ``scheme`` on ``cfg``."""
    return address_class(scheme).width(cfg)


def format_address(addr: MulticastAddress, cfg: TreeConfig) -> str:
    """Canonical text form, as consumed and produced by the CLI."""
    return addr.text(cfg)


def parse_address(scheme: Scheme, text: str, cfg: TreeConfig) -> MulticastAddress:
    """Inverse of :func:`format_address`."""
    return address_class(scheme).parse(text.strip(), cfg)
