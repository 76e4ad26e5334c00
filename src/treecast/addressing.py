"""Destination-set address codecs for cores at the leaves of a k-ary tree.

Cores sit at the leaves of a balanced tree with ``fan_out`` children per
switch and ``levels`` levels, so there are ``fan_out ** levels`` cores.
A multicast address names a set of destination cores, which ``encode``
reads as a core bitmask (bit c set when core c is a destination), in one
of four interchangeable encodings:

* flat bitmask (``fbs``)     -- one bit per core; exact, header width N
* symbol string (``symbol``) -- one {0,1,*} symbol per index bit; width
  2*log2(N), may cover extra cores
* hierarchical masks (``hbs``) -- one k-bit child mask per tree level;
  width k*levels, may cover extra cores but never more than the symbol
  encoding of the same destinations (for power-of-two fan-out)
* unicast (``unicast``)     -- the flat bitmask, sent as one packet per
  target that carries the target's index

A symbol is a 2-bit child mask (``01`` is 0, ``10`` is 1, ``11`` is *),
so symbol is hbs on the binary tree of index bits: :class:`SymbolAddress`
encodes, covers and walks with the hbs methods on that tree.  A flat
bitmask is one level mask of N bits, so fbs is hbs on the one-level tree
``TreeConfig(N, 1)``: :class:`FbsAddress` keeps only its own switch port
choice.  Unicast is fbs sent one packet per target: :class:`UnicastAddress`
holds the same one mask and keeps only its per-packet header ``width``, its
``routing_bits`` and its text form, a list of target indices.

The region-based encodings (symbol, hbs) trade header width for
overcoverage: cores outside the requested set that still receive the
packet and must filter it.  ``covered_set`` and ``overcoverage``
quantify that trade.

Each encoding is one frozen address class that owns everything specific
to its scheme: ``_encode``, ``cover``, the header ``width``, the text form
(``text`` and ``parse``), the switch port choice ``select``, the closed
forms ``routing_bits`` and ``capability``, and ``addresses``, which walks
every well-formed address.  The multicast classes also derive route counts
from the level masks without building the cover (unicast inherits them
from fbs, but its packets are not routed as one multicast):
``route_counts``, the covered nodes per height (``covered_per_height``) and
the links per tree level of a route that turns at the root, and
``cover_bounds``, the lowest and highest covered core and the lowest tree
level whose block holds both.  The covered nodes are the running products
of the masks' popcounts; fbs folds its one mask instead.  Each scheme
derives them in one place, ``_counts`` and ``_bounds``, and each method
takes the tree as one :class:`TreeConfig`.

An address that :func:`encode` builds carries what it derived for the
``TreeConfig`` instance it was encoded on: its route counts, computed right
after the fold, and its cover bounds once first read.  A router given that
same instance reads them without checking the field again.  Any other
address, one built by hand or parsed from text or read on another tree, has
its field checked and its counts derived on every call.  The carried values
are not fields: ``==``, ``hash``, ``repr`` and ``dataclasses.replace`` never
see them.  Many destination sets fold to the same hbs or symbol address, so
each ``TreeConfig`` instance interns those two schemes' encoded addresses by
class and level masks, and derives their carried values once per distinct
address.  An fbs address is its destination mask, which seldom repeats, so
it is built anew.  The registry :func:`address_class` maps a
:class:`Scheme` to its class, and no other module branches on the scheme.
"""

from __future__ import annotations

import functools
import itertools
import operator
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

#: Covered nodes per height and the links per R-level of a root-turn route.
RouteCounts = tuple[tuple[int, ...], tuple[int, ...]]


class Scheme(str, Enum):
    """Identifier for the four addressing encodings."""

    FBS = "fbs"
    SYMBOL = "symbol"
    HBS = "hbs"
    UNICAST = "unicast"


@dataclass(frozen=True)
class TreeConfig:
    """Shape of the core tree: ``fan_out`` children per switch, ``levels`` deep.

    A core index counts at most ``sys.maxsize`` cores, so a larger tree is
    rejected when it is built.  Constants of the shape are computed on first
    read and cached on the instance: ``core_count``, ``block_leaders``, the
    encoders' ``fold_plan``, the trees that symbol and fbs address,
    ``index_tree`` and ``flat_tree``, and the ``interned`` addresses.
    Equality, hashing, ``repr`` and ``dataclasses.replace`` read only
    ``fan_out`` and ``levels``.
    """

    fan_out: int
    levels: int

    def __post_init__(self) -> None:
        if not isinstance(self.fan_out, int) or self.fan_out < 2:
            raise ValueError(f"fan_out must be an integer >= 2, got {self.fan_out!r}")
        if not isinstance(self.levels, int) or self.levels < 1:
            raise ValueError(f"levels must be an integer >= 1, got {self.levels!r}")
        # levels first, so that fan_out is never raised to a huge power.
        if self.levels > 62 or self.fan_out**self.levels > sys.maxsize:
            cores = f"{self.fan_out} ** {self.levels} cores"
            raise ValueError(f"{cores} exceed {sys.maxsize}, the most an index counts")

    @functools.cached_property
    def core_count(self) -> int:
        return self.fan_out ** self.levels

    @functools.cached_property
    def block_leaders(self) -> tuple[int, ...]:
        """Core bitmask per R-level l in ``0..levels``: the first core of every
        block of ``fan_out ** l`` cores, that is bit j * k**l for every j."""
        full = (1 << self.core_count) - 1
        return tuple(full // ((1 << self.fan_out**level) - 1) for level in range(self.levels + 1))

    @functools.cached_property
    def fold_plan(self) -> tuple[tuple[tuple[tuple[int, int], ...], int], ...]:
        """Per level above the leaves, root first: the ``(digit bit, shift)``
        pair of each child digit d, ``(1 << d, d * span)``, and the block mask
        ``(1 << span) - 1``, where ``span`` is the cores below one child."""
        k, span, plan = self.fan_out, self.core_count, []
        for _ in range(self.levels - 1):
            span //= k
            plan.append((tuple((1 << d, d * span) for d in range(k)), (1 << span) - 1))
        return tuple(plan)

    @functools.cached_property
    def interned(self) -> dict[tuple[type, tuple[int, ...]], HbsAddress]:
        """The hbs and symbol addresses encoded on this instance, by ``(class,
        level masks)``.  It holds at most one entry per distinct pair encoded
        here, and it is freed with the instance."""
        return {}

    @functools.cached_property
    def index_tree(self) -> TreeConfig:
        """The binary tree of the core index bits, ``TreeConfig(2, index_bits)``."""
        return TreeConfig(2, self.index_bits)

    @functools.cached_property
    def flat_tree(self) -> TreeConfig:
        """The one-level tree of the N cores, ``TreeConfig(N, 1)``."""
        return TreeConfig(self.core_count, 1)

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
# one class per scheme
#
# ``_encode(mask, cfg)`` takes a core bitmask that :func:`encode`, the one
# public way in, range-checked.
# ``select(depth, switch, cfg)`` is the port choice of the switch ``switch``
# at ``depth`` hops below the root: it returns the head field that switch
# reads and the Down ports (child digits) it forwards to.  ``routing_bits``
# is the routing field a source stores, ``width`` for every scheme but
# unicast, and ``capability`` counts the distinct nonempty covers.

@dataclass(frozen=True)
class HbsAddress:
    """One k-bit child mask per tree level, root level first.

    Bit d of a level mask selects child digit d at that level.  A zero
    mask would select no child and is rejected.  Every method but
    ``select`` works on the tree that ``_tree(cfg)`` gives: ``cfg`` itself
    here, the binary tree of index bits for symbol and the one-level tree
    ``TreeConfig(N, 1)`` of N cores for fbs.
    """

    masks: tuple[int, ...]

    scheme = Scheme.HBS
    #: ``(tree, counts)``: the ``TreeConfig`` instance an encoder built the
    #: address on and its ``route_counts`` there (None for unicast), and its
    #: ``cover_bounds`` there once read.  Neither is a field, so ``==``,
    #: ``hash``, ``repr`` and ``replace`` never see them; an address that no
    #: encoder built carries nothing.
    _carried = (None, None)
    _carried_bounds = None

    def __post_init__(self) -> None:
        if not self.masks:
            raise ValueError("hierarchical address must have at least one level mask")
        if min(self.masks) <= 0:
            raise ValueError("every level mask must be nonzero (a zero mask covers no core)")

    @staticmethod
    def _tree(cfg: TreeConfig) -> TreeConfig:
        return cfg

    @classmethod
    def _encode(cls, mask: int, cfg: TreeConfig) -> HbsAddress:
        """Minimal covering hierarchical masks, root level first.

        Digit d of a level is set when block d of that level's mask is
        nonzero, and the OR of the k blocks is the next level's mask.  The
        leaf level's blocks are single cores, so its mask is what is left.
        The cover, the product of the per-level digit sets, is the smallest
        such product containing the destinations.  A mask in (0, 2**N) folds
        into nonzero level masks no wider than k, so the result skips the
        validating constructor, and carries its route counts on ``cfg``.  An
        equal fold on the same ``cfg`` returns the address that ``cfg``
        interned, with what it already carries.
        """
        masks = []
        for pairs, block in cls._tree(cfg).fold_plan:
            digits = below = 0
            for bit, shift in pairs:
                part = mask >> shift & block
                if part:
                    digits |= bit
                    below |= part
            masks.append(digits)
            mask = below
        masks.append(mask)
        masks = tuple(masks)
        key = cls, masks
        addr = cfg.interned.get(key)
        if addr is None:
            addr = cfg.interned[key] = object.__new__(cls)
            fields = addr.__dict__
            fields["masks"] = masks
            fields["_carried"] = (cfg, addr._counts(cfg))
        return addr

    def _checked_tree(self, cfg: TreeConfig) -> TreeConfig:
        """``_tree(cfg)``, once the field has one mask per level, none wider than k."""
        tree = self._tree(cfg)
        if len(self.masks) != tree.levels:
            raise ValueError(f"expected {tree.levels} level masks, got {len(self.masks)}")
        if max(self.masks) >> tree.fan_out:
            raise ValueError(f"level mask wider than fan_out={tree.fan_out} bits")
        return tree

    def cover(self, cfg: TreeConfig) -> int:
        # The leaf mask is the cover of one leaf switch; replicate it into
        # the block of every selected child digit, leaf level first.  The
        # cover is narrower than the block span, so its shifted copies are
        # disjoint and their sum is the product with the digits' spread.
        k = self._checked_tree(cfg).fan_out
        cover = self.masks[-1]
        span = k
        for m in self.masks[-2::-1]:
            spread = 0
            while m:
                low = m & -m
                spread |= 1 << (low.bit_length() - 1) * span
                m ^= low
            cover *= spread
            span *= k
        return cover

    def route_counts(self, cfg: TreeConfig) -> RouteCounts:
        """Covered nodes per height of ``cfg`` and links per R-level of a root-turn route.

        An encoded address carries them from its encoder for the
        ``TreeConfig`` instance it was encoded on.  Any other address, or that
        one on another instance, has its field checked and its counts derived.
        """
        tree, counts = self._carried
        if tree is cfg and counts:
            return counts
        self._checked_tree(cfg)
        return self._counts(cfg)

    def covered_per_height(self, cfg: TreeConfig) -> tuple[int, ...]:
        """Covered nodes per height of ``cfg``, cores (height 0) up to the root."""
        return self.route_counts(cfg)[0]

    def cover_bounds(self, cfg: TreeConfig) -> tuple[int, int, int]:
        """Lowest and highest covered core, and the cover's level: the lowest
        R-level of ``cfg``, at least 1, whose block holds both.

        Only an ``lca`` route reads them, so an encoded address derives them on
        their first read on the tree it was encoded on, and carries them from
        then on.  Any other address has its field checked and its bounds
        derived.
        """
        if self._carried[0] is not cfg:
            self._checked_tree(cfg)
            return self._bounds(cfg)
        bounds = self._carried_bounds
        if bounds is None:
            bounds = self.__dict__["_carried_bounds"] = self._bounds(cfg)
        return bounds

    def _counts(self, cfg: TreeConfig) -> RouteCounts:
        """``route_counts`` of a field that is valid on ``cfg``.

        A switch forwards to the popcount of its level mask children, so the
        nodes covered at depth d are the product of the first d popcounts.
        A height of ``cfg`` spans ``_tree(cfg).levels // cfg.levels`` levels
        of the tree the masks describe (log2(k) for symbol), so every such
        product is a height of ``cfg``.  R-level l of a root-turn route
        carries one up link and one down link per covered node at height
        l - 1.
        """
        per_depth, links, covered = [1], [], 1
        for m in self.masks:
            covered *= m.bit_count()
            per_depth.append(covered)
            links.append(1 + covered)
        step = self._tree(cfg).levels // cfg.levels
        return tuple(per_depth[::-step]), tuple(links[::-step])

    def _bounds(self, cfg: TreeConfig) -> tuple[int, int, int]:
        """``cover_bounds`` of a valid field.  The bounds join the lowest and
        the highest digit of every level; the level climbs ``cfg`` until one
        block of ``fan_out ** level`` cores holds both."""
        k = self._tree(cfg).fan_out
        low = high = 0
        for m in self.masks:
            low = low * k + (m & -m).bit_length() - 1
            high = high * k + m.bit_length() - 1
        k, level, span = cfg.fan_out, 1, cfg.fan_out
        while low // span != high // span:
            level, span = level + 1, span * k
        return low, high, level

    @classmethod
    def width(cls, cfg: TreeConfig) -> int:
        tree = cls._tree(cfg)
        return tree.fan_out * tree.levels

    routing_bits = width

    def text(self, cfg: TreeConfig) -> str:
        """Slash-separated k-bit binary masks, root level first."""
        k = self._tree(cfg).fan_out
        return "/".join(format(m, f"0{k}b") for m in self.masks)

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> HbsAddress:
        tree = cls._tree(cfg)
        k, parts = tree.fan_out, text.split("/")
        if len(parts) != tree.levels or any(len(p) != k or set(p) - {"0", "1"} for p in parts):
            form = f"a {k}-char binary string"
            if tree.levels > 1:
                form = f"{tree.levels} slash-separated {k}-char binary masks"
            raise ValueError(f"{cls.scheme.value} address must be {form}")
        return cls(tuple(int(p, 2) for p in parts))

    def select(self, depth: int, switch: int, cfg: TreeConfig) -> tuple[int, tuple[int, ...]]:
        """Head: the level mask that ``depth`` rotations bring to the front."""
        mask = self.masks[depth]
        return mask, tuple(d for d in range(cfg.fan_out) if mask >> d & 1)

    @classmethod
    def capability(cls, cfg: TreeConfig) -> int:
        tree = cls._tree(cfg)
        return (2**tree.fan_out - 1) ** tree.levels

    @classmethod
    def addresses(cls, cfg: TreeConfig) -> Iterator[HbsAddress]:
        tree = cls._tree(cfg)
        masks = range(1, 1 << tree.fan_out)
        return (cls(m) for m in itertools.product(masks, repeat=tree.levels))


class SymbolAddress(HbsAddress):
    """Per-index-bit 2-bit masks, root-level bit first: hbs on ``TreeConfig(2, index_bits)``.

    Mask 1 is the symbol 0, mask 2 the symbol 1 and mask 3 the wildcard.
    """

    scheme = Scheme.SYMBOL

    def __post_init__(self) -> None:
        super().__post_init__()
        if max(self.masks) > 3:
            raise ValueError("symbol masks must be 1 (0), 2 (1) or 3 (*)")

    _tree = operator.attrgetter("index_tree")

    def text(self, cfg: TreeConfig) -> str:
        """{0,1,*} string, root-level bit first."""
        return "".join("01*"[m - 1] for m in self.masks)

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> SymbolAddress:
        bits = cfg.index_bits
        if len(text) != bits or any(c not in "01*" for c in text):
            raise ValueError(f"symbol address must be {bits} chars over 0/1/*")
        return cls(tuple("01*".index(c) + 1 for c in text))

    def select(
        self, depth: int, switch: int, cfg: TreeConfig
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Head: the ``m`` masks of this level's digit, m = log2(fan_out).

        ``index_bits`` passing means k**levels is a power of two, so k is one.
        """
        m = cfg.index_bits // cfg.levels
        head = self.masks[depth * m : (depth + 1) * m]
        fixed = value = 0
        for mask in head:
            fixed = fixed << 1 | (mask != 3)
            value = value << 1 | (mask == 2)
        return head, tuple(d for d in range(cfg.fan_out) if d & fixed == value)


class FbsAddress(HbsAddress):
    """Flat bitmask, bit i set when core i is a destination: hbs on ``TreeConfig(N, 1)``.

    Its one level mask is the destination mask itself.
    """

    scheme = Scheme.FBS

    _tree = operator.attrgetter("flat_tree")

    @classmethod
    def _encode(cls, mask: int, cfg: TreeConfig) -> FbsAddress:
        """The mask itself, carrying its route counts on ``cfg``.  A flat mask
        seldom repeats, so the address is not interned."""
        addr = object.__new__(cls)
        addr.__dict__["masks"] = (mask,)
        addr.__dict__["_carried"] = (cfg, addr._counts(cfg))
        return addr

    def cover(self, cfg: TreeConfig) -> int:
        """The one mask, once it is checked on ``cfg`` (an encoder checked its own)."""
        if self._carried[0] is not cfg:
            self._checked_tree(cfg)
        return self.masks[0]

    def _counts(self, cfg: TreeConfig) -> RouteCounts:
        """``route_counts`` of a mask that is valid on ``cfg``.

        The one mask is the covered cores.  Each step folds it onto its block
        leaders: bit j*span of the folded mask is set when block j of ``span``
        cores holds a covered core.  Once one block holds them all, every
        height above covers one node.  R-level l of a root-turn route carries
        one up link and one down link per covered node at height l - 1.
        """
        mask, k, levels = self.masks[0], cfg.fan_out, cfg.levels
        cover, count, span = mask, mask.bit_count(), 1
        counts, links = [], []
        for leaders in cfg.block_leaders[1:levels]:  # the root covers one node unfolded
            if count == 1:
                break
            counts.append(count)
            links.append(1 + count)
            folded = cover
            for d in range(1, k):
                folded |= cover >> (d * span)
            span *= k
            cover = folded & leaders
            count = cover.bit_count()
        above = levels - len(counts)  # heights from the last count up, all but it one node
        return (*counts, count, *(1,) * above), (*links, 1 + count, *(2,) * (above - 1))

    def select(self, depth: int, switch: int, cfg: TreeConfig) -> tuple[None, tuple[int, ...]]:
        """No head field: forward to every child whose core block the mask touches."""
        k, mask = cfg.fan_out, self.masks[0]
        span = k ** (cfg.levels - depth - 1)
        block = (1 << span) - 1
        return None, tuple(d for d in range(k) if mask & (block << ((switch * k + d) * span)))


class UnicastAddress(FbsAddress):
    """Flat bitmask sent one packet per target: fbs with a target index per packet.

    Its one level mask is the destination mask, as for fbs; the simulator
    emits one packet for each set bit, in ascending core order.
    """

    scheme = Scheme.UNICAST

    @classmethod
    def _encode(cls, mask: int, cfg: TreeConfig) -> UnicastAddress:
        """The mask itself.  A unicast route reads no multicast counts, so the
        address carries only the tree its mask was checked on."""
        addr = object.__new__(cls)
        addr.__dict__["masks"] = (mask,)
        addr.__dict__["_carried"] = (cfg, None)
        return addr

    @property
    def targets(self) -> tuple[int, ...]:
        """The destination cores, ascending."""
        return tuple(cores(self.masks[0]))

    @staticmethod
    def width(cfg: TreeConfig) -> int:
        """Per-packet target index width, rounded up for non-power-of-two trees."""
        return max(1, (cfg.core_count - 1).bit_length())

    @classmethod
    def routing_bits(cls, cfg: TreeConfig) -> int:
        """Worst-case total over the per-target packets: N targets of ``width`` bits."""
        return cfg.core_count * cls.width(cfg)

    def text(self, cfg: TreeConfig) -> str:
        """Comma-separated decimal indices, ascending."""
        return ",".join(map(str, self.targets))

    @classmethod
    def parse(cls, text: str, cfg: TreeConfig) -> UnicastAddress:
        try:
            targets = [int(p) for p in text.split(",")]
        except ValueError:
            raise ValueError("unicast address must be comma-separated decimal indices") from None
        n, mask = cfg.core_count, 0
        for t in targets:
            if not 0 <= t < n:
                raise ValueError(f"unicast target {t} out of range [0, {n})")
            if mask >> t & 1:
                raise ValueError("unicast targets must not repeat")
            mask |= 1 << t
        return cls((mask,))


_ADDRESS_CLASSES = {
    cls.scheme: cls for cls in (FbsAddress, SymbolAddress, HbsAddress, UnicastAddress)
}


def address_class(scheme: Scheme | str) -> type:
    """The address class that implements ``scheme``."""
    return _ADDRESS_CLASSES[Scheme(scheme)]


# ---------------------------------------------------------------------------
# scheme-independent entry points

def encode(scheme: Scheme, mask: int, cfg: TreeConfig) -> HbsAddress:
    """Minimal ``scheme`` address covering the cores of the bitmask ``mask``."""
    n = cfg.core_count
    if not 0 < mask < 1 << n:
        raise ValueError(f"destination mask must name a nonempty set of cores in [0, {n})")
    # A str enum hashes as its value, so a Scheme and its name both hit the dict.
    return (_ADDRESS_CLASSES.get(scheme) or address_class(scheme))._encode(mask, cfg)


def cores(mask: int) -> list[int]:
    """The set bits of a core bitmask, ascending, in time that grows with their count."""
    out = []
    while mask:
        top = mask.bit_length() - 1
        out.append(top)
        mask ^= 1 << top  # clearing the top bit shrinks the int for the next step
    return out[::-1]


def covered_set(addr: HbsAddress, cfg: TreeConfig) -> frozenset[int]:
    """The set of cores that will receive a packet carrying ``addr``."""
    return frozenset(cores(addr.cover(cfg)))


def overcoverage(addr: HbsAddress, mask: int, cfg: TreeConfig) -> int:
    """How many covered cores are not in the destination bitmask ``mask``."""
    if not mask:
        raise ValueError("destination set must be nonempty")
    cm = addr.cover(cfg)
    if mask & ~cm:
        raise ValueError("address does not cover every destination (encoder bug?)")
    return cm.bit_count() - mask.bit_count()


def rotate_hbs(addr: HbsAddress) -> HbsAddress:
    """Cyclic left rotation of the level masks by one level.

    This is the per-hop header transformation of the tree switches:
    every switch reads the head mask, and rotation realigns the field
    so the next level's mask is at the head for the switches below.
    """
    masks = addr.masks
    return HbsAddress(masks[1:] + masks[:1])

