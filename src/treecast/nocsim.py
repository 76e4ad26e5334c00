"""Hierarchical-tree network-on-chip model with per-scheme multicast routing.

The fabric is a balanced k-ary tree: cores at the leaves, one switch per
internal node, every switch with one Up port and ``fan_out`` Down ports.
A multicast packet climbs from its source core to the root, then forks
down every port selected by its routing field.  Hierarchical-mask and
symbol packets rotate their field one level per hop so that every switch
reads the same head position; the router reads the field at the offset
that rotation would have brought to the head.  Unicast packets turn at
the lowest common ancestor of source and target instead.

Energy accounting is a per-bit per-link cost (longer links near the root
cost more) plus a per-arrival lookup cost at the cores, where packets
from sources a core does not listen to are filtered out as illegal.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterable, Mapping, NamedTuple, Sequence

from .addressing import (
    MulticastAddress,
    Scheme,
    TreeConfig,
    UnicastAddress,
    cover_mask,
    encode,
    path_of,
    routing_bit_width,
)

TURNAROUND_POLICIES = ("root", "lca")


def _up_edges(core: int, turn_level: int, k: int) -> tuple[tuple[int, int], ...]:
    """Links crossed climbing from ``core`` to the switch at R-level ``turn_level``.

    A link is (level, child_index): the edge between the level-``level``
    switch ``child_index // k`` and its child ``child_index`` one level
    below (a core when level is 1).
    """
    edges = []
    child = core
    for level in range(1, turn_level + 1):
        edges.append((level, child))
        child //= k
    return tuple(edges)


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit link traversal cost by tree level plus per-arrival filter cost.

    ``link_energy_per_bit[0]`` prices the leaf-adjacent (level 1) links;
    the last entry prices the root links, which must not be cheaper than
    the leaf ones.
    """

    link_energy_per_bit: tuple[float, ...]
    filter_energy_per_lookup: float

    def __post_init__(self) -> None:
        if not self.link_energy_per_bit:
            raise ValueError("need at least one link energy level")
        if any(e < 0 for e in self.link_energy_per_bit):
            raise ValueError("link energies must be nonnegative")
        if self.link_energy_per_bit[-1] < self.link_energy_per_bit[0]:
            raise ValueError("root-adjacent links must not be cheaper than leaf links")
        if self.filter_energy_per_lookup < 0:
            raise ValueError("filter energy must be nonnegative")

    @classmethod
    def default(
        cls,
        levels: int,
        base: float = 1.0,
        level_ratio: float = 4.0,
        filter_lookup: float = 8.0,
    ) -> "EnergyModel":
        """Geometric link costs: leaf links at ``base``, ``level_ratio`` per level up."""
        return cls(
            link_energy_per_bit=tuple(base * level_ratio**i for i in range(levels)),
            filter_energy_per_lookup=filter_lookup,
        )

    def link_energy(self, level: int) -> float:
        return self.link_energy_per_bit[level - 1]


class SwitchDecision(NamedTuple):
    """Instrumentation record of one downward port selection."""

    level: int  # R-level of the deciding switch (levels = root, 1 = leaf-adjacent)
    switch: int  # switch index within its level
    depth: int  # hops below the root switch (root = 0)
    field: object  # consumed head field (hbs mask / symbol tuple / None for fbs)
    selected: tuple[int, ...]  # chosen Down ports


@dataclass(frozen=True)
class RouteResult:
    """Outcome of routing one event: deliveries plus the traversed links.

    For a multicast packet, ``delivered`` is in ascending core index,
    ``up_links`` go from the leaf up to the turn switch, and
    ``down_links`` are in depth-first, ascending-digit order.  For a
    unicast batch the same orders hold packet by packet, in target order.
    """

    delivered: tuple[int, ...]
    up_links: tuple[tuple[int, int], ...]
    down_links: tuple[tuple[int, int], ...]
    decisions: tuple[SwitchDecision, ...]
    packets: int = 1

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return self.up_links + self.down_links


def _multicast_turn_level(source: int, cover: int, cfg: TreeConfig) -> int:
    """Lowest R-level whose source-side subtree contains the whole cover."""
    k = cfg.fan_out
    span = k
    anc = source // k
    for level in range(1, cfg.levels + 1):
        lo = anc * span
        subtree = ((1 << span) - 1) << lo
        if cover & ~subtree == 0:
            return level
        span *= k
        anc //= k
    return cfg.levels


def route_multicast(
    addr: MulticastAddress,
    source_core: int,
    cfg: TreeConfig,
    turnaround: str = "root",
) -> RouteResult:
    """Route one multicast packet up from its source and down every selected port.

    With the default ``root`` turnaround the packet always climbs to the
    root before descending, so every switch at the same depth runs the
    same head-field logic.  The ``lca`` policy turns at the lowest
    ancestor subtree containing the whole cover instead.  Each switch
    picks its ports from its own head field (``addr.select``), never from
    the cover, so the deliveries are a check on ``covered_set``.
    """
    if turnaround not in TURNAROUND_POLICIES:
        raise ValueError(f"unknown turnaround policy {turnaround!r}")
    if isinstance(addr, UnicastAddress):
        raise ValueError("unicast packets are routed with route_unicast_batch")
    if not 0 <= source_core < cfg.core_count:
        raise ValueError(f"source core {source_core} out of range")
    k, levels = cfg.fan_out, cfg.levels
    cover = cover_mask(addr, cfg)  # validates the field

    turn_level = levels
    if turnaround == "lca":
        turn_level = _multicast_turn_level(source_core, cover, cfg)

    delivered: list[int] = []
    down_links: list[tuple[int, int]] = []
    decisions: list[SwitchDecision] = []

    def descend(level: int, switch: int) -> None:
        depth = levels - level
        head, selected = addr.select(depth, switch, cfg)
        decisions.append(SwitchDecision(level, switch, depth, head, selected))
        for d in selected:
            child = switch * k + d
            down_links.append((level, child))
            if level == 1:
                delivered.append(child)
            else:
                descend(level - 1, child)

    descend(turn_level, source_core // k**turn_level)
    return RouteResult(
        delivered=tuple(delivered),
        up_links=_up_edges(source_core, turn_level, k),
        down_links=tuple(down_links),
        decisions=tuple(decisions),
        packets=1,
    )


def route_unicast_batch(
    addr: UnicastAddress,
    source_core: int,
    cfg: TreeConfig,
) -> RouteResult:
    """Route one packet per target, each turning at the source/target LCA.

    A self-addressed packet still enters the network: it climbs to the
    leaf-adjacent switch and comes straight back down.
    """
    if not 0 <= source_core < cfg.core_count:
        raise ValueError(f"source core {source_core} out of range")
    cover_mask(addr, cfg)  # range-check targets
    k, levels = cfg.fan_out, cfg.levels
    src_digits = path_of(source_core, cfg)
    delivered: list[int] = []
    up_links: list[tuple[int, int]] = []
    down_links: list[tuple[int, int]] = []
    for target in addr.targets:
        tgt_digits = path_of(target, cfg)
        common = 0
        while common < levels and src_digits[common] == tgt_digits[common]:
            common += 1
        lca_level = max(1, levels - common)
        up_links.extend(_up_edges(source_core, lca_level, k))
        child = target
        down = []
        for level in range(1, lca_level + 1):
            down.append((level, child))
            child //= k
        down_links.extend(reversed(down))
        delivered.append(target)
    return RouteResult(
        delivered=tuple(delivered),
        up_links=tuple(up_links),
        down_links=tuple(down_links),
        decisions=(),
        packets=len(addr.targets),
    )


def divergence_depth(core: int, legal_targets: Iterable[int], cfg: TreeConfig) -> int:
    """Depth of the switch that turned an illegal delivery off every legal path.

    Returns 0 when the root itself picked a branch containing no legal
    target, ``levels - 1`` when the wrong turn happened at a
    leaf-adjacent switch.  Raises if ``core`` is on a legal path.
    """
    legal_paths = [path_of(t, cfg) for t in legal_targets]
    if not legal_paths:
        raise ValueError("need at least one legal target")
    p = path_of(core, cfg)
    for depth in range(cfg.levels):
        prefix = p[: depth + 1]
        if not any(q[: depth + 1] == prefix for q in legal_paths):
            return depth
    raise ValueError(f"core {core} is itself a legal target")


# ---------------------------------------------------------------------------
# event-level simulation

@dataclass(frozen=True)
class SimReport:
    """Aggregate counters of one simulation run (one scheme, one mapping)."""

    scheme: str
    events: int
    packets_injected: int
    link_bit_traversals: int
    legal_deliveries: int
    illegal_deliveries: int
    routing_energy: float
    filtering_energy: float
    illegal_filtering_energy: float
    total_energy: float

    @classmethod
    def csv_header(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    def csv_row(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self))


def simulate(
    events: Sequence[tuple[int, frozenset[int]]],
    scheme: Scheme,
    cfg: TreeConfig,
    mapping,
    energy: EnergyModel,
    luts: Mapping[int, frozenset[int]] | Sequence[frozenset[int]],
    tag_bits: int = 10,
    turnaround: str = "root",
) -> SimReport:
    """Run a spike event list through the fabric under one addressing scheme.

    Each event is (source neuron tag, destination core set); the source
    core comes from ``mapping[tag]``.  Every arriving packet pays one
    LUT lookup; lookups whose tag is absent from the core's legal-source
    set count as illegal and the packet is dropped there.

    Identical (tag, destination set) events route identically, so their
    outcome is computed once and replayed, which keeps long traces cheap
    without changing any counter.
    """
    scheme = Scheme(scheme)
    if len(energy.link_energy_per_bit) != cfg.levels:
        raise ValueError(
            f"energy model has {len(energy.link_energy_per_bit)} link levels, "
            f"tree has {cfg.levels}"
        )
    header = routing_bit_width(scheme, cfg) + tag_bits
    fe = energy.filter_energy_per_lookup

    packets = 0
    link_bits = 0
    legal = 0
    illegal = 0
    routing_energy = 0.0
    filtering_energy = 0.0
    illegal_filtering_energy = 0.0

    cache: dict[tuple[int, frozenset[int]], tuple[int, int, float, int, int]] = {}
    n_events = 0
    for tag, targets in events:
        n_events += 1
        key = (tag, targets if isinstance(targets, frozenset) else frozenset(targets))
        hit = cache.get(key)
        if hit is None:
            if tag < 0 or tag >= (1 << tag_bits):
                raise ValueError(f"source tag {tag} does not fit in {tag_bits} bits")
            try:
                source_core = mapping[tag]
            except (KeyError, IndexError):
                raise ValueError(f"unmapped neuron {tag}") from None
            addr = encode(scheme, key[1], cfg)
            if scheme is Scheme.UNICAST:
                route = route_unicast_batch(addr, source_core, cfg)
            else:
                route = route_multicast(addr, source_core, cfg, turnaround)
            links = route.links
            e_per_bit = 0.0
            for level, _child in links:
                e_per_bit += energy.link_energy_per_bit[level - 1]
            ev_legal = 0
            for core in route.delivered:
                if tag in luts[core]:
                    ev_legal += 1
            hit = (
                route.packets,
                len(links),
                e_per_bit,
                ev_legal,
                len(route.delivered) - ev_legal,
            )
            cache[key] = hit
        ev_packets, ev_links, ev_energy_per_bit, ev_legal, ev_illegal = hit
        packets += ev_packets
        link_bits += ev_links * header
        routing_energy += header * ev_energy_per_bit
        legal += ev_legal
        illegal += ev_illegal
        filtering_energy += (ev_legal + ev_illegal) * fe
        illegal_filtering_energy += ev_illegal * fe

    return SimReport(
        scheme=scheme.value,
        events=n_events,
        packets_injected=packets,
        link_bit_traversals=link_bits,
        legal_deliveries=legal,
        illegal_deliveries=illegal,
        routing_energy=routing_energy,
        filtering_energy=filtering_energy,
        illegal_filtering_energy=illegal_filtering_energy,
        total_energy=routing_energy + filtering_energy,
    )
