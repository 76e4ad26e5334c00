"""Hierarchical-tree network-on-chip model with per-scheme multicast routing.

The fabric is a balanced k-ary tree: cores at the leaves, one switch per
internal node, every switch with one Up port and ``fan_out`` Down ports.
A multicast packet climbs from its source core to the root, then forks
down every port selected by its routing field.  Hierarchical-mask and
symbol packets rotate their field one level per hop so that every switch
reads the same head position; the router reads the field at the offset
that rotation would have brought to the head.  Unicast packets turn at
the lowest common ancestor of source and target instead.

The routers return their counts in closed form: the number of covered
cores and the links crossed per tree level.  A multicast route takes them
from the address (:meth:`~treecast.addressing.HbsAddress.route_counts`),
which carries the counts its encoder derived for the tree it was encoded
on, and never builds the cover bitmask.  A root-turn route uses the links
per level as they are; an ``lca`` route searches for its turn level up
from the cover's own level, none when that is the root, and keeps the
links up to it.  A unicast address is the fbs destination mask sent one
packet per target, so a unicast route counts the mask's bits in the
source's block at each level; it checks the mask only when the address was
not encoded on the tree it is given.  Each router rejects the other's
addresses, and each returns a slotted :class:`RouteResult` that also holds
a module-level walk function and its arguments, so a route builds no
closure.  The switch-by-switch walk, which lists every link and port
decision, is built only when a caller first reads it, and is kept.

Energy accounting is a per-bit per-link cost (longer links near the root
cost more) plus a per-arrival lookup cost at the cores, where packets
from sources a core does not listen to are filtered out as illegal.
:func:`simulate` sees only the traffic, grouped by destination core mask:
each mask with the spike count of every source core that sends to it; a
core listens to a source exactly when it is in that mask.  Each mask is
encoded once.  A multicast route under the ``root`` turnaround depends
only on the address, not on the source core, and many masks fold to one
hbs or symbol address, so it is computed once per distinct address and
charged once for the spikes of all its masks' senders; otherwise a route is
computed and charged once per sender, into a tally of spikes keyed by the
route's links per tree level.  A spike is one packet, or one per target
under unicast.
"""

from __future__ import annotations

import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .addressing import (
    HbsAddress,
    Scheme,
    TreeConfig,
    UnicastAddress,
    address_class,
    encode,
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
        if not all(0 <= e < math.inf for e in self.link_energy_per_bit):
            raise ValueError("link energies must be finite and nonnegative")
        if self.link_energy_per_bit[-1] < self.link_energy_per_bit[0]:
            raise ValueError("root-adjacent links must not be cheaper than leaf links")
        if not 0 <= self.filter_energy_per_lookup < math.inf:
            raise ValueError("filter energy must be finite and nonnegative")

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


class SwitchDecision(NamedTuple):
    """Instrumentation record of one downward port selection."""

    level: int  # R-level of the deciding switch (levels = root, 1 = leaf-adjacent)
    switch: int  # switch index within its level
    depth: int  # hops below the root switch (root = 0)
    field: object  # consumed head field (hbs mask / tuple of symbol masks / None for fbs)
    selected: tuple[int, ...]  # chosen Down ports


#: The RouteResult fields that the switch-by-switch walk returns, in order.
_WALKED = ("delivered", "up_links", "down_links", "decisions")


class RouteResult:
    """Outcome of routing one event: the delivered cores and the links crossed.

    A slotted record.  ``covered`` counts the delivered cores and
    ``level_links[i]`` counts the links crossed at R-level i + 1, up and
    down together; both are closed forms, set when the record is built from
    the counts that the address carries (or, for an address not encoded on
    the route's tree, derives).
    Its packets, 1 for multicast and ``covered`` for unicast, are not kept.
    The record also holds a module-level walk function and its arguments,
    of which the first three are the address, the source core and the
    tree; the delivered cores as a bitmask are the address's ``cover`` on
    that tree, which the record does not keep.  ``delivered``,
    ``up_links``, ``down_links`` and ``decisions`` come from the
    switch-by-switch walk, which runs once, on the first read of any of
    them, and fills their slots; ``links`` joins the up and down links.
    For a multicast packet, ``delivered`` is in ascending core index,
    ``up_links`` go from the leaf up to the turn switch, and ``down_links``
    are in depth-first, ascending-digit order.  For a unicast batch the
    same orders hold packet by packet, in target order.  Records compare by
    identity: there is no equality over the walk fields, so compare the
    count fields themselves.
    """

    __slots__ = ("covered", "level_links", "_walk", "_args") + _WALKED

    def __init__(
        self, covered: int, level_links: tuple[int, ...], walk: Callable[..., tuple], args: tuple
    ) -> None:
        self.covered, self.level_links = covered, level_links
        self._walk, self._args = walk, args

    def __getattr__(self, name: str):
        # Reached only when a slot is unset: a walk field not yet built.
        if name not in _WALKED:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.delivered, self.up_links, self.down_links, self.decisions = self._walk(*self._args)
        return getattr(self, name)

    @property
    def links(self) -> tuple[tuple[int, int], ...]:
        return self.up_links + self.down_links


def _turn_level(source: int, low: int, high: int, cfg: TreeConfig, level: int = 1) -> int:
    """Lowest R-level, from ``level`` up, whose source-side subtree contains the whole cover.

    A subtree is a contiguous core range, so it holds the cover exactly
    when it holds the cover's lowest core ``low`` and highest core ``high``.
    """
    k = cfg.fan_out
    span = k**level
    while level < cfg.levels and not source // span == low // span == high // span:
        level, span = level + 1, span * k
    return level


def route_multicast(
    addr: HbsAddress,
    source_core: int,
    cfg: TreeConfig,
    turnaround: str = "root",
) -> RouteResult:
    """Route one multicast packet up from its source and down every selected port.

    With the default ``root`` turnaround the packet always climbs to the
    root before descending, so every switch at the same depth runs the
    same head-field logic.  The ``lca`` policy turns at the lowest
    ancestor subtree containing the whole cover instead.  R-level l <= turn
    carries one up link plus one down link per covered node at height
    l - 1.  The address gives those links for a root turn, which an ``lca``
    route keeps up to its turn, and the cover's lowest and highest core and
    its level, the lowest R-level whose block holds both, without building
    the cover.  No turn lies below the cover's level, so an ``lca`` route
    searches up from there; a cover whose level is the root turns there
    from every source, so the root-turn links stand.  The walk picks each
    switch's ports from its own head field (``addr.select``), never from
    the cover, so its deliveries are a check on ``covered_set``.
    """
    if turnaround not in TURNAROUND_POLICIES:
        raise ValueError(f"unknown turnaround policy {turnaround!r}")
    if isinstance(addr, UnicastAddress):  # before its inherited fbs counts are read
        raise ValueError("unicast packets are routed with route_unicast_batch")
    if not 0 <= source_core < cfg.core_count:
        raise ValueError(f"source core {source_core} out of range")
    per_height, level_links = addr.route_counts(cfg)

    turn_level = cfg.levels
    if turnaround == "lca":
        low, high, cover_level = addr.cover_bounds(cfg)
        if cover_level < turn_level:
            turn_level = _turn_level(source_core, low, high, cfg, cover_level)
            level_links = level_links[:turn_level] + (0,) * (cfg.levels - turn_level)

    return RouteResult(
        per_height[0], level_links, _walk_multicast, (addr, source_core, cfg, turn_level)
    )


def _walk_multicast(
    addr: HbsAddress, source_core: int, cfg: TreeConfig, turn_level: int
) -> tuple:
    """Walk one multicast packet switch by switch; each switch reads its own head field."""
    k, levels = cfg.fan_out, cfg.levels
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
    up_links = _up_edges(source_core, turn_level, k)
    return tuple(delivered), up_links, tuple(down_links), tuple(decisions)


def route_unicast_batch(
    addr: UnicastAddress,
    source_core: int,
    cfg: TreeConfig,
) -> RouteResult:
    """Route one packet per target, each turning at the source/target LCA.

    A self-addressed packet still enters the network: it climbs to the
    leaf-adjacent switch and comes straight back down.  So every target
    crosses R-level 1 twice, and R-level l >= 2 twice unless it lies in
    the source's block of k**(l-1) cores.  A multicast address, fbs
    included, is routed with :func:`route_multicast` instead.
    """
    if not isinstance(addr, UnicastAddress):
        raise ValueError("multicast packets are routed with route_multicast")
    if not 0 <= source_core < cfg.core_count:
        raise ValueError(f"source core {source_core} out of range")
    cover = addr.cover(cfg)  # checks the field, unless it was encoded on cfg
    n = cover.bit_count()
    level_links = [2 * n]
    # The fold plan's block masks, leaf end first, span k**(l-1) cores at R-level l.
    for _pairs, block in reversed(cfg.fold_plan):
        span = block.bit_length()
        level_links.append(2 * (n - (cover & block << source_core - source_core % span).bit_count()))

    return RouteResult(n, tuple(level_links), _walk_unicast, (addr, source_core, cfg))


def _walk_unicast(addr: UnicastAddress, source_core: int, cfg: TreeConfig) -> tuple:
    """Walk each packet of a unicast batch up to its LCA switch and down to its target."""
    k, targets = cfg.fan_out, addr.targets
    up_links: list[tuple[int, int]] = []
    down_links: list[tuple[int, int]] = []
    for target in targets:
        turn_level = _turn_level(source_core, target, target, cfg)
        up_links.extend(_up_edges(source_core, turn_level, k))
        down_links.extend(reversed(_up_edges(target, turn_level, k)))
    return targets, tuple(up_links), tuple(down_links), ()


# ---------------------------------------------------------------------------
# simulation over the traffic of one mapping

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


def simulate(
    demand: Iterable[tuple[int, Sequence[tuple[int, int]]]],
    scheme: Scheme,
    cfg: TreeConfig,
    energy: EnergyModel,
    tag_bits: int = 10,
    turnaround: str = "root",
) -> SimReport:
    """Run the traffic of one mapping through the fabric under one scheme.

    Each demand entry is (destination core mask, ((source core, spike
    count), ...)), as :func:`~treecast.traffic.derive_events` gives them.
    Each entry's mask is encoded once, and the mask itself is what
    :func:`~treecast.addressing.encode` reads.  A multicast packet under the
    ``root`` turnaround has a cover and per-level links that depend only on
    its address, so once every sender is range-checked its spikes are summed
    per distinct address (by level masks, the scheme being fixed), and after
    the traffic each address is routed once, from the first sender seen, and
    charged once for that sum; otherwise a packet is routed and charged once
    per sender.  A charge adds its spikes times the route's ``covered`` to
    the covered cores and its spikes to a tally keyed by the route's
    ``level_links``, so neither the cover bitmask nor the switch-by-switch
    walk is built here.  The tally's links per tree level, times the
    header, sum to the link-bit traversals and price the routing energy.  A
    multicast spike injects one packet and a unicast spike one per covered
    core.  Every arriving packet pays one LUT lookup.  Every encoder's cover
    contains the mask, so the mask's cores are the legal deliveries.  A
    covered core outside the mask does not hold the source's tag, so its
    lookup counts as illegal and the packet is dropped there.

    With integer-valued energies every field equals a spike-by-spike sum.
    Otherwise the float fields, summed per tree level, may differ from it by
    rounding; the tests allow a relative drift of 1e-12.
    """
    scheme = Scheme(scheme)
    if len(energy.link_energy_per_bit) != cfg.levels:
        raise ValueError(
            f"energy model has {len(energy.link_energy_per_bit)} link levels, "
            f"tree has {cfg.levels}"
        )
    header = address_class(scheme).width(cfg) + tag_bits
    unicast = scheme is Scheme.UNICAST
    per_sender = unicast or turnaround != "root"
    n_cores = cfg.core_count

    # Every spike of an entry is legal at each of the mask's cores, so spikes
    # and legal deliveries are charged once per entry.  The routes charge the
    # covered cores; the illegal deliveries are the covered beyond the legal.
    spikes = legal = covered = 0
    charges: Counter[tuple[int, ...]] = Counter()
    # level masks -> [address, first sender's core, summed spikes] of a root route
    shared: dict[tuple[int, ...], list] = {}
    for mask, senders in demand:
        addr = encode(scheme, mask, cfg)
        total = 0
        for source_core, count in senders:
            if not 0 <= source_core < n_cores:
                raise ValueError(f"source core {source_core} is outside the {n_cores} cores")
            total += count
        spikes += total
        legal += total * mask.bit_count()
        if per_sender:
            for source_core, count in senders:
                if unicast:
                    route = route_unicast_batch(addr, source_core, cfg)
                else:
                    route = route_multicast(addr, source_core, cfg, turnaround)
                charges[route.level_links] += count
                covered += count * route.covered
        elif senders:
            entry = shared.get(addr.masks)
            if entry is None:
                shared[addr.masks] = [addr, senders[0][0], total]
            else:
                entry[2] += total
    # One route per distinct address, charged once for all its senders' spikes.
    for addr, source_core, count in shared.values():
        route = route_multicast(addr, source_core, cfg, turnaround)
        charges[route.level_links] += count
        covered += count * route.covered
    illegal = covered - legal
    per_level = [sum(count * links[i] for links, count in charges.items()) for i in range(cfg.levels)]
    routing_energy = float(header * sum(map(operator.mul, per_level, energy.link_energy_per_bit)))

    filtering_energy = covered * energy.filter_energy_per_lookup
    return SimReport(
        scheme=scheme.value,
        events=spikes,
        packets_injected=covered if unicast else spikes,
        link_bit_traversals=header * sum(per_level),
        legal_deliveries=legal,
        illegal_deliveries=illegal,
        routing_energy=routing_energy,
        filtering_energy=filtering_energy,
        illegal_filtering_energy=illegal * energy.filter_energy_per_lookup,
        total_energy=routing_energy + filtering_energy,
    )
