"""Brute-force reference implementations, independent of the library code.

Each function recomputes covers straight from the scheme definitions so
the tests never check the library against itself.  The one exception,
:func:`per_spike_report`, charges spike by spike through the library's
encoders and its switch-by-switch walk, against which the closed-form
counts and the grouped charges of ``simulate`` are checked.
"""

import itertools
import operator
import random
from collections import Counter

import numpy as np

from treecast.addressing import Scheme, address_class, encode
from treecast.nocsim import SimReport, route_multicast, route_unicast_batch


def index_from_digits(digits, k):
    idx = 0
    for d in digits:
        idx = idx * k + d
    return idx


def digits_of(index, k, levels):
    out = []
    for _ in range(levels):
        out.append(index % k)
        index //= k
    return tuple(reversed(out))


def mask_of(dests):
    """Core bitmask of a destination set; also the member-wise fbs encoder."""
    mask = 0
    for d in dests:
        mask |= 1 << d
    return mask


def hbs_encode(dests, k, levels):
    """Member-wise hbs encoder: per level, root first, the mask of the destinations' digits."""
    return tuple(
        sum(1 << digit for digit in {digits_of(d, k, levels)[lvl] for d in dests})
        for lvl in range(levels)
    )


def symbol_encode(dests, n):
    """Member-wise symbol encoder: hbs on the binary tree of the n cores' index bits."""
    return hbs_encode(dests, 2, n.bit_length() - 1)


def unicast_encode(dests):
    """Member-wise unicast encoder: the distinct destinations, ascending."""
    return tuple(sorted(set(dests)))


def symbol_cover(pattern, n):
    """Cores whose binary index (MSB first) matches the pattern."""
    bits = n.bit_length() - 1
    assert 1 << bits == n
    assert len(pattern) == bits
    out = set()
    for i in range(n):
        if all(
            c == "*" or int(c) == ((i >> (bits - 1 - pos)) & 1)
            for pos, c in enumerate(pattern)
        ):
            out.add(i)
    return frozenset(out)


def all_symbol_patterns(n):
    bits = n.bit_length() - 1
    for chars in itertools.product("01*", repeat=bits):
        yield "".join(chars)


def hbs_cover(masks, k):
    """Cartesian product of the per-level digit sets, as core indices."""
    digit_sets = [[d for d in range(k) if (m >> d) & 1] for m in masks]
    return frozenset(
        index_from_digits(digits, k) for digits in itertools.product(*digit_sets)
    )


def covered_per_height(masks, step):
    """Covered nodes per height, cores first: every ``step``-th running product of
    the level masks' popcounts, read from the leaves up."""
    per_depth = tuple(itertools.accumulate(map(int.bit_count, masks), operator.mul, initial=1))
    return per_depth[::-step]


def all_hbs_masks(k, levels):
    yield from itertools.product(range(1, 1 << k), repeat=levels)


def minimal_covers(dests, covers):
    """(size, list) of the smallest covers among ``covers`` containing ``dests``."""
    best = None
    hits = []
    for c in covers:
        if dests <= c:
            if best is None or len(c) < best:
                best = len(c)
                hits = [c]
            elif len(c) == best:
                hits.append(c)
    return best, hits


def root_to_leaf_edges(core, k, levels):
    """Edges (level, child_index) on the unique root-to-core path."""
    edges = []
    child = core
    for level in range(1, levels + 1):
        edges.append((level, child))
        child //= k
    return list(reversed(edges))


def divergence_depth(core, legal_targets, k, levels):
    """Depth of the switch that turned an illegal delivery off every legal path.

    Returns 0 when the root itself picked a branch containing no legal
    target, ``levels - 1`` when the wrong turn happened at a
    leaf-adjacent switch.  Raises if ``core`` is on a legal path.
    """
    legal_paths = [digits_of(t, k, levels) for t in legal_targets]
    if not legal_paths:
        raise ValueError("need at least one legal target")
    p = digits_of(core, k, levels)
    for depth in range(levels):
        if not any(q[: depth + 1] == p[: depth + 1] for q in legal_paths):
            return depth
    raise ValueError(f"core {core} is itself a legal target")


def demand(events, luts, assignment):
    """(LUT row, ((source core, spikes), ...)) per distinct row, rows and their cores in
    first-spike order, and the spikes of neurons whose row is 0, from a fresh count of the
    (timestep, neuron) events."""
    grouped = {}
    dropped = 0
    for neuron, count in Counter(n for _t, n in events).items():
        if luts[neuron]:
            senders = grouped.setdefault(luts[neuron], {})
            core = assignment[neuron]
            senders[core] = senders.get(core, 0) + count
        else:
            dropped += count
    return [(mask, tuple(senders.items())) for mask, senders in grouped.items()], dropped


def core_luts(connectivity, assignment, n_cores):
    """Per core, the source neurons with a synapse onto a neuron placed on it."""
    return [
        {s for s, targets in connectivity.items() if any(assignment[t] == core for t in targets)}
        for core in range(n_cores)
    ]


def connectivity(spec, seed):
    """Fan-out graph drawn row by row: source neuron id -> sorted target ids.

    Same draws as ``treecast.traffic.generate_connectivity``: per layer,
    the recurrent block (self-edges dropped), then the block into the
    next layer.
    """
    rng = np.random.default_rng(seed)
    ranges = spec.layer_ranges()
    targets = {n: [] for n in range(spec.total_neurons)}

    def wire(sources, sinks, density, skip_self):
        hits = rng.random((len(sources), len(sinks))) < density
        for i, s in enumerate(sources):
            targets[s].extend(sinks[j] for j in np.flatnonzero(hits[i]) if not (skip_self and sinks[j] == s))

    for li, layer in enumerate(spec.layers):
        if layer.kind == "recurrent":
            wire(ranges[li], ranges[li], spec.density, skip_self=True)
        if li + 1 < len(spec.layers):
            density = spec.density
            if spec.literal_fc and spec.layers[li + 1].kind == "feedforward":
                density = 1.0
            wire(ranges[li], ranges[li + 1], density, skip_self=False)
    return {n: tuple(sorted(ts)) for n, ts in targets.items()}


def random_switch_mapping(total, n_cores, capacity, seed, switch_prob):
    """``random_switch`` mapping that lists every non-full core but the current one on each switch."""
    rng = random.Random(seed)
    counts = [0] * n_cores
    current = 0
    assignment = []
    for _ in range(total):
        if counts[current] >= capacity or rng.random() < switch_prob:
            candidates = [c for c in range(n_cores) if counts[c] < capacity and c != current]
            if candidates:
                current = rng.choice(candidates)
        assignment.append(current)
        counts[current] += 1
    return tuple(assignment)


def per_spike_report(trace, connectivity, assignment, scheme, cfg, energy, tag_bits, turnaround):
    """The SimReport of a trace with every spike encoded, routed and filtered on its own.

    Each spike's route is walked switch by switch (``route.links`` and
    ``route.delivered``), and each delivery is judged against the LUTs that
    :func:`core_luts` builds from the connectivity, so it checks the route
    counts and the per-entry charges of ``treecast.nocsim.simulate``.  A
    multicast spike injects one packet, a unicast spike one per delivery.
    """
    luts = core_luts(connectivity, assignment, cfg.core_count)
    header = address_class(scheme).width(cfg) + tag_bits
    fe = energy.filter_energy_per_lookup
    spikes = packets = link_bits = legal = illegal = 0
    routing = filtering = illegal_filtering = 0.0
    for _t, tag in trace.events:
        dests = {assignment[t] for t in connectivity[tag]}
        if not dests:
            continue
        addr = encode(scheme, mask_of(dests), cfg)
        if scheme is Scheme.UNICAST:
            route = route_unicast_batch(addr, assignment[tag], cfg)
        else:
            route = route_multicast(addr, assignment[tag], cfg, turnaround)
        spikes += 1
        packets += len(route.delivered) if scheme is Scheme.UNICAST else 1
        for level, _child in route.links:
            link_bits += header
            routing += header * energy.link_energy_per_bit[level - 1]
        for core in route.delivered:
            filtering += fe
            if tag in luts[core]:
                legal += 1
            else:
                illegal += 1
                illegal_filtering += fe
    return SimReport(
        scheme.value, spikes, packets, link_bits, legal, illegal,
        routing, filtering, illegal_filtering, routing + filtering,
    )
