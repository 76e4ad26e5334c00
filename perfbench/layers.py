"""Per-layer metrics from one traced child: span totals, self times and counts.

A span's self time is its duration minus the durations of its direct child
spans.  Every span under ``experiment.run_experiment`` belongs to one of the
layers nocsim, addressing, traffic or experiment, so their self times add up
to that span (see ``accounting``).
"""

from __future__ import annotations

import numpy as np

SCHEMES = ("fbs", "symbol", "hbs", "unicast")
RUN_EXPERIMENT = "experiment.run_experiment"

# metric -> span name whose summed duration it reports
SPAN_TOTALS = {
    "nocsim.route_s": "nocsim.route",
    "addressing.encode_s": "addressing.encode",
    "traffic.generate_connectivity_s": "traffic.generate_connectivity",
    "traffic.trace_s": "traffic.trace",
    "traffic.map_neurons_s": "traffic.map_neurons",
    "traffic.derive_events_s": "traffic.derive_events",
    "traffic.build_core_luts_s": "traffic.build_core_luts",
    "experiment.load_config_s": "experiment.load_config",
    "experiment.write_outputs_s": "experiment.write_outputs",
    **{f"nocsim.simulate_s.{s}": f"nocsim.simulate.{s}" for s in SCHEMES},
}
# metric -> span name whose number of calls it reports
SPAN_CALLS = {"nocsim.route_calls": "nocsim.route", "addressing.encode_calls": "addressing.encode"}
# counters tallied in the child and reported as they are
COUNTS = ("nocsim.switch_decisions", "traffic.edges", "traffic.trace_events", "traffic.events", "traffic.dropped_spikes")


class Spans:
    """Spans of one child, with per-span durations and self times."""

    def __init__(self, npz_path: str, names: list[str]):
        with np.load(npz_path) as data:
            self.name = data["name"]
            parent = data["parent"]
            dur = data["end"] - data["start"]
        self.names = names
        self.parent = parent
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self.dur = dur
        self.self_time = dur - child_time

    def _by_name(self, values: np.ndarray) -> dict[str, float]:
        sums = np.bincount(self.name, weights=values, minlength=len(self.names))
        return {n: float(sums[i]) for i, n in enumerate(self.names)}

    def totals(self) -> dict[str, float]:
        return self._by_name(self.dur)

    def self_totals(self) -> dict[str, float]:
        return self._by_name(self.self_time)

    def calls(self) -> dict[str, int]:
        counts = np.bincount(self.name, minlength=len(self.names))
        return {n: int(counts[i]) for i, n in enumerate(self.names)}

    def accounting(self) -> dict[str, float]:
        """Self time per layer over the run_experiment subtree, plus the span itself."""
        if RUN_EXPERIMENT not in self.names:
            return {}
        root = self.names.index(RUN_EXPERIMENT)
        inside = np.zeros(len(self.dur), dtype=bool)
        # Parents are recorded before their children, so one forward pass marks the subtree.
        for i, p in enumerate(self.parent.tolist()):
            inside[i] = self.name[i] == root or (p >= 0 and inside[p])
        layer_of = np.array([n.split(".")[0] for n in self.names])[self.name]
        out = {RUN_EXPERIMENT + "_s": float(self.dur[self.name == root].sum())}
        for layer in ("nocsim", "addressing", "traffic", "experiment"):
            out[layer] = float(self.self_time[inside & (layer_of == layer)].sum())
        return out


def layer_metrics(spans: Spans, counts: dict[str, int]) -> dict[str, float]:
    """Named per-layer metrics of one traced child; absent spans give absent metrics."""
    totals, self_totals, calls = spans.totals(), spans.self_totals(), spans.calls()
    out: dict[str, float] = {}
    for metric, span in SPAN_TOTALS.items():
        if span in totals:
            out[metric] = totals[span]
    for metric, span in SPAN_CALLS.items():
        if span in calls:
            out[metric] = calls[span]
    sim = [n for n in self_totals if n.startswith("nocsim.simulate.")]
    if sim:
        out["nocsim.simulate_self_s"] = sum(self_totals[n] for n in sim)
    if RUN_EXPERIMENT in self_totals:
        out["experiment.run_experiment_self_s"] = self_totals[RUN_EXPERIMENT]
    for key in COUNTS:
        if key in counts:
            out[key] = counts[key]
    simulated = counts.get("nocsim.simulated_events")
    if simulated and "nocsim.route" in calls:
        out["nocsim.replay_hit_ratio"] = 1.0 - calls["nocsim.route"] / simulated
    return out
