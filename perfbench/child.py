"""Child process: run the `treecast` CLI once and record timing marks.

    python3 child.py MARKS_JSON SPANS_NPZ|- -- <treecast arguments>

Marks are CLOCK_MONOTONIC readings (``time.monotonic``), which the parent
compares with its own reading taken just before the spawn.

With ``-`` for the spans file the run is untraced: the only hook is a
one-shot wrapper that stamps the first ``map_neurons`` call (the end of
set-up) and then puts the original function back.

Otherwise every function below is wrapped where the CLI, ``run_experiment``
and ``simulate`` look it up: as an attribute of their own module.  Each call
records a span (name, start, end, parent) in memory; spans go to an .npz
file when the CLI returns.  A name that no longer exists is listed in the
marks as missing, and the metrics that need it are left out.
"""

import importlib
import json
import sys
import time
from collections import Counter

# (module, attribute, span name).  Span names are "<layer>.<what>", the layer
# being the treecast module that implements the function.
WRAPS = (
    ("cli", "load_config", "experiment.load_config"),
    ("cli", "run_experiment", "experiment.run_experiment"),
    ("cli", "write_runs_csv", "experiment.write_outputs"),
    ("cli", "write_summary_json", "experiment.write_outputs"),
    ("experiment", "generate_connectivity", "traffic.generate_connectivity"),
    ("experiment", "synth_trace", "traffic.trace"),
    ("experiment", "load_trace", "traffic.trace"),
    ("experiment", "map_neurons", "traffic.map_neurons"),
    ("experiment", "derive_events", "traffic.derive_events"),
    ("experiment", "build_core_luts", "traffic.build_core_luts"),
    ("experiment", "simulate", "nocsim.simulate"),
    ("nocsim", "encode", "addressing.encode"),
    ("nocsim", "route_multicast", "nocsim.route"),
    ("nocsim", "route_unicast_batch", "nocsim.route"),
)


def _edges(conn, counts):
    counts["traffic.edges"] += sum(len(t) for t in conn.values())


def _trace_events(trace, counts):
    counts["traffic.trace_events"] += len(trace.events)


def _derived(result, counts):
    events, dropped = result
    counts["traffic.events"] += len(events)
    counts["traffic.dropped_spikes"] += dropped


def _simulated(report, counts):
    counts["nocsim.simulated_events"] += report.events


def _decisions(route, counts):
    counts["nocsim.switch_decisions"] += len(route.decisions)


TALLIES = {
    "generate_connectivity": _edges,
    "synth_trace": _trace_events,
    "load_trace": _trace_events,
    "derive_events": _derived,
    "simulate": _simulated,
    "route_multicast": _decisions,
    "route_unicast_batch": _decisions,
}


def _scheme_label(args, kwargs):
    scheme = args[1] if len(args) > 1 else kwargs["scheme"]
    return str(getattr(scheme, "value", scheme))


class Tracer:
    """In-memory span recorder; spans of nested wrapped calls point at their parent."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.missing: list[str] = []

    def _id(self, name):
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, module, mod_name, attr, span, tally=None, label=None):
        fn = getattr(module, attr, None)
        if not callable(fn):
            self.missing.append(f"{mod_name}.{attr}")
            return
        names, parents, starts, ends, stack = self.name, self.parent, self.start, self.end, self.stack
        counts, clock, span_id = self.counts, time.perf_counter, self._id(span)

        def wrapper(*args, **kwargs):
            nid = span_id if label is None else self._id(span + "." + label(args, kwargs))
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if tally is not None:
                tally(result, counts)
            return result

        setattr(module, attr, wrapper)

    def install(self, modules):
        for mod_name, attr, span in WRAPS:
            tally = TALLIES.get(attr)
            label = _scheme_label if attr == "simulate" else None
            self.wrap(modules[mod_name], mod_name, attr, span, tally, label)

    def save(self, path):
        import numpy as np

        np.savez(
            path,
            name=np.asarray(self.name, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start=np.asarray(self.start, dtype=np.float64),
            end=np.asarray(self.end, dtype=np.float64),
        )


def _module(name):
    try:
        return importlib.import_module("treecast." + name)
    except ModuleNotFoundError:
        return None


def _stamp_first_map(modules, marks):
    """Record when the first mapping starts, then unhook."""
    originals = {m: m.map_neurons for m in modules if callable(getattr(m, "map_neurons", None))}

    def hook(original):
        def first_call(*args, **kwargs):
            marks.setdefault("first_map", time.monotonic())
            for mod, fn in originals.items():
                mod.map_neurons = fn
            return original(*args, **kwargs)

        return first_call

    for mod, fn in originals.items():
        mod.map_neurons = hook(fn)


def _peak_rss_kib():
    """Peak resident memory of this process image (VmHWM).

    The wait4 rusage of a child would not do: Linux carries the parent's
    resident size at fork into the child's maxrss across exec.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


def main(argv):
    marks_path, spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py MARKS_JSON SPANS_NPZ|- -- <treecast arguments>")
    import treecast
    import treecast.cli as cli

    marks = {"imported": time.monotonic(), "package": treecast.__file__}
    modules = {name: _module(name) for name in ("cli", "experiment", "nocsim", "traffic")}
    tracer = None
    if spans_path == "-":
        _stamp_first_map([modules["experiment"], modules["traffic"]], marks)
    else:
        tracer = Tracer()
        tracer.install(modules)
    try:
        rc = cli.main(cli_args)
    finally:
        marks["returned"] = time.monotonic()
        marks["peak_rss_kib"] = _peak_rss_kib()
        if tracer is not None:
            tracer.save(spans_path)
            marks.update(names=tracer.names, counts=tracer.counts, missing=tracer.missing)
        with open(marks_path, "w", encoding="utf-8") as fh:
            json.dump(marks, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
