"""Host-time benchmark of the batch CLI `treecast simulate`.

    python3 perfbench/run.py --workload paper16 --seed 0 --seconds 30 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory, and every file the run writes goes under ``.perfbench_work/``
there.  One child process runs at a time.  Children are spawned one after
another until the next one would end more than half a child after
``--seconds``.

``--trace 0`` reports the end-to-end metrics of untraced children: medians
of wall time (``run_s``), time to the first mapping (``setup_s``),
simulated events per second after set-up, and peak resident memory.
``--trace 1`` alternates untraced and traced children and reports per-layer
metrics from the traced ones (medians).  Its log also prints the tracing
overhead (traced minus untraced median wall time) and the host-speed
reference time; these are not metrics.

Each child's outputs are checked (``check.py``); a child that exits non-zero
or fails the check counts as failed.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.  The exit code is 0
only when every child passed.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from check import OutputError, check_run  # noqa: E402
from layers import Spans, layer_metrics  # noqa: E402
from workloads import DEFAULT_SEED, WHY, write_workload  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
#: Every run, set-up included, ends well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0
#: Wall time of reference.py at the nominal host speed, a round figure near
#: its median (0.8 to 1.2 s) on the 2-CPU machine the baselines were taken on.  Times are reported as
#: measured seconds x REFERENCE_NOMINAL_S / (mean reference time around the
#: child), that is in seconds at that nominal speed.
REFERENCE_NOMINAL_S = 1.0

END_TO_END_UNITS = {"run_s": "s", "setup_s": "s", "events_per_s": "events/s", "peak_rss_mb": "MiB"}


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_ratio"):
        return "ratio"
    return "s" if re.search(r"_s(\.|$)", metric) else "count"


def _load_digests(workload: str, seed: int, toy: bool) -> dict | None:
    """Recorded output digest; only seed 0 at full size has one."""
    if toy or seed != DEFAULT_SEED:
        return None
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as fh:
        return json.load(fh)[workload]


class Runner:
    """Spawns children for one workload in one run directory."""

    def __init__(self, run_dir: str, started: float):
        self.run_dir = run_dir
        self.started = started
        self.env = dict(os.environ, PYTHONPATH=SRC, TMPDIR=run_dir)

    def treecast(self, args) -> None:
        """Run a `treecast` command to completion (untimed set-up work)."""
        subprocess.run(
            [sys.executable, "-m", "treecast", *args],
            cwd=self.run_dir, env=self.env, check=True,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            timeout=max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started)),
        )

    def _spawn(self, cmd) -> tuple[float, float, int, os.struct_rusage]:
        """Run ``cmd`` to its end; returns spawn and exit times, exit code and rusage."""
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        with open(os.path.join(self.run_dir, "child.out"), "w") as out, \
                open(os.path.join(self.run_dir, "child.err"), "w") as err:
            spawn = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.run_dir, env=self.env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            exited = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return spawn, exited, proc.returncode, usage

    def reference(self) -> float:
        """Wall time of one host-speed reference process (see reference.py)."""
        spawn, exited, rc, _ = self._spawn([sys.executable, os.path.join(HERE, "reference.py")])
        if rc != 0:
            raise RuntimeError(f"reference.py exited with code {rc}")
        return exited - spawn

    def child(self, args, traced: bool) -> dict:
        """Spawn one measured child and wait for it; returns its raw timings."""
        for name in ("runs.csv", "summary.json", "marks.json", "spans.npz"):
            path = os.path.join(self.run_dir, name)
            if os.path.exists(path):
                os.remove(path)
        marks = os.path.join(self.run_dir, "marks.json")
        spans = os.path.join(self.run_dir, "spans.npz") if traced else "-"
        spawn, exited, rc, usage = self._spawn(
            [sys.executable, os.path.join(HERE, "child.py"), marks, spans, "--", *args]
        )
        return {
            "rc": rc,
            "spawn": spawn,
            "run_s": exited - spawn,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "marks": marks,
            "spans": spans,
        }


def _read_marks(raw: dict) -> dict:
    if raw["rc"] != 0:
        raise OutputError(f"exit code {raw['rc']}")
    with open(raw["marks"], encoding="utf-8") as fh:
        marks = json.load(fh)
    if not os.path.abspath(marks["package"]).startswith(SRC + os.sep):
        raise OutputError(f"imported treecast from {marks['package']}, not from {SRC}")
    return marks


def evaluate(raw: dict, workload, expected: dict | None, traced: bool) -> dict:
    """Check one child's outputs and derive its metrics; raises OutputError.

    Times are scaled to the nominal host speed by ``raw["scale"]``.
    """
    marks = _read_marks(raw)
    events = check_run(raw["run_dir"], workload.schemes, workload.repetitions, expected)
    scale = raw["scale"]
    if not traced:
        if "first_map" not in marks:
            raise OutputError("the run never reached map_neurons")
        run_s = raw["run_s"] * scale
        setup = (marks["first_map"] - raw["spawn"]) * scale
        return {
            "wall_s": raw["run_s"],
            "run_s": run_s,
            "setup_s": setup,
            "events_per_s": events / (run_s - setup),
            "peak_rss_mb": marks["peak_rss_kib"] / 1024.0,
        }
    spans = Spans(raw["spans"], marks["names"])
    out = layer_metrics(spans, marks["counts"])
    out["cli.import_s"] = marks["imported"] - raw["spawn"]
    out["process.cpu_s"] = raw["cpu_s"]
    out["trace.run_s"] = raw["run_s"]
    for key, value in out.items():
        if unit_of(key) == "s":
            out[key] = value * scale
    out["accounting"] = {k: v * scale for k, v in spans.accounting().items()}
    if marks["missing"]:
        out["missing"] = marks["missing"]
    return out


def run(workload_name: str, seed: int, seconds: float, trace: bool, toy: bool = False, log=print) -> dict:
    """Prepare the workload, measure it for ``seconds`` and return the result object."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(SRC, "treecast", "__init__.py")):
        raise FileNotFoundError(f"no treecast package under {SRC}; run from a full checkout")
    run_dir = os.path.join(WORK, workload_name)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    workload, prep = write_workload(workload_name, seed, run_dir, toy)
    expected = _load_digests(workload_name, seed, toy)
    runner = Runner(run_dir, started)
    runner.treecast(["--help"])  # compiles the package's bytecode before timing
    for args in prep:
        runner.treecast(args)

    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    errors: list[str] = []
    attempted = 0
    references: list[float] = []
    t0 = time.monotonic()
    before = runner.reference()
    while True:
        is_traced = trace and attempted % 2 == 1
        raw = runner.child(workload.simulate_args, is_traced)
        after = runner.reference()
        raw["run_dir"] = run_dir
        raw["scale"] = REFERENCE_NOMINAL_S * 2 / (before + after)
        references.append(after)
        before = after
        attempted += 1
        durations.append(raw["run_s"] + after)
        try:
            (traced if is_traced else plain).append(evaluate(raw, workload, expected, is_traced))
        except (OutputError, OSError, KeyError, ValueError) as exc:
            errors.append(f"child {attempted}: {exc}")
            with open(os.path.join(run_dir, "child.err"), encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            if tail:
                errors.append(tail)
        elapsed = time.monotonic() - t0
        enough = attempted >= (2 if trace else 1)
        if enough and elapsed + statistics.median(durations) / 2 > seconds:
            break
        if time.monotonic() - started + max(durations) > RUN_DEADLINE_S:
            break

    failed = attempted - len(plain) - len(traced)
    metrics: dict[str, float] = {}
    if trace:
        for key in sorted({k for t in traced for k in t} - {"accounting", "missing"}):
            values = [t[key] for t in traced if key in t]
            metrics[key] = statistics.median(values)
    elif plain:
        for key in END_TO_END_UNITS:
            metrics[key] = statistics.median(p[key] for p in plain)

    log(f"workload {workload_name} seed {seed} trace {int(trace)}: {attempted} children, "
        f"{failed} failed, {time.monotonic() - t0:.1f} s measured")
    log("  child + reference wall s: " + " ".join(f"{d:.3f}" for d in durations))
    log("  reference wall s: " + " ".join(f"{r:.3f}" for r in references))
    for line in errors:
        log(f"  error: {line}")
    if plain:
        summary = "  ".join(
            f"{k} {statistics.median(p[k] for p in plain):.4g} {unit_of(k)}" for k in END_TO_END_UNITS
        )
        wall = statistics.median(p["wall_s"] for p in plain)
        log(f"  untraced: {summary}  fail_rate {failed / attempted:.3g} share  (unscaled run_s {wall:.4g} s)")
    if traced:
        acc = traced[-1]["accounting"]
        if acc:
            parts = " + ".join(f"{k} {v:.3f}" for k, v in acc.items() if k != "experiment.run_experiment_s")
            log(f"  accounting (last traced child): experiment.run_experiment_s "
                f"{acc['experiment.run_experiment_s']:.3f} s = self times {parts}")
        if "missing" in traced[-1]:
            log(f"  missing wrapped names: {', '.join(traced[-1]['missing'])}")
    if trace:
        log(f"  host.reference_s {statistics.median(references):.6g} s (host speed, not a metric)")
    if plain and traced:
        overhead = statistics.median(t["trace.run_s"] for t in traced) - statistics.median(p["run_s"] for p in plain)
        log(f"  trace.overhead_s {overhead:.6g} s (traced minus untraced median run_s, not a metric)")
    for key, value in metrics.items():
        log(f"  {key} {value:.6g} {unit_of(key)}")
    return {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
