"""Run the benchmark over several workloads and seeds and summarise each metric.

    python3 perfbench/sweep.py --seeds 0 1 2 3 4 5 6 7 8 9
    python3 perfbench/sweep.py --workloads paper16 --seeds 0 --trace 1

Each (workload, seed) is one ``run.py`` process, run the way
BENCHMARK.json's command is.  For every metric the summary gives the median
of the per-run values, the first and third quartiles, and the spread: the
distance between the quartiles as a share of the median.  For end-to-end
metrics it also shows the metric's bound; a spread below a third of it is
marked ``ok``.  ``fail_rate`` is children failed over children attempted.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[0])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    results: dict[str, list[dict]] = {}
    status = 0
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                status = 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}{proc.stderr}", file=sys.stderr)
                if not lines or not lines[-1].startswith("{"):
                    continue
            result = json.loads(lines[-1])
            results.setdefault(workload, []).append(result)
            values = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(result["metrics"].items()))
            print(f"{workload} seed {seed}: {values}", flush=True)

    for workload, runs in results.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, {attempted} children, fail_rate {failed / attempted:.3g} share")
        names = sorted({k for r in runs for k in r["metrics"]})
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
            unit = next(r["metrics"][name]["unit"] for r in runs if name in r["metrics"])
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            line = f"  {name:34s} median {med:<12.6g} {unit:9s} q1 {q1:<12.6g} q3 {q3:<12.6g} spread {spread:.4f}"
            if name in bounds:
                mark = "ok" if spread < bounds[name] / 3 else "WIDE"
                line += f"  bound {bounds[name]} {mark}"
            print(line)
    return status


if __name__ == "__main__":
    sys.exit(main())
