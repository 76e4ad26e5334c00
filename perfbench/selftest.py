"""Self-test of the benchmark; needs a full checkout (src/ beside perfbench/).

    python3 perfbench/selftest.py

Runs every workload once at a toy size, untraced and traced, and checks
that the metric names are those BENCHMARK.json lists and match
``[A-Za-z0-9_.-]+``.  Checks that tampering with one counter of a copy of
runs.csv trips the output check, that the benchmark's seed 0 gives
paper16 the stock experiment config, that a wrapped name missing from the
package is reported rather than fatal, and that the benchmark fails
without printing a result where there is no source tree.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from check import OutputError, check_run, digest, read_rows, read_summary  # noqa: E402
from child import WRAPS, Tracer  # noqa: E402
from workloads import DEFAULT_SEED, SCHEMES, write_workload  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _quiet(*_args) -> None:
    pass


def check_metric_names(bench: dict) -> None:
    e2e = {m["name"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        for trace, expected in ((False, e2e), (True, per_layer)):
            result = run.run(w["name"], DEFAULT_SEED, 0, trace, toy=True, log=_quiet)
            assert result["correct"] and result["failed"] == 0, (w["name"], trace, result)
            names = set(result["metrics"])
            assert names == expected, (w["name"], trace, sorted(names ^ expected))
            for name, metric in result["metrics"].items():
                assert NAME.fullmatch(name), name
                assert metric["unit"] == run.unit_of(name), name
        print(f"ok  {w['name']}: toy run, untraced and traced, metric names as listed")


def _rewrite_cell(path: str, row_index: int, column: str, change) -> None:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    col = rows[0].index(column)
    rows[row_index + 1][col] = change(rows[row_index + 1][col])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def check_tampering() -> None:
    result = run.run("paper16", DEFAULT_SEED, 0, False, toy=True, log=_quiet)
    assert result["correct"], result
    src_dir = os.path.join(run.WORK, "paper16")
    copy = os.path.join(run.WORK, "tampered")
    shutil.rmtree(copy, ignore_errors=True)
    os.makedirs(copy)
    for name in ("runs.csv", "summary.json"):
        shutil.copy(os.path.join(src_dir, name), copy)
    clean = digest(read_rows(copy), read_summary(copy))
    check_run(copy, SCHEMES, 2, clean)

    # A counter that no invariant ties to another: only the digest sees it.
    _rewrite_cell(os.path.join(copy, "runs.csv"), 0, "routing_energy", lambda v: repr(float(v) + 1.0))
    check_run(copy, SCHEMES, 2, None)
    try:
        check_run(copy, SCHEMES, 2, clean)
    except OutputError:
        pass
    else:
        raise AssertionError("a changed routing_energy passed the digest check")

    # fbs comes first in runs.csv; an illegal fbs delivery breaks an invariant at any seed.
    _rewrite_cell(os.path.join(copy, "runs.csv"), 0, "illegal_deliveries", lambda v: str(int(v) + 1))
    try:
        check_run(copy, SCHEMES, 2, None)
    except OutputError:
        pass
    else:
        raise AssertionError("an illegal fbs delivery passed the invariant check")
    shutil.rmtree(copy)
    print("ok  tampered runs.csv copy fails the digest and the invariant check")


def check_default_seed() -> None:
    sys.path.insert(0, run.SRC)
    from treecast.experiment import default_config, load_config

    run_dir = os.path.join(run.WORK, "seed-check")
    os.makedirs(run_dir, exist_ok=True)
    write_workload("paper16", DEFAULT_SEED, run_dir)
    with open(os.path.join(run_dir, "config.yaml"), encoding="utf-8") as fh:
        loaded = load_config(fh)
    shutil.rmtree(run_dir)
    stock = default_config()
    # load_config resolves the energy model that default_config leaves implicit.
    stock = dataclasses.replace(stock, energy=stock.energy_model(), runs_csv="runs.csv", summary_json="summary.json")
    assert loaded == stock, loaded
    print("ok  paper16 at seed 0 is default_config()")


def check_missing_names() -> None:
    tracer = Tracer()
    tracer.install({"cli": None, "experiment": None, "nocsim": None})
    assert len(tracer.missing) == len(WRAPS), tracer.missing
    print("ok  missing wrapped names are listed, not fatal")


def check_bare_directory(bench: dict) -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    for path in bench["paths"]:
        shutil.copytree(os.path.join(run.ROOT, path), os.path.join(bare, path),
                        ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, *bench["command"][1:], "--workload", bench["workloads"][0]["name"],
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    shutil.rmtree(bare)
    assert proc.returncode != 0, proc
    assert "{" not in proc.stdout, proc.stdout
    print("ok  without a source tree the benchmark exits non-zero and prints no result")


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check_default_seed()
    check_missing_names()
    check_tampering()
    check_metric_names(bench)
    check_bare_directory(bench)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
