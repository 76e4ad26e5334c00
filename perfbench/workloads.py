"""Benchmark workloads: a `treecast simulate` config per workload, made from a seed.

Every input the program reads is derived from the benchmark seed.  Seed 0
gives the seeds of ``treecast.experiment.default_config()`` (network 5,
mappings 7.., trace 42), so paper16 at seed 0 is the stock experiment.  Other
seeds shift all three by 1000 per step, which keeps the 50 per-repetition
mapping seeds of different benchmark seeds disjoint.

Configs are written as JSON, which is valid YAML, so this module needs no
YAML library.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 0
SCHEMES = ("fbs", "symbol", "hbs", "unicast")

# Why each workload exists; BENCHMARK.json carries the same lines.
WHY = {
    "paper16": "the paper's 16-core setup and the golden run; 95% of events repeat, "
    "so the replay loop in simulate is a third of the run",
    "deep1024": "1024-core 2x10 tree, neurons scattered, so covers are wide and sparse; "
    "routing is about 90% of the run, replay and traffic synthesis are bypassed",
    "local256": "256 cores, 12k neurons, lca turnaround, trace read from a file; "
    "few repeats, so connectivity and LUT building show and replay is bypassed",
}


@dataclass(frozen=True)
class Workload:
    """One prepared workload: the CLI arguments that run it and its grid size."""

    name: str
    simulate_args: tuple[str, ...]
    repetitions: int
    schemes: tuple[str, ...] = SCHEMES


def derived_seeds(seed: int) -> dict[str, int]:
    """Network, mapping and trace seeds for a benchmark seed (seed 0 = defaults)."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    offset = 1000 * (seed - DEFAULT_SEED)
    return {"network": 5 + offset, "mapping": 7 + offset, "trace": 42 + offset}


def _config(name: str, seeds: dict[str, int], toy: bool) -> tuple[dict, list[list[str]]]:
    """Config mapping plus the CLI commands that must run before timing."""
    cfg: dict = {
        "network": {"seed": seeds["network"]},
        "mapping": {"seed": seeds["mapping"]},
        "trace": {"seed": seeds["trace"]},
        "output": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
    }
    prep: list[list[str]] = []
    if name == "paper16":
        if toy:
            cfg["mapping"]["repetitions"] = 2
            cfg["trace"]["steps"] = 40
    elif name == "deep1024":
        cfg["tree"] = {"fan_out": 2, "levels": 10}
        # At the default switch_prob of 0.05 the 600 neurons sit in about 30
        # runs, whose random places decide the covers: routing work moved by
        # 8% (quartile spread) with the seed.  At 0.2 it moves by about 2%.
        cfg["mapping"].update(repetitions=1, switch_prob=0.2)
        if toy:
            cfg["trace"]["steps"] = 40
    elif name == "local256":
        layer_size, capacity, steps = (200, 5, 3) if toy else (2000, 50, 10)
        cfg["tree"] = {"fan_out": 4, "levels": 4}
        # The config default of 10 tag bits cannot hold 6 * layer_size neuron
        # ids; these are treecast.traffic.default_tag_bits(6 * layer_size).
        cfg["tag_bits"] = 11 if toy else 14
        cfg["turnaround"] = "lca"
        cfg["network"]["layer_size"] = layer_size
        cfg["mapping"].update(strategy="sequential", capacity=capacity, repetitions=1)
        cfg["trace"] = {"source": "file", "path": "trace.csv"}
        prep.append([
            "trace-gen", "--output", "trace.csv", "--steps", str(steps), "--rate", "0.05",
            "--seed", str(seeds["trace"]), "--layer-size", str(layer_size),
        ])
    else:
        raise ValueError(f"unknown workload {name!r} (expected one of {sorted(WHY)})")
    return cfg, prep


def write_workload(name: str, seed: int, run_dir: str, toy: bool = False) -> tuple[Workload, list[list[str]]]:
    """Write the workload's config into ``run_dir``.

    Returns the workload and the `treecast` commands (run in ``run_dir``)
    that make its other inputs, such as local256's trace file.
    """
    cfg, prep = _config(name, derived_seeds(seed), toy)
    path = os.path.join(run_dir, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
        fh.write("\n")
    reps = cfg["mapping"].get("repetitions", 50)
    return Workload(name, ("simulate", "--config", "config.yaml"), reps), prep
