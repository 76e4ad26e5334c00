"""Golden outputs: the experiment's CSV and JSON text must not drift.

Each config is a reduced form of the stock experiment; the hashes are
sha256 prefixes of the exact text ``write_runs_csv`` and
``write_summary_json`` produce.  A change that alters any counter, any
float's last digit or the output layout changes a hash.
"""

import dataclasses
import hashlib
import io

import pytest

from treecast.addressing import TreeConfig
from treecast.experiment import default_config, run_experiment, write_runs_csv, write_summary_json


def _sha16(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _local64(turnaround):
    # 64 cores with sequential packing keeps traffic local, so the lca
    # turnaround takes shorter routes than root.
    return dataclasses.replace(
        default_config(),
        tree=TreeConfig(4, 3),
        strategy="sequential",
        capacity=10,
        repetitions=1,
        trace_steps=100,
        turnaround=turnaround,
    )


GOLDEN = [
    ("default_3reps", dataclasses.replace(default_config(), repetitions=3),
     "82bd105ebf915984", "fd5813b8b1fff21d"),
    ("local64_root", _local64("root"), "1b41debf6789eade", "d4cc2fdc677d5b90"),
    ("local64_lca", _local64("lca"), "0960a855b543e368", "f9cbd575680e46a6"),
]


@pytest.mark.parametrize(
    "config,runs_sha,summary_sha", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_outputs(config, runs_sha, summary_sha):
    result = run_experiment(config)
    runs, summary = io.StringIO(), io.StringIO()
    write_runs_csv(result.rows, runs)
    write_summary_json(result.summary, summary)
    assert (_sha16(runs.getvalue()), _sha16(summary.getvalue())) == (runs_sha, summary_sha)
