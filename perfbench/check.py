"""Output check for one `treecast simulate` run: invariants plus a digest.

The digest covers named values only: the SimReport counter columns of
runs.csv and the named entries of the ``schemes`` and ``comparisons``
blocks of summary.json.  Columns or keys appended later do not change it,
while any change to a counter does.

Run as a script to print the digest of a run directory::

    python3 perfbench/check.py .perfbench_work/paper16
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import sys

INT_COLUMNS = ("events", "packets_injected", "link_bit_traversals", "legal_deliveries", "illegal_deliveries")
FLOAT_COLUMNS = ("routing_energy", "filtering_energy", "illegal_filtering_energy", "total_energy")
SCHEME_KEYS = (
    "runs",
    "total_energy",
    "routing_energy_sum",
    "filtering_energy_sum",
    "illegal_filtering_energy_sum",
    "packets_injected",
    "link_bit_traversals",
    "legal_deliveries",
    "illegal_deliveries",
)
COMPARISON_KEYS = ("illegal_hbs_over_symbol", "total_energy_hbs_over_symbol", "total_energy_hbs_over_fbs")
#: Schemes that deliver only to legal destinations.
EXACT_SCHEMES = ("fbs", "unicast")


class OutputError(ValueError):
    """The run's outputs are missing, malformed or wrong."""


def read_rows(run_dir: str) -> list[dict]:
    """runs.csv rows with the key and counter columns parsed."""
    rows = []
    with open(os.path.join(run_dir, "runs.csv"), encoding="utf-8", newline="") as fh:
        for line_no, raw in enumerate(csv.DictReader(fh), start=2):
            try:
                row = {"scheme": raw["scheme"], "mapping_index": int(raw["mapping_index"])}
                row.update((c, int(raw[c])) for c in INT_COLUMNS)
                row.update((c, float(raw[c])) for c in FLOAT_COLUMNS)
            except (KeyError, TypeError, ValueError) as exc:
                raise OutputError(f"runs.csv line {line_no}: {exc!r}") from None
            rows.append(row)
    return rows


def read_summary(run_dir: str) -> dict:
    with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    try:
        return {
            "schemes": {
                s: {k: block[k] for k in SCHEME_KEYS} for s, block in summary["schemes"].items()
            },
            "comparisons": {k: summary["comparisons"][k] for k in COMPARISON_KEYS},
        }
    except (KeyError, TypeError) as exc:
        raise OutputError(f"summary.json: missing {exc}") from None


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digest(rows: list[dict], summary: dict) -> dict[str, str]:
    return {"runs": _sha([[r[k] for k in sorted(r)] for r in rows]), "summary": _sha(summary)}


def check_invariants(rows: list[dict], summary: dict, schemes, repetitions: int) -> None:
    """Checks that hold at every seed; raises OutputError on the first failure."""
    cells = sorted((r["scheme"], r["mapping_index"]) for r in rows)
    expected = sorted((s, m) for s in schemes for m in range(repetitions))
    if cells != expected:
        raise OutputError(f"runs.csv has {len(cells)} cells, expected {len(expected)} (scheme x mapping)")
    if sorted(summary["schemes"]) != sorted(schemes):
        raise OutputError(f"summary.json schemes {sorted(summary['schemes'])} != {sorted(schemes)}")
    by_mapping: dict[int, dict] = {}
    for r in rows:
        first = by_mapping.setdefault(r["mapping_index"], r)
        for key in ("events", "legal_deliveries"):
            if r[key] != first[key]:
                raise OutputError(
                    f"mapping {r['mapping_index']}: {key} {r['scheme']}={r[key]} "
                    f"but {first['scheme']}={first[key]}"
                )
        if r["scheme"] in EXACT_SCHEMES and r["illegal_deliveries"] != 0:
            raise OutputError(
                f"mapping {r['mapping_index']}: {r['scheme']} reports "
                f"{r['illegal_deliveries']} illegal deliveries"
            )
    if sum(r["events"] for r in rows) <= 0:
        raise OutputError("no events were simulated")


def check_run(run_dir: str, schemes, repetitions: int, expected: dict | None) -> int:
    """Check a finished run's outputs; returns the number of simulated events.

    ``expected`` is the recorded digest for this workload and seed, or
    None where none is recorded.
    """
    try:
        rows = read_rows(run_dir)
        summary = read_summary(run_dir)
    except (OSError, json.JSONDecodeError) as exc:
        raise OutputError(str(exc)) from None
    check_invariants(rows, summary, schemes, repetitions)
    if expected is not None:
        got = digest(rows, summary)
        if got != expected:
            raise OutputError(f"digest {got} != recorded {expected}")
    return sum(r["events"] for r in rows)


if __name__ == "__main__":
    for d in sys.argv[1:]:
        print(json.dumps({d: digest(read_rows(d), read_summary(d))}))
