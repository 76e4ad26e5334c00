"""Fast-path mutants: small breaks of the fast paths that the named tests must catch.

Each mutant is a source file under ``src/``, an exact old text that occurs
once in it, the new text that replaces it, and the pytest node ids that must
all fail once it is applied.  A node id names a test function, or one of its
parametrizations.  An equivalent mutant changes no behaviour that a test can
tell; it is listed with the reason, its old text is still checked, and it is
not run.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named ones

The runner copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory and first runs every named test there unmutated, which must pass.
Then it applies one mutant at a time and runs only that mutant's tests, with
the tier-1 warning flags.  It exits 1 when a mutant survives, when a
mutant's old text no longer occurs exactly once (so a refactor has to update
this list), or when a run does not end in test failures.  It has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PYTEST = [sys.executable, "-B", "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
WARNINGS = ["-W", "error::ResourceWarning", "-W", "error::pytest.PytestUnraisableExceptionWarning"]

ADDRESSING = "src/treecast/addressing.py"
NOCSIM = "src/treecast/nocsim.py"
TRAFFIC = "src/treecast/traffic.py"
T_ADDRESSING = "tests/test_addressing.py::"
T_NOCSIM = "tests/test_nocsim.py::"
T_TRAFFIC = "tests/test_traffic.py::"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...] = ()
    equivalent: str | None = None  # the reason, for a mutant no test can tell


MUTANTS = (
    # Interned addresses.
    Mutant(
        "intern key without the class",
        ADDRESSING,
        "key = cls, masks",
        "key = masks",
        (T_ADDRESSING + "test_hbs_and_symbol_never_share_an_interned_address",),
    ),
    Mutant(
        "one table for all equal trees",
        ADDRESSING,
        '        here, and it is freed with the instance."""\n        return {}',
        '        here, and it is freed with the instance."""\n'
        '        return globals().setdefault("_TABLES", {}).setdefault((self.fan_out, self.levels), {})',
        (T_ADDRESSING + "test_equal_trees_never_share_an_address",),
    ),
    # No output or pinned count tells this one: each demand entry has its own
    # mask, so an interned fbs address would only be kept alive (about 7,700
    # per paper16 run).  Only the identity test sees it.
    Mutant(
        "fbs interned like hbs",
        ADDRESSING,
        "    @classmethod\n    def _encode(cls, mask: int, cfg: TreeConfig) -> FbsAddress:",
        "    @classmethod\n    def _unused(cls, mask: int, cfg: TreeConfig) -> FbsAddress:",
        (T_ADDRESSING + "test_fbs_and_unicast_addresses_are_not_interned",),
    ),
    # One root route per distinct address.
    Mutant(
        "shared root route charged with its first mask's spikes only",
        NOCSIM,
        "                entry[2] += total",
        "                pass",
        (
            T_NOCSIM + "test_simulate_charges_a_shared_route_for_every_mask[symbol-root]",
            T_NOCSIM + "test_simulate_charges_a_shared_route_for_every_mask[hbs-root]",
        ),
    ),
    Mutant(
        "shared root route keyed by the mask, not the address",
        NOCSIM,
        "entry = shared.get(addr.masks)\n            if entry is None:\n                shared[addr.masks]",
        "entry = shared.get(mask)\n            if entry is None:\n                shared[mask]",
        (
            T_NOCSIM + "test_simulate_encodes_each_set_once_and_routes_each_key_once[symbol-root]",
            T_NOCSIM + "test_simulate_encodes_each_set_once_and_routes_each_key_once[hbs-root]",
        ),
    ),
    Mutant(
        "root routes once per sender",
        NOCSIM,
        'per_sender = unicast or turnaround != "root"',
        "per_sender = True",
        (T_NOCSIM + "test_simulate_encodes_each_set_once_and_routes_each_key_once[hbs-root]",),
    ),
    # Carried counts and bounds, and the lca turn.
    Mutant(
        "carried counts read on another tree",
        ADDRESSING,
        "if tree is cfg and counts:",
        "if counts:",
        (T_NOCSIM + "test_an_address_routed_on_another_tree_reads_that_tree",),
    ),
    Mutant(
        "lca route keeps the links above its turn",
        NOCSIM,
        "level_links = level_links[:turn_level] + (0,) * (cfg.levels - turn_level)",
        "level_links = level_links",
        (T_NOCSIM + "test_lca_route_counts_depend_on_the_source_core",),
    ),
    Mutant(
        "lca root short-cut dropped",
        NOCSIM,
        "if cover_level < turn_level:",
        "if True:",
        (T_NOCSIM + "test_an_lca_route_turns_at_the_lowest_subtree_of_source_and_cover",),
    ),
    Mutant(
        "lca turn search starts above the cover's level",
        NOCSIM,
        "turn_level = _turn_level(source_core, low, high, cfg, cover_level)",
        "turn_level = _turn_level(source_core, low, high, cfg, cover_level + 1)",
        (T_NOCSIM + "test_an_lca_route_turns_at_the_lowest_subtree_of_source_and_cover",),
    ),
    Mutant(
        "cover level counted from 0",
        ADDRESSING,
        "k, level, span = cfg.fan_out, 1, cfg.fan_out",
        "k, level, span = cfg.fan_out, 0, 1",
        (T_NOCSIM + "test_an_lca_route_turns_at_the_lowest_subtree_of_source_and_cover",),
    ),
    Mutant(
        "unicast router takes a multicast address",
        NOCSIM,
        "    if not isinstance(addr, UnicastAddress):",
        "    if False:",
        (T_NOCSIM + "test_each_router_rejects_the_other_kind_of_address",),
    ),
    # Closed forms.
    Mutant(
        "hbs counts miss the up link",
        ADDRESSING,
        "links.append(1 + covered)",
        "links.append(covered)",
        (T_NOCSIM + "test_walk_runs_once_on_first_read",),
    ),
    Mutant(
        "symbol counts read every height of the binary tree",
        ADDRESSING,
        "step = self._tree(cfg).levels // cfg.levels",
        "step = 1",
        (T_NOCSIM + "test_closed_form_counts_equal_the_walk",),
    ),
    Mutant(
        "fbs fold shifts by digits, not blocks",
        ADDRESSING,
        "folded |= cover >> (d * span)",
        "folded |= cover >> d",
        (T_NOCSIM + "test_closed_form_counts_equal_the_walk",),
    ),
    Mutant(
        "unicast block not aligned to the source's block",
        NOCSIM,
        "(cover & block << source_core - source_core % span)",
        "(cover & block << source_core)",
        (T_NOCSIM + "test_closed_form_counts_equal_the_walk",),
    ),
    # Traffic.
    Mutant(
        "LUT range test forced to pass",
        TRAFFIC,
        "fits = not len(core_of) or 0 <= core_of.min() <= core_of.max() < n_cores",
        "fits = True",
        (T_TRAFFIC + "test_build_core_luts_rejects_a_hand_built_mapping_outside_the_tree",),
    ),
    Mutant(
        "LUT core beyond an index not caught",
        TRAFFIC,
        "except OverflowError:  # a core beyond an index",
        "except ZeroDivisionError:  # a core beyond an index",
        (T_TRAFFIC + "test_build_core_luts_rejects_a_hand_built_mapping_outside_the_tree",),
    ),
    Mutant(
        "derive_events range test forgets the mapping",
        TRAFFIC,
        "< min(1 << tag_bits, len(luts), len(mapping)):",
        "< min(1 << tag_bits, len(luts)):",
        (T_TRAFFIC + "test_derive_events_checks_once_and_names_the_first_offender",),
    ),
    Mutant(
        "pass-1 jobs all draw from their part's first row",
        TRAFFIC,
        "stream.advance(offset + start * cols)",
        "stream.advance(offset)",
        (T_TRAFFIC + "test_threaded_connectivity_matches_row_by_row_oracle",),
    ),
    Mutant(
        "pass-2 pieces all read the job's first bytes",
        TRAFFIC,
        "packed[row * width // 8 :]",
        "packed[:]",
        (T_TRAFFIC + "test_threaded_connectivity_matches_row_by_row_oracle",),
    ),
    Mutant(
        "random_switch skips the wrong open core",
        TRAFFIC,
        "open_cores[i + 1 if here and i >= at else i]",
        "open_cores[i + 1 if here and i > at else i]",
        (T_TRAFFIC + "test_random_switch_mapping_equals_the_full_scan",),
    ),
    # Equivalent.
    Mutant(
        "empty-mapping guard flipped in build_core_luts",
        TRAFFIC,
        "fits = not len(core_of) or 0 <= core_of.min()",
        "fits = len(core_of) and 0 <= core_of.min()",
        equivalent="an empty mapping then takes the one-by-one check, which finds no core to reject",
    ),
)


def _check(mutant: Mutant, text: str) -> str | None:
    found = text.count(mutant.old)
    return None if found == 1 else f"old text occurs {found} times in {mutant.path}, not once"


def _run(cwd: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        PYTEST + WARNINGS + list(tests), cwd=cwd, capture_output=True, text=True, timeout=300
    )


def _failed(output: str, test: str) -> bool:
    """Whether the -rf summary lists ``test``, or one of its parametrizations."""
    for line in output.splitlines():
        if line.startswith("FAILED "):
            node = line[len("FAILED ") :].split(" - ")[0]
            if node == test or (node.startswith(test + "[") and "[" not in test):
                return True
    return False


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    problems = []
    with tempfile.TemporaryDirectory(prefix="treecast-mutants-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)

        for m in chosen:
            problem = _check(m, (work / m.path).read_text())
            if problem:
                problems.append(f"{m.name}: {problem}")
        if problems:
            print("\n".join(problems))
            return 1

        baseline = sorted({t for m in chosen if not m.equivalent for t in m.tests})
        if baseline:
            result = _run(work, tuple(baseline))
            if result.returncode != 0:
                print(result.stdout[-3000:] + result.stderr[-3000:])
                print("the named tests fail on the unmutated source")
                return 1

        for m in chosen:
            if m.equivalent:
                print(f"equivalent  {m.name}: {m.equivalent}")
                continue
            target = work / m.path
            original = target.read_text()
            target.write_text(original.replace(m.old, m.new))
            try:
                result = _run(work, m.tests)
            finally:
                target.write_text(original)
            output = result.stdout + result.stderr
            survived = [t for t in m.tests if not _failed(output, t)]
            if result.returncode != 1 or survived:
                problems.append(f"{m.name}: exit {result.returncode}, not failed: {survived}")
                print(f"SURVIVED    {m.name}\n{output[-2000:]}")
            else:
                print(f"killed      {m.name}")
    if problems:
        print("\n".join(problems))
        return 1
    print(f"{len(chosen)} mutants checked")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
