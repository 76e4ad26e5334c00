"""Batch command line: encode/decode addresses, scaling tables, experiments.

Subcommands::

    treecast encode    --scheme hbs --k 4 --levels 2 --dests 0,5
    treecast decode    --scheme hbs --k 4 --levels 2 --address 0011/0011
    treecast scaling   --output scaling.csv
    treecast simulate  --config experiment.yaml
    treecast trace-gen --output trace.csv --steps 400 --rate 0.05 --seed 42

Exit codes: 0 on success; 1 on input/config validation errors, including
a path that cannot be opened (``simulate`` checks its config and outputs
before the sweep); 2 on runtime failures, such as an output that was opened
but could not be written, or memory running out, which names the innermost
treecast function that asked for it.

At exit, the garbage collector is frozen: every object moves to its
permanent generation, so the collections of interpreter teardown do not
walk the tens of thousands of objects that numpy and treecast make at
import, which would take longer than a small run.  The freeze is
registered with ``atexit``, so it runs after the pool threads are joined
and before finalization.  The outputs are closed by then, standard
streams are still flushed, and cyclic garbage left at exit is not
finalized, which Python never promised.  A process that calls
:func:`main` and goes on running sees no change in its collector.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import io
import os
import sys
from typing import IO, Sequence

from .addressing import (
    Scheme,
    TreeConfig,
    address_class,
    cores,
    encode,
    overcoverage,
    tree_levels,
)
from .experiment import (
    ConfigError,
    default_config,
    load_config,
    run_experiment,
    write_runs_csv,
    write_summary_json,
)
from .scaling import emit_scaling_table, write_scaling_csv
from .traffic import NetworkSpec, save_trace, synth_trace

DEFAULT_SCALING_N = (4, 16, 64, 256, 1024, 4096)
DEFAULT_SCALING_K = (2, 4)


def _tree_from_flags(args: argparse.Namespace) -> TreeConfig:
    """--k/--levels pick the tree; --n picks the tree of n cores with fan-out --k (default 2)."""
    if args.n is not None:
        if args.levels is not None:
            raise ValueError("--levels cannot be given with --n, which sets the levels")
        k = 2 if args.k is None else args.k
        try:
            return TreeConfig(fan_out=k, levels=tree_levels(args.n, k))
        except ValueError as exc:
            raise ValueError(f"--n {args.n} --k {k}: {exc}") from None
    return TreeConfig(
        fan_out=4 if args.k is None else args.k, levels=2 if args.levels is None else args.levels
    )


def _parse_ints(text: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"{flag} must be comma-separated integers, got {text!r}") from None


def _cmd_encode(args: argparse.Namespace) -> int:
    cfg = _tree_from_flags(args)
    scheme = Scheme(args.scheme)
    mask = 0
    for d in _parse_ints(args.dests, "--dests"):
        if not 0 <= d < cfg.core_count:
            raise ValueError(f"destination {d} out of range [0, {cfg.core_count})")
        mask |= 1 << d
    addr = encode(scheme, mask, cfg)
    cover = cores(addr.cover(cfg))
    print(f"address {addr.text(cfg)}")
    print(f"cover {','.join(map(str, cover))}")
    print(f"cover_size {len(cover)}")
    print(f"overcoverage {overcoverage(addr, mask, cfg)}")
    return 0


def _cmd_decode(args: argparse.Namespace) -> int:
    cfg = _tree_from_flags(args)
    addr = address_class(args.scheme).parse(args.address.strip(), cfg)
    cover = cores(addr.cover(cfg))
    print(f"cover {','.join(map(str, cover))}")
    print(f"cover_size {len(cover)}")
    return 0


def _cmd_scaling(args: argparse.Namespace) -> int:
    n_values = _parse_ints(args.n_values, "--n-values") if args.n_values else DEFAULT_SCALING_N
    k_values = _parse_ints(args.k_values, "--k-values") if args.k_values else DEFAULT_SCALING_K
    rows = emit_scaling_table(sorted(n_values), sorted(k_values))
    # Formatted in full before the output is opened, so a failure keeps an existing file.
    text = io.StringIO()
    write_scaling_csv(rows, text)
    if args.output:
        with _open(args.output, "w", "--output") as fh:
            fh.write(text.getvalue())
        print(f"wrote {len(rows)} rows to {args.output}")
    else:
        sys.stdout.write(text.getvalue())
    return 0


def _open(path: str, mode: str, what: str) -> IO[str]:
    """``open(path, mode)``; a path that cannot be opened is an input error naming ``what``."""
    try:
        return open(path, mode, encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"{what} {path}: {exc.strerror}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.config:
        with _open(args.config, "r", "--config") as fh:
            config = load_config(fh)
    else:
        config = default_config()
    runs_csv = args.runs_csv or config.runs_csv
    summary_json = args.summary_json or config.summary_json

    # Both outputs are opened (without truncating) before the sweep, so a bad
    # path costs no run, and rewritten only after it, so a failed run leaves
    # them as they were and removes the ones this open created.  One regular
    # file cannot hold both.
    created = []
    try:
        for path, what in ((runs_csv, "output.runs_csv"), (summary_json, "output.summary_json")):
            existed = os.path.lexists(path)
            _open(path, "a", what).close()
            if not existed:
                created.append(path)
        if os.path.isfile(runs_csv) and os.path.samefile(runs_csv, summary_json):
            raise ValueError(f"output.summary_json {summary_json}: is also output.runs_csv")
        result = run_experiment(config)
    except BaseException:
        for path in created:
            os.remove(path)
        raise
    with (
        _open(runs_csv, "w", "output.runs_csv") as runs_fh,
        _open(summary_json, "w", "output.summary_json") as summary_fh,
    ):
        write_runs_csv(result.rows, runs_fh)
        write_summary_json(result.summary, summary_fh)

    for scheme, stats in result.summary["schemes"].items():
        print(
            f"{scheme}: total_energy sum {stats['total_energy']['sum']:.1f} "
            f"mean {stats['total_energy']['mean']:.1f}, "
            f"illegal {stats['illegal_deliveries']}, "
            f"legal {stats['legal_deliveries']}"
        )
    for name, value in result.summary["comparisons"].items():
        print(f"{name} {value if value is None else format(value, '.4f')}")
    print(f"wrote {runs_csv} and {summary_json}")
    return 0


def _cmd_trace_gen(args: argparse.Namespace) -> int:
    spec = NetworkSpec.default_rsnn(
        layer_size=args.layer_size,
        recurrent_layers=args.recurrent_layers,
        feedforward_layers=args.feedforward_layers,
        density=0.1,
    )
    # Built before the output is opened, so bad arguments leave an existing file intact.
    trace = synth_trace(spec, steps=args.steps, rate=args.rate, seed=args.seed)
    with _open(args.output, "w", "--output") as fh:
        save_trace(trace, fh)
    print(f"wrote {len(trace.events)} events to {args.output}")
    return 0


def _add_tree_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--k", type=int, default=None, help="children per switch (default 4)")
    p.add_argument("--levels", type=int, default=None, help="tree levels (default 2)")
    p.add_argument("--n", type=int, default=None, help="core count (a power of --k, default 2)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treecast",
        description="Multicast address codecs and a tree NoC simulator for spike traffic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="encode a destination set under a scheme")
    p.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p.add_argument("--dests", required=True, help="comma-separated core indices")
    _add_tree_flags(p)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="expand a canonical address to its cover")
    p.add_argument("--scheme", required=True, choices=[s.value for s in Scheme])
    p.add_argument("--address", required=True, help="canonical address text")
    _add_tree_flags(p)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("scaling", help="emit the routing-bits/capability table as CSV")
    p.add_argument("--n-values", default=None, help="comma-separated core counts")
    p.add_argument("--k-values", default=None, help="comma-separated per-level fan-outs")
    p.add_argument("--output", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=_cmd_scaling)

    p = sub.add_parser("simulate", help="run the scheme x mapping experiment grid")
    p.add_argument("--config", default=None, help="YAML experiment config")
    p.add_argument("--runs-csv", default=None, help="per-run report CSV path")
    p.add_argument("--summary-json", default=None, help="aggregate summary JSON path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("trace-gen", help="synthesize a spike trace file")
    p.add_argument("--output", required=True)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--rate", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--layer-size", type=int, default=100)
    p.add_argument("--recurrent-layers", type=int, default=3)
    p.add_argument("--feedforward-layers", type=int, default=3)
    p.set_defaults(func=_cmd_trace_gen)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Registered once per process, however often main runs.
    atexit.unregister(gc.freeze)
    atexit.register(gc.freeze)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; those are validation failures here
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ValueError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # Walk the frames in place, allocating little while memory is short.
        # This frame is in the package too, so some frame always matches.
        here, tb = os.path.dirname(os.path.abspath(__file__)), exc.__traceback__
        while tb is not None:
            code = tb.tb_frame.f_code
            if os.path.dirname(os.path.abspath(code.co_filename)) == here:
                name = code.co_name
            tb = tb.tb_next
        print(f"error: out of memory in {name}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
