import gc
import itertools
import json
import os
import subprocess
import sys
import threading

import pytest

from treecast.addressing import Scheme
from treecast import cli, experiment, traffic
from treecast.cli import main
from treecast.scaling import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def fields(out):
    return dict(line.split(" ", 1) for line in out.splitlines())


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_encode_decode_round_trip(capsys, scheme):
    for tree in (("--k", "4", "--levels", "2"), ("--k", "2", "--levels", "5")):
        code, out = run(capsys, "encode", "--scheme", scheme, "--dests", "0,5,9", *tree)
        assert code == 0
        enc = fields(out)
        code, out = run(capsys, "decode", "--scheme", scheme, "--address", enc["address"], *tree)
        assert code == 0
        dec = fields(out)
        assert dec["cover"] == enc["cover"]
        assert dec["cover_size"] == enc["cover_size"]
        assert set(enc["cover"].split(",")) >= {"0", "5", "9"}


def test_core_count_flag_resolves_tree_levels(capsys):
    code, out = run(capsys, "encode", "--scheme", "hbs", "--dests", "0,5", "--n", "16", "--k", "4")
    assert code == 0
    assert fields(out)["address"] == "0011/0011"
    code, out = run(capsys, "encode", "--scheme", "hbs", "--dests", "0,5", "--n", "16")
    assert code == 0
    assert fields(out)["address"] == "01/11/01/11"


@pytest.mark.parametrize(
    "tree",
    [("--n", "24", "--k", "4"), ("--n", "12"), ("--n", "16", "--k", "1"), ("--n", "16", "--levels", "3")],
)
def test_bad_core_count_exits_1(capsys, tree):
    code = main(["encode", "--scheme", "fbs", "--dests", "0", *tree])
    assert code == 1
    err = capsys.readouterr().err
    assert "--n" in err
    assert "--levels" in err or "--levels" not in tree


@pytest.mark.parametrize(
    "tree,field", [(("--k", "0", "--levels", "0"), "fan_out"), (("--k", "4", "--levels", "0"), "levels")]
)
def test_zero_tree_flags_exit_1(capsys, tree, field):
    code = main(["encode", "--scheme", "hbs", "--dests", "0", *tree])
    assert code == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize(
    "command",
    ["encode --scheme hbs --dests 0", "decode --scheme hbs --address 01"],
    ids=["encode", "decode"],
)
@pytest.mark.parametrize("levels", ["64", "100000000000000000000"])
def test_a_tree_too_large_for_an_index_exits_1_from_the_flags(capsys, command, levels):
    assert main([*command.split(), "--k", "2", "--levels", levels]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: 2 ** {levels} cores exceed ") and err.count("\n") == 1


def test_scaling_to_stdout_starts_with_header(capsys):
    code, out = run(capsys, "scaling")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) > 1


def simulate_trace(tmp_path, capsys, lines, tag_bits=None):
    trace = tmp_path / "trace.csv"
    trace.write_text("timestep,neuron_id\n" + "".join(line + "\n" for line in lines))
    config = tmp_path / "config.yaml"
    config.write_text(
        ("" if tag_bits is None else f"tag_bits: {tag_bits}\n")
        + "network: {layer_size: 10}\nmapping: {repetitions: 1}\n"
        + f"trace: {{source: file, path: '{trace}'}}\n"
        + f"output: {{runs_csv: '{tmp_path / 'runs.csv'}', summary_json: '{tmp_path / 'summary.json'}'}}\n"
    )
    code = main(["simulate", "--config", str(config)])
    return code, capsys.readouterr().err, str(trace)


@pytest.mark.parametrize("bad", ["0,1,2", "0,x", "0,2"])
def test_malformed_trace_line_names_file_and_line(tmp_path, capsys, bad):
    code, err, path = simulate_trace(tmp_path, capsys, ["1,1", bad])
    assert code == 1
    assert f"{path}:3" in err


@pytest.mark.parametrize("neuron,tag_bits", [(99999, 17), (-3, None)])
def test_trace_id_outside_network_exits_1(tmp_path, capsys, neuron, tag_bits):
    code, err, path = simulate_trace(tmp_path, capsys, ["0,1", f"1,{neuron}"], tag_bits)
    assert code == 1
    assert f"trace.path: {path}:3: neuron id {neuron} is outside the network's 60 neurons" in err


def test_missing_config_exits_1_naming_it(tmp_path, capsys):
    missing = tmp_path / "nope.yaml"
    assert main(["simulate", "--config", str(missing)]) == 1
    assert f"--config {missing}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, line, problem",
    [
        (": : :\n", 1, "expected <block end>, but found ':'"),
        ("mapping:\n\trepetitions: 1\n", 2, "found character '\\t'"),
        ("mapping: {repetitions: 1}\ntree: {fan_out: 4}\nmapping: {seed: 3}\n", 3, "repeated key 'mapping'"),
        ("mapping:\n  repetitions: 1\n  seed: 3\n  repetitions: 2\n", 4, "repeated key 'repetitions'"),
        (
            "mapping:\n  repetitions: 1\n  seed: \x01\n",
            3,
            "unacceptable character #x0001: special characters are not allowed\n",
        ),
        (b"mapping:\n  seed: \xff\n", 2, "not UTF-8 text\n"),
        # A bad byte 10 kB into the file, on line 4.
        (b"# " + b"-" * 10000 + b"\nmapping:\n\n  seed: 1 # \xfe\n", 4, "not UTF-8 text\n"),
    ],
    ids=["parser", "tab indent", "repeated section", "repeated field", "control character", "not UTF-8", "late bad byte"],
)
def test_malformed_yaml_exits_1_naming_file_and_line(tmp_path, capsys, monkeypatch, text, line, problem):
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the sweep ran"))
    config = tmp_path / "config.yaml"
    config.write_bytes(text if isinstance(text, bytes) else text.encode())
    outputs = ["--runs-csv", str(tmp_path / "r.csv"), "--summary-json", str(tmp_path / "s.json")]
    assert main(["simulate", "--config", str(config), *outputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:{line}: {problem}")
    assert "Traceback" not in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "tree",
    [
        "schemes: [hbs]\ntree: {fan_out: 2, levels: 64}\n",
        "tree: {fan_out: 4, levels: 1000}\n",
        "schemes: [hbs]\ntree: {fan_out: 100000000000000000000, levels: 1}\n",
        "tree: {fan_out: 2, levels: 100000000000000000000}\n",
    ],
    ids=["2x64", "4x1000", "huge-fan_out", "huge-levels"],
)
def test_a_tree_too_large_for_an_index_exits_1_naming_tree(tmp_path, capsys, monkeypatch, tree):
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the sweep ran"))
    config = tmp_path / "config.yaml"
    config.write_text(tree)
    outputs = ["--runs-csv", str(tmp_path / "r.csv"), "--summary-json", str(tmp_path / "s.json")]
    assert main(["simulate", "--config", str(config), *outputs]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tree: ") and err.count("\n") == 1


def test_unopenable_output_exits_1_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_experiment", lambda config: pytest.fail("the sweep ran"))
    bad = tmp_path / "no_such_dir" / "runs.csv"
    config = tmp_path / "config.yaml"
    config.write_text(f"output: {{runs_csv: '{bad}', summary_json: '{tmp_path / 's.json'}'}}\n")
    assert main(["simulate", "--config", str(config)]) == 1
    assert f"output.runs_csv {bad}" in capsys.readouterr().err


def test_failed_simulate_keeps_existing_outputs(tmp_path, capsys):
    runs, summary = tmp_path / "runs.csv", tmp_path / "summary.json"
    runs.write_text("scheme\nold\n")
    summary.write_text("{}\n")
    config = tmp_path / "config.yaml"
    config.write_text(
        f"trace: {{source: file, path: '{tmp_path / 'nope.csv'}'}}\n"
        + f"output: {{runs_csv: '{runs}', summary_json: '{summary}'}}\n"
    )
    assert main(["simulate", "--config", str(config)]) == 1
    assert "trace.path" in capsys.readouterr().err
    assert runs.read_bytes() == b"scheme\nold\n"
    assert summary.read_bytes() == b"{}\n"
    # A run that succeeds replaces both files whole.
    config.write_text(SMALL_RUN)
    assert main(["simulate", "--config", str(config), "--runs-csv", str(runs), "--summary-json", str(summary)]) == 0
    assert runs.read_text().startswith("scheme,mapping_index,") and "old" not in runs.read_text()
    assert json.loads(summary.read_text())["repetitions"] == 1


def test_failed_simulate_removes_only_the_outputs_it_created(tmp_path, capsys):
    runs, summary = tmp_path / "new_r.csv", tmp_path / "new_s.json"
    config = tmp_path / "config.yaml"
    config.write_text(f"trace: {{source: file, path: '{tmp_path / 'nope.csv'}'}}\n")
    argv = ["simulate", "--config", str(config), "--runs-csv", str(runs), "--summary-json"]
    assert main([*argv, str(summary)]) == 1
    assert "trace.path" in capsys.readouterr().err
    assert not runs.exists() and not summary.exists()
    summary.write_text("{}\n")
    assert main([*argv, str(summary)]) == 1
    assert not runs.exists() and summary.read_bytes() == b"{}\n"
    # One new path named as both outputs is created once and removed once.
    assert main([*argv, str(runs)]) == 1
    assert "is also output.runs_csv" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml", "new_s.json"]


def test_out_of_memory_exits_2_naming_the_function(tmp_path, capsys):
    # 2^40 cores: numpy refuses the neurons x cores matrix of build_core_luts
    # at once (600 TiB), so nothing is allocated.
    runs, summary = tmp_path / "r.csv", tmp_path / "s.json"
    config = tmp_path / "config.yaml"
    config.write_text(
        "tree: {fan_out: 2, levels: 40}\nmapping: {strategy: sequential, repetitions: 1}\n"
        "trace: {steps: 10}\n"
    )
    argv = ["simulate", "--config", str(config), "--runs-csv", str(runs), "--summary-json", str(summary)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == "error: out of memory in build_core_luts\n"
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]


def test_out_of_memory_in_a_drawing_thread_exits_2_and_stops_every_thread(tmp_path, capsys, monkeypatch):
    # Two drawing threads; the second row-chunk job of the six fails.
    monkeypatch.setattr(traffic, "DRAWS_PER_THREAD", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    draw, jobs = traffic._draw_rows, itertools.count()

    def second_job_fails(*args):
        if next(jobs) == 1:
            raise MemoryError
        return draw(*args)

    monkeypatch.setattr(traffic, "_draw_rows", second_job_fails)
    runs, summary = tmp_path / "r.csv", tmp_path / "s.json"
    config = tmp_path / "config.yaml"
    config.write_text("mapping: {repetitions: 1}\ntrace: {steps: 10}\n")
    before = threading.active_count()
    argv = ["simulate", "--config", str(config), "--runs-csv", str(runs), "--summary-json", str(summary)]
    assert main(argv) == 2
    assert threading.active_count() == before
    # The job's frames travel with the error: the innermost package frame is the pass-1 job.
    assert capsys.readouterr().err == "error: out of memory in draw_job\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]


def test_simulate_writes_to_a_file_that_is_not_regular(tmp_path, capsys):
    config = tmp_path / "config.yaml"
    config.write_text(SMALL_RUN)
    argv = ["simulate", "--config", str(config), "--runs-csv", os.devnull, "--summary-json", os.devnull]
    assert main(argv) == 0
    assert f"wrote {os.devnull} and {os.devnull}" in capsys.readouterr().out


def test_simulate_rejects_one_regular_file_named_as_both_outputs(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiment, "generate_connectivity", lambda *a: pytest.fail("built"))
    out = tmp_path / "same.out"
    out.write_text("keep\n")
    os.link(out, tmp_path / "link.out")
    for other in (out, f"{tmp_path}/./same.out", tmp_path / "link.out"):
        assert main(["simulate", "--runs-csv", str(out), "--summary-json", str(other)]) == 1
        assert "is also output.runs_csv" in capsys.readouterr().err
        assert out.read_text() == "keep\n"


def test_decode_rejects_repeated_unicast_targets(capsys):
    assert main(["decode", "--scheme", "unicast", "--address", "3,3"]) == 1
    assert "repeat" in capsys.readouterr().err


def test_missing_trace_file_exits_1_before_connectivity(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiment, "generate_connectivity", lambda *a: pytest.fail("built"))
    missing = tmp_path / "nope.csv"
    config = tmp_path / "config.yaml"
    config.write_text(
        f"trace: {{source: file, path: '{missing}'}}\n"
        + f"output: {{runs_csv: '{tmp_path / 'r.csv'}', summary_json: '{tmp_path / 's.json'}'}}\n"
    )
    assert main(["simulate", "--config", str(config)]) == 1
    assert f"trace.path: {missing}: No such file or directory" in capsys.readouterr().err


def test_a_synth_trace_too_long_exits_1_before_connectivity(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(experiment, "generate_connectivity", lambda *a: pytest.fail("built"))
    config = tmp_path / "config.yaml"
    config.write_text("trace: {steps: 1000000000}\n")
    outputs = ["--runs-csv", str(tmp_path / "r.csv"), "--summary-json", str(tmp_path / "s.json")]
    assert main(["simulate", "--config", str(config), *outputs]) == 1
    err = capsys.readouterr().err
    assert err == f"error: trace.steps: 1000000000 steps x 600 neurons exceed {traffic.MAX_TRACE_DRAWS} draws\n"
    assert not os.path.exists(tmp_path / "r.csv")


SMALL_RUN = "network: {layer_size: 10}\nmapping: {repetitions: 1}\ntrace: {steps: 20}\n"
OUTPUTS = "--runs-csv {tmp}/r.csv --summary-json {tmp}/s.json"


@pytest.mark.parametrize(
    "good,bad,named",
    [
        ("encode --scheme hbs --dests 0,5", "encode --scheme hbs --dests 0,16", "16"),
        ("decode --scheme symbol --address 0*1*", "decode --scheme symbol --address 0*1", "symbol"),
        ("scaling --output {tmp}/s.csv", "scaling --output {tmp}/no/s.csv", "--output"),
        ("trace-gen --steps 5 --output {tmp}/t.csv", "trace-gen --output {tmp}/no/t.csv", "--output"),
        ("simulate --config {tmp}/small.yaml " + OUTPUTS, "simulate --config {tmp}/no.yaml", "--config"),
    ],
    ids=["encode", "decode", "scaling", "trace-gen", "simulate"],
)
def test_subcommand_exit_codes(tmp_path, capsys, good, bad, named):
    (tmp_path / "small.yaml").write_text(SMALL_RUN)
    assert main(good.format(tmp=tmp_path).split()) == 0
    capsys.readouterr()
    assert main(bad.format(tmp=tmp_path).split()) == 1
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("config, code", [(SMALL_RUN, 0), ("tree: {fan_out: 1}\n", 1)], ids=["run", "config error"])
def test_main_leaves_the_collector_of_a_live_process_as_it_was(tmp_path, capsys, config, code):
    # main only registers gc.freeze to run at exit; a caller that goes on
    # running keeps an enabled collector with nothing frozen.
    (tmp_path / "c.yaml").write_text(config)
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(f"simulate --config {tmp_path}/c.yaml {OUTPUTS}".format(tmp=tmp_path).split()) == code
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_the_collector_is_frozen_once_at_exit():
    # A callback registered before main runs after main's (atexit is last in,
    # first out), so it sees the freezes that two runs of main left to exit.
    script = (
        "import atexit, gc\n"
        "calls, freeze = [], gc.freeze\n"
        "gc.freeze = lambda: calls.append(freeze())\n"
        "atexit.register(lambda: print('at exit', len(calls), gc.get_freeze_count() > 0))\n"
        "from treecast.cli import main\n"
        "for _ in range(2):\n"
        "    main(['encode', '--scheme', 'hbs', '--dests', '0,5'])\n"
        "print('live', len(calls), gc.get_freeze_count())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-2:] == ["live 0 0", "at exit 1 True"]


@pytest.mark.parametrize("bad", ["--rate 2", "--layer-size 0"])
def test_trace_gen_bad_arguments_keep_existing_output(tmp_path, capsys, bad):
    out = tmp_path / "t.csv"
    out.write_text("timestep,neuron_id\n0,1\n")
    before = out.read_bytes()
    assert main(["trace-gen", "--output", str(out), *bad.split()]) == 1
    assert "error:" in capsys.readouterr().err
    assert out.read_bytes() == before


def test_trace_gen_past_the_draw_bound_exits_1_and_writes_nothing(tmp_path, capsys):
    out = tmp_path / "t.csv"
    assert main(["trace-gen", "--output", str(out), "--steps", "1000000000"]) == 1
    err = capsys.readouterr().err
    assert err == f"error: 1000000000 steps x 600 neurons exceed {traffic.MAX_TRACE_DRAWS} draws\n"
    assert not out.exists()


def test_scaling_prints_capabilities_past_the_int_digit_limit(tmp_path, capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    out = tmp_path / "s.csv"
    assert main(["scaling", "--n-values", "16384", "--k-values", "2,4", "--output", str(out)]) == 0
    assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit
    rows = out.read_text().splitlines()
    assert rows[0] == ",".join(CSV_HEADER) and len(rows) == 9
    fbs = [row.split(",") for row in rows if row.startswith("fbs,")]
    assert [row[:4] for row in fbs] == [["fbs", "16384", "2", "16384"], ["fbs", "16384", "4", "16384"]]
    # 2**16384 - 1 in full: 4,933 digits, of which the last 100 are checked.
    tail = str(pow(2, 16384, 10**100) - 1).zfill(100)
    assert all(len(row[4]) == 4933 and row[4][-100:] == tail for row in fbs)


def _raise_oserror(*args):
    raise OSError("disk full")


@pytest.mark.parametrize(
    "argv,writer",
    [
        ("scaling", "write_scaling_csv"),
        ("trace-gen --steps 5 --output {tmp}/t.csv", "save_trace"),
        ("simulate --config {tmp}/small.yaml " + OUTPUTS, "write_runs_csv"),
    ],
    ids=["scaling", "trace-gen", "simulate"],
)
def test_output_write_failure_exits_2(tmp_path, capsys, monkeypatch, argv, writer):
    """A failed output write is a runtime failure: exit 2 with an ``error:`` line.

    ``encode`` and ``decode`` write only to stdout, so no output write of
    theirs can fail this way.
    """
    (tmp_path / "small.yaml").write_text(SMALL_RUN)
    monkeypatch.setattr(cli, writer, _raise_oserror)
    assert main(argv.format(tmp=tmp_path).split()) == 2
    assert "error: disk full" in capsys.readouterr().err
