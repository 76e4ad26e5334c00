import pytest

from treecast.addressing import Scheme
from treecast.cli import main
from treecast.scaling import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def fields(out):
    return dict(line.split(" ", 1) for line in out.splitlines())


@pytest.mark.parametrize("scheme", [s.value for s in Scheme])
def test_encode_decode_round_trip(capsys, scheme):
    tree = ("--k", "4", "--levels", "2")
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
    "tree", [("--n", "24", "--k", "4"), ("--n", "12"), ("--n", "16", "--k", "1")]
)
def test_bad_core_count_exits_1(capsys, tree):
    code = main(["encode", "--scheme", "fbs", "--dests", "0", *tree])
    assert code == 1
    assert "--n" in capsys.readouterr().err


def test_scaling_to_stdout_starts_with_header(capsys):
    code, out = run(capsys, "scaling")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) > 1
