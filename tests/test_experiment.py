import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
from dataclasses import replace

import pytest
import yaml
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from treecast import cli
from treecast.addressing import Scheme, TreeConfig
from treecast.experiment import (
    FIELDS,
    ConfigError,
    ExperimentConfig,
    default_config,
    load_config,
    run_experiment,
)
from treecast.nocsim import EnergyModel
from treecast.traffic import LAYER_KINDS, MAX_TRACE_DRAWS, Layer, NetworkSpec, save_trace, synth_trace


def test_load_config_rejects_scheme_that_does_not_fit_tree():
    text = "tree: {fan_out: 3, levels: 2}\nmapping: {capacity: 100}\nschemes: [symbol]\n"
    with pytest.raises(ConfigError) as info:
        load_config(io.StringIO(text))
    assert any(e.startswith("schemes") for e in info.value.errors)
    config = load_config(io.StringIO(text.replace("symbol", "hbs")))
    assert config.tree.core_count == 9


# The three perfbench workload configs at benchmark seed 0, as
# perfbench/workloads.py writes them.
PAPER16 = {
    "mapping": {"seed": 7},
    "network": {"seed": 5},
    "output": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
    "trace": {"seed": 42},
}
DEEP1024 = {
    "mapping": {"repetitions": 1, "seed": 7, "switch_prob": 0.2},
    "network": {"seed": 5},
    "output": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
    "trace": {"seed": 42},
    "tree": {"fan_out": 2, "levels": 10},
}
LOCAL256 = {
    "mapping": {"capacity": 50, "repetitions": 1, "seed": 7, "strategy": "sequential"},
    "network": {"layer_size": 2000, "seed": 5},
    "output": {"runs_csv": "runs.csv", "summary_json": "summary.json"},
    "tag_bits": 14,
    "trace": {"path": "trace.csv", "source": "file"},
    "tree": {"fan_out": 4, "levels": 4},
    "turnaround": "lca",
}

ACCEPTED = [
    ("paper16", json.dumps(PAPER16), ExperimentConfig(energy=EnergyModel.default(2))),
    (
        "deep1024",
        json.dumps(DEEP1024),
        ExperimentConfig(
            tree=TreeConfig(2, 10),
            energy=EnergyModel.default(10),
            repetitions=1,
            switch_prob=0.2,
        ),
    ),
    (
        "local256",
        json.dumps(LOCAL256),
        ExperimentConfig(
            tree=TreeConfig(4, 4),
            tag_bits=14,
            turnaround="lca",
            energy=EnergyModel.default(4),
            network=NetworkSpec.default_rsnn(2000),
            strategy="sequential",
            capacity=50,
            repetitions=1,
            trace_source="file",
            trace_path="trace.csv",
        ),
    ),
    ("empty", "", ExperimentConfig(energy=EnergyModel.default(2))),
    (
        "network_layers",
        "network:\n  layers: [{size: 50, kind: recurrent}, {size: 30, kind: feedforward}]\n"
        "  density: 0.2\n  literal_fc: true\n",
        ExperimentConfig(
            energy=EnergyModel.default(2),
            network=NetworkSpec((Layer(50, "recurrent"), Layer(30, "feedforward")), 0.2, True),
        ),
    ),
    (
        "energy_link",
        "energy: {link: [1, 3], filter_lookup: 2}\n",
        ExperimentConfig(energy=EnergyModel((1.0, 3.0), 2.0)),
    ),
    # random.Random takes any integer seed.
    (
        "negative_mapping_seed",
        "mapping: {seed: -3}\n",
        ExperimentConfig(energy=EnergyModel.default(2), mapping_seed=-3),
    ),
]


@pytest.mark.parametrize("text,expected", [a[1:] for a in ACCEPTED], ids=[a[0] for a in ACCEPTED])
def test_load_config_accepts(text, expected):
    assert load_config(io.StringIO(text)) == expected


REJECTED = [
    (
        "many_fields",
        "tree: {fan_out: x, levels: 1.5}\ntag_bits: true\n"
        "mapping: {capacity: 0, switch_prob: 2, strategy: foo}\n"
        "trace: {rate: -1, source: file}\n",
        [
            "mapping.capacity",
            "mapping.strategy",
            "mapping.switch_prob",
            "tag_bits",
            "trace.path",
            "trace.rate",
            "trace.rate",
            "tree.fan_out",
            "tree.levels",
        ],
    ),
    ("unknown_keys", "foo: 1\ntree: {bar: 1}\nenergy: {baz: 1}\n", ["energy.baz", "foo", "tree.bar"]),
    ("link_length", "energy: {link: [1]}\n", ["energy.link"]),
    (
        "layer_entries",
        "network: {layers: [{size: 0, kind: recurrent}, 5]}\n",
        ["network.layers[0].size", "network.layers[1]"],
    ),
    ("fractional_layer_size", "network: {layers: [{size: 10.5, kind: recurrent}]}\n", ["network.layers[0].size"]),
    ("bool_layer_size", "network: {layers: [{size: true, kind: recurrent}]}\n", ["network.layers[0].size"]),
    ("unknown_layer_key", "network: {layers: [{size: 20, kind: recurrent, sise: 5}]}\n", ["network.layers[0].sise"]),
    (
        "layer_kind_and_missing_size",
        "network: {layers: [{kind: lateral}]}\n",
        ["network.layers[0].kind", "network.layers[0].size"],
    ),
    ("unknown_scheme", "schemes: [fbs, nope]\n", ["schemes[1]"]),
    ("no_schemes", "schemes: []\n", ["schemes"]),
    ("repeated_scheme", "schemes: [hbs, hbs, symbol]\n", ["schemes"]),
    ("nan_energy_base", "energy: {base: .nan}\n", ["energy"]),
    ("inf_filter_lookup", "energy: {filter_lookup: .inf}\n", ["energy"]),
    ("nan_link_energy", "energy: {link: [.nan, 1]}\n", ["energy.link"]),
    ("overflowing_level_ratio", "energy: {level_ratio: 1.0e+200}\ntree: {levels: 3}\n", ["energy"]),
    # YAML 1.1 reads an unsigned exponent as a string.
    ("unsigned_exponent", "energy: {link: [1.0e308, 1.0e308]}\n", ["energy.link[0]", "energy.link[1]"]),
    ("density", "network: {density: 0}\n", ["network.density"]),
    ("section_not_mapping", "tree: 3\n", ["tree"]),
    ("empty_output_path", "output: {runs_csv: ''}\n", ["output.runs_csv"]),
    ("turnaround", "turnaround: up\n", ["turnaround"]),
    ("top_level_list", "- 1\n- 2\n", ["top level"]),
    ("over_capacity", "network: {layer_size: 1000}\n", ["mapping.capacity"]),
    ("path_without_file", "trace: {path: t.csv}\n", ["trace.path"]),
    ("path_with_synth", "trace: {source: synth, path: t.csv}\n", ["trace.path"]),
    (
        "synth_fields_with_file",
        "trace: {source: file, path: t.csv, steps: 3, rate: 0.1, seed: 1}\n",
        ["trace.rate", "trace.seed", "trace.steps"],
    ),
    # numpy's default_rng rejects a negative seed without naming the field.
    ("negative_network_seed", "network: {seed: -1}\n", ["network.seed"]),
    ("negative_trace_seed", "trace: {seed: -5}\n", ["trace.seed"]),
]


def error_paths(text):
    with pytest.raises(ConfigError) as info:
        load_config(io.StringIO(text))
    return sorted(e.split(": ", 1)[0] for e in info.value.errors)


@pytest.mark.parametrize("text,paths", [r[1:] for r in REJECTED], ids=[r[0] for r in REJECTED])
def test_load_config_error_paths(text, paths):
    assert error_paths(text) == paths


def test_float_given_as_text_with_an_exponent_gets_a_hint():
    text = "energy: {link: [2e5, 1.0e308], filter_lookup: 3e-2}\nmapping: {switch_prob: x1e5}\n"
    with pytest.raises(ConfigError) as info:
        load_config(io.StringIO(text))
    hint = "(YAML 1.1 reads {!r} as a string: an exponent needs a sign and a dot before it, as in {})"
    assert info.value.errors == (
        "energy.link[0]: must be a number " + hint.format("2e5", "2.0e+5"),
        "energy.link[1]: must be a number " + hint.format("1.0e308", "1.0e+308"),
        "energy.filter_lookup: must be a number " + hint.format("3e-2", "3.0e-2"),
        "mapping.switch_prob: must be a number",
    )
    # The hinted spelling is a number.
    assert load_config(io.StringIO("energy: {link: [2.0e+5, 1.0e+308], filter_lookup: 3.0e-2}\n"))


@pytest.mark.parametrize(
    "text,paths",
    [
        ("energy: {link: [1, 2], base: 5, level_ratio: 9}\n", ["energy.base", "energy.level_ratio"]),
        (
            "network:\n  layers: [{size: 50, kind: recurrent}]\n  layer_size: 50\n  recurrent_layers: 7\n",
            ["network.layer_size", "network.recurrent_layers"],
        ),
    ],
    ids=["energy", "network"],
)
def test_load_config_rejects_exclusive_fields(text, paths):
    assert error_paths(text) == paths


def test_a_synth_trace_is_bounded_by_its_draws():
    # 512 neurons: MAX_TRACE_DRAWS / 512 steps is the longest trace allowed.
    network = "network: {layers: [{size: 512, kind: recurrent}]}\n"
    steps = MAX_TRACE_DRAWS // 512
    assert load_config(io.StringIO(network + f"trace: {{steps: {steps}}}\n")).trace_steps == steps
    with pytest.raises(ConfigError) as info:
        load_config(io.StringIO(network + f"trace: {{steps: {steps + 1}}}\n"))
    assert info.value.errors == (
        f"trace.steps: {steps + 1} steps x 512 neurons exceed {MAX_TRACE_DRAWS} draws",
    )
    # A file trace draws nothing, however large the network.
    big = "network: {layers: [{size: 1000000, kind: recurrent}]}\nmapping: {capacity: 100000}\n"
    assert load_config(io.StringIO(big + "trace: {source: file, path: t.csv}\n"))


def test_tag_bits_default_follows_network():
    big = NetworkSpec.default_rsnn(1000)
    assert ExperimentConfig().tag_width() == 10
    assert ExperimentConfig(network=big).tag_width() == 13
    text = "network: {layer_size: 1000}\nmapping: {capacity: 400}\n"
    config = load_config(io.StringIO(text))
    assert config == ExperimentConfig(network=big, capacity=400, energy=EnergyModel.default(2))
    assert error_paths("tag_bits: 12\n" + text) == ["tag_bits"]


def test_default_tag_bits_run_past_1024_neurons():
    text = (
        "schemes: [hbs]\nnetwork: {layer_size: 200}\n"
        "mapping: {capacity: 80, repetitions: 1}\ntrace: {steps: 3}\n"
    )
    result = run_experiment(load_config(io.StringIO(text)))
    assert result.summary["schemes"]["hbs"]["legal_deliveries"] > 0


def test_tag_bits_follow_a_replaced_network():
    small_run = dict(schemes=(Scheme.HBS,), repetitions=1, trace_steps=3)
    bigger = dict(network=NetworkSpec.default_rsnn(200), capacity=80)
    config = replace(default_config(), **small_run, **bigger)
    assert config.tag_width() == 11
    assert run_experiment(config).summary["schemes"]["hbs"]["legal_deliveries"] > 0
    # An explicit width is kept through replace and still checked.
    narrow = replace(ExperimentConfig(tag_bits=10, **small_run), **bigger)
    assert narrow.tag_width() == 10
    with pytest.raises(ValueError, match="does not fit in 10 tag bits"):
        run_experiment(narrow)


@pytest.mark.parametrize("strategy", ["sequential", "random_switch"])
def test_run_experiment_is_deterministic(strategy, tmp_path):
    synthetic = ExperimentConfig(
        network=NetworkSpec.default_rsnn(20), strategy=strategy, capacity=10, repetitions=3, trace_steps=30
    )
    path = tmp_path / "trace.csv"
    with open(path, "w", encoding="utf-8") as fh:
        save_trace(synth_trace(synthetic.network, 30, synthetic.trace_rate, synthetic.trace_seed), fh)
    from_file = replace(synthetic, trace_source="file", trace_path=str(path))
    first = run_experiment(synthetic)
    assert first.rows and first.summary["schemes"]["hbs"]["legal_deliveries"] > 0
    # The file holds the synthetic trace, so every run must equal the first.
    for config in (synthetic, from_file, from_file):
        result = run_experiment(config)
        assert result.rows == first.rows
        assert result.summary == first.summary


@pytest.mark.parametrize("schemes", [("symbol", "hbs"), ("hbs", "symbol")])
def test_symbol_runs_equal_hbs_runs_on_the_binary_tree(schemes):
    # Symbol is hbs on the binary tree, so on a k = 2 tree each mapping's two
    # reports differ only in their scheme name.  The rows are scheme-major, in
    # the order the config lists the schemes.
    text = (
        f"tree: {{fan_out: 2, levels: 4}}\nschemes: [{', '.join(schemes)}]\n"
        "network: {layer_size: 20}\nmapping: {capacity: 10, repetitions: 3}\ntrace: {steps: 30}\n"
    )
    result = run_experiment(load_config(io.StringIO(text)))
    assert [(r.report.scheme, r.mapping_index) for r in result.rows] == [
        (s, i) for s in schemes for i in range(3)
    ]
    assert list(result.summary["schemes"]) == list(schemes)
    by_scheme = {s: result.rows[3 * j : 3 * j + 3] for j, s in enumerate(schemes)}
    for hbs, symbol in zip(by_scheme["hbs"], by_scheme["symbol"]):
        assert hbs.report.illegal_deliveries > 0
        assert replace(symbol, report=replace(symbol.report, scheme="hbs")) == hbs
    assert result.summary["comparisons"]["total_energy_hbs_over_symbol"] == 1.0


def test_one_mapping_on_a_tree_of_65536_cores():
    # The tree axis at 2^16 cores (4x8): random_switch draws from its list of
    # open cores, and the fbs header is a 65,536-bit mask.
    result = run_experiment(ExperimentConfig(tree=TreeConfig(4, 8), repetitions=1, trace_steps=100))
    reports = {r.report.scheme: r.report for r in result.rows}
    assert list(reports) == [s.value for s in Scheme]
    assert len({r.legal_deliveries for r in reports.values()}) == 1
    assert reports["fbs"].legal_deliveries > 0
    assert reports["fbs"].illegal_deliveries == reports["unicast"].illegal_deliveries == 0
    assert reports["hbs"].illegal_deliveries <= reports["symbol"].illegal_deliveries


# ---------------------------------------------------------------------------
# configs drawn from the FIELDS rows

SECTIONS = {row.path.split(".")[0] for row in FIELDS if "." in row.path}

#: Values of the wrong kind for most fields, none of them the mapping that a
#: section must be; WRONG_KIND adds a mapping.
NOT_A_MAPPING = (
    st.none()
    | st.booleans()
    | st.floats(-2, 2)
    | st.text("x1.", max_size=2)
    | st.lists(st.integers(0, 2), max_size=2)
)
WRONG_KIND = NOT_A_MAPPING | st.dictionaries(st.text("k", max_size=1), st.integers(0, 2), max_size=1)


def right_kind(kind, allowed):
    """Values of ``kind`` in ``allowed``, at its bounds and just outside them.

    An integer is at most 70 above its lower bound: enough for a tree past
    the 2**62 cores an index counts, and few enough layers for a quick load.
    """
    if kind is bool:
        return st.booleans()
    if kind is dict:  # a network.layers entry
        return st.fixed_dictionaries(
            {"size": st.integers(-1, 40), "kind": st.sampled_from([*LAYER_KINDS, "lateral"])},
            optional={"sise": st.integers(0, 3)},
        )
    if isinstance(allowed, tuple):
        return st.sampled_from(allowed) | st.text("abc", max_size=3)
    if kind is str:  # a length interval counts from 1, so "" is below it
        return st.text("ab./", max_size=4)
    if allowed is None:
        return st.integers(-3, 70) if kind is int else st.floats(allow_nan=True, allow_infinity=True)
    lo, hi = (float(b) for b in allowed[1:-1].split(","))
    if kind is int:
        return st.integers(int(lo) - 3, int(lo) + 70)
    return st.floats(lo - 1, hi + 1) | st.sampled_from([lo, hi, math.nan, math.inf])


def field_values(row):
    kind = row.kind[0] if isinstance(row.kind, list) else row.kind
    value = right_kind(kind, row.allowed) | WRONG_KIND
    return st.lists(value, max_size=4) | WRONG_KIND if isinstance(row.kind, list) else value


@st.composite
def drawn_configs(draw):
    """A config mapping of a few FIELDS rows, each set to a drawn value, and
    sometimes one section that is not a mapping."""
    raw = {}
    for row in draw(st.lists(st.sampled_from(FIELDS), max_size=6, unique_by=lambda row: row.path)):
        *section, name = row.path.split(".")
        (raw.setdefault(section[0], {}) if section else raw)[name] = draw(field_values(row))
    if draw(st.booleans()):
        raw[draw(st.sampled_from(sorted(SECTIONS)))] = draw(NOT_A_MAPPING)
    return raw


#: Where a message may start: a FIELDS path or its section, an item of a list
#: field (and a key of a network.layers item), or the file and line.
HEADS = "|".join(re.escape(head) for head in {row.path for row in FIELDS} | SECTIONS)
MESSAGE_HEAD = re.compile(rf"(?:{HEADS})(?:\[\d+\](?:\.[^:]*)?)?: |<config>:\d+: ")


@settings(max_examples=300, deadline=None)
@given(drawn_configs())
@example({"tree": {"levels": 63}})  # trees past the cores an index counts
@example({"tree": {"fan_out": 72, "levels": 11}, "schemes": ["hbs"]})
def test_a_drawn_config_loads_or_names_its_fields(raw):
    try:
        config = load_config(io.StringIO(yaml.safe_dump(raw)))
    except ConfigError as exc:
        assert exc.errors
        assert all(MESSAGE_HEAD.match(e) for e in exc.errors), exc.errors
    else:
        assert isinstance(config, ExperimentConfig)


#: (field, cap, default) of the network sizes that small() caps.
NETWORK_CAPS = (("layer_size", 15, 100), ("recurrent_layers", 2, 3), ("feedforward_layers", 2, 3))
#: The most levels of each fan-out that small() allows: 64 cores at most.
LEVELS_IN_64 = {k: int(math.log(64, k) + 1e-9) for k in range(2, 9)}


def small(raw):
    """A copy of ``raw`` with every integer size capped, so that a run stays small.

    At most 64 cores, 60 neurons (4 layers of 15, or 2 + 2 of 15), 2
    repetitions and 20 steps.  An absent size gets its default, capped too.
    A value below its bound or of the wrong kind is kept, as is a section
    that is not a mapping.
    """

    def cap(section, name, most, default=None):
        if not isinstance(section, dict):
            return
        if name not in section and default is not None:
            section[name] = default
        if type(section.get(name)) is int:
            section[name] = min(section[name], most)

    raw = copy.deepcopy(raw)
    tree, network = raw.setdefault("tree", {}), raw.setdefault("network", {})
    cap(tree, "fan_out", 8, 4)
    if isinstance(tree, dict):
        fan_out = tree["fan_out"] if type(tree["fan_out"]) is int else None
        cap(tree, "levels", LEVELS_IN_64.get(fan_out, 6), 2)
    if not isinstance(network, dict) or "layers" not in network:
        for name, most, default in NETWORK_CAPS:
            cap(network, name, most, default)
    elif isinstance(network["layers"], list):
        for layer in network["layers"]:
            cap(layer, "size", 15)
    cap(raw.setdefault("mapping", {}), "repetitions", 2, 50)
    cap(raw.setdefault("trace", {}), "steps", 20, 400)
    return raw


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn_configs().map(small))
@example(small({}))  # the default run, capped
@example(small({"turnaround": "lca", "schemes": ["hbs", "unicast"], "tree": {"fan_out": 2, "levels": 6}}))
def test_a_drawn_config_simulates_or_exits_1_with_a_message(tmp_path, raw):
    # treecast simulate on a drawn config either runs, or exits 1 with an
    # "error: " message and no traceback.  Each example runs in its own
    # directory under tmp_path, where a relative trace.path is looked up.
    run = tempfile.mkdtemp(dir=tmp_path)
    with open(os.path.join(run, "config.yaml"), "w", encoding="utf-8") as fh:
        yaml.safe_dump(raw, fh)
    argv = ["simulate", "--config", "config.yaml", "--runs-csv", "runs.csv", "--summary-json", "summary.json"]
    out, err = io.StringIO(), io.StringIO()
    here = os.getcwd()
    os.chdir(run)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    assert code in (0, 1), (code, err.getvalue())
    if code == 1:
        assert err.getvalue().startswith("error: ") and "Traceback" not in err.getvalue()
