import contextlib
import copy
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from complexkit import cli, grid
from complexkit.cli import execute
from complexkit.grid import Grid, Topology, _layout
from complexkit.patterns import decode_pattern, encode_pattern

from oracles import HEX, dense_run

SRC = Path(__file__).resolve().parents[1] / "src"

GLIDER_RLE = "x = 3, y = 3, rule = B3/S23\nbob$2bo$3o!"
GLIDER_CELLS = {(1, 0), (2, 1), (0, 2), (1, 2), (2, 2)}

SCENARIO = {
    "seed": 5,
    "ticks": 20,
    "stimulus": 1.0,
    "grid": {"width": 10, "height": 10},
    "agent_types": [
        {"name": "drone", "count": 5, "strategy": "fixed",
         "rule": {"kind": "linear", "gain": 1.0}},
        {"name": "learner", "count": 5, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": 0.5}, {"kind": "linear", "gain": 2.0}],
         "weights": [1, 1]},
    ],
}


@pytest.fixture
def glider_file(tmp_path):
    path = tmp_path / "glider.rle"
    path.write_text(GLIDER_RLE)
    return path


def test_life_run_glider(tmp_path, glider_file):
    out = tmp_path / "final.rle"
    code = execute([
        "life", "run", "--pattern", str(glider_file), "--gens", "4",
        "--seed", "1", "--out", str(out),
    ])
    assert code == 0
    got, _ = decode_pattern(out.read_text())
    expected = dense_run(GLIDER_CELLS, 4, pad=8)[-1]
    assert got == Grid(expected).canonicalize()


def test_life_run_outputs_byte_identical(tmp_path, glider_file):
    outs = []
    for name in ("a.rle", "b.rle"):
        out = tmp_path / name
        assert execute([
            "life", "run", "--pattern", str(glider_file), "--gens", "7",
            "--seed", "3", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_life_run_frames_and_metrics(tmp_path, glider_file):
    frames = tmp_path / "frames"
    metrics = tmp_path / "m.csv"
    assert execute([
        "life", "run", "--pattern", str(glider_file), "--gens", "3",
        "--seed", "1", "--frames", str(frames), "--metrics", str(metrics),
    ]) == 0
    names = sorted(p.name for p in frames.iterdir())
    assert names == [f"frame_{i:06d}.txt" for i in range(4)]
    lines = metrics.read_text().splitlines()
    assert lines[0] == "generation,population"
    assert lines[1] == "0,5"
    assert len(lines) == 5


def test_unknown_subcommand_exits_2(capsys):
    assert execute(["bogus-subcommand"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_pattern_file_exits_2(tmp_path, capsys):
    code = execute([
        "life", "run", "--pattern", str(tmp_path / "missing.rle"),
        "--gens", "1", "--seed", "1",
    ])
    assert code == 2
    assert "missing.rle" in capsys.readouterr().err


def test_missing_seed_exits_2(glider_file, capsys):
    assert execute(["life", "run", "--pattern", str(glider_file), "--gens", "1"]) == 2
    assert "seed" in capsys.readouterr().err


def test_malformed_pattern_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.rle"
    bad.write_text("x = 1, y = 1, rule = B3/S23\nzz!")
    assert execute(["life", "run", "--pattern", str(bad), "--gens", "1", "--seed", "1"]) == 2


@pytest.mark.parametrize("argv,flag,name", [
    (["life", "run", "--gens", "1", "--seed", "1", "--pattern"], "--pattern", "bin.rle"),
    (["complexity", "profile", "--seed", "1", "--pattern"], "--pattern", "bin.rle"),
    (["ga", "run", "--gens", "1", "--config"], "--config", "bin.json"),
])
def test_input_file_that_is_not_utf8_exits_2_naming_it(tmp_path, capsys, argv, flag, name):
    path = tmp_path / name
    path.write_bytes(b"\xff" + GLIDER_RLE.encode())
    assert execute([*argv, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} {path} is not UTF-8 text: invalid start byte 0xff\n")


def test_hex_without_rule_is_domain_error(glider_file):
    bad_pattern = glider_file.parent / "hex.cells"
    bad_pattern.write_text("O\n")
    code = execute([
        "life", "run", "--pattern", str(bad_pattern), "--topology", "hex",
        "--gens", "1", "--seed", "1",
    ])
    assert code == 1


@pytest.mark.parametrize("output", ["--frames", "--out"])
def test_hex_pattern_output_refused_before_the_run(tmp_path, glider_file, capsys, output):
    target = tmp_path / "target"
    metrics = tmp_path / "m.csv"
    code = execute([
        "life", "run", "--pattern", str(glider_file), "--topology", "hex", "--rule", "B2/S34",
        "--gens", "3", "--seed", "1", output, str(target), "--metrics", str(metrics),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: pattern codecs support square grids only\n"
    assert not target.exists() and not metrics.exists()


def soup_file(path, size, seed):
    rng = random.Random(seed)
    cells = {(x, y) for y in range(size) for x in range(size) if rng.random() < 0.35}
    path.write_text(encode_pattern(Grid(cells)))
    return decode_pattern(path.read_text())[0].cells.keys()


def refuse_decodes(monkeypatch):
    def refuse(*layout):
        raise AssertionError("a packed layout was decoded")

    monkeypatch.setattr(grid, "_decode", refuse)


def test_a_soup_runs_from_rle_to_rle_and_frames_without_a_decode(tmp_path, monkeypatch):
    cells = soup_file(tmp_path / "soup.rle", 100, 26)
    history = dense_run(set(cells), 90)
    refuse_decodes(monkeypatch)
    assert execute([
        "life", "run", "--pattern", str(tmp_path / "soup.rle"), "--gens", "90", "--seed", "1",
        "--out", str(tmp_path / "final.rle"), "--frames", str(tmp_path / "frames"),
        "--metrics", str(tmp_path / "m.csv"),
    ]) == 0
    monkeypatch.undo()
    assert (tmp_path / "final.rle").read_text() == encode_pattern(Grid(history[90]))
    for i in (0, 45, 90):
        frame = (tmp_path / "frames" / f"frame_{i:06d}.txt").read_text()
        assert frame == encode_pattern(Grid(history[i]), "plaintext")


def test_a_hex_run_keeps_the_decoded_layout(tmp_path, monkeypatch):
    cells = soup_file(tmp_path / "soup.rle", 30, 27)
    argv = ["life", "run", "--pattern", str(tmp_path / "soup.rle"), "--topology", "hex",
            "--rule", "B2/S34", "--gens", "40", "--seed", "1", "--metrics", str(tmp_path / "m.csv")]
    hexed, _ = cli._load_pattern(cli.build_parser().parse_args(argv))
    assert hexed.topology is Topology.HEX and _layout(hexed) is not None
    history = dense_run(set(cells), 40, birth={2}, survival={3, 4}, neighborhood=HEX)
    refuse_decodes(monkeypatch)
    assert execute(argv) == 0
    rows = (tmp_path / "m.csv").read_text().split()[1:]
    assert rows == [f"{i},{len(h)}" for i, h in enumerate(history)]


def test_life_classify_lines(tmp_path, capsys):
    cases = {
        "block.rle": ("x = 2, y = 2, rule = B3/S23\n2o$2o!", "still-life"),
        "blinker.rle": ("x = 3, y = 1, rule = B3/S23\n3o!", "oscillator p=2"),
        "glider.rle": (GLIDER_RLE, "spaceship p=4 d=(1,1)"),
    }
    for name, (text, expected) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert execute([
            "life", "classify", "--pattern", str(path), "--horizon", "16", "--seed", "1",
        ]) == 0
        assert capsys.readouterr().out.strip() == expected


def test_cas_run_metrics(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    metrics = tmp_path / "cas.csv"
    assert execute(["cas", "run", "--config", str(config), "--metrics", str(metrics)]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "tick,agents,mean_response,mean_reward"
    assert len(lines) == 21  # header + 20 ticks from the config file


def test_cas_grid_without_height_exits_2(tmp_path, capsys):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**SCENARIO, "grid": {"width": 3}}))
    assert execute(["cas", "run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == "error: scenario grid needs grid.height\n"


@pytest.mark.parametrize("section, message", [
    ({"grid": 5}, "scenario grid must be an object, got int"),
    ({"agent_types": [5]}, "scenario agent_types[0] must be an object, got int"),
    ({"agent_types": 5}, "scenario agent_types must be a list, got int"),
    ({"stimulus": {}}, "scenario stimulus must be a number, got dict"),
    ({"stimulus": "1"}, "scenario stimulus must be a number, got str"),
    ({"stimulus": float("nan")}, "scenario stimulus must be a finite number, got nan"),
    ({"grid": {"width": [3], "height": 3}}, "scenario grid.width must be an integer, got list"),
    ({"grid": {"width": 3, "height": 0}}, "scenario grid.height must be >= 1, got 0"),
    ({"grid": {"width": 3, "height": 3, "depth": 3}}, "scenario grid has unknown key 'depth'"),
    ({"agent_type": []}, "scenario has unknown key 'agent_type'"),
], ids=["grid", "agent-type", "agent-types", "stimulus", "stimulus-str", "stimulus-nan",
        "grid-width", "grid-height-range", "grid-key", "scenario-key"])
def test_cas_scenario_section_of_the_wrong_type_exits_2(tmp_path, capsys, section, message):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"seed": 1, **section}))
    assert execute(["cas", "run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("agent_type, message", [
    ({"name": "a", "rule": 5}, "scenario agent_types[0].rule must be an object, got int"),
    ({"name": "a", "strategy": "adaptive", "rules": [{"kind": "linear"}], "weights": 5},
     "scenario agent_types[0].weights must be a list, got int"),
    ({"name": "a", "strategy": "adaptive", "rules": [{"kind": "linear"}], "weights": [[1]]},
     "scenario agent_types[0].weights[0] must be a number, got list"),
    ({"name": "a", "strategy": "adaptive", "rules": [5]},
     "scenario agent_types[0].rules[0] must be an object, got int"),
    ({"name": "a", "count": [1], "rule": {"kind": "linear"}},
     "scenario agent_types[0].count must be an integer, got list"),
    ({"name": "a", "rule": {"kind": "linear", "gain": [1]}},
     "scenario agent_types[0].rule.gain must be a number, got list"),
    ({"name": "a", "rule": {"kind": [1]}},
     "scenario agent_types[0].rule.kind must be a string, got list"),
    ({"name": "a", "count": 2.7, "rule": {"kind": "linear"}},
     "scenario agent_types[0].count must be an integer, got float"),
    ({"name": "a", "count": -3, "rule": {"kind": "linear"}},
     "scenario agent_types[0].count must be >= 0, got -3"),
    ({"name": "a", "rule": {"kind": "linear", "gain": "2"}},
     "scenario agent_types[0].rule.gain must be a number, got str"),
    ({"name": [1], "rule": {"kind": "linear"}},
     "scenario agent_types[0].name must be a string, got list"),
    ({"name": "a", "strategy": "greedy", "rule": {"kind": "linear"}},
     "scenario agent_types[0].strategy must be one of fixed, adaptive, got 'greedy'"),
    ({"name": "a", "rule": {"kind": "cubic"}},
     "scenario agent_types[0].rule.kind must be one of linear, double_on_second, got 'cubic'"),
    ({"name": "a", "cuont": 3, "rule": {"kind": "linear"}},
     "scenario agent_types[0] has unknown key 'cuont'"),
    ({"name": "a", "rule": {"kind": "linear"}, "weights": [1]},
     "scenario agent_types[0] has unknown key 'weights'"),
    ({"name": "a", "strategy": "adaptive", "rules": [{"kind": "double_on_second", "gain": 2}]},
     "scenario agent_types[0].rules[0] has unknown key 'gain'"),
    ({"count": 1, "rule": {"kind": "linear"}}, "every agent type needs a name"),
    ({"name": "a"}, "fixed type 'a' needs a 'rule'"),
    ({"name": "a", "strategy": "adaptive"}, "adaptive type 'a' needs 'rules'"),
], ids=["rule", "weights", "weight", "rules-item", "count", "gain", "kind", "count-float",
        "count-range", "gain-str", "name", "strategy-choice", "kind-choice", "type-key",
        "fixed-weights", "rule-key", "no-name", "fixed-no-rule", "adaptive-no-rules"])
def test_cas_nested_field_of_the_wrong_type_exits_2(tmp_path, capsys, agent_type, message):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"seed": 1, "agent_types": [agent_type]}))
    assert execute(["cas", "run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, doc, message", [
    (["dynamics", "lyapunov"], {"seed": 1, "steps": "300"},
     "config steps must be an integer, got str"),
    (["dynamics", "lyapunov"], {"seed": 1, "steps": 1.5},
     "config steps must be an integer, got float"),
    (["life", "run"], {"seed": 1, "gens": "5"}, "config gens must be an integer, got str"),
    (["dynamics", "lyapunov"], {"seed": True}, "config seed must be an integer, got bool"),
    (["dynamics", "lyapunov"], {"seed": 1, "r": False}, "config r must be a number, got bool"),
    (["ga", "run"], {"seed": 1, "problem": "tsp"},
     "config problem must be one of onemax, coevolve, got 'tsp'"),
    (["life", "run"], {"seed": 1, "pattern": 5}, "config pattern must be a string, got int"),
    (["dynamics", "lyapunov"], {"seed": 1, "r": 10**400},
     f"config r must be a finite number, got {10**400}"),
    (["dynamics", "lyapunov"], {"seed": 1, "map": "tent"},
     "config map must be one of logistic, got 'tent'"),
    (["dynamics", "lyapunov"], {"seed": 1, "stpes": 300}, "config has unknown key 'stpes'"),
    (["dynamics", "lyapunov"], {"seed": 1, "map_name": "logistic"},
     "config has unknown key 'map_name'"),
    (["complexity", "profile"], {"seed": 1, "scales": "1,x"},
     "scales must be comma-separated integers, got 'x'"),
    (["complexity", "profile", "--scales", "a,,2"], {"seed": 1},
     "scales must be comma-separated integers, got 'a'"),
], ids=["int-as-str", "int-as-float", "life-gens", "bool-seed", "bool-float", "choice", "path",
        "float-range", "map-choice", "unknown-key", "dest-key", "scales-config", "scales-argv"])
def test_config_value_of_the_wrong_type_exits_2(tmp_path, capsys, argv, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert execute([*argv, "--config", str(config)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("value, reason", [
    ("0", "scale must be >= 1, got 0"),
    ("-2", "scale must be >= 1, got -2"),
    ("2,3", "scales must form an ascending divisibility chain, got 2 then 3"),
    ("4,2", "scales must form an ascending divisibility chain, got 4 then 2"),
    ("", "need at least one scale"),
], ids=["zero", "negative", "not-dividing", "descending", "empty"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_malformed_scales_exit_2_before_the_pattern_is_read(tmp_path, capsys, value, reason,
                                                           source):
    argv = ["complexity", "profile", "--pattern", str(tmp_path / "missing.rle")]
    if source == "flags":
        argv += ["--seed", "1", f"--scales={value}"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"seed": 1, "scales": value}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert execute(argv) == 2
    assert capsys.readouterr().err == f"error: --scales {value!r}: {reason}\n"


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("flag", ["--r-from", "--r-to", "--r-step"])
def test_sweep_refuses_a_non_finite_bound_before_the_loop(tmp_path, capsys, flag, value):
    bounds = {"--r-from": "2.5", "--r-to": "3.0", "--r-step": "0.25", flag: value}
    out = tmp_path / "sweep.csv"
    # "--flag=-inf": argparse reads a bare "-inf" as an option.
    argv = ["dynamics", "sweep", *(f"{k}={v}" for k, v in bounds.items()), "--steps", "10",
            "--burnin", "0", "--seed", "1", "--out", str(out)]
    assert execute(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} must be a finite number, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("step", ["0", "-0.5"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_a_sweep_step_that_is_not_positive_exits_2(tmp_path, capsys, step, source):
    out = tmp_path / "sweep.csv"
    argv = ["dynamics", "sweep", "--r-from", "2.5", "--r-to", "3.0", "--steps", "10",
            "--burnin", "0", "--seed", "1", "--out", str(out)]
    if source == "flags":
        argv.append(f"--r-step={step}")  # "--flag=-0.5": a bare "-0.5" may read as an option
    else:
        (tmp_path / "config.json").write_text(json.dumps({"r-step": json.loads(step)}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert execute(argv) == 2
    assert capsys.readouterr().err == "error: --r-step must be positive\n"
    assert not out.exists()


# A config integer passes unconverted, so the line echoes it as written.
@pytest.mark.parametrize("source, bounds", [("flags", "2.0 is below --r-from 3.0"),
                                            ("config", "2 is below --r-from 3")])
def test_a_reversed_sweep_exits_2(tmp_path, capsys, source, bounds):
    out = tmp_path / "sweep.csv"
    argv = ["dynamics", "sweep", "--r-step", "0.1", "--seed", "1", "--out", str(out)]
    if source == "flags":
        argv += ["--r-from", "3", "--r-to", "2"]
    else:
        (tmp_path / "config.json").write_text(json.dumps({"r-from": 3, "r-to": 2}))
        argv += ["--config", str(tmp_path / "config.json")]
    assert execute(argv) == 2
    assert capsys.readouterr().err == f"error: --r-to {bounds}\n"
    assert not out.exists()


@pytest.mark.parametrize("bounds, message", [
    (["--r-from", "2.5", "--r-to", "4", "--r-step", "1e-300"],
     "--r-step 1e-300 does not move --r-from 2.5"),
    (["--r-from", "2.5", "--r-to", "4", "--r-step", "1.5e-5"],
     "--r-step 1.5e-05 gives more than 100000 rows from --r-from 2.5 to --r-to 4.0"),
    (["--r-from=-1.7e308", "--r-to", "1.7e308", "--r-step", "1e300"],
     "--r-step 1e+300 gives more than 100000 rows from --r-from -1.7e+308 to --r-to 1.7e+308"),
], ids=["no-move", "too-many-rows", "span-overflows"])
def test_a_sweep_of_too_many_rows_exits_2_before_the_loop(tmp_path, capsys, monkeypatch, bounds,
                                                         message):
    def refuse(*args, **kwargs):
        raise AssertionError("the sweep started")

    monkeypatch.setattr(cli, "divergence_rate", refuse)
    out = tmp_path / "sweep.csv"
    argv = ["dynamics", "sweep", *bounds, "--steps", "10", "--seed", "1", "--out", str(out)]
    assert execute(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_a_sweep_that_diverges_writes_no_file(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    argv = ["dynamics", "sweep", "--r-from", "3.9", "--r-to", "4.2", "--r-step", "0.1",
            "--x0", "0.3", "--steps", "200", "--burnin", "10", "--seed", "1", "--out", str(out)]
    assert execute(argv) == 1
    assert capsys.readouterr().err == "error: r=4.1: non-finite value -inf at step 15\n"
    assert not out.exists()


@pytest.mark.parametrize("flags, step", [
    (["--x0", "1e300"], 1),
    (["--r", "4.5", "--x0", "0.3", "--burnin", "0", "--steps", "500"], 19),
    (["--r", "4.5", "--x0", "0.3", "--burnin", "100", "--steps", "500"], 19),
], ids=["first-step", "main-loop", "burn-in"])
def test_a_lyapunov_run_that_diverges_exits_1_and_writes_no_file(tmp_path, capsys, flags, step):
    out = tmp_path / "lyapunov.csv"
    assert execute(["dynamics", "lyapunov", *flags, "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: non-finite value -inf at step {step}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, pattern, message", [
    (["life", "run"], None, "a --pattern file is required"),
    (["cas", "run"], None, "cas run needs a scenario --config file"),
    (["dynamics", "sweep", "--r-from", "2.5", "--r-to", "3.0"], None,
     "sweep needs --r-from, --r-to and --r-step"),
    (["life", "run", "--pattern", "p.rle"], "x = 2, y = 1\n1 2o!",
     "line 2, column 2: run count split by whitespace"),
    (["life", "run", "--pattern", "p.rle"], "#C only a comment\n",
     "line 2, column 1: missing '!' terminator"),
], ids=["no-pattern", "no-config", "sweep-no-step", "rle-split-count", "rle-no-terminator"])
def test_a_missing_or_malformed_input_exits_2(tmp_path, capsys, monkeypatch, argv, pattern,
                                              message):
    monkeypatch.chdir(tmp_path)
    if pattern is not None:
        (tmp_path / "p.rle").write_text(pattern)
    assert execute([*argv, "--seed", "1"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (["life", "run", "--pattern", "glider.rle", "--gens", "-1", "--out", "out.rle"],
     "generation count must be >= 0, got -1"),
    (["life", "classify", "--pattern", "glider.rle", "--horizon", "0"],
     "horizon must be >= 1, got 0"),
    (["ga", "run", "--gens", "-1", "--metrics", "out.csv"], "generations must be >= 0, got -1"),
    (["cas", "run", "--config", "scenario.json", "--ticks", "-1", "--metrics", "out.csv"],
     "tick count must be >= 0, got -1"),
], ids=["life-gens", "classify-horizon", "ga-gens", "cas-ticks"])
def test_a_run_length_out_of_range_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch,
                                                              argv, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "glider.rle").write_text(GLIDER_RLE)
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    assert execute([*argv, "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["glider.rle", "scenario.json"]


@pytest.mark.parametrize("text", [
    "x = 3, y = 3, rule = B3/S23\r\nbob$2bo$\r\n3o!\r\n",
    "x = 3, y = 3, rule = B3/S23\nb o b $ 2b o $ 3o !",
], ids=["crlf", "spaced-runs"])
def test_rle_with_crlf_or_spaced_runs_runs_like_the_plain_file(tmp_path, glider_file, text):
    odd = tmp_path / "odd.rle"
    odd.write_bytes(text.encode())
    outs = []
    for pattern in (glider_file, odd):
        out = tmp_path / f"{pattern.stem}-final.rle"
        assert execute(["life", "run", "--pattern", str(pattern), "--gens", "4", "--seed", "1",
                        "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cas_weight_overflow_exits_1_in_its_tick_without_metrics(tmp_path, capsys):
    # Every value is finite, but agent 1's first draw, rule 0, answers
    # 1e200 * 1e200 = inf.
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({"seed": 1, "stimulus": 1e200, "agent_types": [
        {"name": "a", "count": 2, "strategy": "adaptive",
         "rules": [{"kind": "linear", "gain": 1e200}, {"kind": "linear", "gain": 1.0}]}]}))
    metrics = tmp_path / "m.csv"
    assert execute(["cas", "run", "--config", str(config), "--ticks", "3",
                    "--metrics", str(metrics)]) == 1
    assert capsys.readouterr().err == (
        "error: agent 1 rule 0: reinforced weight overflowed to inf in tick 1\n")
    assert not metrics.exists()


# A runnable call of each verb with float flags, and those flags.
FLOAT_FLAGS = {
    "dynamics lyapunov": (["--steps", "10", "--burnin", "0"], ["--r", "--x0"]),
    "dynamics sweep": (["--r-from", "2.5", "--r-to", "3.0", "--r-step", "0.25", "--steps", "10",
                        "--burnin", "0"], ["--r-from", "--r-to", "--r-step", "--x0"]),
    "ga run": (["--gens", "1", "--pop", "4", "--length", "4"], ["--mut", "--cx"]),
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("verb, flag", [
    (verb, flag) for verb, (_, flags) in FLOAT_FLAGS.items() for flag in flags
])
def test_every_float_flag_from_argv_must_be_finite(capsys, verb, flag, value):
    base, _ = FLOAT_FLAGS[verb]
    # "--flag=-inf": argparse reads a bare "-inf" as an option.
    assert execute([*verb.split(), *base, "--seed", "1", f"{flag}={value}"]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} must be a finite number, got {float(value)!r}\n")


@pytest.mark.parametrize("verb", [["life", "run", "--out", "final.rle"], ["complexity", "profile"]],
                         ids=["life-run", "complexity-profile"])
def test_a_rule_above_the_degree_exits_1_at_zero_generations(tmp_path, glider_file, capsys,
                                                             monkeypatch, verb):
    monkeypatch.chdir(tmp_path)
    argv = [*verb, "--pattern", str(glider_file), "--rule", "B9/S", "--gens", "0", "--seed", "1"]
    assert execute(argv) == 1
    assert capsys.readouterr().err == "error: neighbor count 9 exceeds square degree 8\n"
    assert not (tmp_path / "final.rle").exists()


@pytest.mark.parametrize("verb, flag", [
    (["life", "classify", "--pattern", "glider.rle"], "--out"),
    (["life", "classify", "--pattern", "glider.rle"], "--metrics"),
    (["cas", "run", "--config", "scenario.json"], "--out"),
    (["ga", "run", "--gens", "1"], "--out"),
], ids=["classify-out", "classify-metrics", "cas-out", "ga-out"])
def test_output_flag_the_verb_does_not_write_exits_2(tmp_path, capsys, monkeypatch, verb, flag):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "glider.rle").write_text(GLIDER_RLE)
    (tmp_path / "scenario.json").write_text(json.dumps(SCENARIO))
    assert execute([*verb, "--seed", "1", flag, "x.txt"]) == 2
    assert capsys.readouterr().err == (
        f"error: unrecognized arguments: {flag} x.txt (see 'complexkit -h' for usage)\n")
    (tmp_path / "config.json").write_text(json.dumps({"seed": 1, flag[2:]: "x.txt"}))
    assert execute([*verb, "--config", "config.json"]) == 2
    scope = "scenario" if verb[0] == "cas" else "config"
    assert capsys.readouterr().err == f"error: {scope} has unknown key {flag[2:]!r}\n"
    assert not (tmp_path / "x.txt").exists()


def test_config_int_for_a_float_flag_keeps_its_text(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "r": 4, "x0": 0.25, "steps": 50, "burnin": 0}))
    out = tmp_path / "lyap.csv"
    assert execute(["dynamics", "lyapunov", "--config", str(config), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1].startswith("logistic,4,0.25,50,0,")


def test_cas_run_null_ticks_runs_the_declared_default(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps({**SCENARIO, "ticks": None}))
    metrics = tmp_path / "cas.csv"
    assert execute(["cas", "run", "--config", str(config), "--metrics", str(metrics)]) == 0
    assert metrics.read_text() == "tick,agents,mean_response,mean_reward\n"


def test_config_fills_a_flag_with_a_declared_default(tmp_path, capsys):
    blinker = tmp_path / "blinker.rle"
    blinker.write_text("x = 3, y = 1, rule = B3/S23\n3o!")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "horizon": 1}))
    assert execute(["life", "classify", "--pattern", str(blinker), "--config", str(config)]) == 0
    by_config = capsys.readouterr().out
    argv = ["life", "classify", "--pattern", str(blinker), "--horizon", "1", "--seed", "1"]
    assert execute(argv) == 0
    assert by_config == capsys.readouterr().out == "unresolved\n"


def test_config_topology_matches_the_flags(tmp_path, glider_file):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 1, "topology": "hex", "rule": "B2/S34", "gens": 2}))
    by_config, by_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
    assert execute([
        "life", "run", "--pattern", str(glider_file), "--config", str(config),
        "--metrics", str(by_config),
    ]) == 0
    assert execute([
        "life", "run", "--pattern", str(glider_file), "--topology", "hex", "--rule", "B2/S34",
        "--gens", "2", "--seed", "1", "--metrics", str(by_flags),
    ]) == 0
    assert by_config.read_text() == by_flags.read_text() == "generation,population\n0,5\n1,6\n2,3\n"


def test_cas_run_flag_overrides_config(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    metrics = tmp_path / "cas.csv"
    assert execute([
        "cas", "run", "--config", str(config), "--ticks", "3", "--metrics", str(metrics),
    ]) == 0
    assert len(metrics.read_text().splitlines()) == 4


def test_cas_run_repeat_runs_byte_identical(tmp_path):
    config = tmp_path / "scenario.json"
    config.write_text(json.dumps(SCENARIO))
    outputs = []
    for name in ("a.csv", "b.csv"):
        metrics = tmp_path / name
        assert execute(["cas", "run", "--config", str(config), "--metrics", str(metrics)]) == 0
        outputs.append(metrics.read_bytes())
    assert outputs[0] == outputs[1]


def test_ga_run_onemax(tmp_path):
    metrics = tmp_path / "ga.csv"
    assert execute([
        "ga", "run", "--problem", "onemax", "--length", "16", "--pop", "20",
        "--gens", "10", "--seed", "2", "--metrics", str(metrics),
    ]) == 0
    lines = metrics.read_text().splitlines()
    assert lines[0] == "generation,best,mean"
    assert len(lines) == 12


def test_complexity_profile_csv(tmp_path):
    pattern = tmp_path / "blinker.rle"
    pattern.write_text("x = 3, y = 1, rule = B3/S23\n3o!")
    out = tmp_path / "profile.csv"
    assert execute([
        "complexity", "profile", "--pattern", str(pattern), "--gens", "10",
        "--scales", "1,2,4", "--seed", "1", "--metrics", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scale,omega,bits"
    assert lines[1] == "1,2,1.0"
    assert len(lines) == 4


def test_dynamics_lyapunov_csv(tmp_path):
    out = tmp_path / "lyap.csv"
    assert execute([
        "dynamics", "lyapunov", "--map", "logistic", "--r", "4.0", "--x0", "0.3",
        "--steps", "20000", "--burnin", "1000", "--seed", "1", "--metrics", str(out),
    ]) == 0
    header, row = out.read_text().splitlines()
    assert header == "map,r,x0,steps,burnin,lyapunov"
    lam = float(row.split(",")[-1])
    assert abs(lam - 0.693) < 0.05


def test_dynamics_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert execute([
        "dynamics", "sweep", "--r-from", "2.5", "--r-to", "3.0", "--r-step", "0.25",
        "--steps", "500", "--burnin", "200", "--seed", "1", "--out", str(out),
    ]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,lyapunov"
    assert len(lines) == 4  # r = 2.5, 2.75, 3.0
    assert all(float(line.split(",")[1]) < 0.1 for line in lines[1:])


@pytest.mark.parametrize("verb", [
    ["complexity", "profile", "--pattern", "glider.rle", "--gens", "2"],
    ["dynamics", "lyapunov", "--steps", "20", "--burnin", "5"],
    ["dynamics", "sweep", "--r-from", "3", "--r-to", "4", "--r-step", "0.5", "--steps", "20",
     "--burnin", "5"],
], ids=["profile", "lyapunov", "sweep"])
@pytest.mark.parametrize("source", ["flags", "config"])
def test_one_csv_named_by_both_out_and_metrics_exits_2(tmp_path, capsys, monkeypatch, verb,
                                                       source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "glider.rle").write_text(GLIDER_RLE)
    (tmp_path / "config.json").write_text(json.dumps({"seed": 1, "metrics": "b.csv"}))
    both = {"flags": ["--seed", "1", "--out", "a.csv", "--metrics", "b.csv"],
            "config": ["--config", "config.json", "--out", "a.csv"]}[source]
    assert execute([*verb, *both]) == 2
    assert capsys.readouterr() == (
        "", "error: --out and --metrics both name the one CSV; set only one\n")
    assert not (tmp_path / "a.csv").exists() and not (tmp_path / "b.csv").exists()


def _cli(cwd, *argv):
    """Run the CLI in a fresh interpreter, where logging has no handler
    that a test harness installed."""
    return subprocess.run([sys.executable, "-m", "complexkit.cli", *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": str(SRC)})


FLOORED = ["dynamics", "lyapunov", "--r", "0", "--steps", "5", "--burnin", "2", "--seed", "1"]


def test_a_failed_run_prints_only_its_error_line(tmp_path):
    (tmp_path / "out").mkdir()
    done = _cli(tmp_path, *FLOORED, "--out", "out")  # a directory, so the write fails
    assert done.returncode == 2
    assert done.stdout == ""
    [line] = done.stderr.splitlines()
    assert line.startswith("error: ") and "'out'" in line


def test_a_run_that_succeeds_prints_its_warning_once(tmp_path):
    done = _cli(tmp_path, *FLOORED)
    assert done.returncode == 0
    assert done.stderr == "zero derivative at 5 of 5 steps; floored at 1e-300\n"
    assert done.stdout.splitlines() == [
        "map,r,x0,steps,burnin,lyapunov", "logistic,0.0,0.3,5,2,-690.7755278982137"]


# One small document per verb; the fuzz test below edits values at every
# path inside it. Run sizes stay at 20 or less, so each example takes
# milliseconds.
FUZZ_DOCS = {
    "dynamics lyapunov": {"seed": 1, "map": "logistic", "r": 3.9, "x0": 0.3, "steps": 20,
                          "burnin": 5, "out": "lyapunov.csv"},
    "ga run": {"seed": 1, "problem": "coevolve", "length": 8, "pop": 6, "gens": 3, "mut": 0.1,
               "cx": 0.9, "elite": 1, "tournament": 2, "metrics": "ga.csv"},
    "cas run": {
        "seed": 1, "ticks": 5, "stimulus": 1.0, "metrics": "cas.csv",
        "grid": {"width": 4, "height": 4},
        "agent_types": [
            {"name": "drone", "count": 3, "strategy": "fixed",
             "rule": {"kind": "linear", "gain": 1.0}},
            {"name": "learner", "count": 3, "strategy": "adaptive",
             "rules": [{"kind": "linear", "gain": 0.5}, {"kind": "double_on_second"}],
             "weights": [1, 1]},
        ],
    },
}
FUZZ_KEYS = ["seed", "count", "kind", "width", "rules", "bogus", "map_name", "r_from"]
FUZZ_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 20), st.floats(),
    st.text("ab-._", max_size=3),
    st.sampled_from(["fixed", "adaptive", "linear", "double_on_second", "onemax", "coevolve",
                     "logistic"]),
)
FUZZ_VALUES = st.recursive(
    FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(FUZZ_KEYS), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _paths(node, path=()):
    """The path of every value inside a JSON document, the root first."""
    yield path
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(
        node, list) else ()
    for key, value in items:
        yield from _paths(value, (*path, key))


def _edit(doc, path, key, value):
    """Set ``value`` under ``key`` where ``path`` holds an object, else at
    ``path`` itself; returns the edited document."""
    nodes = [doc]
    for step in path:
        nodes.append(nodes[-1][step])
    if key is not None and isinstance(nodes[-1], dict):
        nodes[-1][key] = value
    elif path:
        nodes[-2][path[-1]] = value
    else:
        return value
    return doc


@settings(derandomize=True, deadline=None, max_examples=300)
@given(
    verb=st.sampled_from(sorted(FUZZ_DOCS)),
    edits=st.lists(
        st.tuples(st.integers(0, 63), st.none() | st.sampled_from(FUZZ_KEYS), FUZZ_VALUES),
        min_size=1, max_size=3,
    ),
)
def test_config_fuzz_exits_0_1_or_2_with_one_line(verb, edits):
    doc = copy.deepcopy(FUZZ_DOCS[verb])
    for pick, key, value in edits:
        paths = list(_paths(doc))
        doc = _edit(doc, paths[pick % len(paths)], key, value)
    cwd, err = os.getcwd(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # relative output paths in the document land here
        try:
            with open("config.json", "w") as fh:
                json.dump(doc, fh)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = execute([*verb.split(), "--config", "config.json"])
        finally:
            os.chdir(cwd)
    assert code in (0, 1, 2)
    if code:
        assert len(err.getvalue().splitlines()) == 1
        assert "Traceback" not in err.getvalue()


def test_coevolve_genome_chunk_too_long_for_a_float_exits_1_with_one_line(capsys):
    assert execute(["ga", "run", "--problem", "coevolve", "--length", "2100", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err == "error: a genome chunk of 1050 bits does not fit a float weight\n"
    assert "Traceback" not in err


def test_coloured_frames_refused_before_the_directory_is_made(tmp_path, capsys):
    pattern = tmp_path / "coloured.rle"
    pattern.write_text("x = 3, y = 2, rule = B3/S23\nBoC$oDo!")
    frames = tmp_path / "fr" / "frames"
    metrics = tmp_path / "m.csv"
    code = execute([
        "life", "run", "--pattern", str(pattern), "--states", "4", "--gens", "5",
        "--seed", "1", "--frames", str(frames), "--metrics", str(metrics),
    ])
    assert code == 1
    assert capsys.readouterr().err == "error: plaintext cannot represent multi-state cells\n"
    assert not (tmp_path / "fr").exists() and not metrics.exists()


# Every verb's argv starts with a runnable call whose run-size flags are
# small; a drawn flag later in argv overrides one only with another value
# from its pool, so every run stays small.
ARGV_BASE = {
    "life run": ["--pattern", "in/glider.rle", "--gens", "2"],
    "life classify": ["--pattern", "in/glider.rle", "--horizon", "4"],
    "cas run": ["--config", "in/scenario.json", "--ticks", "2"],
    "ga run": ["--gens", "2", "--pop", "4", "--length", "4"],
    "complexity profile": ["--pattern", "in/glider.rle", "--gens", "2"],
    "dynamics lyapunov": ["--steps", "5", "--burnin", "2"],
    "dynamics sweep": ["--r-from", "3", "--r-to", "4", "--r-step", "0.5", "--steps", "5",
                       "--burnin", "2"],
}
ARGV_FLAGS = {
    "life run": ["--pattern", "--rule", "--gens", "--topology", "--states", "--frames", "--out",
                 "--metrics"],
    "life classify": ["--pattern", "--rule", "--horizon"],
    "cas run": ["--ticks", "--metrics"],
    "ga run": ["--problem", "--length", "--pop", "--gens", "--mut", "--cx", "--elite",
               "--tournament", "--metrics"],
    "complexity profile": ["--pattern", "--rule", "--gens", "--scales", "--out", "--metrics"],
    "dynamics lyapunov": ["--map", "--r", "--x0", "--steps", "--burnin", "--out", "--metrics"],
    "dynamics sweep": ["--r-from", "--r-to", "--r-step", "--x0", "--steps", "--burnin", "--out",
                       "--metrics"],
}
SIZES = ["0", "1", "2", "3", "4", "-1", "nan", "inf", "2.5", "x", ""]
NUMBERS = ["0", "0.5", "1", "2.5", "3.9", "4", "-1", "-0.5", "nan", "inf", "-inf", "1e400", "x",
           "", "1,2"]
ARGV_VALUES = {
    **dict.fromkeys(["--gens", "--ticks", "--steps", "--pop", "--length", "--horizon", "--burnin",
                     "--elite", "--tournament", "--states"], SIZES),
    **dict.fromkeys(["--mut", "--cx", "--r", "--x0", "--r-from", "--r-to", "--r-step"], NUMBERS),
    "--seed": ["1", "0", "7", "-3", "2.5", "x", ""],
    "--bogus": ["1"],
    "--rule": ["B3/S23", "B36/S23", "B2/S34", "B1/S0", "B0/S23", "B9/S", "B3/S23H", "x", ""],
    "--topology": ["square", "hex", "tri", ""],
    "--problem": ["onemax", "coevolve", "knapsack"],
    "--map": ["logistic", "tent"],
    "--scales": ["1", "1,2", "1,2,4", "0", "-2", "a", ",", "1,,2", ""],
}
# File contents by name; "missing" is never written and "dir" is a directory.
ARGV_PATTERNS = {
    "glider.rle": GLIDER_RLE,
    "blinker.cells": ".O.\n.O.\n.O.\n",
    "coloured.rle": "x = 3, y = 2, rule = B3/S23\nBoC$oDo!",
    "malformed.rle": "x = 1, y = 1, rule = B3/S23\nzz!",
    "unterminated.rle": "x = 2, y = 1\n2o",
    "binary.rle": b"\xff\xfe\x00o!",
    "empty.cells": "",
}
ARGV_CONFIGS = {
    "scenario.json": json.dumps({**SCENARIO, "ticks": 2, "grid": {"width": 4, "height": 4}}),
    "life.json": '{"seed": 2, "rule": "B36/S23", "gens": 1}',
    "ga.json": '{"seed": 2, "problem": "onemax", "mut": 0.5, "elite": 0}',
    "dynamics.json": '{"seed": 2, "r": 3.5, "x0": 0.1}',
    "truncated.json": "{",
    "list.json": "[1]",
    "unknown.json": '{"bogus": 1}',
    "wrong.json": '{"gens": "x", "seed": 1.5}',
    "null.json": '{"seed": null}',
    "binary.json": b"\xff\xfe{}",
}
ARGV_OUTPUTS = ["out/a.rle", "out/b.cells", "out/c.csv", "out/frames", "out/deep/er/frames",
                "out/missing/d.csv", "out"]


def _argv_values(flag):
    """The pool a flag's value is drawn from; inputs and outputs come from
    separate pools, so an output never overwrites an input."""
    if flag == "--pattern":
        return st.sampled_from(["in/" + n for n in [*ARGV_PATTERNS, "missing.rle", "dir"]])
    if flag == "--config":
        return st.sampled_from(["in/" + n for n in [*ARGV_CONFIGS, "missing.json", "dir"]])
    if flag in ("--out", "--metrics", "--frames"):
        return st.sampled_from(ARGV_OUTPUTS)
    return st.sampled_from(ARGV_VALUES[flag])


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(ARGV_FLAGS)))
    # Mostly the verb's own flags; now and then one it does not take.
    flags = [*ARGV_FLAGS[verb] * 3, "--seed", "--config", "--bogus", "--frames", "--out"]
    argv = [*verb.split(), *ARGV_BASE[verb]]
    if draw(st.integers(0, 7)):
        argv += ["--seed", "1"]
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        argv += [flag, draw(_argv_values(flag))]
    return argv


@settings(derandomize=True, deadline=None, max_examples=400,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argv())
def test_argv_fuzz_exits_0_1_or_2_with_one_line(tmp_path, argv):
    (tmp_path / "out").mkdir(exist_ok=True)
    (tmp_path / "in" / "dir").mkdir(parents=True, exist_ok=True)
    for name, text in {**ARGV_PATTERNS, **ARGV_CONFIGS}.items():
        path = tmp_path / "in" / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
    cwd, err = os.getcwd(), io.StringIO()
    os.chdir(tmp_path)  # every drawn path is relative to it
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = execute(argv)
    finally:
        os.chdir(cwd)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code:
        assert len(err.getvalue().splitlines()) == 1
