"""Tests of the benchmark itself: span self time, seeded inputs, and that
every output check rejects a corrupted output.

    python3 -m pytest -q bench/tests
"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from complexkit import cli, encode_pattern, run as life_run  # noqa: E402
from complexkit.grid import Grid  # noqa: E402


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def test_self_time_on_nested_calls_with_a_leaf_and_a_gc_pause():
    clock = FakeClock()
    t = tracing.Tracer(clock=clock)
    leaf = t.wrap("leaf", lambda: clock.advance(5), leaf=True)

    def inner_body():
        clock.advance(3)
        leaf()
        t.on_gc("start", {"generation": 0})
        clock.advance(4)
        t.on_gc("stop", {"generation": 0})
        clock.advance(1)

    inner = t.wrap("inner", inner_body)

    def outer_body():
        clock.advance(1)
        inner()
        inner()
        clock.advance(2)

    t.wrap("outer", outer_body)()
    agg = tracing.summarize(t.dump())
    assert agg["leaf"] == {"calls": 2, "s": 10, "self_s": 10}
    assert agg["inner"] == {"calls": 2, "s": 18, "self_s": 8}
    assert agg["outer"] == {"calls": 1, "s": 21, "self_s": 3}
    assert t.gc["pause_s"] == 8 and t.gc["gen0"] == 2


def test_tick_ms_first_and_last_tenth():
    spans = [["cas.tick", 0.0, d, -1, 0.0, 0.0] for d in [0.001] * 10 + [0.002] * 10]
    assert tracing._tick_ms(spans) == pytest.approx((1.0, 2.0))


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_inputs_follow_the_seed_and_round(name, tmp_path):
    prepare = wl.WORKLOADS[name].prepare
    dirs = [tmp_path / d for d in ("a", "b", "c", "d")]
    for d in dirs:
        d.mkdir()
    one, again, *others = (prepare(s, i, d) for (s, i), d in zip(((1, 0), (1, 0), (2, 0), (1, 1)), dirs))
    assert one.inputs == again.inputs
    for other, d in zip(others, dirs[2:]):
        assert one.inputs.keys() == other.inputs.keys()
        for file in one.inputs:
            assert one.inputs[file] != other.inputs[file]
            a, b = dirs[0] / file, d / file
            if file.endswith(".rle"):
                assert a.read_text().splitlines()[0] == b.read_text().splitlines()[0]
            else:
                assert json.loads(a.read_text()).keys() == json.loads(b.read_text()).keys()


def test_oracle_matches_the_engine_on_a_small_soup():
    cells = wl.soup_cells(random.Random(3), 40, 0.35)
    board = wl.Board(cells, 40, 60)
    history = life_run(Grid(cells), generations=60)
    for g in history[:-1]:
        assert board.bits.bit_count() == g.population
        board.step()
    assert wl.encode_rle(board.rows()) == encode_pattern(history[-1], "rle", rule=None)


def _flip(path: Path, index: int = -2) -> None:
    data = bytearray(path.read_bytes())
    data[index] ^= 0x01
    path.write_bytes(bytes(data))


@pytest.mark.parametrize(
    "name, outputs", [("life-soup", ["final.rle", "population.csv"]), ("life-profile", ["profile.csv"])]
)
def test_life_checks_accept_the_cli_output_and_reject_a_flipped_byte(name, outputs, tmp_path):
    prep = wl.WORKLOADS[name].prepare(5, 0, tmp_path)
    assert cli.execute([a.replace("{out}", str(tmp_path)) for a in prep.argv]) == 0
    prep.check(tmp_path)
    for file in outputs:
        good = (tmp_path / file).read_bytes()
        _flip(tmp_path / file)
        with pytest.raises(wl.CheckError):
            prep.check(tmp_path)
        (tmp_path / file).write_bytes(good)


def _write_csv(path: Path, rows) -> Path:
    path.write_text(wl._csv_text(rows))
    return path


def test_cas_check_rejects_bad_rows(tmp_path):
    header = ["tick", "agents", "mean_response", "mean_reward"]
    good = [header] + [[t, 100, 1.25, 1.25] for t in range(1, 6)]
    wl.check_cas(_write_csv(tmp_path / "cas.csv", good), 5, 100)
    for bad in (good[:-1], good[:3] + [[2, 100, 1.25, 1.25]] + good[4:],
                good[:2] + [[2, 99, 1.25, 1.25]] + good[3:],
                good[:2] + [[2, 100, 2.5, 2.5]] + good[3:]):
        with pytest.raises(wl.CheckError):
            wl.check_cas(_write_csv(tmp_path / "cas.csv", bad), 5, 100)


def test_ga_check_rejects_bad_rows(tmp_path):
    header = ["generation", "best", "mean"]
    good = [header] + [[g, 1.0 + g / 10, 0.9] for g in range(4)]
    wl.check_ga(_write_csv(tmp_path / "ga.csv", good), 3)
    for bad in (good[:-1], good[:2] + [[1, 0.5, 0.4]] + good[3:],
                good[:2] + [[1, 2.5, 0.9]] + good[3:], good[:2] + [[1, 1.1, 0.2]] + good[3:]):
        with pytest.raises(wl.CheckError):
            wl.check_ga(_write_csv(tmp_path / "ga.csv", bad), 3)


def test_lyapunov_check_rejects_a_wrong_exponent_or_echo(tmp_path):
    header = ["map", "r", "x0", "steps", "burnin", "lyapunov"]
    echo = ["logistic", 4.0, 0.3, wl.CHAOS["steps"], wl.CHAOS["burnin"]]
    path = tmp_path / "l.csv"
    wl.check_lyapunov(_write_csv(path, [header, echo + [0.6931471756]]), 0.3)
    for bad in ([header, echo + [0.6941]], [header, echo[:2] + [0.4] + echo[3:] + [0.6931471756]]):
        with pytest.raises(wl.CheckError):
            wl.check_lyapunov(_write_csv(path, bad), 0.3)


def test_end_to_end_scales_each_time_by_its_rounds_reference():
    ref = run.REF_S
    runs = [
        {"input": 0, "wall_s": 2.0, "ref_s": 2 * ref, "peak_rss_mib": 10.0, "work": 90.0},
        {"input": 1, "wall_s": 0.5, "ref_s": ref / 2, "peak_rss_mib": 12.0, "work": 90.0},
    ]
    setup = [{"setup_s": 0.2, "ref_s": 2 * ref}, {"setup_s": 0.05, "ref_s": ref / 2}]
    m = run.end_to_end(runs, setup, ("tick_ms", "ms"), failed=1, attempted=3)
    assert m["wall_s"]["value"] == pytest.approx(1.0)
    assert m["setup_s"]["value"] == pytest.approx(0.1)
    assert m["work_per_s"]["value"] == pytest.approx(100.0)
    assert m["tick_ms"]["value"] == pytest.approx(10.0)
    assert m["peak_rss_mib"]["value"] == 11.0
    assert m["failed_share"]["value"] == pytest.approx(1 / 3)
    assert m["measured_wall_s"]["value"] == pytest.approx(1.25)


def test_compare_marks_each_metric(tmp_path, capsys):
    def result(wall_q, wall, rate):
        metrics = {
            "wall_s": {"value": wall, "unit": "s", "q1": wall - wall_q, "q3": wall + wall_q, "n": 5},
            "work_per_s": {"value": rate, "unit": "1/s", "q1": rate * 0.99, "q3": rate * 1.01, "n": 5},
        }
        return {"workloads": {"w": {"metrics": metrics}}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(result(0.01, 1.0, 100.0)))
    new.write_text(json.dumps(result(2.0, 2.0, 50.0)))
    assert run.compare(str(base), str(new)) == 0
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"wall_s": "unresolved", "work_per_s": "worse"}
    new.write_text(json.dumps(result(0.01, 0.5, 120.0)))
    run.compare(str(base), str(new))
    rows = {line.split()[1]: line.split()[-1] for line in capsys.readouterr().out.splitlines()[1:]}
    assert rows == {"wall_s": "better", "work_per_s": "better"}
