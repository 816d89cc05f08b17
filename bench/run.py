"""complexkit CLI benchmark.

    python3 bench/run.py --workload life-soup --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20
    python3 bench/run.py --compare base.json new.json

Run from the repository root. Each CLI run is a fresh process started
through the console-script entry point (``complexkit.cli:main``) with
``src`` on ``PYTHONPATH``; inputs are generated from ``--seed`` and every
run's outputs are checked. The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. A result file with samples, input digests and host facts
goes to ``--out`` (default ``bench/_work/result-<workload>.json``).

Timings are scaled to a reference host speed: before each CLI run a fixed
reference loop is timed, and every time measured in that round is
multiplied by REF_S / (the loop's time). On a shared host whose speed
drifts, the ratio of a run's time to the reference's is far steadier
than either; the result file keeps the times as measured too.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / "bench" / "_work"
RUN_TIMEOUT_S = 150
SETUP_PROBES_PER_ROUND = 1
INPUTS_PER_RUN = 4
# Timings are reported for a host on which reference_loop() takes REF_S.
REF_S = 0.050
# Result-file metrics that record the host, not the program: --compare
# leaves them out.
RECORD_ONLY = ("measured_wall_s", "measured_setup_s", "ref_loop_s")
# The console-script entry point, plus a report of the process's peak RSS
# (VmHWM, MiB) on exit. ru_maxrss is no use here: at exec Linux folds the
# parent's high-water mark into the child's.
CLI_MAIN = """\
import sys
from complexkit.cli import main
peak_path = sys.argv.pop(1)
sys.argv[0] = "complexkit"
try:
    main()
finally:
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    with open(peak_path, "w") as out:
        out.write(str(int(kib) / 1024))
"""
SETUP_PROBE = "import os, complexkit.cli; os.write(1, b'.')"


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # A fixed hash seed keeps set and dict layouts, and so timings, the
    # same from run to run; outputs do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd: list[str], out_dir: Path) -> tuple[int, float]:
    """Run cmd to completion; return (exit code, wall s)."""
    with open(out_dir / "stdout", "wb") as out, open(out_dir / "stderr", "wb") as err:
        start = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err) as proc:
            try:
                code = proc.wait(RUN_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                code = -1
        return code, time.perf_counter() - start


def setup_probe() -> float:
    """Seconds from spawn until complexkit.cli is imported and main could
    start parsing argv."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE], cwd=ROOT, env=child_env(), stdout=subprocess.PIPE
    ) as proc:
        ready = proc.stdout.read(1)
        elapsed = time.perf_counter() - start
        proc.wait(RUN_TIMEOUT_S)
    if ready != b"." or proc.returncode != 0:
        raise RuntimeError("setup probe: complexkit.cli failed to import")
    return elapsed


def reference_loop() -> float:
    """A fixed pure-Python mix of the interpreter work the workloads do:
    float arithmetic, list growth, tuple-keyed dict and set updates, a
    sort. It is not program code and never changes, so its time follows
    the host's speed alone."""
    start = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    trail = []
    x = 0.3
    for i in range(40_000):
        x = 3.9 * x * (1.0 - x)
        key = (i % 97, int(x * 89))
        counts[key] = counts.get(key, 0) + 1
        trail.append((x, key))
    set(trail[::3])
    trail.sort()
    return time.perf_counter() - start


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def scaled(sample: dict, key: str) -> float:
    """sample[key] at the reference host speed."""
    return sample[key] * REF_S / sample["ref_s"]


def summary(values: list[float], unit: str) -> dict:
    q1, med, q3 = quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(runs: list[dict], setup: list[dict], rate_metric: tuple[str, str],
               failed: int, attempted: int) -> dict[str, dict]:
    """End-to-end metrics: medians of the good CLI runs and setup probes,
    timings scaled to the reference speed; plus the workload's own named
    rate, failed_share, and the times as measured (RECORD_ONLY)."""
    out = {
        "wall_s": summary([scaled(r, "wall_s") for r in runs], "s"),
        "setup_s": summary([scaled(p, "setup_s") for p in setup], "s"),
        "peak_rss_mib": summary([r["peak_rss_mib"] for r in runs], "MiB"),
    }
    setup_s = out["setup_s"]["value"]
    rates = [r["work"] / (scaled(r, "wall_s") - setup_s) for r in runs]
    out["work_per_s"] = summary(rates, "1/s")
    name, unit = rate_metric
    if unit == "ms":  # tick_ms: time per unit of work
        m = out["work_per_s"]
        out[name] = {"value": 1000 / m["value"], "unit": unit, "q1": 1000 / m["q3"],
                     "q3": 1000 / m["q1"], "n": m["n"]}
    else:
        out[name] = dict(out["work_per_s"])
    out["failed_share"] = {"value": failed / attempted, "unit": "ratio", "q1": 0.0, "q3": 0.0,
                           "n": attempted}
    out["measured_wall_s"] = summary([r["wall_s"] for r in runs], "s")
    out["measured_setup_s"] = summary([p["setup_s"] for p in setup], "s")
    out["ref_loop_s"] = summary([r["ref_s"] for r in runs], "s")
    return out


class Bench:
    """Runs, checks and measures one workload at one seed. The run's
    inputs are generated from (seed, i) for i < INPUTS_PER_RUN, and the
    rounds cycle through them, so the metrics span several inputs and
    input-dependent work evens out."""

    def __init__(self, workload: wl.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / workload.name
        self.out = self.dir / "out"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.preps: list[wl.Prepared] = []
        for i in range(INPUTS_PER_RUN):
            inputs = self.dir / "in" / str(i)
            inputs.mkdir(parents=True)
            self.preps.append(workload.prepare(seed, i, inputs))
        self.runs: list[dict] = []  # one per good CLI run
        self.setup: list[dict] = []  # one per setup probe
        self.rounds: list[float] = []  # seconds per measure_once round
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def argv(self, prep: wl.Prepared) -> list[str]:
        return [a.replace("{out}", str(self.out)) for a in prep.argv]

    def attempt(self, cmd: list[str], prep: wl.Prepared) -> float | None:
        """Run cmd on a fresh output directory and check; returns the wall
        time of a good run, None of a failed one."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        self.attempted += 1
        code, wall = spawn(cmd, self.out)
        try:
            if code != 0:
                err = (self.out / "stderr").read_text(errors="replace").strip()[-300:]
                raise wl.CheckError(f"exit code {code}: {err}")
            prep.check(self.out)
        except wl.CheckError as exc:
            self.failed += 1
            self.failures.append(str(exc))
            return None
        return wall

    def measure_once(self) -> None:
        """One round: the reference loop, setup probes, one CLI run."""
        start = time.perf_counter()
        index = len(self.rounds) % INPUTS_PER_RUN
        prep = self.preps[index]
        ref = reference_loop()
        for _ in range(SETUP_PROBES_PER_ROUND):
            self.setup.append({"setup_s": setup_probe(), "ref_s": ref})
        peak = self.dir / "peak_rss_mib"
        wall = self.attempt([sys.executable, "-c", CLI_MAIN, str(peak), *self.argv(prep)], prep)
        if wall is not None:
            self.runs.append({"input": index, "wall_s": wall, "ref_s": ref,
                              "peak_rss_mib": float(peak.read_text()), "work": prep.work})
        self.rounds.append(time.perf_counter() - start)

    def metrics(self) -> dict[str, dict]:
        return end_to_end(self.runs, self.setup, self.workload.rate_metric,
                          self.failed, self.attempted)

    def traced_run(self) -> dict[str, float]:
        """Trace input 0's command; the overhead is against the untraced
        runs on the same input, all scaled to the reference speed."""
        prep = self.preps[0]
        spans = self.dir / "spans.json"
        cmd = [sys.executable, str(ROOT / "bench" / "tracing.py"), str(spans), "--", *self.argv(prep)]
        ref = reference_loop()
        wall = self.attempt(cmd, prep)
        if wall is None:
            return {}
        layers = tracing.layer_metrics(json.loads(spans.read_text()))
        untraced = statistics.median(scaled(r, "wall_s") for r in self.runs if r["input"] == 0)
        layers["trace.overhead_s"] = wall * REF_S / ref - untraced
        return layers

    def result(self) -> dict:
        return {
            "work_unit": self.workload.work_unit,
            "inputs": {f"{i}/{name}": sha for i, p in enumerate(self.preps)
                       for name, sha in p.inputs.items()},
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "runs": self.runs,
            "setup": self.setup,
            "metrics": self.metrics() if self.runs else {},
        }


def round_robin(benches: list[Bench], seconds: float) -> None:
    """Run every workload once per round until each has used its share of
    the time; a workload stops when its next round would end more than
    half a round past the deadline, so a run's length stays within half a
    round of the target. Interleaving spreads the host's speed drift
    evenly over the workloads."""
    deadline = time.perf_counter() + seconds * len(benches)
    active = list(benches)
    while active:
        for b in list(active):
            all_failed = b.attempted and b.failed == b.attempted
            half_round = statistics.median(b.rounds) / 2 if b.rounds else 0.0
            if all_failed or (b.rounds and time.perf_counter() + half_round > deadline):
                active.remove(b)
            else:
                b.measure_once()


def host_info() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def fmt(value: float) -> str:
    return f"{value:.6g}"


def print_table(results: dict, file) -> None:
    for name, res in results.items():
        work = [r["work"] for r in res["runs"]]
        per_run = fmt(statistics.median(work)) if work else "no"
        print(f"{name}: {res['attempted']} runs, {res['failed']} failed, "
              f"median {per_run} {res['work_unit']} per run", file=file)
        for metric, m in res["metrics"].items():
            print(f"  {metric:<16} {fmt(m['value']):>12} {m['unit']:<6} "
                  f"q1 {fmt(m['q1'])} q3 {fmt(m['q3'])} n={m['n']}", file=file)
        if "layers" in res:
            for metric, value in res["layers"].items():
                print(f"  {metric:<36} {fmt(value)}", file=file)
        for failure in res["failures"]:
            print(f"  FAILED: {failure}", file=file)


def compare(base_path: str, new_path: str) -> int:
    """One row per workload and metric: better, worse beyond the bound,
    within the bound, or unresolved when the runs' spread exceeds it."""
    spec = load_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lower = {m["name"] for m in spec["end_to_end"] if m["better"] == "lower"} | {"tick_ms"}
    base = json.loads(Path(base_path).read_text())["workloads"]
    new = json.loads(Path(new_path).read_text())["workloads"]
    print(f"{'workload':<15} {'metric':<16} {'base':>12} {'new':>12} {'change':>8} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for name in sorted(base.keys() & new.keys()):
        for metric, b in base[name]["metrics"].items():
            n = new[name]["metrics"].get(metric)
            if n is None or metric in RECORD_ONLY:
                continue
            if metric == "failed_share":
                verdict = ("worse" if n["value"] > b["value"]
                           else "better" if n["value"] < b["value"] else "same")
                print(f"{name:<15} {metric:<16} {fmt(b['value']):>12} {fmt(n['value']):>12}"
                      f" {'':>8} {'':>7} {'':>6}  {verdict}")
                continue
            bound = bounds.get(metric, bounds["work_per_s"])
            spread = max((m["q3"] - m["q1"]) / m["value"] for m in (b, n))
            change = (n["value"] - b["value"]) / b["value"]
            worse_by = change if metric in lower else -change
            if spread > bound:
                verdict = "unresolved"
            elif worse_by > bound:
                verdict = "worse"
            elif -worse_by > spread:
                verdict = "better"
            else:
                verdict = "within bound"
            print(f"{name:<15} {metric:<16} {fmt(b['value']):>12} {fmt(n['value']):>12} "
                  f"{change:>+8.1%} {spread:>7.1%} {bound:>6.0%}  {verdict}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24, help="time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file path")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "complexkit" / "cli.py").is_file():
        print(f"error: no complexkit source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        names = list(wl.WORKLOADS)
    elif args.workload in wl.WORKLOADS:
        names = [args.workload]
    else:
        parser.error(f"--workload must be 'all' or one of {', '.join(wl.WORKLOADS)}")
    spec = load_spec()

    benches = [Bench(wl.WORKLOADS[n], args.seed) for n in names]
    round_robin(benches, args.seconds)
    results = {}
    for b in benches:
        layers = None
        if args.trace and b.runs:
            layers = b.traced_run()
        res = results[b.workload.name] = b.result()
        if layers is not None:
            res["layers"] = layers

    out = Path(args.out) if args.out else WORK / f"result-{args.workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                               "host": host_info(), "workloads": results}, indent=1))
    print_table(results, sys.stderr if len(names) == 1 else sys.stdout)

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) > 1:
        print(f"result file: {out}")
        return 0 if failed == 0 else 1
    res = results[names[0]]
    if args.trace:
        wanted = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        values = res.get("layers", {})
    else:
        wanted = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        values = {k: m["value"] for k, m in res["metrics"].items()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in wanted if name in values}
    print(json.dumps({"correct": failed == 0 and len(metrics) == len(wanted),
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
