"""Batch command line: one binary, noun-verb subcommands.

    complexkit life run --pattern glider.rle --gens 4 --seed 1 --out final.rle
    complexkit life classify --pattern blinker.rle --horizon 16 --seed 1
    complexkit cas run --config scenario.json --ticks 100 --metrics m.csv
    complexkit ga run --problem onemax --length 64 --seed 3 --metrics ga.csv
    complexkit complexity profile --pattern p.rle --gens 10 --scales 1,2,4 --seed 1
    complexkit dynamics lyapunov --map logistic --r 4.0 --x0 0.3 --seed 1
    complexkit dynamics sweep --r-from 2.5 --r-to 4.0 --r-step 0.1 --seed 1

Every run requires an explicit seed (flag or config file), the dynamics
verbs too, though their logistic map draws nothing from it. A flag takes
its value from argv, else from the ``--config`` JSON file, else from the
default declared with the flag; a JSON ``null`` leaves the flag unset. A
config key that is not a flag of the verb (or, for ``cas run``, a scenario
key) and a value of the wrong JSON kind exit 2 with one line naming the
key. A verb declares only the output flags it writes (``--out``,
``--metrics``), so any other exits 2 like an unknown flag. Exit codes: 0
success, 1 domain error, 2 I/O, usage, or parse error. Metrics are CSV
only and never share a stream with log text. ``dynamics sweep`` computes
every row before it opens its output, so a sweep that fails at some ``r``
writes no file, and its error line names that ``r``; a sweep whose
``--r-step`` would give more than 100,000 rows, or not move ``r`` at all,
exits 2 before the first row.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import logging
import sys
from pathlib import Path

from ._shared import ScenarioError, checked
from .automaton import CONWAY_LIFE, RuleError, RuleSet, classify_pattern, run
from .complexity import _check_scales, complexity_profile
from .coevolve import episode_fitness
from .dynamics import DivergenceError, divergence_rate, logistic_map
from .evolution import EvolutionConfig, evolve
from .grid import Grid, Topology, _layout
from .patterns import (
    PatternFormatError,
    UnsupportedFormatError,
    decode_pattern,
    encode_pattern,
)
from .scenario import build_environment, run_scenario


_OUTPUT_HELP = {"--out": "primary output path", "--metrics": "metrics CSV path"}


def _add_shared(p: argparse.ArgumentParser, handler, *outputs: str) -> None:
    """Declare the flags of every verb, and those of ``--out`` and
    ``--metrics`` that this verb writes."""
    p.add_argument("--seed", type=int, default=None, help="explicit run seed (required)")
    for flag in outputs:
        p.add_argument(flag, default=None, help=_OUTPUT_HELP[flag])
    p.add_argument("--config", default=None, help="JSON config file; flags override it")
    p.set_defaults(handler=handler, command=p)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """End a usage error like every other error: one stderr line, exit 2."""
        self.exit(2, f"error: {message} (see '{self.prog} -h' for usage)\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="complexkit", description=__doc__.splitlines()[0])
    nouns = parser.add_subparsers(dest="noun", required=True)

    life = nouns.add_parser("life", help="cellular automaton runs")
    life_verbs = life.add_subparsers(dest="verb", required=True)
    p = life_verbs.add_parser("run", help="step a pattern forward")
    p.add_argument("--pattern", default=None, help="RLE (.rle) or plaintext pattern file")
    p.add_argument("--rule", default=None, help="rule string like B3/S23")
    p.add_argument("--gens", type=int, default=0)
    p.add_argument("--topology", choices=["square", "hex"], default="square")
    p.add_argument("--states", type=int, default=None)
    p.add_argument("--frames", default=None, help="directory for per-generation plaintext dumps")
    _add_shared(p, _cmd_life_run, "--out", "--metrics")
    p = life_verbs.add_parser("classify", help="classify a pattern's behavior")
    p.add_argument("--pattern", default=None)
    p.add_argument("--rule", default=None)
    p.add_argument("--horizon", type=int, default=64)
    _add_shared(p, _cmd_life_classify)

    cas = nouns.add_parser("cas", help="agent-based scenario runs")
    cas_verbs = cas.add_subparsers(dest="verb", required=True)
    p = cas_verbs.add_parser("run", help="run a scenario for n ticks")
    p.add_argument("--ticks", type=int, default=0)
    p.set_defaults(scenario={})  # filled with the config keys that are not flags
    _add_shared(p, _cmd_cas_run, "--metrics")

    ga = nouns.add_parser("ga", help="genetic algorithm runs")
    ga_verbs = ga.add_subparsers(dest="verb", required=True)
    p = ga_verbs.add_parser("run")
    p.add_argument("--problem", choices=["onemax", "coevolve"], default="onemax")
    p.add_argument("--length", type=int, default=None, help="default 16 for coevolve, else 64")
    p.add_argument("--pop", type=int, default=100)
    p.add_argument("--gens", type=int, default=100)
    p.add_argument("--mut", type=float, default=0.01)
    p.add_argument("--cx", type=float, default=0.9)
    p.add_argument("--elite", type=int, default=2)
    p.add_argument("--tournament", type=int, default=3)
    _add_shared(p, _cmd_ga_run, "--metrics")

    cpx = nouns.add_parser("complexity", help="information-vs-scale profiles")
    cpx_verbs = cpx.add_subparsers(dest="verb", required=True)
    p = cpx_verbs.add_parser("profile")
    p.add_argument("--pattern", default=None)
    p.add_argument("--rule", default=None)
    p.add_argument("--gens", type=int, default=0)
    p.add_argument("--scales", default="1,2,4", help="comma-separated, e.g. 1,2,4")
    _add_shared(p, _cmd_complexity_profile, "--out", "--metrics")

    dyn = nouns.add_parser("dynamics", help="iterative-map diagnostics")
    dyn_verbs = dyn.add_subparsers(dest="verb", required=True)
    p = dyn_verbs.add_parser("lyapunov")
    p.add_argument("--map", choices=["logistic"], default="logistic")
    p.add_argument("--r", type=float, default=4.0)
    p.add_argument("--x0", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=100_000)
    p.add_argument("--burnin", type=int, default=1000)
    _add_shared(p, _cmd_dynamics_lyapunov, "--out", "--metrics")
    p = dyn_verbs.add_parser("sweep")
    p.add_argument("--r-from", dest="r_from", type=float, default=None)
    p.add_argument("--r-to", dest="r_to", type=float, default=None)
    p.add_argument("--r-step", dest="r_step", type=float, default=None)
    p.add_argument("--x0", type=float, default=0.3)
    p.add_argument("--steps", type=int, default=2000)
    p.add_argument("--burnin", type=int, default=500)
    _add_shared(p, _cmd_dynamics_sweep, "--out", "--metrics")
    return parser


def _read_text(path: str, flag: str) -> str:
    """The UTF-8 text of an input file; one that is not UTF-8 is a parse
    error that names the flag and the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{flag} {path} is not UTF-8 text: {exc.reason} "
                            f"0x{exc.object[exc.start]:02x}") from None


def _merge_config(parser: argparse.ArgumentParser, argv: list[str],
                  args: argparse.Namespace) -> argparse.Namespace:
    """Parse ``argv`` again with the config file's values as the verb's
    defaults, each checked against its flag's type and choices, so argv
    wins over the config and the config over the declared default. A null
    value is skipped. Keys that are not flags form ``args.scenario`` where
    the verb has one, and are refused elsewhere. Every float flag's value,
    from argv or config, must be finite."""
    if args.config:
        doc = json.loads(_read_text(args.config, "--config"))
        if not isinstance(doc, dict):
            raise ScenarioError("config file must contain a JSON object")
        flags = {a.dest: a for a in args.command._actions if a.dest != "help"}
        defaults: dict = {}
        for key, value in doc.items():
            flag = flags.get(key.replace("-", "_"))
            if flag is None and "scenario" not in args:
                raise ScenarioError(f"config has unknown key {key!r}")
            if flag is None:
                defaults.setdefault("scenario", {})[key] = value
            elif value is not None:
                defaults[flag.dest] = checked(f"config {key}", value, flag.type or str,
                                              flag.choices)
        args.command.set_defaults(**defaults)
        args = parser.parse_args(argv)
    for flag in args.command._actions:
        if flag.type is float and getattr(args, flag.dest) is not None:
            checked(flag.option_strings[0], getattr(args, flag.dest), float)
    if args.seed is None:
        raise ScenarioError("an explicit seed is required (flag --seed or config 'seed')")
    return args


@contextlib.contextmanager
def _csv_out(path: str | None):
    if path is None:
        yield csv.writer(sys.stdout, lineterminator="\n")
    else:
        with open(path, "w", newline="") as fh:
            yield csv.writer(fh, lineterminator="\n")


def _csv_path(args) -> str | None:
    """The CSV path of a verb that writes one CSV to ``--out`` or
    ``--metrics``; stdout when neither is set. Both set is a usage error,
    since one of them would be dropped."""
    if args.out and args.metrics:
        raise ScenarioError("--out and --metrics both name the one CSV; set only one")
    return args.out or args.metrics


def _codec(path: Path) -> str:
    return "rle" if path.suffix.lower() == ".rle" else "plaintext"


def _load_pattern(args) -> tuple[Grid, RuleSet]:
    """The ``--pattern`` grid on the verb's ``--topology`` and its rule:
    ``--rule``, else the RLE header's, else Conway's (square only), with
    the verb's ``--states``."""
    if not args.pattern:
        raise ScenarioError("a --pattern file is required")
    path = Path(args.pattern)
    grid, rule = decode_pattern(_read_text(args.pattern, "--pattern"), _codec(path))
    topology = Topology(getattr(args, "topology", "square"))
    if args.rule:
        rule = RuleSet.parse(args.rule)
    elif rule is None and topology is Topology.HEX:
        raise RuleError("hexagonal runs have no default rule; pass --rule explicitly")
    elif rule is None:
        rule = CONWAY_LIFE
    states = getattr(args, "states", None)
    if states is not None:
        rule = RuleSet(birth=rule.birth, survival=rule.survival, states=states)
    if topology is Topology.HEX:
        grid = Grid._trusted(_layout(grid) or dict(grid.cells), topology)
    return grid, rule


def _cmd_life_run(args) -> int:
    grid, rule = _load_pattern(args)
    if grid.topology is Topology.HEX and args.out:
        # Refused before the run; the codec would refuse only after the last generation.
        raise UnsupportedFormatError("pattern codecs support square grids only")
    frames_dir = Path(args.frames) if args.frames else None
    populations = []
    for i, final in enumerate(run(grid, rule, args.gens)):
        if frames_dir:
            frame = encode_pattern(final, "plaintext")
            if i == 0:  # made once frame 0 encodes, so a refused run leaves no directory
                frames_dir.mkdir(parents=True, exist_ok=True)
            (frames_dir / f"frame_{i:06d}.txt").write_text(frame)
        populations.append(final.population)
    if args.out:
        fmt = _codec(Path(args.out))
        Path(args.out).write_text(encode_pattern(final, fmt, rule=rule if fmt == "rle" else None))
    if args.metrics:
        with _csv_out(args.metrics) as w:
            w.writerow(["generation", "population"])
            w.writerows(enumerate(populations))
    return 0


def _cmd_life_classify(args) -> int:
    grid, rule = _load_pattern(args)
    print(classify_pattern(grid, rule, args.horizon))
    return 0


def _cmd_cas_run(args) -> int:
    if not args.config:
        raise ScenarioError("cas run needs a scenario --config file")
    env = build_environment({**args.scenario, "seed": args.seed})
    env, metrics = run_scenario(env, args.ticks)
    with _csv_out(args.metrics) as w:
        w.writerow(["tick", "agents", "mean_response", "mean_reward"])
        for row in metrics:
            w.writerow([row["tick"], row["agents"], row["mean_response"], row["mean_reward"]])
    return 0


def _cmd_ga_run(args) -> int:
    cfg = EvolutionConfig(
        genome_length=args.length if args.length is not None else (
            16 if args.problem == "coevolve" else 64),
        population_size=args.pop,
        generations=args.gens,
        mutation_rate=args.mut,
        crossover_rate=args.cx,
        tournament_size=args.tournament,
        elitism=args.elite,
        seed=args.seed,
    )
    if args.problem == "onemax":
        fitness = lambda genome: float(sum(1 for s in genome if s == "1"))
    else:
        fitness = episode_fitness()
    best, stats = evolve(cfg, fitness)
    with _csv_out(args.metrics) as w:
        w.writerow(["generation", "best", "mean"])
        for s in stats:
            w.writerow([s.generation, s.best, s.mean])
    print(f"best fitness {best.fitness} genome {''.join(best.genome)}", file=sys.stderr)
    return 0


def _cmd_complexity_profile(args) -> int:
    path = _csv_path(args)
    scales = []
    for piece in filter(str.strip, args.scales.split(",")):
        try:
            scales.append(int(piece))
        except ValueError:
            raise ScenarioError(f"scales must be comma-separated integers, got {piece!r}") from None
    try:
        _check_scales(scales)
    except ValueError as exc:
        raise ScenarioError(f"--scales {args.scales!r}: {exc}") from None
    grid, rule = _load_pattern(args)
    profile = complexity_profile(run(grid, rule, args.gens), scales)
    with _csv_out(path) as w:
        w.writerow(["scale", "omega", "bits"])
        for census in profile:
            w.writerow([census.scale, census.omega, census.bits])
    return 0


def _cmd_dynamics_lyapunov(args) -> int:
    path = _csv_path(args)
    lam = divergence_rate(logistic_map(args.r), args.x0, args.steps, burn_in=args.burnin)
    with _csv_out(path) as w:
        w.writerow(["map", "r", "x0", "steps", "burnin", "lyapunov"])
        w.writerow([args.map, args.r, args.x0, args.steps, args.burnin, lam])
    return 0


# Most rows a sweep may have: floor((r_to - r_from) / r_step) + 1.
_MAX_SWEEP_ROWS = 100_000


def _cmd_dynamics_sweep(args) -> int:
    path = _csv_path(args)
    if args.r_from is None or args.r_to is None or args.r_step is None:
        raise ScenarioError("sweep needs --r-from, --r-to and --r-step")
    if args.r_step <= 0:
        raise ScenarioError("--r-step must be positive")
    if args.r_from > args.r_to + 1e-12:
        raise ScenarioError(f"--r-to {args.r_to} is below --r-from {args.r_from}")
    # Every row is held until the last, so refuse a sweep that would not
    # end, or end only after more rows than it may hold.
    if args.r_from + args.r_step == args.r_from:
        raise ScenarioError(f"--r-step {args.r_step} does not move --r-from {args.r_from}")
    if (args.r_to - args.r_from) / args.r_step >= _MAX_SWEEP_ROWS:
        raise ScenarioError(f"--r-step {args.r_step} gives more than {_MAX_SWEEP_ROWS} rows "
                            f"from --r-from {args.r_from} to --r-to {args.r_to}")
    rows = []
    k = 0
    r = args.r_from
    while r <= args.r_to + 1e-12:
        try:
            rows.append([r, divergence_rate(logistic_map(r), args.x0, args.steps,
                                            burn_in=args.burnin)])
        except DivergenceError as exc:
            raise ValueError(f"r={r}: {exc}") from None
        k += 1
        r = args.r_from + k * args.r_step
    with _csv_out(path) as w:
        w.writerow(["r", "lyapunov"])
        w.writerows(rows)
    return 0


def execute(argv: list[str]) -> int:
    """Parse argv, run the subcommand, and map failures to exit codes.

    The run's warnings reach stderr only once it succeeds, so a failed run
    prints its one error line and nothing else.
    """
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Without a handler, logging's last resort would print each warning at once.
    records: list[logging.LogRecord] = []
    held = logging.Handler(logging.WARNING)
    held.emit = records.append
    root = logging.getLogger()
    root.addHandler(held)
    try:
        code = args.handler(_merge_config(parser, argv, args))
    except (PatternFormatError, ScenarioError, json.JSONDecodeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, DivergenceError) as exc:  # every engine error is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        root.removeHandler(held)
    if code == 0:
        for record in records:
            print(held.format(record), file=sys.stderr)
    return code


def main() -> None:
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
