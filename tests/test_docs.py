"""The examples in README.md and the CLI's usage lines still run.

Stdlib only: each command is parsed, not run, so it needs none of the
files it names.
"""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from complexkit import cli
from complexkit.scenario import build_environment

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(language: str) -> list[str]:
    """The bodies of README's fenced blocks in ``language``."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.DOTALL | re.MULTILINE)


def _commands(text: str) -> list[str]:
    """Each ``complexkit`` command in ``text``, with ``\\`` continuations
    joined and ``#`` comments dropped."""
    joined = re.sub(r"\\\n\s*", " ", text)
    lines = (line.split("#", 1)[0].strip() for line in joined.splitlines())
    return [line for line in lines if line.startswith("complexkit ")]


README_COMMANDS = [c for block in _blocks("sh") for c in _commands(block)]
USAGE_COMMANDS = _commands(cli.__doc__)


def test_the_examples_are_found():
    assert len(README_COMMANDS) == 8
    assert len(USAGE_COMMANDS) == 7


@pytest.mark.parametrize("command", README_COMMANDS + USAGE_COMMANDS)
def test_each_documented_command_parses(command):
    argv = shlex.split(command)[1:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"{command!r} does not parse: {err.getvalue().strip()}")
    assert callable(args.handler)


def test_the_scenario_example_builds():
    [scenario] = _blocks("json")
    env = build_environment(json.loads(scenario))
    assert len(env.agents()) == 100


def test_the_library_sketch_runs():
    [sketch] = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(sketch, "README.md", "exec"), {})
    assert out.getvalue().splitlines()[0] == "spaceship p=4 d=(1,1)"
