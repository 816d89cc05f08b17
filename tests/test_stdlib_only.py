"""The library runs on the standard library alone: numpy and hypothesis
are test-only dependencies."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# A None entry in sys.modules makes any import of that name fail.
SCRIPT = r"""
import importlib, os, pkgutil, sys, tempfile
sys.modules["numpy"] = sys.modules["hypothesis"] = None
import complexkit
names = [m.name for m in pkgutil.walk_packages(complexkit.__path__, "complexkit.")]
for name in names:
    importlib.import_module(name)
from complexkit.cli import execute
with tempfile.TemporaryDirectory() as tmp:
    pattern, out = os.path.join(tmp, "glider.rle"), os.path.join(tmp, "final.rle")
    with open(pattern, "w") as fh:
        fh.write("x = 3, y = 3, rule = B3/S23\nbob$2bo$3o!")
    code = execute(["life", "run", "--pattern", pattern, "--gens", "4", "--seed", "1",
                    "--out", out])
    with open(out) as fh:
        print(code, " ".join(names), fh.read(), sep="\n")
"""


def test_library_imports_and_runs_without_numpy_or_hypothesis():
    done = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert done.returncode == 0, done.stderr
    code, names, *pattern = done.stdout.splitlines()
    assert code == "0"
    assert {"complexkit.automaton", "complexkit.cli", "complexkit.scenario"} <= set(names.split())
    assert pattern == ["x = 3, y = 3, rule = B3/S23", "bo$2bo$3o!"]
