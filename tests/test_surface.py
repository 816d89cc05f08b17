"""The public names of ``complexkit`` and the module attributes that the
traced bench (``bench/tracing.py``) rebinds to time each layer.

A rename or removal here either changes the public surface or leaves a
traced layer unmeasured, so it has to be made on purpose.
"""

import ast
import importlib
from pathlib import Path
from types import ModuleType

import complexkit
from complexkit import _shared, cas, complexity, dynamics, evolution, grid, scenario

PUBLIC_NAMES = {
    "Agent", "AgentType", "Branch", "CONWAY_LIFE", "ComplexityProfile", "Coordinate",
    "DegenerateStrategyError", "DivergenceError", "Environment", "EvaluationError",
    "EvolutionConfig", "Frame", "FrameError", "GenerationStats", "Genome", "Grid", "Individual",
    "IterativeMap", "Observation", "PatternClass", "PatternFormatError", "Population", "Rule",
    "RuleError", "RuleSet", "ScenarioError", "StateCensus", "Strategy", "Topology", "Trajectory",
    "UnsupportedFormatError", "build_environment", "classify_pattern", "coarse_grain",
    "complexity_profile", "crossover", "decode_pattern", "divergence_rate",
    "divergence_rate_two_trajectory", "double_on_second_rule", "encode_pattern",
    "episode_fitness", "evolve", "identity_map", "info_bits", "iterate", "linear_rule",
    "logistic_map", "mutate", "neighbors", "observe", "reinforce", "respond", "run",
    "run_scenario", "select", "select_rule", "snapshot", "step", "theoretical_bits", "tick",
    "weights_from_genome",
}

# Every attribute that bench/tracing.py's install() rebinds, as
# "module.attribute" under complexkit.
TRACED = [
    "automaton.step", "automaton.run", "grid.Grid.__init__", "complexity.coarse_grain",
    "scenario.tick", "cas.select_rule", "cas.respond", "cas.reinforce",
    "coevolve.run_scenario", "evolution.select", "evolution.crossover", "evolution.mutate",
    "dynamics.iterate", "cli.run", "cli.decode_pattern", "cli.encode_pattern",
    "cli.complexity_profile", "cli.build_environment", "cli.run_scenario", "cli.evolve",
    "cli.episode_fitness", "cli.divergence_rate", "cli.execute",
]


def test_public_names_are_pinned():
    names = {
        name for name in dir(complexkit)
        if not name.startswith("_") and not isinstance(getattr(complexkit, name), ModuleType)
    }
    assert names == PUBLIC_NAMES


# The complexkit modules that each module of the package imports. An engine
# uses another only where it builds on it (``scenario`` on ``cas``,
# ``coevolve`` on ``cas`` and ``evolution``); what several
# share sits in ``grid`` or in the leaf ``_shared``. A static table, because
# ``complexkit/__init__`` imports every module, so which modules a fresh
# interpreter has loaded after one import says nothing about that module.
IMPORTS = {
    "_shared": set(),
    "grid": {"_shared"},
    "automaton": {"_shared", "grid"},
    "patterns": {"automaton", "grid"},
    "complexity": {"_shared", "grid"},
    "dynamics": {"_shared"},
    "cas": {"_shared", "grid"},
    "scenario": {"_shared", "cas", "grid"},
    "evolution": {"_shared"},
    "coevolve": {"_shared", "cas", "evolution"},
    "cli": {"_shared", "automaton", "complexity", "coevolve", "dynamics", "evolution", "grid",
            "patterns", "scenario"},
    "__init__": {"automaton", "cas", "complexity", "coevolve", "dynamics", "evolution", "grid",
                 "patterns", "scenario"},
}


def _package_imports(tree: ast.Module) -> set[str]:
    """The complexkit modules that ``tree`` imports, relatively or not."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ("complexkit" if node.level else "", node.module)))
            names = [module]
            if module == "complexkit":  # from . import name
                names = [f"complexkit.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("complexkit.")}
    return found


def test_each_module_imports_only_the_modules_in_its_row():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(complexkit.__file__).parent.glob("*.py")}
    assert {name: _package_imports(tree) for name, tree in trees.items()} == IMPORTS


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in Path(complexkit.__file__).parent.glob("*.py")}


# The ``_``-prefixed names that a module takes from another complexkit
# module, the leaf ``_shared`` aside: module -> {source module: names}.
# Each is a decision that the source owns and that the importer builds on
# directly (the automaton steps ``grid``'s packed layout up to its density
# cut-off ``_SPARSE``, the codecs build and read it a row at a time, the
# CLI moves a decoded layout to the hex lattice, the census keys states by
# ``grid``'s ``_state_keys``, and the CLI checks ``--scales`` as the census
# does).
PRIVATE_IMPORTS = {
    "automaton": {"grid": {"_SPARSE", "_decode", "_layout", "_pack", "_relayout", "_ring"}},
    "cli": {"complexity": {"_check_scales"}, "grid": {"_layout"}},
    "complexity": {"grid": {"_state_keys"}},
    "patterns": {"grid": {"_from_runs", "_layout", "_row_runs"}},
}


def test_private_names_cross_modules_only_where_pinned():
    found: dict[str, dict[str, set[str]]] = {}
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level and node.module != "_shared":
                private = {a.name for a in node.names if a.name.startswith("_")}
                if private:
                    found.setdefault(name, {}).setdefault(node.module, set()).update(private)
    assert found == PRIVATE_IMPORTS


def test_only_shared_and_grid_use_operator_index():
    # ``_shared.as_integer`` is the one count check; ``grid`` also takes
    # each ``Grid`` coordinate pair through ``operator.index``, per cell.
    users = set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator":
                found = any(a.name == "index" for a in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                found = (node.value.id, node.attr) == ("operator", "index")
            else:
                continue
            if found:
                users.add(name)
    assert users == {"_shared", "grid"}


def test_only_shared_reads_float_info_and_only_shared_and_grid_catch_a_type_error():
    # ``_shared.as_finite`` is the one finite-number check and
    # ``as_integer`` turns a count's TypeError into a ValueError; ``grid``
    # also catches one for each ``Grid`` coordinate pair, per cell.
    float_info, type_error = set(), set()
    for name, tree in _trees().items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "float_info"
                    or isinstance(node, ast.alias) and node.name == "float_info"):
                float_info.add(name)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                if any(isinstance(t, ast.Name) and t.id == "TypeError" for t in caught):
                    type_error.add(name)
    assert float_info == {"_shared"}
    assert type_error == {"_shared", "grid"}


def test_only_grid_reads_a_grids_internal_store():
    readers = {name for name, tree in _trees().items() for node in ast.walk(tree)
               if isinstance(node, ast.Attribute) and node.attr in ("_packed", "_cells")}
    assert readers == {"grid"}


def test_each_shared_helper_is_defined_in_one_module():
    homes = {"ScenarioError": "_shared", "checked": "_shared", "as_integer": "_shared",
             "as_finite": "_shared", "weighted_index": "_shared",
             "coarse_grain": "grid", "_anchor_mask": "grid", "_any_blocks": "grid",
             "_state_keys": "grid", "run_scenario": "cas"}
    for path in Path(complexkit.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in homes:
                assert homes[node.name] == path.stem, node.name


def test_moved_names_are_re_exported_as_one_object():
    assert complexkit.coarse_grain is complexity.coarse_grain is grid.coarse_grain
    assert complexkit.ScenarioError is scenario.ScenarioError is _shared.ScenarioError
    assert dynamics.weighted_index is _shared.weighted_index
    assert complexkit.run_scenario is scenario.run_scenario is cas.run_scenario


def test_every_traced_attribute_exists():
    for dotted in TRACED:
        module, *path = dotted.split(".")
        target = importlib.import_module(f"complexkit.{module}")
        for attr in path:
            target = getattr(target, attr)
        assert callable(target), dotted


def test_evolve_calls_the_operators_through_the_module(monkeypatch):
    """A wrapper bound on the module is what evolve calls, so the traced
    evolution.select/crossover/mutate times measure the run."""
    calls = {}
    for name in ("select", "crossover", "mutate"):
        def counted(*args, _name=name, _fn=getattr(evolution, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(evolution, name, counted)
    cfg = evolution.EvolutionConfig(genome_length=6, population_size=6, generations=3,
                                    mutation_rate=0.1, crossover_rate=1.0, seed=2)
    evolution.evolve(cfg, lambda genome: float(genome.count("1")))
    # Three generations of five children each (one elite), bred in pairs.
    assert calls == {"select": 3 * 3, "crossover": 3 * 3, "mutate": 3 * 5}
