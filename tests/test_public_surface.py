"""The public surface: the package's __all__, the CLI contract, and the
names the benchmark's tracer (bench/tracer.py) wraps.

Every name in __all__, every public function and class defined at module
level in the package, and every public method and property of a public
class of the package, has a caller outside tests/: the package's own
modules, a demo or the benchmark reads it (a member only through
attribute access), or it is a command handler (cmd_*), an oracle
(ORACLES), named only by the tracer's LAYERS strings (TRACER_HELD) or
held by a reference module (REFERENCE_HELD).

Both stay stable, or their changes are recorded in CHANGES.md; a change
here is a change of that contract, not a refactor.
"""

import ast
import functools
import glob
import importlib
import inspect
import os
import sys

import baire_lab
from baire_lab import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import tracer  # noqa: E402

PUBLIC_NAMES = [
    "BaireParams", "BaseNorm", "ExperimentReport", "FiniteBlockSequence",
    "FiniteTree", "INCOMPARABLE", "NormValue", "STANDARD", "Segment",
    "TreeVector", "ZERO", "baire_norm", "baire_norm_oracle",
    "chain_tree", "comb_tree",
    "completely_incomparable", "dg_lower_bound", "dg_upper_bound",
    "enumeration_index", "ground_norm",
    "linear_combination", "make_tree", "random_tree", "rank",
    "run_branch_isometry", "run_hi_suite", "run_tsirelson_suite",
    "schedule", "star_tree", "strict_singularity_witness",
    "tsirelson_iterate", "tsirelson_norm",
]

# public names kept as references for the fast paths, with tests as callers
ORACLES = {"baire_norm_oracle"}

# public functions that only bench/tracer.py's LAYERS strings name: the
# tracer wraps them by name, and no code reads them
TRACER_HELD = {"nth_root_bounds", "verify_lemma_II1"}

# public methods whose only reader is a reference module under tests/, which
# stays unchanged: tests/baire_reference.py reads FiniteTree.children
REFERENCE_HELD = {("FiniteTree", "children")}


def _choices(parser, dest):
    """The choices of the argument (or subcommand) of parser stored in dest."""
    (action,) = [a for a in parser._actions if a.dest == dest]
    return action.choices


def _options(parser):
    """The sorted option strings of parser, without -h and --help."""
    return sorted(o for a in parser._actions if a.dest != "help" for o in a.option_strings)


def test_all_is_pinned_and_resolves():
    assert len(PUBLIC_NAMES) == 32
    assert sorted(baire_lab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(baire_lab, name) is not None, name


def test_cli_commands_are_pinned():
    parser = cli.build_parser()
    commands = _choices(parser, "command")
    assert sorted(commands) == ["baire", "gen", "ground", "hi", "rank", "tsirelson", "verify"]
    assert sorted(_choices(commands["hi"], "hi_command")) == ["schedule", "witness"]
    assert list(_choices(commands["verify"], "suite")) == ["branch", "tsirelson", "hi"]
    # each gen shape and each verify suite takes only the flags it reads
    shapes = {name: _options(p) for name, p in _choices(commands["gen"], "shape").items()}
    assert shapes == {
        "chain": ["--n", "--out"],
        "star": ["--base-label", "--n", "--out"],
        "comb": ["--n", "--out"],
        "random": ["--max-branch", "--max-nodes", "--out", "--seed"],
    }
    suites = {name: _options(p) for name, p in _choices(commands["verify"], "suite").items()}
    assert suites == {
        "branch": ["--cases", "--max-len", "--out", "--seed"],
        "tsirelson": ["--cases", "--out", "--seed"],
        "hi": ["--out", "--pairs"],
    }


def test_every_command_has_its_handler():
    # main dispatches through globals()["cmd_" + command], so a stray or a
    # missing handler would show only at run time
    handlers = {name[len("cmd_"):] for name, f in vars(cli).items()
                if name.startswith("cmd_") and callable(f)}
    assert handlers == set(_choices(cli.build_parser(), "command"))


def test_tracer_names_resolve():
    # the tracer looks each name up with no default, so a name gone from
    # src/ would crash every traced benchmark run
    names = list(tracer.LAYERS) + list(tracer.CONSTRUCTORS)
    assert names
    for module, attribute in names:
        assert hasattr(importlib.import_module("baire_lab." + module), attribute), attribute


def _caller_files():
    """The package's modules but __init__.py, the demos, and the
    benchmark's modules but its tests."""
    package = sorted(glob.glob(os.path.join(ROOT, "src", "baire_lab", "*.py")))
    return (
        [f for f in package if os.path.basename(f) != "__init__.py"]
        + sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))
        + [f for f in sorted(glob.glob(os.path.join(ROOT, "bench", "*.py")))
           if not os.path.basename(f).startswith("test_")]
    )


def _public_definitions():
    """(name, value) of every public function and class defined at module
    level in the package."""
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "baire_lab", "*.py"))):
        module = importlib.import_module("baire_lab." + os.path.basename(path)[:-3])
        for name, value in vars(module).items():
            if ((inspect.isfunction(value) or inspect.isclass(value))
                    and value.__module__ == module.__name__ and not name.startswith("_")):
                yield name, value


def _public_members():
    """(class name, member name) of every public method and property of
    every public class defined in the package."""
    for name, cls in _public_definitions():
        if not inspect.isclass(cls):
            continue
        for member, value in vars(cls).items():
            if not member.startswith("_") and (inspect.isfunction(value) or isinstance(
                    value, (property, functools.cached_property, staticmethod, classmethod))):
                yield name, member


def test_every_public_name_has_a_caller():
    # a name is read where it shows as a Name, an Attribute or a name
    # imported from a module; a definition alone is not a caller.  A
    # member is read only as an Attribute: a local variable of the same
    # name does not read it
    read, attributes = set(), set()
    for path in _caller_files():
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    read |= attributes
    assert sorted(set(baire_lab.__all__) - read - ORACLES) == []
    definitions = {name for name, _ in _public_definitions()}
    handlers = {name for name in definitions if name.startswith("cmd_")}
    assert "ground_norm" in definitions and TRACER_HELD <= definitions
    # a held function stays named by the tracer, and one that gains a
    # reader leaves the set
    assert TRACER_HELD <= {attribute for _, attribute in tracer.LAYERS}
    assert sorted(TRACER_HELD & read) == []
    assert sorted(definitions - read - handlers - ORACLES - TRACER_HELD) == []
    members = set(_public_members())
    assert ("FiniteTree", "index") in members and REFERENCE_HELD <= members
    # a held member that gains a reader leaves the set
    assert sorted(m for m in REFERENCE_HELD if m[1] in attributes) == []
    assert sorted(m for m in members - REFERENCE_HELD if m[1] not in attributes) == []
