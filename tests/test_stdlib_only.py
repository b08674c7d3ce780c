"""The standard-library guardrail: every import in baire_lab names
baire_lab itself or a module of the standard library."""

import ast
import glob
import os
import sys

import pytest

import baire_lab

SOURCES = sorted(glob.glob(os.path.join(os.path.dirname(baire_lab.__file__), "*.py")))


def _foreign_imports(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            # a relative import stays inside the package
            continue
        for name in names:
            top = name.partition(".")[0]
            if top != "baire_lab" and top not in sys.stdlib_module_names:
                yield node.lineno, name


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_imports_are_stdlib_or_own(path):
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert list(_foreign_imports(tree)) == []


def test_foreign_imports_are_found():
    source = (
        "import json, numpy\nimport os.path\nfrom fractions import Fraction\n"
        "from baire_lab.trees import rank\nfrom . import vectors\n"
        "from sympy.core import Rational\nimport hypothesis.strategies as st\n"
    )
    found = [name for _, name in _foreign_imports(ast.parse(source))]
    assert found == ["numpy", "sympy.core", "hypothesis.strategies"]
