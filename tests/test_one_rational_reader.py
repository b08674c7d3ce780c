"""The one-reader guardrail: outside rationals are read by vectors.to_fraction
alone, so a zero denominator is one ValueError with one message shape.
Every except clause that names ZeroDivisionError in a library module is
found, with the function around it, and the only one is to_fraction's.

cli.py is exempt: its own reader, cli._rational, keeps the CLI's messages."""

import ast
import glob
import os

import baire_lab

PACKAGE = os.path.dirname(baire_lab.__file__)
EXEMPT = ["cli"]
MODULES = [
    module for module in sorted(
        os.path.basename(path)[:-len(".py")] for path in glob.glob(os.path.join(PACKAGE, "*.py")))
    if module not in EXEMPT
]


def _names(expr):
    if isinstance(expr, ast.Tuple):
        for elt in expr.elts:
            yield from _names(elt)
    elif isinstance(expr, ast.Name):
        yield expr.id
    elif isinstance(expr, ast.Attribute):
        yield expr.attr


def _zero_division_handlers(tree):
    """(enclosing function name or None, line) of each except clause that
    names ZeroDivisionError."""
    found = []

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                if "ZeroDivisionError" in _names(child.type):
                    found.append((func, child.lineno))
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            walk(child, inner)

    walk(tree, None)
    return found


def _parse(module):
    path = os.path.join(PACKAGE, module + ".py")
    with open(path) as fh:
        return ast.parse(fh.read(), path)


def test_only_to_fraction_catches_zero_division():
    found = [(module, func) for module in MODULES
             for func, _ in _zero_division_handlers(_parse(module))]
    assert found == [("vectors", "to_fraction")]


def test_zero_division_handlers_are_found():
    source = (
        "def f(p):\n"
        "    try:\n"
        "        return Fraction(p)\n"
        "    except ZeroDivisionError:\n"
        "        raise ValueError(p)\n"
        "class C:\n"
        "    def g(self):\n"
        "        try:\n"
        "            pass\n"
        "        except (TypeError, builtins.ZeroDivisionError):\n"
        "            pass\n"
        "        except ValueError:\n"
        "            pass\n"
        "try:\n"
        "    pass\n"
        "except ZeroDivisionError:\n"
        "    pass\n"
    )
    assert _zero_division_handlers(ast.parse(source)) == [("f", 4), ("g", 10), (None, 16)]
