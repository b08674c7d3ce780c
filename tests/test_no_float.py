"""The no-floating-point guardrail: the computation modules contain no
float literal, no float() call, no float function of math (sqrt, cbrt,
pow, log, log2, log10, exp, exp2, hypot, fsum) and no import of decimal."""

import ast
import os

import pytest

import baire_lab

MODULES = ("trees", "vectors", "baire", "tsirelson", "hi", "sequences")
MATH_FLOATS = {"sqrt", "cbrt", "pow", "log", "log2", "log10", "exp", "exp2", "hypot", "fsum"}


def _float_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, "float literal %r" % (node.value,)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float()"
        elif (isinstance(node, ast.Attribute) and node.attr in MATH_FLOATS
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, "math.%s" % node.attr
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH_FLOATS:
                    yield node.lineno, "from math import %s" % alias.name
        elif isinstance(node, ast.ImportFrom) and node.module == "decimal":
            yield node.lineno, "from decimal import"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "decimal":
                    yield node.lineno, "import decimal"


@pytest.mark.parametrize("module", MODULES)
def test_no_float_in_computation_modules(module):
    path = os.path.join(os.path.dirname(baire_lab.__file__), module + ".py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert list(_float_uses(tree)) == []


def test_float_uses_are_found():
    source = "import math\nfrom math import sqrt\nx = 0.5 + float(2) + math.log(3)\n"
    found = [what for _, what in _float_uses(ast.parse(source))]
    assert sorted(found) == ["float literal 0.5", "float()", "from math import sqrt", "math.log"]
    source = (
        "import math, decimal\nfrom decimal import Decimal\nfrom math import cbrt, fsum, isqrt\n"
        "y = math.cbrt(8) + math.exp2(3) + math.log2(8) + math.log10(10) + math.hypot(3, 4)\n"
    )
    found = [what for _, what in _float_uses(ast.parse(source))]
    assert sorted(found) == [
        "from decimal import", "from math import cbrt", "from math import fsum", "import decimal",
        "math.cbrt", "math.exp2", "math.hypot", "math.log10", "math.log2",
    ]
