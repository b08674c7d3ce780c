"""The no-floating-point guardrail: every module of the package contains
no float literal, no float() call, no float function of math (sqrt, cbrt,
pow, log, log2, log10, exp, exp2, hypot, fsum) and no import of decimal.

verify.py alone is exempt: its seeded case draws compare rng.random()
with a float literal, and the pinned suite digests depend on those draws;
no value it reports is computed in floating point."""

import ast
import glob
import os

import pytest

import baire_lab

PACKAGE = os.path.dirname(baire_lab.__file__)
EXEMPT = ["verify"]
MODULES = [
    module for module in sorted(
        os.path.basename(path)[:-len(".py")] for path in glob.glob(os.path.join(PACKAGE, "*.py")))
    if module not in EXEMPT
]
MATH_FLOATS = {"sqrt", "cbrt", "pow", "log", "log2", "log10", "exp", "exp2", "hypot", "fsum"}


def _parse(module):
    path = os.path.join(PACKAGE, module + ".py")
    with open(path) as fh:
        return ast.parse(fh.read(), path)


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
    assert list(_float_uses(_parse(module))) == []


def test_the_exemption_is_the_seeded_draw():
    # verify.py's one float is the draw's threshold; anything more there
    # is a float in a computation path
    for module in EXEMPT:
        assert [what for _, what in _float_uses(_parse(module))] == ["float literal 0.8"]


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
