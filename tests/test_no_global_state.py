"""No module-global state: no module of baire_lab rebinds a module global
through a `global` statement.  Reuse across calls goes through functools
caches on value keys, whose traffic cache_info() reads."""

import ast
import os

import pytest

import baire_lab

SRC = os.path.dirname(baire_lab.__file__)
MODULES = sorted(name for name in os.listdir(SRC) if name.endswith(".py"))


def _global_statements(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            yield node.lineno, "global %s" % ", ".join(node.names)


@pytest.mark.parametrize("module", MODULES)
def test_no_global_statement(module):
    path = os.path.join(SRC, module)
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    assert list(_global_statements(tree)) == []


def test_global_statements_are_found():
    source = (
        "_slot = None\n"
        "def f():\n"
        "    global _slot\n"
        "    _slot = 1\n"
        "class C:\n"
        "    def g(self):\n"
        "        global a, b\n"
    )
    assert list(_global_statements(ast.parse(source))) == [(3, "global _slot"), (7, "global a, b")]
