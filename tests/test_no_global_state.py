"""No module-global state: no module of baire_lab rebinds a module global
through a `global` statement.  Reuse across calls goes through functools
caches on value keys, whose traffic cache_info() reads.  Each such cache is
bounded, so that no input makes an unbounded allocation; only a cache of a
function without arguments, which holds one entry, may leave maxsize None."""

import ast
import importlib
import inspect
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


def _module_caches():
    """(module.name, function) of every functools cache defined at module
    level in baire_lab."""
    for module in MODULES:
        short = module[:-len(".py")]
        name = "baire_lab" if short == "__init__" else "baire_lab." + short
        for attr, value in vars(importlib.import_module(name)).items():
            if hasattr(value, "cache_info") and getattr(value, "__module__", None) == name:
                yield "%s.%s" % (short, attr), value


def test_value_keyed_caches_are_bounded():
    caches = dict(_module_caches())
    assert {"baire._chains", "cli._parser", "hi._row", "tsirelson._built",
            "vectors.residue_table", "verify._kept_chain"} <= set(caches)
    for name, cached in caches.items():
        if inspect.signature(cached.__wrapped__).parameters:
            assert cached.cache_info().maxsize is not None, name
