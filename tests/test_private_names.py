"""Tests reach the operator modules and the frontend through their public
names.

Every ``tests/*.py`` is read with :mod:`ast`.  A private name of
``mialib.mia_ops``, ``mialib.ia_ops``, ``mialib.dmts_ops`` or
``mialib.frontend`` counts as used when a file imports it, reads it as
``module._name``, or names it to a ``setattr``-like call on the module or
in a dotted ``"mialib.mia_ops._name"`` target.  The uses must equal the
grants of ``PRIVATE_OPERATOR_NAMES`` and ``PRIVATE_FRONTEND_NAMES`` in
``tests/conftest.py``.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

from conftest import PRIVATE_FRONTEND_NAMES, PRIVATE_OPERATOR_NAMES

TESTS = Path(__file__).parent
MODULES = ("mia_ops", "ia_ops", "dmts_ops")
PATCHERS = {"setattr", "getattr", "delattr", "hasattr"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def _private_operator_names(tree: ast.AST) -> set[str]:
    """Each private operator name the module ``tree`` uses, as
    ``"mia_ops._name"``."""
    return _private_names(tree, MODULES)


def _private_frontend_names(tree: ast.AST) -> set[str]:
    """Each private name of ``mialib.frontend`` the module ``tree`` uses,
    as ``"frontend._name"``."""
    return _private_names(tree, ("frontend",))


def _private_names(tree: ast.AST, modules: tuple[str, ...]) -> set[str]:
    """Each private name of the ``mialib`` submodules ``modules`` that the
    module ``tree`` uses, as ``"module._name"``."""
    dotted = re.compile(r"mialib\.(%s)\.(\w+)" % "|".join(modules))
    aliases = {}   # local name -> one of ``modules``, or "mialib"
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] != "mialib":
                    continue
                if alias.asname is None:
                    aliases["mialib"] = "mialib"
                elif len(parts) == 2 and parts[1] in modules:
                    aliases[alias.asname] = parts[1]
        elif isinstance(node, ast.ImportFrom) and node.module:
            parts = node.module.split(".")
            for alias in node.names:
                if parts == ["mialib"] and alias.name in modules:
                    aliases[alias.asname or alias.name] = alias.name
                elif (len(parts) == 2 and parts[0] == "mialib"
                      and parts[1] in modules and _private(alias.name)):
                    used.add(f"{parts[1]}.{alias.name}")

    def module_of(expr: ast.expr) -> str | None:
        if isinstance(expr, ast.Name):
            module = aliases.get(expr.id)
            return module if module in modules else None
        if (isinstance(expr, ast.Attribute) and expr.attr in modules
                and isinstance(expr.value, ast.Name)
                and aliases.get(expr.value.id) == "mialib"):
            return expr.attr
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            module = module_of(node.value)
            if module:
                used.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.Call) and len(node.args) >= 2:
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None)
            target, attr = node.args[:2]
            module = module_of(target)
            if (name in PATCHERS and module and isinstance(attr, ast.Constant)
                    and isinstance(attr.value, str) and _private(attr.value)):
                used.add(f"{module}.{attr.value}")
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            match = dotted.fullmatch(node.value)
            if match and _private(match[2]):
                used.add(f"{match[1]}.{match[2]}")
    return used


def _ungranted_and_stale(scan, grants: dict) -> tuple[dict, dict]:
    """The uses ``scan`` finds in the test files that ``grants`` does not
    list, and the grants no file uses, each by file name."""
    used = {}
    for path in sorted(TESTS.glob("*.py")):
        names = scan(ast.parse(path.read_text(encoding="utf-8")))
        if names:
            used[path.name] = names
    granted = {name: set(names) for name, names in grants.items()}
    unlisted = {name: sorted(names - granted.get(name, set()))
                for name, names in used.items()
                if names - granted.get(name, set())}
    stale = {name: sorted(names - used.get(name, set()))
             for name, names in granted.items()
             if names - used.get(name, set())}
    return unlisted, stale


def test_tests_use_only_the_granted_private_operator_names():
    unlisted, stale = _ungranted_and_stale(_private_operator_names,
                                           PRIVATE_OPERATOR_NAMES)
    assert not unlisted, ("private operator names not granted in "
                          f"tests/conftest.py: {unlisted}")
    assert not stale, f"grants in tests/conftest.py no test uses: {stale}"


def test_tests_use_only_the_granted_private_frontend_names():
    unlisted, stale = _ungranted_and_stale(_private_frontend_names,
                                           PRIVATE_FRONTEND_NAMES)
    assert not unlisted, ("private frontend names not granted in "
                          f"tests/conftest.py: {unlisted}")
    assert not stale, f"grants in tests/conftest.py no test uses: {stale}"


@pytest.mark.parametrize("source", [
    "from mialib.mia_ops import _step",
    "from mialib.mia_ops import public, _step as step",
    "from mialib import mia_ops\nmia_ops._step",
    "from mialib import mia_ops as ops\nops._step.__init__",
    "import mialib.mia_ops as ops\nops._step",
    "import mialib.mia_ops\nmialib.mia_ops._step",
    "from mialib import mia_ops\nmonkeypatch.setattr(mia_ops, '_step', 1)",
    "from mialib import mia_ops\nm.setattr(mia_ops, '_step', 1)",
    "from mialib import mia_ops\ngetattr(mia_ops, '_step')",
    "monkeypatch.setattr('mialib.mia_ops._step', 1)",
])
def test_the_scan_finds_each_form_of_use(source):
    assert _private_operator_names(ast.parse(source)) == {"mia_ops._step"}


@pytest.mark.parametrize("source", [
    "from mialib.mia_ops import mia_conjoin, IncompatibilitySet",
    "from mialib import mia_ops\nmia_ops.mia_conjoin, mia_ops.__name__",
    "from mialib import model\nmodel._pair_of",
    "from mialib import mia_ops\nmonkeypatch.setattr(mia_ops, 'explore_pairs', 1)",
    "mia_ops = object()\nmia_ops._step",
    "from mialib import mia_ops\nmia_ops.mia_conjoin(p, q)._step",
])
def test_the_scan_passes_public_and_other_uses(source):
    assert _private_operator_names(ast.parse(source)) == set()


@pytest.mark.parametrize("source", [
    "from mialib.frontend import parse, _Parser",
    "from mialib import frontend\nfrontend._Parser(text)",
    "import mialib.frontend as fe\nfe._Parser",
    "from mialib import frontend\nmonkeypatch.setattr(frontend, '_Parser', 1)",
    "monkeypatch.setattr('mialib.frontend._Parser', 1)",
])
def test_the_frontend_scan_finds_each_form_of_use(source):
    assert _private_frontend_names(ast.parse(source)) == {"frontend._Parser"}
    assert _private_operator_names(ast.parse(source)) == set()


@pytest.mark.parametrize("source", [
    "from mialib.frontend import parse_document, SourceDocument",
    "from mialib import frontend\nfrontend.parse(text)._spans",
    "from mialib.mia_ops import _step",
    "from mialib import mia_ops\nmia_ops._step",
])
def test_the_frontend_scan_passes_public_and_other_uses(source):
    assert _private_frontend_names(ast.parse(source)) == set()
