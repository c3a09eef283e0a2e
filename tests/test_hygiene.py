"""Source hygiene, parsed with the standard-library ast module (no linter needed).

Every name a package module imports is used or re-exported;
``__init__.py`` is exempt, its imports are the package's re-exports.
Every ``raise`` in the package raises an ``NlsDeltaError`` subclass, so
the CLI maps each failure to a typed exit code; ``elliptic.py`` is
exempt, its wrappers raise ``ValueError`` as their tests pin.  Every
function, class and method the package defines is referenced somewhere
in ``src/``, ``tests/`` or ``perfbench/``, by name, attribute or inside
a string that is neither a docstring nor an ``__all__`` entry; dunder
methods are exempt, Python calls them.  Every ``__all__`` entry names a
function, class or assignment of its own module, so a deletion cannot
leave a stale export behind.
"""

import ast
import re
from pathlib import Path

import pytest

from nlsdelta import errors

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "nlsdelta"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
TYPED = {
    name
    for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.NlsDeltaError)
}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Bound name -> line of every import, ``from __future__`` excluded."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = exported_names(tree)
    return [
        f"{name} (line {line})"
        for name, line in imported_names(tree).items()
        if name not in used and name not in exported
    ]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_detector_flags_unused_and_spares_used_or_exported():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from typing import Optional, Sequence\n"
        "from .errors import NumericsError\n"
        "__all__ = ['NumericsError']\n"
        "def f(x: Optional[int]) -> float:\n"
        "    return math.pi\n"
    )
    assert unused_imports(source) == ["os (line 3)", "Sequence (line 4)"]


def untyped_raises(source: str) -> list[str]:
    """Every raise whose exception is not named in TYPED (bare re-raises included)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = getattr(exc, "id", getattr(exc, "attr", None))
            if name not in TYPED:
                found.append(f"{name} (line {node.lineno})")
    return found


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "elliptic.py"], ids=lambda p: p.name
)
def test_raises_are_typed(path):
    assert untyped_raises(path.read_text(encoding="utf-8")) == []


def test_raise_detector_flags_untyped():
    source = (
        "def f(x):\n"
        "    if x:\n"
        "        raise AdmissibilityError(f'bad {x}')\n"
        "    try:\n"
        "        g()\n"
        "    except KeyError as exc:\n"
        "        raise errors.NumericsError('lost') from exc\n"
        "    raise ValueError('odd')\n"
    )
    assert untyped_raises(source) == ["ValueError (line 8)"]


def _unreferencing_strings(tree: ast.Module) -> set[int]:
    """ids of the docstrings and ``__all__`` entries of a module."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    found = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, scopes)
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            found.update(id(e) for e in ast.walk(node.value))
    return found


def referenced_names(sources: list[str]) -> set[str]:
    """Names, attributes and identifier tokens of strings that are not
    docstrings or ``__all__`` entries."""
    refs: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        docs = _unreferencing_strings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                if id(node) not in docs:
                    refs.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return refs


def unreferenced_definitions(source: str, refs: set[str]) -> list[str]:
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, kinds)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in refs
    ]


def test_no_dead_definitions():
    sources = [
        p.read_text(encoding="utf-8")
        for d in ("src", "tests", "perfbench")
        for p in sorted((ROOT / d).rglob("*.py"))
    ]
    refs = referenced_names(sources)
    dead = {
        path.name: found
        for path in MODULES
        if (found := unreferenced_definitions(path.read_text(encoding="utf-8"), refs))
    }
    assert dead == {}


def module_definitions(tree: ast.Module) -> set[str]:
    """Names a module binds at its top level by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def stale_exports(source: str) -> list[str]:
    tree = ast.parse(source)
    return sorted(exported_names(tree) - module_definitions(tree))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_exports_are_defined_in_their_module(path):
    assert stale_exports(path.read_text(encoding="utf-8")) == []


def test_stale_export_detector():
    source = (
        "from .errors import NumericsError\n"
        "LIMIT = 1.0\n"
        "TOL: float = 1e-9\n"
        "class A:\n"
        "    def method(self):\n"
        "        pass\n"
        "def f():\n"
        "    inner = 1\n"
        "__all__ = ['A', 'f', 'LIMIT', 'TOL', 'NumericsError', 'method', 'inner', 'gone']\n"
    )
    assert stale_exports(source) == ["NumericsError", "gone", "inner", "method"]


def test_dead_definition_detector():
    source = (
        "class A:\n"
        "    \"\"\"Mentions unused_in_doc.\"\"\"\n"
        "    def __init__(self):\n"
        "        self.kept = helper()\n"
        "    def by_attr(self):\n"
        "        pass\n"
        "    def unused_in_doc(self):\n"
        "        pass\n"
        "def helper():\n"
        "    return A().by_attr\n"
        "def named_in_string():\n"
        "    pass\n"
        "def only_exported():\n"
        "    pass\n"
        "SPANS = ('mod.named_in_string',)\n"
        "__all__ = ['A', 'only_exported']\n"
    )
    refs = referenced_names([source])
    assert sorted(unreferenced_definitions(source, refs)) == [
        "only_exported (line 13)",
        "unused_in_doc (line 7)",
    ]
