"""Source hygiene, parsed with the standard-library ast module (no linter needed).

Every name a package module imports is used or re-exported;
``__init__.py`` is exempt, its imports are the package's re-exports.
Every ``raise`` in the package raises an ``NlsDeltaError`` subclass, so
the CLI maps each failure to a typed exit code; ``elliptic.py`` is
exempt, its wrappers raise ``ValueError`` as their tests pin.
"""

import ast
from pathlib import Path

import pytest

from nlsdelta import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "nlsdelta"
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
