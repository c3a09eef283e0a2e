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
leave a stale export behind.  ``elliptic`` has one modulus convention:
no public function of it takes a parameter ``k`` (each is keyed by
k' = ``kp``), and only ``wave`` and ``linops`` import it.  A process
that classifies, builds a wave and evolves on the exact basis never
imports ``scipy.linalg``, which only the finite-difference oracles and
the ``fd`` scheme need.  Every
``cli.*``, ``stability.*`` and ``wave.*`` name the benchmark's workloads
and self-tests read exists, as this suite never imports them.
"""

import ast
import os
import re
import subprocess
import sys
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


ELLIPTIC_READERS = {"wave.py", "linops.py"}


def k_keyed_functions(source: str) -> list[str]:
    """Public module-level functions with a parameter named ``k``."""
    return [
        f"{node.name} (line {node.lineno})"
        for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_")
        and "k" in {a.arg for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs}
    ]


def imports_elliptic(source: str) -> bool:
    """Whether the source imports the elliptic module or a name from it."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            modules = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if any(m.split(".")[-1] == "elliptic" for m in modules):
            return True
    return False


def test_elliptic_is_keyed_by_the_complementary_modulus():
    assert k_keyed_functions((SRC / "elliptic.py").read_text(encoding="utf-8")) == []


def test_elliptic_is_read_only_by_wave_and_linops():
    readers = {p.name for p in MODULES if imports_elliptic(p.read_text(encoding="utf-8"))}
    assert readers <= ELLIPTIC_READERS


def test_modulus_detectors():
    source = (
        "def f(u, kp):\n    pass\n"
        "def g(u, k):\n    pass\n"
        "def h(*, k=0.5):\n    pass\n"
        "def _private(k):\n    pass\n"
    )
    assert k_keyed_functions(source) == ["g (line 3)", "h (line 5)"]
    assert imports_elliptic("from . import elliptic\n")
    assert imports_elliptic("from .elliptic import complete_K\n")
    assert imports_elliptic("import nlsdelta.elliptic\n")
    assert not imports_elliptic("from . import wave\nfrom .wave import Orbit\n")



def test_classify_build_and_exact_evolve_need_no_scipy_linalg():
    code = (
        "import sys\n"
        "import nlsdelta.cli\n"
        "from nlsdelta import evolve, stability, wave\n"
        "params = wave.WaveParams(20.0, -1.0, 1.0)\n"
        "stability.classify(params)\n"
        "wave.build_profile(params, n=256).samples\n"
        "evolve.run_experiment(params, 'even:1e-3', T=1e-3, dt=1e-3, n=256)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy.linalg')))\n"
    )
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"

BENCHMARK_READERS = ("workloads.py", "test_perfbench.py")


def package_attributes(source: str, modules: set[str]) -> set[tuple[str, str]]:
    """(module, attribute) of every ``module.attribute`` read whose module is in ``modules``."""
    return {
        (node.value.id, node.attr)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }


def test_names_the_benchmark_reads_exist():
    # the benchmark is not imported by this suite, so a deleted name would fail only there
    from nlsdelta import cli, stability, wave

    modules = {"cli": cli, "stability": stability, "wave": wave}
    read = set().union(*(
        package_attributes((ROOT / "perfbench" / name).read_text(encoding="utf-8"), set(modules))
        for name in BENCHMARK_READERS
    ))
    assert {("cli", "main"), ("wave", "build_profile"), ("stability", "slope")} <= read
    assert sorted(f"{m}.{a}" for m, a in read if not hasattr(modules[m], a)) == []


def test_attribute_reader():
    source = "from nlsdelta import wave\nwave.period_plus(1)\nx = wave.WaveParams\nother.slope\n"
    assert package_attributes(source, {"wave", "stability"}) == {
        ("wave", "period_plus"), ("wave", "WaveParams")}
