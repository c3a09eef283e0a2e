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
k' = ``kp``), and only ``wave`` and ``linops`` import it.  No package
module names ``ellipj``, and ``elliptic`` reads nothing from
``scipy.special``: its integrals are summed on ``math`` alone.  A process
that classifies, builds a wave and evolves on the exact basis imports no
``scipy`` module at all; only ``spectrum`` (the finite-difference
oracles, through ``scipy.linalg``), the ``fd`` scheme and the tests need
scipy.  Every
``cli.*``, ``stability.*`` and ``wave.*`` name the benchmark's workloads
and self-tests read exists, as this suite never imports them.  No package
module imports ``concurrent.futures`` or ``multiprocessing``: a cell costs
less than its round trip to a worker, so a pool comes back only with a
benchmark workload that shows it winning.  ``delta_op.py`` has no
``while`` loop: every defect-mode root has a bracket known in closed form.
The numerical core (``elliptic``, ``rootfind``, ``delta_op``, ``wave``)
has no ``try`` statement: no exception steers a computation there.  No
package module calls a function or class of the package at import time
(module body, class bodies, decorators and defaults; the ``__main__``
guard is exempt), so importing the package does no numerics and set-up
time stays the imports' alone.
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



def special_functions_read(source: str) -> set[str]:
    """Names the source reads from scipy.special: imported from it, or attributes of a name
    bound to it (``from scipy import special``, ``import scipy.special as sp``) or of
    ``scipy.special`` itself."""
    tree = ast.parse(source)
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "scipy":
            modules.update(a.asname or a.name for a in node.names if a.name == "special")
        elif isinstance(node, ast.ImportFrom) and node.module == "scipy.special":
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            modules.update(a.asname for a in node.names if a.name == "scipy.special" and a.asname)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            value = node.value
            if isinstance(value, ast.Name) and value.id in modules:
                found.add(node.attr)
            elif (isinstance(value, ast.Attribute) and value.attr == "special"
                  and isinstance(value.value, ast.Name) and value.value.id == "scipy"):
                found.add(node.attr)
    return found


def ellipj_lines(source: str) -> list[int]:
    """Lines that name ellipj anywhere: code, strings or comments."""
    return [i for i, line in enumerate(source.splitlines(), 1) if re.search(r"\bellipj\b", line)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_ellipj(path):
    assert ellipj_lines(path.read_text(encoding="utf-8")) == []


def test_elliptic_reads_nothing_from_scipy_special():
    assert special_functions_read((SRC / "elliptic.py").read_text(encoding="utf-8")) == set()


def test_special_function_detectors():
    source = (
        "import scipy\n"
        "import scipy.special as sp\n"
        "from scipy import special\n"
        "from scipy.special import ellipk\n"
        "special.elliprf(0.0, 1.0, 1.0)\n"
        "sp.ellipkinc(0.5, 0.2)\n"
        "scipy.special.elliprd(1.0, 2.0, 3.0)\n"
        "other.ellipe(0.5)\n"
        "# sn, cn, dn as ellipj gives them\n"
        "name = 'ellipjx'\n"
    )
    assert special_functions_read(source) == {"elliprf", "ellipkinc", "elliprd", "ellipk"}
    assert ellipj_lines(source) == [9]
    assert not special_functions_read("from scipy import linalg\nlinalg.eigh(a)\n")


def test_classify_build_and_exact_evolve_need_no_scipy():
    code = (
        "import sys\n"
        "import nlsdelta.cli\n"
        "from nlsdelta import evolve, stability, wave\n"
        "params = wave.WaveParams(20.0, -1.0, 1.0)\n"
        "stability.classify(params)\n"
        "wave.build_profile(params, n=256).samples\n"
        "evolve.run_experiment(params, 'even:1e-3', T=1e-3, dt=1e-3, n=256)\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    env = os.environ | {"PYTHONPATH": os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


POOL_MODULES = ("concurrent.futures", "multiprocessing")


def pool_imports(source: str) -> list[str]:
    """Every import of a process or thread pool module, or of a name from one, with its line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module or ""] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Import):
            modules = [a.name for a in node.names]
        else:
            continue
        if any(m == pool or m.startswith(pool + ".") for m in modules for pool in POOL_MODULES):
            found.append(f"line {node.lineno}")
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_worker_pool(path):
    assert pool_imports(path.read_text(encoding="utf-8")) == []


def test_pool_import_detector():
    source = (
        "import concurrent.futures\n"
        "from concurrent import futures\n"
        "from concurrent.futures import ProcessPoolExecutor\n"
        "import multiprocessing as mp\n"
        "from multiprocessing.pool import Pool\n"
        "import concurrent\n"
        "from . import multiprocessing_notes\n"
        "import multiprocessingx\n"
    )
    assert pool_imports(source) == [f"line {i}" for i in range(1, 6)]


def while_loops(source: str) -> list[str]:
    """The line of every ``while`` statement."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, ast.While)]


def test_defect_roots_need_no_walk():
    assert while_loops((SRC / "delta_op.py").read_text(encoding="utf-8")) == []


def test_while_detector():
    source = (
        "while x:\n"
        "    x -= 1\n"
        "def f():\n"
        "    while True:\n"
        "        break\n"
        "for while_ in 'while':  # while\n"
        "    pass\n"
    )
    assert while_loops(source) == ["line 1", "line 4"]


def try_statements(source: str) -> list[str]:
    """The line of every ``try`` statement, ``try``/``except*`` included."""
    kinds = tuple(getattr(ast, name) for name in ("Try", "TryStar") if hasattr(ast, name))
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source)) if isinstance(node, kinds)]


@pytest.mark.parametrize("name", ["elliptic.py", "rootfind.py", "delta_op.py", "wave.py"])
def test_numerical_core_is_not_steered_by_exceptions(name):
    assert try_statements((SRC / name).read_text(encoding="utf-8")) == []


def test_try_detector():
    source = (
        "try:\n"
        "    x = 1\n"
        "except ValueError:\n"
        "    pass\n"
        "def f():\n"
        "    try:\n"
        "        return g()\n"
        "    finally:\n"
        "        h()\n"
        "try_ = 'try:'  # try:\n"
    )
    assert try_statements(source) == ["line 1", "line 6"]


def package_definitions(sources: list[str]) -> set[str]:
    """The name of every function and class the given modules define at their top level."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {node.name for source in sources for node in ast.parse(source).body if isinstance(node, kinds)}


def _runs_at_import(nodes: list[ast.stmt]):
    """The expressions of a body that run when it is executed: a function contributes its
    decorators and defaults, a class its bases, decorators and body, and an
    ``if __name__ == "__main__":`` guard nothing."""
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from node.decorator_list
            yield from node.args.defaults
            yield from (d for d in node.args.kw_defaults if d is not None)
        elif isinstance(node, ast.ClassDef):
            yield from node.decorator_list
            yield from node.bases
            yield from node.keywords
            yield from _runs_at_import(node.body)
        elif not (isinstance(node, ast.If) and ast.unparse(node.test) in (
                "__name__ == '__main__'", "'__main__' == __name__")):
            yield node


def import_time_calls(source: str, defined: set[str], modules: set[str]) -> list[str]:
    """Every call, run at import, of a name in ``defined``, bare or read from one of ``modules``."""
    found = []
    for top in _runs_at_import(ast.parse(source).body):
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name) and func.value.id in modules:
                name = func.attr
            else:
                continue
            if name in defined:
                found.append(f"line {node.lineno}: {name}")
    return found


def test_no_numerics_at_import():
    # importing a module runs no function of the package, so set-up time is imports alone
    sources = [p.read_text(encoding="utf-8") for p in MODULES]
    defined, modules = package_definitions(sources), {p.stem for p in MODULES}
    assert {name: import_time_calls(source, defined, modules)
            for name, source in zip((p.name for p in MODULES), sources)} == {p.name: [] for p in MODULES}


def test_import_time_call_detector():
    source = (
        "import math\n"
        "from . import wave\n"
        "TABLE = build(3)\n"                       # flagged: a package function at import
        "ROOT = math.sqrt(2.0)\n"                  # spared: not the package's
        "CELL = wave.solve(1.0)\n"                 # flagged: read from a package module
        "other = [].index(0)\n"                    # spared: an attribute of no package module
        "def f(x=build(1)):\n"                     # flagged: a default runs at import
        "    return build(x)\n"                    # spared: runs when f is called
        "class C:\n"
        "    size = wave.solve(2.0)\n"             # flagged: a class body runs at import
        "    def g(self):\n"
        "        return build(2)\n"                # spared
        "@register(build(4))\n"                    # flagged twice: the decorator and its argument
        "def h():\n"
        "    pass\n"
        "if __name__ == '__main__':\n"
        "    build(5)\n"                           # spared: the __main__ guard
        "if DEBUG:\n"
        "    build(6)\n"                           # flagged: any other module-level branch
    )
    defined = package_definitions(["def build(n): pass\ndef solve(w): pass\ndef register(f): pass\n"])
    assert defined == {"build", "solve", "register"}
    assert import_time_calls(source, defined, {"wave"}) == [
        "line 3: build", "line 5: solve", "line 7: build", "line 10: solve",
        "line 13: register", "line 13: build", "line 19: build"]


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
