"""In-memory span tracer wrapped around the nlsdelta layers from outside.

``Tracer.installed()`` replaces the public functions of each layer with
thin wrappers for the duration of a ``with`` block and restores the
originals afterwards.  A function bound elsewhere by ``from ... import``
(``wave.bisect``, ``stability.build_profile``, ``cli.classify``, ...) is
wrapped at every binding, so calls through the importing module are
seen too.  Nothing inside the package is edited.

Wrapped calls record a span only while an operation is open
(``Tracer.op``); calls made by the benchmark's own output checks run
between operations and are neither timed nor counted.  A span is
``[name, start_ns, end_ns, parent, op]``; self time is the span's
duration minus the durations of its direct children, so the self
times of one operation's spans add up exactly to the operation's wall
time.  The scalar special-function leaves (``jacobi_dn``,
``complete_K``) are counted, not spanned: a span per scalar dn call
would cost more than the call, and their time shows in the caller's
self time (``inverse_dn`` and the period map).
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = (
    ("elliptic", "inverse_dn", "elliptic.inverse_dn"),
    ("rootfind", "bisect", "rootfind.bisect"),
    ("wave", "period_minus", "wave.period"),
    ("wave", "period_plus", "wave.period"),
    ("wave", "solve_eta2", "wave.solve_eta2"),
    ("wave", "build_profile", "wave.build_profile"),
    ("wave", "WaveProfile.diagnostics", "wave.diagnostics"),
    ("stability", "norm_squared", "stability.norm_squared"),
    ("stability", "slope", "stability.slope"),
    ("stability", "classify", "stability.classify"),
    ("delta_op", "discretize", "delta_op.discretize"),
    ("linops", "assemble", "linops.assemble"),
    ("linops", "spectrum", "linops.spectrum"),
    ("evolve", "SplitStepEvolver.__init__", "evolve.build"),
    ("evolve", "SplitStepEvolver.step", "evolve.step"),
    ("evolve", "SplitStepEvolver.conserved", "evolve.observe"),
    ("evolve", "SplitStepEvolver.odd_residual", "evolve.observe"),
    ("evolve", "orbit_distance", "evolve.observe"),
    ("evolve", "run_experiment", "evolve.run_experiment"),
    ("cli", "main", "cli.main"),
)

# (module, attribute, counter name): counted, no span.
COUNTED = (
    ("elliptic", "jacobi_dn", "elliptic.jacobi_dn.calls"),
    ("elliptic", "complete_K", "elliptic.complete_K.calls"),
)

# Span names whose per-operation self time is reported as "<name>.self_s".
SELF_TIMED = (
    "elliptic.inverse_dn",
    "rootfind.bisect",
    "wave.period",
    "wave.solve_eta2",
    "wave.build_profile",
    "wave.diagnostics",
    "stability.slope",
    "stability.norm_squared",
    "stability.classify",
    "delta_op.discretize",
    "linops.assemble",
    "linops.spectrum",
    "evolve.build",
    "evolve.step",
    "evolve.observe",
    "evolve.run_experiment",
    "cli.main",
)

# Counters that depend only on the inputs, so two passes over the same
# seeded inputs must give identical values.
EXACT_COUNTERS = (
    "elliptic.inverse_dn.calls",
    "elliptic.jacobi_dn.calls",
    "elliptic.complete_K.calls",
    "rootfind.bisect.calls",
    "rootfind.bisect.fevals",
    "wave.solve_eta2.calls",
    "wave.period_evals",
    "linops.matrix_bytes_computed",
    "linops.spectrum.calls",
    "evolve.step.calls",
    "evolve.step.bytes_computed",
    "cli.bytes_written",
    "trace.pass_ops",
)

_SPAN_CALL_COUNTERS = {
    "elliptic.inverse_dn.calls": "elliptic.inverse_dn",
    "rootfind.bisect.calls": "rootfind.bisect",
    "wave.solve_eta2.calls": "wave.solve_eta2",
    "wave.period_evals": "wave.period",
    "linops.spectrum.calls": "linops.spectrum",
    "evolve.step.calls": "evolve.step",
}

_ROOT = "op"
_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.first_steps: list[int] = []  # span indices of each evolver's first step
        self._stack: list[int] = []
        self._op: int | None = None
        self._stepped: set[int] = set()

    @contextmanager
    def op(self, op_id: int):
        """Open the root span of one operation."""
        self._op = op_id
        self._stepped.clear()
        index = self._open(_ROOT)
        try:
            yield
        finally:
            self._close(index)
            self._op = None

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] += amount

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][_END] = time.perf_counter_ns()
        self._stack.pop()

    def _span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            if name == "rootfind.bisect":
                args = (self._counting(args[0]),) + args[1:]
            elif name == "evolve.step":
                self._before_step(args[0], args[1] if len(args) > 1 else kwargs["state"])
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if name == "linops.assemble":
                self.counts["linops.matrix_bytes_computed"] += result.matrix.nbytes
            return result

        return wrapper

    def _counting(self, f):
        def counted_f(x):
            self.counts["rootfind.bisect.fevals"] += 1
            return f(x)

        return counted_f

    def _before_step(self, evolver, state) -> None:
        # The dense propagator matvec reads n x n complex entries per step.
        self.counts["evolve.step.bytes_computed"] += state.u.size**2 * state.u.itemsize
        if id(evolver) not in self._stepped:
            self._stepped.add(id(evolver))
            self.first_steps.append(len(self.spans))

    def _counter(self, counter: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._op is not None:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap the layers' public functions; restore them on exit."""
        undo: list[tuple[object, str, object]] = []
        package = [m for n, m in sys.modules.items() if n.startswith("nlsdelta.")]
        try:
            for module, attr, counter in COUNTED:
                _patch(package, module, attr, lambda fn, c=counter: self._counter(c, fn), undo)
            for module, attr, name in SPANS:
                _patch(package, module, attr, lambda fn, n=name: self._span(n, fn), undo)
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time in ns of every span: duration minus its children's durations."""
        own = [s[_END] - s[_START] for s in self.spans]
        for s in self.spans:
            if s[_PARENT] >= 0:
                own[s[_PARENT]] -= s[_END] - s[_START]
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of this pass: counters per pass, times per operation."""
        own = self.self_times()
        ops = sum(1 for s in self.spans if s[_NAME] == _ROOT)
        self_ns: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for s, t in zip(self.spans, own):
            self_ns[s[_NAME]] += t
            calls[s[_NAME]] += 1
        per_op = 1e-9 / max(ops, 1)
        out: dict[str, float] = {f"{n}.self_s": self_ns[n] * per_op for n in SELF_TIMED}
        out.update({c: calls[n] for c, n in _SPAN_CALL_COUNTERS.items()})
        for counter in EXACT_COUNTERS:
            out.setdefault(counter, self.counts[counter])
        out["trace.pass_ops"] = ops
        first_ns = [own[i] for i in self.first_steps]
        out["evolve.step.first_s"] = sum(first_ns) * 1e-9 / len(first_ns) if first_ns else 0.0
        steady = calls["evolve.step"] - len(first_ns)
        out["evolve.step.us_per_call"] = (
            (self_ns["evolve.step"] - sum(first_ns)) * 1e-3 / steady if steady else 0.0
        )
        out["op.remainder_s"] = self_ns[_ROOT] * per_op
        out["trace.op_wall_s"] = sum(
            s[_END] - s[_START] for s in self.spans if s[_NAME] == _ROOT
        ) * per_op
        return out

    def write(self, path: Path, pass_index: int) -> None:
        """Append this pass's spans as JSON lines."""
        with path.open("a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "pass": pass_index, "name": s[_NAME], "start_ns": s[_START],
                    "end_ns": s[_END], "parent": s[_PARENT], "op": s[_OP],
                }) + "\n")


def _patch(package, module: str, attr: str, make_wrapper, undo) -> None:
    """Wrap ``module.attr`` and every other binding of the same object.

    A missing attribute is skipped, so the tracer keeps working when a
    layer renames or removes a function; its metrics then read 0.
    """
    owner = sys.modules.get(f"nlsdelta.{module}")
    if owner is None:
        return
    if "." in attr:
        cls_name, method = attr.split(".")
        cls = getattr(owner, cls_name, None)
        if cls is None or method not in vars(cls):
            return
        undo.append((cls, method, vars(cls)[method]))
        setattr(cls, method, make_wrapper(vars(cls)[method]))
        return
    original = getattr(owner, attr, None)
    if original is None:
        return
    wrapper = make_wrapper(original)
    for mod in package:
        for bound, value in list(vars(mod).items()):
            if value is original:
                undo.append((mod, bound, original))
                setattr(mod, bound, wrapper)
