"""One workload in one fresh Python process; started by run.py.

The process imports the package from the checkout's ``src``, runs one
untimed warm-up operation, and reports its set-up time (from the
parent's spawn timestamp, so interpreter start-up counts).  A probe
stops there.  Otherwise it then either

- runs the closed loop (``--trace 0``): one operation at a time for
  ``--seconds``, each timed and then checked; or
- alternates an untraced and a traced pass over the first
  ``pass_ops`` inputs (``--trace 1``) until ``--seconds`` have passed,
  and derives the per-layer metrics from the traced passes.

The result is one JSON line on standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy
import scipy

import nlsdelta
from tracer import EXACT_COUNTERS, Tracer
from workloads import WORKLOADS, Checked

OUT_DIR = Path(".perfbench_out")
FAILURE_EXAMPLES = 5


def _run(workload, inp):
    """Run one operation: (wall ns, output, error message or None)."""
    start = time.perf_counter_ns()
    try:
        output = workload.run(inp)
    except Exception as exc:  # noqa: BLE001 - every failure is counted, none escapes
        return time.perf_counter_ns() - start, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter_ns() - start, output, None


def _verify(workload, inp, output, error: str | None) -> Checked:
    if error is not None:
        return Checked(False, error)
    try:
        return workload.check(inp, output)
    except Exception as exc:  # noqa: BLE001
        return Checked(False, f"check raised {type(exc).__name__}: {exc}")


class Tally:
    """Attempted and failed operations, with the first failure reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, checked: Checked) -> None:
        self.attempted += 1
        if not checked.ok:
            self.failed += 1
            if len(self.reasons) < FAILURE_EXAMPLES:
                self.reasons.append(checked.reason)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "failures": self.reasons}


def closed_loop(workload, inputs, seconds: float) -> dict:
    """Operations back to back until ``seconds`` have passed (at least one)."""
    tally = Tally()
    latencies_ns: list[int] = []
    verified = 0
    start = time.perf_counter_ns()
    i = 0
    while True:
        inp = inputs[i % len(inputs)]
        elapsed, output, error = _run(workload, inp)
        checked = _verify(workload, inp, output, error)
        latencies_ns.append(elapsed)
        tally.record(checked)
        verified += checked.ok
        i += 1
        wall = (time.perf_counter_ns() - start) * 1e-9
        if wall >= seconds:
            break
    return {"latencies_ms": [t * 1e-6 for t in latencies_ns], "verified": verified,
            "wall_s": wall, **tally.as_dict()}


def traced_passes(workload, inputs, seconds: float, spans_path: Path) -> dict:
    """Alternate untraced and traced passes; per-layer metrics from the traced ones.

    Pairs of passes repeat while another pair still fits in ``seconds``
    (at least one pair runs).

    Counters are those of the first traced pass; times are means over
    all traced passes.  The spans of every pass stay in memory and are
    written out at the end of the run.
    """
    pass_inputs = inputs[: workload.pass_ops]
    tally = Tally()
    untraced_ns = traced_ns = 0
    tracers: list[Tracer] = []
    start = time.perf_counter()
    while True:
        pair_start = time.perf_counter()
        for inp in pass_inputs:
            elapsed, output, error = _run(workload, inp)
            untraced_ns += elapsed
            tally.record(_verify(workload, inp, output, error))
        tracer = Tracer()
        with tracer.installed():
            for op_id, inp in enumerate(pass_inputs):
                with tracer.op(op_id):
                    elapsed, output, error = _run(workload, inp)
                # Checked after the root span closes: checks are not traced.
                checked = _verify(workload, inp, output, error)
                traced_ns += elapsed
                tally.record(checked)
                tracer.add("cli.bytes_written", checked.bytes_written)
        tracers.append(tracer)
        # Stop before a further pair would overrun the run's time.
        now = time.perf_counter()
        if now - start + (now - pair_start) > seconds:
            break
    passes = [t.layer_metrics() for t in tracers]
    metrics = {name: sum(p[name] for p in passes) / len(passes) for name in passes[0]}
    metrics.update({name: passes[0][name] for name in EXACT_COUNTERS})
    metrics["trace.overhead_frac"] = traced_ns / untraced_ns - 1.0
    spans_path.unlink(missing_ok=True)
    for index, tracer in enumerate(tracers):
        tracer.write(spans_path, index)
    return {"layers": metrics, "passes": len(tracers), "pass_ops": len(pass_inputs),
            "spans_file": str(spans_path), **tally.as_dict()}


def environment(seed: int) -> dict:
    """Versions, BLAS library and threads, CPUs and seed of this run."""
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    with open("/proc/self/status", encoding="utf-8") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent just before the spawn")
    parser.add_argument("--probe", action="store_true", help="stop after set-up")
    args = parser.parse_args(argv)

    src = (Path.cwd() / "src").resolve()
    if src not in Path(nlsdelta.__file__).resolve().parents:
        print(f"nlsdelta imported from {nlsdelta.__file__}, not from {src}", file=sys.stderr)
        return 2
    out_dir = OUT_DIR / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](out_dir)
    inputs = workload.inputs(args.seed)
    warmup = workload.warmup_input(args.seed)
    checked = _verify(workload, warmup, *_run(workload, warmup)[1:])
    if not checked.ok:
        print(f"warm-up operation failed: {checked.reason}", file=sys.stderr)
        return 1
    setup_s = time.monotonic() - args.spawned_at
    result: dict = {"setup_s": setup_s}
    if not args.probe:
        if args.trace:
            spans = OUT_DIR / f"spans-{args.workload}.jsonl"
            result.update(traced_passes(workload, inputs, args.seconds, spans))
        else:
            result.update(closed_loop(workload, inputs, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["tail_percentile"] = workload.tail_percentile
        result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
