"""Benchmark of the nlsdelta pipeline: one workload per call.

    python3 perfbench/run.py --workload {wave-map,classify-lattice,evolve} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
its ``src`` directory, nothing is installed.  Each workload runs in
fresh Python processes (``worker.py``) with the BLAS pinned to one
thread, single client, closed loop.

``--trace 0`` prints the end-to-end metrics named in BENCHMARK.json:
throughput of verified operations, median and tail latency, set-up
time (median over several fresh processes) and peak resident memory,
plus the failed fraction with its base.  ``--trace 1`` prints the
per-layer metrics from traced passes and the tracing overhead.  The
last line of standard output is the JSON result; the lines before it
are the readable report, and the full result (samples, environment)
is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import EXACT_COUNTERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

# Fresh processes that only set up, besides the measuring one; set-up
# time is the median over all of them.
SETUP_PROBES = 2
# A call must end within 180 s; the worker gets what is left of this.
DEADLINE_S = 170.0
TAIL_LADDER = (50, 75, 90, 95, 99, 99.9)
MIN_BEYOND = 10

PINNED_THREADS = {
    name: "1"
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of already sorted values."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(sorted_values: list[float], declared: float) -> tuple[float, float, int]:
    """(percentile, value, samples beyond it) for the workload's tail.

    The declared percentile is the highest with at least ten samples
    beyond it at the workload's usual sample count; a shorter run steps
    down the ladder until that holds (or reaches the median).
    """
    for pct in sorted((p for p in TAIL_LADDER if p <= declared), reverse=True):
        value = percentile(sorted_values, pct)
        beyond = sum(v > value for v in sorted_values)
        if beyond >= MIN_BEYOND or pct == TAIL_LADDER[0]:
            return pct, value, beyond
    raise AssertionError("unreachable")


def spawn_worker(args: argparse.Namespace, deadline: float, probe: bool) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    env = {k: v for k, v in os.environ.items() if k != "NLSDELTA_OUTDIR"}
    env.update(PINNED_THREADS, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if probe:
        cmd.append("--probe")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("no time left for another worker process")
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker exceeded {timeout:.0f} s") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def end_to_end(result: dict, setups: list[float], declared_tail: float) -> tuple[dict, dict]:
    lat = sorted(result["latencies_ms"])
    n = len(lat)
    pct, tail_ms, beyond = tail(lat, declared_tail)
    values = {
        "ops_per_s": result["verified"] / result["wall_s"],
        "op_p50_ms": percentile(lat, 50),
        "op_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "ops_per_s": f"{result['verified']} verified ops in {result['wall_s']:.3f} s",
        "op_p50_ms": f"n={n}",
        "op_tail_ms": f"p{pct:g}, {beyond} samples beyond, n={n}",
        "setup_s": f"median of {len(setups)} fresh processes: "
                   + ", ".join(f"{s:.4f}" for s in setups),
        "peak_rss_mb": "ru_maxrss of the measuring process, n=1",
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "nlsdelta" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src' / 'nlsdelta'}; run from a checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [
            spawn_worker(args, deadline, probe=True)["setup_s"] for _ in range(SETUP_PROBES)
        ]
        result = spawn_worker(args, deadline, probe=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.trace:
        values = result["layers"]
        notes = {name: f"per pass of {result['pass_ops']} ops" if name in EXACT_COUNTERS
                 else f"over {result['passes']} traced passes" for name in values}
    else:
        values, notes = end_to_end(result, setups + [result["setup_s"]],
                                   result["tail_percentile"])
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"benchmark failed: metrics not measured: {missing}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(result["env"], sort_keys=True))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}  ({notes[name]})")
    print(f"  failed_frac = {failed / attempted:.6g} ratio  ({failed} failed of {attempted} "
          "attempted; not in BENCHMARK.json, whose metrics are never 0)")
    for reason in result["failures"]:
        print(f"  failure: {reason}")
    OUT_DIR.mkdir(exist_ok=True)
    full = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full.write_text(json.dumps({"args": vars(args), "setups_s": setups, "metrics": metrics,
                                "worker": result}, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
