"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench

They run the benchmark briefly (about a minute in all) and are kept
out of the package's own test run.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_mod  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from nlsdelta import wave  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False,
    )


def result_of(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_twice() -> dict[str, tuple[subprocess.CompletedProcess, ...]]:
    return {name: (bench(name, 7, 1), bench(name, 7, 1)) for name in WORKLOAD_NAMES}


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(trace, traced_twice):
    done = traced_twice["wave-map"][0] if trace else bench("wave-map", 3, 0)
    result = result_of(done)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    report = done.stdout.splitlines()[:-1]
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.strip().startswith(f"{m['name']} = ") and f" {m['unit']}  (" in line
                   for line in report), m["name"]
    assert any(line.strip().startswith("failed_frac = 0 ratio") for line in report)
    env = json.loads(next(l for l in report if l.startswith("environment "))[12:])
    assert env["blas_threads_pinned"] == "1" and env["seed"] == (7 if trace else 3)
    assert {"python", "numpy", "scipy", "blas", "nproc", "cpu_model"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_exact_counters_repeat_across_same_seed_runs(workload, traced_twice):
    first, second = (result_of(d)["metrics"] for d in traced_twice[workload])
    for name in tracer_mod.EXACT_COUNTERS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["trace.pass_ops"]["value"] > 0


def test_wrong_expected_verdict_is_counted_not_dropped(tmp_path, monkeypatch):
    flipped = {1.0: workloads.EXPECTED_VERDICT[-1.0], -1.0: workloads.EXPECTED_VERDICT[1.0]}
    monkeypatch.setattr(workloads, "EXPECTED_VERDICT", flipped)
    workload = workloads.ClassifyLattice(tmp_path)
    out = worker.closed_loop(workload, workload.inputs(5)[:2], seconds=0.0)
    assert out["attempted"] == 1 and out["failed"] == 1 and out["verified"] == 0
    assert len(out["latencies_ms"]) == 1
    assert "verdict" in out["failures"][0]


@pytest.mark.parametrize("cls", [workloads.WaveMap, workloads.ClassifyLattice])
def test_self_times_plus_remainder_add_up_to_traced_op_wall(cls, tmp_path):
    workload = cls(tmp_path)
    original = wave.build_profile
    tracer = tracer_mod.Tracer()
    with tracer.installed():
        assert wave.build_profile is not original
        for op_id, inp in enumerate(workload.inputs(11)[:2]):
            with tracer.op(op_id):
                output = workload.run(inp)
            assert workload.check(inp, output).ok
    assert wave.build_profile is original
    own = tracer.self_times()
    assert min(own) >= 0
    for op_id in (0, 1):
        ids = [i for i, s in enumerate(tracer.spans) if s[4] == op_id]
        root = tracer.spans[ids[0]]
        assert root[0] == "op"
        assert sum(own[i] for i in ids) == root[2] - root[1]
    spanned = {name for _, _, name in tracer_mod.SPANS}
    assert spanned == set(tracer_mod.SELF_TIMED)
    metrics = tracer.layer_metrics()
    layers = sum(metrics[f"{n}.self_s"] for n in tracer_mod.SELF_TIMED)
    assert layers > 0
    assert layers + metrics["op.remainder_s"] == pytest.approx(metrics["trace.op_wall_s"],
                                                               rel=1e-12)


def test_inputs_are_seeded_and_inside_the_existence_region(tmp_path):
    for cls in (workloads.WaveMap, workloads.ClassifyLattice, workloads.Evolve):
        workload = cls(tmp_path)
        assert workload.inputs(1) == workload.inputs(1)
        assert workload.inputs(1) != workload.inputs(2)
    corners = [workloads.Point(w, sign * z, half_period)
               for sign, half_period in workloads.BRANCHES
               for w in workloads.OMEGA_RANGE for z in workloads.ABS_Z_RANGE]
    for p in corners + workloads.WaveMap(tmp_path).inputs(1):
        threshold = wave.period_threshold(p.omega, p.z)
        assert 2.0 * p.half_period > threshold + 0.25, p


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("wave-map", 1, 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
