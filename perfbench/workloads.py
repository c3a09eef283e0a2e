"""Seeded inputs, timed operations and output checks of the workloads.

Each workload turns a seed into a fixed list of inputs and defines one
operation (``run``, the timed part) and its output check (``check``,
untimed).  Operations call the package through its public functions
and through ``cli.main`` in-process, always as module attributes, so
that the tracer's wrappers are seen.  The check's expectations come
from the mathematics (the period equation, the paper's index
classification, charge conservation), never from a recorded output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from nlsdelta import cli, stability, wave

# Existence region shared by wave-map and classify-lattice.  At the
# worst corner (omega = 16, Z = -2, L = 1) the trough threshold is
# T1 = 1.707, so every point has 2L above period_threshold by >= 0.29.
OMEGA_RANGE = (16.0, 24.0)
ABS_Z_RANGE = (0.5, 2.0)
# (sign of Z, half-period L), cycled so each run has the same class mix.
BRANCHES = ((1.0, 0.5), (1.0, 1.0), (-1.0, 1.0))

INPUTS_PER_RUN = 60

# Expected classification by branch (peak waves are stable; trough waves
# carry one odd instability direction and are stable to even data).
EXPECTED_VERDICT = {1.0: "stable", -1.0: "unstable+stable_even_subspace"}

# evolve: n, time step, horizon and scheme of every operation.
EVOLVE_N = 1024
EVOLVE_DT = 2e-4
EVOLVE_STEPS = 1000
EVOLVE_WARMUP_STEPS = 50
EVOLVE_AMPLITUDE = 1e-3
EVOLVE_CASES = ((1.0, 0.5), (-1.0, 1.0))  # (Z, L): peak and trough
EVOLVE_KINDS = ("even", "odd", "random")
CHARGE_DRIFT_TOL = 1e-8
RECORD_EVERY = 50  # run_experiment's default sampling interval
TRACE_HEADER = ["t", "Q", "E", "orbit_distance", "odd_residual"]


@dataclass(frozen=True)
class Checked:
    ok: bool
    reason: str = ""
    bytes_written: int = 0


@dataclass(frozen=True)
class Point:
    omega: float
    z: float
    half_period: float

    @property
    def expected_verdict(self) -> str:
        return EXPECTED_VERDICT[math.copysign(1.0, self.z)]


@dataclass(frozen=True)
class EvolveInput:
    omega: float
    z: float
    half_period: float
    kind: str
    seed: int
    steps: int


def _stratum(bounds: tuple[float, float], index: int, strata: int, rng: random.Random) -> float:
    lo, hi = bounds
    return lo + (hi - lo) * (index + rng.random()) / strata


def lattice(rng: random.Random, count: int) -> list[Point]:
    """Points of the existence region, cycling through BRANCHES.

    Each branch gets a Latin-hypercube sample in (omega, |Z|), so every
    seed covers the region evenly and runs with different seeds do the
    same mix of work.
    """
    per_branch = -(-count // len(BRANCHES))
    columns = []
    for sign, half_period in BRANCHES:
        z_strata = rng.sample(range(per_branch), per_branch)
        column = [
            Point(_stratum(OMEGA_RANGE, i, per_branch, rng),
                  sign * _stratum(ABS_Z_RANGE, z_strata[i], per_branch, rng), half_period)
            for i in range(per_branch)
        ]
        rng.shuffle(column)
        columns.append(column)
    return [columns[i % len(BRANCHES)][i // len(BRANCHES)] for i in range(count)]


def _rng(seed: int, purpose: str) -> random.Random:
    return random.Random(f"{purpose}:{seed}")


def _cli(argv: list[str]) -> int:
    # The CLI's one-line summary is discarded rather than mixed into the
    # benchmark's own output.
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _wave_args(p) -> list[str]:
    return ["--omega", repr(p.omega), "--z", repr(p.z), "--half-period", repr(p.half_period)]


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class WaveMap:
    """Profile, diagnostics, closed-form norm and slope at one (omega, Z, L)."""

    name = "wave-map"
    tail_percentile = 95
    pass_ops = 12

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir

    def inputs(self, seed: int) -> list[Point]:
        return lattice(_rng(seed, self.name), INPUTS_PER_RUN)

    def warmup_input(self, seed: int) -> Point:
        return lattice(_rng(seed, self.name + "/warmup"), 1)[0]

    def run(self, p: Point):
        params = wave.WaveParams(p.omega, p.z, p.half_period)
        profile = wave.build_profile(params, n=4096)
        diag = profile.diagnostics()
        norm = stability.norm_squared(profile)
        slope = stability.slope(params)
        return profile, diag, norm, slope

    def check(self, p: Point, output) -> Checked:
        profile, diag, norm, slope = output
        period = wave.period_minus if p.z >= 0.0 else wave.period_plus
        resid = abs(period(profile.eta2, p.omega, p.z) - 2.0 * p.half_period)
        if not resid <= wave.PERIOD_RESIDUAL_TOL:
            return Checked(False, f"period residual {resid!r} > {wave.PERIOD_RESIDUAL_TOL}")
        numbers = [v for v in diag.values() if not isinstance(v, bool)]
        if not _finite(numbers):
            return Checked(False, f"non-finite diagnostics {diag!r}")
        if not (_finite([norm, slope]) and norm > 0.0):
            return Checked(False, f"bad norm {norm!r} or slope {slope!r}")
        return Checked(True)


class ClassifyLattice:
    """One ``classify`` command through cli.main at CLI defaults."""

    name = "classify-lattice"
    tail_percentile = 90
    pass_ops = 6

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.result = out_dir / "bench_classification.json"

    def inputs(self, seed: int) -> list[Point]:
        return lattice(_rng(seed, self.name), INPUTS_PER_RUN)

    def warmup_input(self, seed: int) -> Point:
        return lattice(_rng(seed, self.name + "/warmup"), 1)[0]

    def run(self, p: Point) -> int:
        return _cli(["--output-dir", str(self.out_dir), "classify", *_wave_args(p),
                     "--prefix", "bench"])

    def check(self, p: Point, rc: int) -> Checked:
        if rc != 0:
            return Checked(False, f"exit code {rc}")
        raw = self.result.read_bytes()
        self.result.unlink()  # a later failure cannot pass on a stale file
        report = json.loads(raw)
        if (report["omega"], report["z"], report["half_period"]) != (p.omega, p.z, p.half_period):
            return Checked(False, f"result is for another point: {report!r}")
        if report["verdict"] != p.expected_verdict:
            return Checked(False, f"verdict {report['verdict']!r}, expected {p.expected_verdict!r}")
        return Checked(True, bytes_written=len(raw))


class Evolve:
    """One ``evolve`` command through cli.main; builds its own evolver."""

    name = "evolve"
    tail_percentile = 50
    pass_ops = len(EVOLVE_CASES) * len(EVOLVE_KINDS)

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.trace_csv = out_dir / "bench_trace.csv"

    def _inputs(self, rng: random.Random, count: int, steps: int) -> list[EvolveInput]:
        cycle = [(case, kind) for kind in EVOLVE_KINDS for case in EVOLVE_CASES]
        out = []
        for i in range(count):
            (z, half_period), kind = cycle[i % len(cycle)]
            out.append(EvolveInput(rng.uniform(*OMEGA_RANGE), z, half_period, kind,
                                   rng.randrange(2**31), steps))
        return out

    def inputs(self, seed: int) -> list[EvolveInput]:
        return self._inputs(_rng(seed, self.name), INPUTS_PER_RUN, EVOLVE_STEPS)

    def warmup_input(self, seed: int) -> EvolveInput:
        return self._inputs(_rng(seed, self.name + "/warmup"), 1, EVOLVE_WARMUP_STEPS)[0]

    def run(self, e: EvolveInput) -> int:
        return _cli([
            "--output-dir", str(self.out_dir), "evolve", *_wave_args(e),
            "--perturb", f"{e.kind}:{EVOLVE_AMPLITUDE!r}", "--T", repr(e.steps * EVOLVE_DT),
            "--dt", repr(EVOLVE_DT), "--n", str(EVOLVE_N), "--scheme", "exact",
            "--seed", str(e.seed), "--prefix", "bench",
        ])

    def check(self, e: EvolveInput, rc: int) -> Checked:
        if rc != 0:
            return Checked(False, f"exit code {rc}")
        sidecar_path = self.trace_csv.with_suffix(".json")
        raw_csv, raw_json = self.trace_csv.read_bytes(), sidecar_path.read_bytes()
        self.trace_csv.unlink()
        sidecar_path.unlink()
        rows = list(csv.reader(io.StringIO(raw_csv.decode("utf-8"))))
        if rows[0] != TRACE_HEADER:
            return Checked(False, f"trace header {rows[0]!r}")
        expected_rows = 1 + math.ceil(e.steps / RECORD_EVERY)
        if len(rows) - 1 != expected_rows:
            return Checked(False, f"{len(rows) - 1} trace rows, expected {expected_rows}")
        table = [[float(v) for v in row] for row in rows[1:]]
        if not _finite(v for row in table for v in row):
            return Checked(False, "non-finite trace value")
        charge = [row[1] for row in table]
        drift = max(abs(q - charge[0]) for q in charge) / charge[0]
        if not drift <= CHARGE_DRIFT_TOL:
            return Checked(False, f"relative charge drift {drift!r} > {CHARGE_DRIFT_TOL}")
        sidecar = json.loads(raw_json)
        config = sidecar["config"]
        if sidecar["blown_up"] or config["seed"] != e.seed or config["omega"] != e.omega:
            return Checked(False, f"sidecar does not match the run: {sidecar!r}")
        return Checked(True, bytes_written=len(raw_csv) + len(raw_json))


WORKLOADS = {w.name: w for w in (WaveMap, ClassifyLattice, Evolve)}
