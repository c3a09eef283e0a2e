"""End-to-end tests of the command-line surface.

Everything goes through main() with an isolated --output-dir; files are
re-read and checked for schema, determinism, and exit-code contract.
"""

import argparse
import concurrent.futures
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsdelta.cli import _MAX_DELTA_COUNT, _sweep_point, build_parser, main
from nlsdelta.evolve import DEFAULT_SEED
from nlsdelta.stability import Row, classify, slope
from nlsdelta.wave import (
    PERIOD_RESIDUAL_TOL,
    Orbit,
    WaveParams,
    _along_u,
    _orbit,
    _tangent,
    period_minus,
    period_plus,
    solve_eta2,
    theta_admissible,
    threshold_T0,
)

WAVE = ["--omega", "20", "--z", "1", "--half-period", "0.5"]


def read_csv(path):
    with path.open() as fh:
        header = fh.readline().strip().split(",")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    return header, rows


class TestBuildWave:
    def test_profile_and_sidecar(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "build-wave", *WAVE, "--n", "512"])
        assert rc == 0
        header, rows = read_csv(tmp_path / "wave_profile.csv")
        assert header == ["x", "phi"] and len(rows) == 513  # endpoint-inclusive grid
        side = json.loads((tmp_path / "wave_profile.json").read_text())
        assert side["config"]["omega"] == 20.0
        assert side["solved"]["eta1"] > side["solved"]["eta2"] > 0.0
        assert side["residuals"]["pde_residual"] < 1e-2
        assert "version" in side

    def test_float_round_trip(self, tmp_path):
        main(["--output-dir", str(tmp_path), "build-wave", *WAVE, "--n", "512"])
        _, rows = read_csv(tmp_path / "wave_profile.csv")
        phi = np.array([float(r[1]) for r in rows])
        # 17 significant digits round-trip doubles exactly: the max must
        # match the sidecar phi0 bit-for-bit
        side = json.loads((tmp_path / "wave_profile.json").read_text())
        assert phi.max() == side["solved"]["phi0"]

    def test_inadmissible_exit_code(self, tmp_path, capsys):
        rc = main(
            ["--output-dir", str(tmp_path), "build-wave",
             "--omega", "20", "--z", "-1", "--half-period", "0.5"]
        )
        assert rc == 2
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"],
                                      ["--omega", "8", "--z", "0", "--half-period", "1"]])
    def test_sidecar_writes_the_orbit(self, tmp_path, wave):
        # the whole solved orbit, read back: its period is 2L and its shift lies in [0, K]
        assert main(["--output-dir", str(tmp_path), "build-wave", *wave, "--n", "256"]) == 0
        solved = json.loads((tmp_path / "wave_profile.json").read_text())["solved"]
        assert set(solved) == {"eta1", "eta2", "gap", "kp", "big_k", "phi", "a", "psi",
                               "spread", "s", "upper", "lower", "period", "phi0", "sign_branch"}
        assert solved["gap"] > 0.0
        assert abs(solved["period"] - 2.0 * float(wave[-1])) <= PERIOD_RESIDUAL_TOL
        assert 0.0 <= solved["a"] <= solved["big_k"]
        assert solved["kp"] == solved["eta2"] / solved["eta1"]


class TestSpectrum:
    def test_l1_spectrum_file(self, tmp_path):
        rc = main(
            ["--output-dir", str(tmp_path), "spectrum", *WAVE,
             "--which", "L1", "--n", "512", "--count", "4"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "linop_L1_spectrum.csv")
        assert header == ["index", "eigenvalue", "parity"]
        lams = [float(r[1]) for r in rows]
        assert lams == sorted(lams)
        assert rows[0][2] == "even"
        side = json.loads((tmp_path / "linop_L1_spectrum.json").read_text())
        assert side["n_negative"] == 1
        assert side["surplus"] == side["expected_kernel"] == 0

    def test_sidecar_records_the_surplus(self, tmp_path):
        # at Z = 0.01 the odd eigenvalue continuing the translation mode is inside the
        # zero band, so count_negative raises on this operator: n_negative is a guess
        rc = main(["--output-dir", str(tmp_path), "spectrum", "--omega", "20", "--z", "0.01",
                   "--half-period", "0.5", "--n", "256"])
        assert rc == 0
        side = json.loads((tmp_path / "linop_L1_spectrum.json").read_text())
        assert side["n_negative"] == 1
        assert side["expected_kernel"] == 0
        assert side["surplus"] == 1

    def test_sidecar_counts_past_the_listed_eigenvalues(self, tmp_path):
        # the trough has two negative eigenvalues; listing one must not cut the count
        rc = main(
            ["--output-dir", str(tmp_path), "spectrum",
             "--omega", "20", "--z", "-1", "--half-period", "1", "--count", "1"]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "linop_L1_spectrum.csv")
        assert len(rows) == 1
        side = json.loads((tmp_path / "linop_L1_spectrum.json").read_text())
        assert side["n_negative"] == 2


class TestDeltaSpectrum:
    def test_interleaving_written_to_file(self, tmp_path):
        rc = main(
            ["--output-dir", str(tmp_path), "delta-spectrum",
             "--gamma", "-2", "--half-period", "3.141592653589793", "--count", "4"]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "delta_delta_spectrum.csv")
        lams = [float(r[0]) for r in rows]
        assert lams[0] < 0.0
        assert lams == sorted(lams)

    def test_infinite_strength_is_the_dirichlet_extension(self, tmp_path):
        # gamma = +inf (the pole of gamma(theta)): even kinks between the sines
        L = 3.141592653589793
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum", "--gamma", "inf",
                   "--half-period", repr(L), "--count", "6"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "delta_delta_spectrum.csv")
        assert [float(r[0]) for r in rows] == pytest.approx(
            [(m * math.pi / (2.0 * L)) ** 2 for m in range(1, 7)], rel=1e-12)
        assert [r[1:] for r in rows] == 3 * [["interior_root", "even"], ["integer_sine", "odd"]]


class TestClassify:
    def test_stable_point(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "classify", *WAVE])
        assert rc == 0
        assert "stable" in capsys.readouterr().out
        rep = json.loads((tmp_path / "point_classification.json").read_text())
        assert rep["verdict"] == "stable"
        assert rep["n_negative"] == 1 and rep["p_index"] == 1

    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"]])
    def test_numerics_reproduce_the_counts(self, tmp_path, wave):
        assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
        rep = json.loads((tmp_path / "point_classification.json").read_text())
        # the two witnesses: dT/deta2 < 0 leaves one negative even eigenvalue, and
        # phi'(0+) = -(Z/2) Phi > 0 (a trough) gives one odd one
        numerics = rep["numerics"]
        assert numerics["dphi_0plus"] == -0.5 * rep["z"] * numerics["phi"]
        assert rep["n_negative_even"] == 1 + (numerics["dT_deta2"] > 0.0)
        assert rep["n_negative"] - rep["n_negative_even"] == (numerics["dphi_0plus"] > 0.0)

    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"]])
    def test_numerics_report_the_period_solve(self, tmp_path, wave):
        assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
        rep = json.loads((tmp_path / "point_classification.json").read_text())
        omega, z, half_period = (float(v) for v in wave[1::2])
        eta2, resid = rep["numerics"]["eta2"], rep["numerics"]["period_residual"]
        assert 0.0 < eta2 < theta_admissible(omega, z)
        # k' = eta2/eta1: how near the solitary limit k' -> 0 the cell is
        assert rep["numerics"]["kp"] == eta2 / math.sqrt(2.0 * omega - eta2 * eta2)
        assert resid <= PERIOD_RESIDUAL_TOL
        # exact in the record's coordinates (eta2, g); the eta2 map forms g from eta2 alone
        assert resid == abs(_orbit(eta2, omega, z, rep["numerics"]["gap"]).period - 2.0 * half_period)
        period = period_minus if z >= 0.0 else period_plus
        assert abs(period(eta2, omega, z) - 2.0 * half_period) <= PERIOD_RESIDUAL_TOL
        # the sweep-row keys are unchanged: eta2 lives only under numerics
        assert set(rep) == {"version", "config", "numerics", "omega", "z", "half_period",
                            "n_negative", "n_negative_even", "p_index", "slope", "verdict",
                            "kernel_caveat"}
        # written by the sidecar code, so the result records how it was produced
        assert rep["config"]["command"] == "classify"
        assert (rep["config"]["omega"], rep["config"]["z"]) == (omega, z)

    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"]])
    def test_numerics_carry_the_solved_orbit(self, tmp_path, wave):
        # the whole orbit record, as build-wave's ``solved`` writes it at the same cell
        assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
        assert main(["--output-dir", str(tmp_path), "build-wave", *wave, "--n", "256"]) == 0
        numerics = json.loads((tmp_path / "point_classification.json").read_text())["numerics"]
        solved = json.loads((tmp_path / "wave_profile.json").read_text())["solved"]
        assert {name: numerics[name] for name in Orbit._fields} == {
            name: solved[name] for name in Orbit._fields}

    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"]])
    def test_numerics_report_the_slope_terms(self, tmp_path, wave):
        # dT/deta2 at the root (how steep the solve was) and deta2/domega (the slope's
        # implicit-function factor) come with the closed-form slope, no extra solve: both
        # are read from the tangent of the recorded orbit along u
        assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
        rep = json.loads((tmp_path / "point_classification.json").read_text())
        omega, z, half_period = (float(v) for v in wave[1::2])
        numerics = rep["numerics"]
        orbit = _orbit(numerics["eta2"], omega, z, numerics["gap"])
        along_u = _along_u(orbit, theta_admissible(omega, z))
        t_u = _tangent(orbit, omega, z, along_u)[0][0]
        assert numerics["dT_deta2"] == t_u / along_u[0] < 0.0
        h = 1e-6 * omega
        difference = (solve_eta2(WaveParams(omega + h, z, half_period)).eta2
                      - solve_eta2(WaveParams(omega - h, z, half_period)).eta2) / (2.0 * h)
        assert numerics["deta2_domega"] == pytest.approx(difference, rel=1e-5)


class TestParser:
    def test_built_once_and_defaults_do_not_leak(self):
        assert build_parser() is build_parser()
        args = build_parser().parse_args(["evolve", *WAVE, "--seed", "6", "--n", "256"])
        assert (args.seed, args.n) == (6, 256)
        args = build_parser().parse_args(["evolve", *WAVE])
        assert (args.seed, args.n) == (DEFAULT_SEED, 512)


class TestNegativeValuesAfterASpace:
    """A negative value in exponent notation, or a list opening with one, is a value."""

    def test_classify_z(self, tmp_path):
        # '%.17g' writes -1e-05 as below; it passes back after a space
        rc = main(["--output-dir", str(tmp_path), "classify", "--omega", "1",
                   "--z", "-1.0000000000000001e-05", "--half-period", "4"])
        assert rc == 0
        config = json.loads((tmp_path / "point_classification.json").read_text())["config"]
        assert config["z"] == -1.0000000000000001e-05

    def test_delta_spectrum_gamma(self, tmp_path):
        spaced, joined = tmp_path / "spaced", tmp_path / "joined"
        assert main(["--output-dir", str(spaced), "delta-spectrum",
                     "--gamma", "-2e0", "--half-period", "1"]) == 0
        assert main(["--output-dir", str(joined), "delta-spectrum",
                     "--gamma=-2", "--half-period", "1"]) == 0
        name = "delta_delta_spectrum.csv"
        assert (spaced / name).read_bytes() == (joined / name).read_bytes()

    def test_negative_infinity_reaches_the_typed_check(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum",
                   "--gamma", "-inf", "--half-period", "1"])
        assert rc == 2
        assert "gamma must be finite, got -inf" in capsys.readouterr().err

    def test_sweep_z_values(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "2",
                   "--omega-max", "2", "--omega-steps", "1", "--z-values", "-1,1",
                   "--half-period", "3", "--workers", "1"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "lattice_sweep.csv")
        assert [float(r[1]) for r in rows] == [-1.0, 1.0]


class TestEvolve:
    def test_trace_schema_and_determinism(self, tmp_path):
        args = ["evolve", *WAVE, "--perturb", "random:0.01", "--T", "0.02",
                "--dt", "1e-3", "--n", "256", "--seed", "5"]
        assert main(["--output-dir", str(tmp_path / "a"), *args]) == 0
        assert main(["--output-dir", str(tmp_path / "b"), *args]) == 0
        a = (tmp_path / "a" / "run_trace.csv").read_text()
        b = (tmp_path / "b" / "run_trace.csv").read_text()
        assert a == b  # byte-identical under a fixed seed
        header, rows = read_csv(tmp_path / "a" / "run_trace.csv")
        assert header == ["t", "Q", "E", "orbit_distance", "odd_residual"]
        assert float(rows[0][0]) == 0.0

    def test_different_seed_changes_output(self, tmp_path):
        base = ["evolve", *WAVE, "--perturb", "random:0.01", "--T", "0.02",
                "--dt", "1e-3", "--n", "256"]
        main(["--output-dir", str(tmp_path / "a"), *base, "--seed", "5"])
        main(["--output-dir", str(tmp_path / "b"), *base, "--seed", "6"])
        a = (tmp_path / "a" / "run_trace.csv").read_text()
        b = (tmp_path / "b" / "run_trace.csv").read_text()
        assert a != b


class TestSweep:
    def test_small_lattice_with_error_rows(self, tmp_path):
        # omega range straddles the admissibility threshold for Z = -1,
        # so the lattice must contain both verdicts and error rows
        rc = main(
            ["--output-dir", str(tmp_path), "sweep", "--omega-min", "16",
             "--omega-max", "24", "--omega-steps", "2", "--z-values", "1,-1",
             "--half-period", "0.5", "--workers", "2"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "lattice_sweep.csv")
        assert header == list(Row._fields)
        verdicts = [r[7] for r in rows]
        assert len(rows) == 4
        assert "stable" in verdicts
        assert any(v.startswith("error:") for v in verdicts)
        side = json.loads((tmp_path / "lattice_sweep.json").read_text())
        assert side["points"] == 4
        # each error row keeps its message in the sidecar, keyed by its point
        failed = [[float(v) for v in r[:3]] for r in rows if r[7].startswith("error:")]
        errors = side["errors"]
        assert [[e["omega"], e["z"], e["half_period"]] for e in errors] == failed
        assert all(set(e) == {"omega", "z", "half_period", "message"} for e in errors)
        assert all(e["message"] for e in errors)

    def test_header_is_the_report_schema(self):
        # a classified point and a refused one both give a Row, whose fields are the header
        report = classify(WaveParams(20.0, 1.0, 0.5))
        assert _sweep_point((20.0, 1.0, 0.5)) == (report.row, None)
        row, message = _sweep_point((16.0, -1.0, 0.5))
        assert type(row) is Row and row.verdict == "error:AdmissibilityError" and message
        assert row[:3] == (16.0, -1.0, 0.5) and row[3:6] == (-1, -1, -1)
        assert math.isnan(row.slope) and row.kernel_caveat is False


class TestRefusedOutputPath:
    """An output path the OS refuses exits 2 with the path named, not with a traceback."""

    def test_build_wave_output_dir_below_a_file(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = main(["--output-dir", str(blocker / "sub"), "build-wave", *WAVE, "--n", "256"])
        assert rc == 2
        assert f"cannot make the output directory {str(blocker / 'sub')!r}" in capsys.readouterr().err

    def test_classify_output_dir_from_the_environment_is_a_file(self, tmp_path, monkeypatch, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("NLSDELTA_OUTDIR", str(blocker))
        assert main(["classify", *WAVE]) == 2
        assert f"cannot make the output directory {str(blocker)!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, written", [
        (["build-wave", *WAVE, "--n", "256"], "no/such_profile.csv"),
        (["classify", *WAVE], "no/such_classification.json"),
        (["spectrum", *WAVE, "--n", "256"], "no/such_L1_spectrum.csv"),
        (["delta-spectrum", "--gamma", "-2", "--half-period", "1"], "no/such_delta_spectrum.csv"),
        (["evolve", *WAVE, "--T", "1", "--n", "256"], "no/such_trace.csv"),
    ])
    def test_prefix_in_a_missing_directory(self, tmp_path, monkeypatch, capsys, command, written):
        # refused before the command computes: its compute entry point is never called
        def refuse(*args, **kwargs):
            raise AssertionError(f"{command[0]} computed before resolving its output")

        entry = {"build-wave": "nlsdelta.cli.build_profile",
                 "spectrum": "nlsdelta.cli.build_profile",
                 "classify": "nlsdelta.cli.classify",
                 "evolve": "nlsdelta.cli.run_experiment",
                 "delta-spectrum": "nlsdelta.delta_op.full_spectrum"}[command[0]]
        monkeypatch.setattr(entry, refuse)
        rc = main(["--output-dir", str(tmp_path), *command, "--prefix", "no/such"])
        assert rc == 2
        assert f"cannot write {str(tmp_path / written)!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_sweep_refuses_before_its_pool(self, tmp_path, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the pool started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "16", "--omega-max",
                   "20", "--half-period", "0.5", "--prefix", "no/such"])
        assert rc == 2
        assert f"cannot write {str(tmp_path / 'no/such_sweep.csv')!r}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestTypedFailures:
    def test_zero_time_step(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE,
                   "--T", "0.01", "--dt", "0", "--n", "256"])
        assert rc == 2
        assert "dt must be positive" in capsys.readouterr().err

    def test_negative_seed(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE, "--T", "0.01",
                   "--n", "256", "--perturb", "random:1e-3", "--seed", "-1"])
        assert rc == 2
        assert "seed must be non-negative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("amplitude", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude(self, tmp_path, capsys, amplitude):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE, "--T", "0.01",
                   "--n", "256", "--perturb", f"even:{amplitude}"])
        assert rc == 2
        assert f"amplitude must be finite, got {amplitude}" in capsys.readouterr().err

    def test_odd_evolver_grid(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE,
                   "--T", "0.01", "--n", "255"])
        assert rc == 2
        assert "n=255" in capsys.readouterr().err

    def test_odd_spectrum_grid(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "spectrum", *WAVE, "--n", "511"])
        assert rc == 2
        assert "n=511" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, shown", [
        ("--z-values", "1,x", "'x'"),
        ("--z-values", "1,nan", "1,nan"),
        ("--z-values", "-inf,1", "-inf,1"),
        ("--omega-min", "inf", "inf"),
        ("--omega-max", "nan", "nan"),
        ("--half-period", "inf", "inf"),
        ("--half-period", "-1", "-1"),
        ("--half-period", "0", "0"),
    ], ids=["z-not-a-number", "z-nan", "z-minus-inf", "omega-min-inf", "omega-max-nan",
            "half-period-inf", "half-period-negative", "half-period-zero"])
    def test_malformed_sweep_value_named(self, tmp_path, capsys, flag, value, shown):
        # rejected before the pool starts: exit 2, no CSV, the flag and its value named
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "16",
                   "--omega-max", "24", "--omega-steps", "3", "--z-values", "1,-1",
                   "--half-period", "0.5", "--workers", "1", f"{flag}={value}"])
        assert rc == 2
        err = capsys.readouterr().err
        assert flag in err and shown in err
        assert not (tmp_path / "lattice_sweep.csv").exists()


    @pytest.mark.parametrize("command, builder", [("build-wave", "nlsdelta.cli.build_profile"),
                                                  ("spectrum", "nlsdelta.linops.assemble")])
    @pytest.mark.parametrize("message", [
        "Unable to allocate 8.00 TiB for an array with shape (1099511627777,) and data type float64",
        "",
    ])
    def test_refused_allocation_exits_3(self, tmp_path, capsys, monkeypatch, command, builder,
                                        message):
        # --n 2^40 asks numpy for 8 TiB, which it refuses at once with a MemoryError; the
        # builder raises that error itself here, so nothing is allocated
        def refuse(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(builder, refuse)
        assert main(["--output-dir", str(tmp_path), command, *WAVE]) == 3
        shown = message or "an allocation was refused"
        assert capsys.readouterr().err == f"error: {command} ran out of memory: {shown}\n"


class TestOutputDirPrecedence:
    def test_env_var_used_without_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLSDELTA_OUTDIR", str(tmp_path))
        assert main(["build-wave", *WAVE, "--n", "512"]) == 0
        assert (tmp_path / "wave_profile.csv").exists()

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NLSDELTA_OUTDIR", str(tmp_path / "env"))
        d = tmp_path / "flag"
        main(["--output-dir", str(d), "build-wave", *WAVE, "--n", "512"])
        assert (d / "wave_profile.csv").exists()
        assert not (tmp_path / "env" / "wave_profile.csv").exists()


class TestDegenerateArguments:
    @pytest.mark.parametrize("n", ["0", "-4", "2"])
    def test_coarse_evolver_grid(self, tmp_path, capsys, n):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE,
                   "--T", "0.01", "--n", n])
        assert rc == 2
        assert f"n={n}" in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

    def test_zero_workers(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "16",
                   "--omega-max", "24", "--omega-steps", "2",
                   "--half-period", "0.5", "--workers", "0"])
        assert rc == 2
        assert "got 0" in capsys.readouterr().err
        assert not (tmp_path / "lattice_sweep.csv").exists()

    def test_infinite_half_period(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "build-wave",
                   "--omega", "20", "--z", "1", "--half-period", "inf"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "halfperiod" in err and "inf" in err


class TestOverflowAndNonFinite:
    @pytest.mark.parametrize("z", ["1", "0"])
    def test_huge_frequency_is_numerics_error(self, tmp_path, capsys, z):
        # 2L = 1 at omega = 1e300 needs k' = eta2/eta1 near exp(-1e150), so the solve's walk
        # up in u ends in the k'^2 refusal (eta1^3 in the eta2-form slope overflowed here,
        # untyped at Z = 0, before that slope gave way to the tangent)
        rc = main(["--output-dir", str(tmp_path), "build-wave",
                   "--omega", "1e300", "--z", z, "--half-period", "0.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "underflows" in err and "1e+300" in err
        assert "exist" not in err  # no claim about the mathematics
        assert not (tmp_path / "wave_profile.csv").exists()

    def test_infinite_horizon(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE, "--T", "inf"])
        assert rc == 2
        assert "got inf" in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

    @pytest.mark.parametrize("horizon, dt", [("1e-9", "1e-3"), ("5e-4", "1e-3"), ("1e300", "1e-300")])
    def test_horizon_without_a_whole_step(self, tmp_path, capsys, horizon, dt):
        # round(T/dt) is 0 (no step would be taken) or overflows
        rc = main(["--output-dir", str(tmp_path), "evolve", *WAVE, "--T", horizon, "--dt", dt,
                   "--n", "256"])
        assert rc == 2
        assert "step count" in capsys.readouterr().err
        assert not (tmp_path / "run_trace.csv").exists()

    def test_negative_omega_steps(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "16",
                   "--omega-max", "24", "--omega-steps", "-1",
                   "--half-period", "0.5", "--workers", "1"])
        assert rc == 2
        assert "got -1" in capsys.readouterr().err
        assert not (tmp_path / "lattice_sweep.csv").exists()


class TestSmallDefectAndEdges:
    @pytest.mark.parametrize("z, half_period", [("1e-8", "0.5"), ("-1e-8", "1")])
    def test_classify_at_tiny_z(self, tmp_path, z, half_period):
        # the odd eigenvalue beta Z lies inside every grid's zero band; the count reads sign Z
        rc = main(["--output-dir", str(tmp_path), "classify",
                   "--omega", "20", f"--z={z}", "--half-period", half_period])
        assert rc == 0
        report = json.loads((tmp_path / "point_classification.json").read_text())
        expected = "stable" if float(z) > 0.0 else "unstable+stable_even_subspace"
        assert report["verdict"] == expected

    @pytest.mark.parametrize("z, half_period", [("-1", "0.5"), ("-1e-300", "0.6")])
    def test_trough_refusal_is_not_a_nonexistence_claim(self, tmp_path, capsys, z, half_period):
        # waves with Tmin < 2L <= T1 exist on both branches of T_+, the falling-branch one
        # continuing from Z = 0; the solve brackets against T1 and builds neither, and the
        # refusal names that bracket (T1 = 1.4902 at Z = -1e-300, not 0.9935)
        rc = main(["--output-dir", str(tmp_path), "classify",
                   "--omega", "20", f"--z={z}", "--half-period", half_period])
        assert rc == 2
        err = capsys.readouterr().err
        assert "T1" in err and "decreasing branch" in err
        assert "no wave" not in err

    def test_near_threshold_cells_build_and_classify(self, tmp_path):
        # T falls to T0 within a layer g = theta^2 - eta2^2 ~ |Z| r that a double eta2 cannot
        # resolve (T0 = 0.974 at omega = 5.2): an eta2 solve refused the three omega = 5.2
        # cells ("lost its bracket") and missed the residual check by 7e-11 at the first
        cells = [(20.0, 1e-4, 0.505 * threshold_T0(20.0, 1e-4)), (5.2, 1e-12, 0.4871),
                 (5.2, 1e-300, 0.7), (5.2, 1e-12, 0.7)]
        for omega, z, half_period in cells:
            wave = ["--omega", repr(omega), f"--z={z!r}", "--half-period", repr(half_period)]
            assert main(["--output-dir", str(tmp_path), "build-wave", *wave, "--n", "256"]) == 0
            solved = json.loads((tmp_path / "wave_profile.json").read_text())["solved"]
            assert abs(solved["period"] - 2.0 * half_period) <= PERIOD_RESIDUAL_TOL
            assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
            rep = json.loads((tmp_path / "point_classification.json").read_text())
            assert rep["p_index"] == 1
            oracle = slope(WaveParams(omega, z, half_period), h_omega=1e-5 * omega)
            assert rep["slope"] == pytest.approx(oracle, rel=1e-8)

    def test_inconclusive_verdict_strict(self, tmp_path):
        # near the fold of T_+ the closed-form slope is -0.00143 (p = 0), where the index
        # criterion is silent
        wave = ["classify", "--omega", "1838.7674435299375", "--z=-84.06364029366871",
                "--half-period", "0.18608225155945318"]
        assert main(["--output-dir", str(tmp_path), *wave]) == 0
        report = json.loads((tmp_path / "point_classification.json").read_text())
        assert (report["verdict"], report["p_index"]) == ("inconclusive", 0)
        assert main(["--output-dir", str(tmp_path), *wave, "--strict-inconclusive"]) == 4

    def test_sweep_at_subnormal_scale_z(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "20",
                   "--omega-max", "20", "--omega-steps", "1", "--z-values", "1e-300",
                   "--half-period", "0.5", "--workers", "1"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "lattice_sweep.csv")
        assert len(rows) == 1 and not rows[0][7].startswith("error")

    @pytest.mark.parametrize("z, half_period", [("0", "20"), ("1", "20"), ("-1", "20"),
                                                ("1", "100"), ("-1", "100")])
    def test_near_solitary_cell_builds(self, tmp_path, z, half_period):
        # k' = eta2/eta1 is ~1e-8 at L = 20 and ~1e-43 at L = 100; a modulus cutoff
        # (k >= 1 - 1e-12) refused all five with exit 3
        rc = main(["--output-dir", str(tmp_path), "build-wave", "--omega", "1",
                   f"--z={z}", "--half-period", half_period])
        assert rc == 0
        solved = json.loads((tmp_path / "wave_profile.json").read_text())["solved"]
        eta2, kp = solved["eta2"], solved["kp"]
        assert kp == eta2 / solved["eta1"] and 0.0 < kp < 1e-7
        params = WaveParams(1.0, float(z), float(half_period))
        period = period_minus if params.z >= 0.0 else period_plus
        assert abs(period(eta2, 1.0, params.z) - 2.0 * params.halfperiod) <= PERIOD_RESIDUAL_TOL
        _, rows = read_csv(tmp_path / "wave_profile.csv")
        edges = [float(rows[0][1]), float(rows[-1][1])]
        assert edges == pytest.approx([eta2, eta2], rel=1e-15, abs=0.0)

    def test_underflow_of_kp_squared_exits_3(self, tmp_path, capsys):
        # past L ~ 355 at omega = 1 the period 2L needs k'^2 below the normal doubles
        rc = main(["--output-dir", str(tmp_path), "build-wave", "--omega", "1",
                   "--z", "1", "--half-period", "1000"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "k'^2" in err and "underflows" in err and "solitary limit" in err
        assert "exist" not in err and "no wave" not in err

    @pytest.mark.parametrize("z", ["71.9842860371776", "-71.9842860371776"])
    def test_threshold_near_k_one_is_named(self, tmp_path, capsys, z):
        # 2L = 0.02 lies below T0 = 0.118638 (T1 = 0.35591); ellipkinc's failure at
        # psi = am(K/2) made T0 read -4.7e-17, and the solve went on to exit 3
        rc = main(["--output-dir", str(tmp_path), "build-wave", "--omega",
                   "1425.3607590205768", f"--z={z}", "--half-period", "0.01"])
        assert rc == 2
        err = capsys.readouterr().err
        name, value = ("T0", 0.118638) if z[0] != "-" else ("T1", 0.35591)
        quoted = float(err.split(f"{name}(omega,Z)=")[1].split(",")[0].split()[0])
        assert quoted == pytest.approx(value, rel=1e-5)

    def test_infinite_delta_half_period(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum",
                   "--gamma", "1", "--half-period", "inf"])
        assert rc == 2
        assert "halfperiod must be positive and finite" in capsys.readouterr().err

    def test_nan_strength(self, tmp_path, capsys):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum",
                   "--gamma", "nan", "--half-period", "1"])
        assert rc == 2
        assert "must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--gamma", "0", "--count", "0"],
                                       ["--gamma", "inf", "--count", "-1"]])
    def test_empty_delta_spectrum_rejected(self, tmp_path, capsys, extra):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum", "--half-period", "1", *extra])
        assert rc == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "delta_delta_spectrum.csv").exists()

    @pytest.mark.parametrize("count", [_MAX_DELTA_COUNT + 1, 10**9])
    def test_huge_delta_count_refused_before_solving(self, tmp_path, monkeypatch, capsys, count):
        def refuse(*args, **kwargs):
            raise AssertionError("a mode was solved")

        monkeypatch.setattr("nlsdelta.delta_op.defect_modes", refuse)
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum", "--gamma", "-2",
                   "--half-period", "1", "--count", str(count)])
        assert rc == 2
        assert f"--count must be <= {_MAX_DELTA_COUNT}, got {count}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        with pytest.raises(AssertionError, match="a mode was solved"):  # the bound is allowed
            main(["--output-dir", str(tmp_path), "delta-spectrum", "--gamma", "-2",
                  "--half-period", "1", "--count", str(_MAX_DELTA_COUNT)])


ANY_FLOAT = st.one_of(st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, 1e300, -1e300]))


class TestFuzzedWaveArguments:
    @given(
        command=st.sampled_from(["build-wave", "classify", "spectrum"]),
        omega=ANY_FLOAT,
        z=ANY_FLOAT,
        half_period=ANY_FLOAT,
    )
    @example(command="build-wave", omega=1.0, z=1e200, half_period=1.0)
    @example(command="classify", omega=1.0, z=1e200, half_period=1.0)
    @example(command="spectrum", omega=1.0, z=1e200, half_period=1.0)
    # omega just above Z^2/4 (modulus at theta within 1e-12 of 1, where k' keeps what k
    # cannot; s near 0 at the bracket top, a discriminant near 0 inside (0, theta)), then
    # the extremes of scale
    @example(command="build-wave", omega=0.25000025, z=1.0, half_period=1.0)
    @example(command="build-wave", omega=0.250125, z=1.0, half_period=10.0)
    @example(command="build-wave", omega=0.25075, z=1.0, half_period=10.0)
    @example(command="build-wave", omega=1.0034698369278702e-197, z=1.0034698369278702e-197,
             half_period=1.0)
    @example(command="build-wave", omega=1.7976931348623157e308, z=1.0, half_period=1.0)
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_every_failure_is_typed(self, tmp_path_factory, command, omega, z, half_period):
        out = tmp_path_factory.mktemp("fuzz")
        rc = main(["--output-dir", str(out), command, f"--omega={omega!r}", f"--z={z!r}",
                   f"--half-period={half_period!r}"])
        assert rc in (0, 2, 3, 4)

    def test_huge_defect_strength_spectrum(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum",
                   "--gamma", "1e300", "--half-period", "1"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "delta_delta_spectrum.csv")
        assert float(rows[0][0]) == pytest.approx((0.5 * math.pi) ** 2, rel=1e-12)


# extremes of scale for a strength or a half-period: subnormal, tiny, huge, the largest double
EXTREME = st.one_of(
    ANY_FLOAT,
    st.sampled_from([5e-324, 1e-310, 1e-300, 1e-150, 1e150, 1e300, 1.7976931348623157e308]),
    st.floats(min_value=-350.0, max_value=308.0).map(lambda e: 10.0**e),
)


class TestFuzzedDeltaSpectrum:
    @given(gamma=st.one_of(EXTREME, EXTREME.map(lambda v: -v), st.just(math.inf)),
           half_period=EXTREME, count=st.integers(min_value=1, max_value=8))
    @example(gamma=-1.0, half_period=1e-310, count=2)  # mu and pi/L overflow
    @example(gamma=1e300, half_period=1e-300, count=3)  # (j pi/L)^2 overflows
    @example(gamma=math.inf, half_period=1e-300, count=3)  # ((j - 1/2) pi/L)^2 overflows
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_exit_typed_and_eigenvalues_finite_and_sorted(
        self, tmp_path_factory, gamma, half_period, count
    ):
        out = tmp_path_factory.mktemp("fuzz")
        rc = main(["--output-dir", str(out), "delta-spectrum", f"--gamma={gamma!r}",
                   f"--half-period={half_period!r}", "--count", str(count)])
        assert rc in (0, 2, 3)
        if rc == 0:
            _, rows = read_csv(out / "delta_delta_spectrum.csv")
            lams = [float(r[0]) for r in rows]
            assert len(lams) == count and all(map(math.isfinite, lams))
            assert lams == sorted(lams)


# a grid size or a count up to ``top``: the edges of each command's check, powers of two,
# even sizes from 64, then any integer
def sizes(top):
    edges = [v for v in (-1, 0, 1, 63, 64, 127, 128, 255, 256, 257) if v <= top]
    powers = st.integers(0, top.bit_length() - 1).map(lambda e: 2**e)
    evens = st.integers(32, top // 2).map(lambda h: 2 * h)
    return st.one_of(st.sampled_from(edges), powers, evens, st.integers(max_value=top))


class TestFuzzedGridAndTimeArguments:
    """Grid sizes, counts, time steps and horizons exit typed, never with a traceback.

    Sizes stay small enough to run (evolve n <= 256 and T/dt <= 2000, spectrum n <= 2048);
    test_refused_allocation_exits_3 covers sizes the machine refuses.
    """

    @given(command=st.sampled_from(["build-wave", "spectrum"]), n=sizes(2048),
           count=sizes(4096), which=st.sampled_from(["L1", "L2"]))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_profile_and_spectrum_sizes(self, tmp_path_factory, command, n, count, which):
        extra = [f"--count={count}", f"--which={which}"] if command == "spectrum" else []
        rc = main(["--output-dir", str(tmp_path_factory.mktemp("fuzz")), command, *WAVE,
                   f"--n={n}", *extra])
        assert rc in (0, 2, 3)

    @given(count=sizes(1000), gamma=st.sampled_from([-2.0, 0.0, 2.0, math.inf]))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_delta_spectrum_count(self, tmp_path_factory, count, gamma):
        out = tmp_path_factory.mktemp("fuzz")
        rc = main(["--output-dir", str(out), "delta-spectrum", f"--gamma={gamma!r}",
                   "--half-period", "1", f"--count={count}"])
        assert rc in (0, 2, 3)
        assert (rc == 0) == (count >= 1)

    # T = dt * ratio, so T/dt <= 2000 where T and dt are finite and positive
    @given(n=st.one_of(sizes(256), st.sampled_from([64, 128, 256])),
           dt=st.one_of(EXTREME, st.floats(1e-4, 0.1)),
           ratio=st.one_of(st.floats(0.0, 2000.0), st.floats(max_value=2000.0),
                           st.sampled_from([math.nan, math.inf])))
    @example(n=256, dt=1e-3, ratio=2000.0)
    @example(n=64, dt=5e-324, ratio=1.5)
    @example(n=64, dt=1e300, ratio=1.0)
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_evolve_grid_and_time_step(self, tmp_path_factory, n, dt, ratio):
        rc = main(["--output-dir", str(tmp_path_factory.mktemp("fuzz")), "evolve", *WAVE,
                   f"--n={n}", f"--dt={dt!r}", f"--T={dt * ratio!r}"])
        assert rc in (0, 2, 3, 4)


class TestReadmeFlags:
    """README's text and build_parser() name the same long flags, in both directions."""

    NOT_OURS = {"--no-build-isolation"}  # pip's, in the install line

    @staticmethod
    def readme_flags():
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return set(re.findall(r"--[A-Za-z][\w-]*", text))

    @staticmethod
    def parser_flags():
        parser = build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        return {flag for p in (parser, *commands.choices.values())
                for flag in p._option_string_actions if flag.startswith("--")} - {"--help"}

    def test_every_flag_readme_names_exists(self):
        assert self.readme_flags() - self.NOT_OURS - self.parser_flags() == set()

    def test_every_flag_is_in_readme(self):
        assert self.parser_flags() - self.readme_flags() == set()
