"""End-to-end tests of the command-line surface.

Everything goes through main() with an isolated --output-dir; files are
re-read and checked for schema, determinism, and exit-code contract.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlsdelta.cli import _SWEEP_HEADER, build_parser, main
from nlsdelta.evolve import DEFAULT_SEED
from nlsdelta.stability import classify
from nlsdelta.wave import (
    PERIOD_RESIDUAL_TOL,
    WaveParams,
    period_minus,
    period_plus,
    theta_admissible,
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

    def test_dirichlet_lattice(self, tmp_path):
        main(
            ["--output-dir", str(tmp_path), "delta-spectrum", "--gamma", "0",
             "--half-period", "3.141592653589793", "--count", "3", "--dirichlet"]
        )
        _, rows = read_csv(tmp_path / "delta_delta_spectrum.csv")
        assert [float(r[0]) for r in rows] == pytest.approx([1.0, 4.0, 9.0])


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
        numerics = rep["numerics"]
        tau, below = numerics["band"], numerics["l1_below_band"]
        assert tau > 0.0
        assert all(lam <= tau for lams in below.values() for lam in lams)
        even = sum(lam < -tau for lam in below["even"])
        assert even == rep["n_negative_even"]
        assert even + sum(lam < -tau for lam in below["odd"]) == rep["n_negative"]

    @pytest.mark.parametrize("wave", [WAVE, ["--omega", "20", "--z", "-1", "--half-period", "1"]])
    def test_numerics_report_the_period_solve(self, tmp_path, wave):
        assert main(["--output-dir", str(tmp_path), "classify", *wave]) == 0
        rep = json.loads((tmp_path / "point_classification.json").read_text())
        omega, z, half_period = (float(v) for v in wave[1::2])
        eta2, resid = rep["numerics"]["eta2"], rep["numerics"]["period_residual"]
        assert 0.0 < eta2 < theta_admissible(omega, z)
        assert resid <= PERIOD_RESIDUAL_TOL
        period = period_minus if z >= 0.0 else period_plus
        assert resid == abs(period(eta2, omega, z) - 2.0 * half_period)
        # the sweep-row keys are unchanged: eta2 lives only under numerics
        assert set(rep) == {"version", "config", "numerics", "omega", "z", "half_period",
                            "n_negative", "n_negative_even", "p_index", "slope", "verdict",
                            "kernel_caveat"}
        # written by the sidecar code, so the result records how it was produced
        assert rep["config"]["command"] == "classify"
        assert (rep["config"]["omega"], rep["config"]["z"]) == (omega, z)


class TestParser:
    def test_built_once_and_defaults_do_not_leak(self):
        assert build_parser() is build_parser()
        args = build_parser().parse_args(["evolve", *WAVE, "--seed", "6", "--n", "256"])
        assert (args.seed, args.n) == (6, 256)
        args = build_parser().parse_args(["evolve", *WAVE])
        assert (args.seed, args.n) == (DEFAULT_SEED, 512)


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
        assert header[0] == "omega" and header[7] == "verdict"
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
        report = classify(WaveParams(20.0, 1.0, 0.5))
        assert tuple(report.as_dict()) == _SWEEP_HEADER


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
    def test_overflowing_discriminant_is_numerics_error(self, tmp_path, capsys, z):
        # Z = 0 forms no discriminant; eta1^3 in the period slope overflowed untyped there
        rc = main(["--output-dir", str(tmp_path), "build-wave",
                   "--omega", "1e300", "--z", z, "--half-period", "0.5"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "overflow" in err and "1e+300" in err
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
        rc = main(["--output-dir", str(tmp_path), "classify",
                   "--omega", "20", f"--z={z}", "--half-period", half_period])
        assert rc == 0
        report = json.loads((tmp_path / "point_classification.json").read_text())
        assert report["verdict"] == "inconclusive"

    @pytest.mark.parametrize("z, half_period", [("-1", "0.5"), ("-1e-300", "0.6")])
    def test_trough_refusal_is_not_a_nonexistence_claim(self, tmp_path, capsys, z, half_period):
        # waves with Tmin < 2L <= T1 exist on the rising branch of T_+; the refusal
        # names the branch the solve keeps to (T1 = 1.4902 at Z = -1e-300, not 0.9935)
        rc = main(["--output-dir", str(tmp_path), "classify",
                   "--omega", "20", f"--z={z}", "--half-period", half_period])
        assert rc == 2
        err = capsys.readouterr().err
        assert "T1" in err and "decreasing branch" in err
        assert "no wave" not in err

    def test_lost_bracket_names_the_resolution(self, tmp_path, capsys):
        # 2L = 1.4 is far above T0 = 0.974, but at |Z| = 1e-300 the period falls
        # to T0 only within a relative 1e-12 of theta
        rc = main(["--output-dir", str(tmp_path), "build-wave",
                   "--omega", "5.2", "--z=1e-300", "--half-period", "0.7"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "lost its bracket" in err and "resolution" in err
        assert "too close" not in err and "no wave" not in err

    def test_band_hidden_eigenvalue_strict(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "classify", "--omega", "20",
                   "--z=-0.01", "--half-period", "1", "--strict-inconclusive"])
        assert rc == 4

    def test_sweep_at_subnormal_scale_z(self, tmp_path):
        rc = main(["--output-dir", str(tmp_path), "sweep", "--omega-min", "20",
                   "--omega-max", "20", "--omega-steps", "1", "--z-values", "1e-300",
                   "--half-period", "0.5", "--workers", "1"])
        assert rc == 0
        _, rows = read_csv(tmp_path / "lattice_sweep.csv")
        assert len(rows) == 1 and not rows[0][7].startswith("error")

    @pytest.mark.parametrize("z, half_period", [("0", "20"), ("1", "20"), ("-1", "20"),
                                                ("1", "100"), ("-1", "100")])
    def test_modulus_at_cutoff_exits_3(self, tmp_path, capsys, z, half_period):
        rc = main(["--output-dir", str(tmp_path), "build-wave", "--omega", "1",
                   f"--z={z}", "--half-period", half_period])
        assert rc == 3
        err = capsys.readouterr().err
        assert "K_ONE_CUTOFF" in err and "exist" not in err

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

    @pytest.mark.parametrize("extra", [["--count", "0"], ["--dirichlet", "--count", "-1"]])
    def test_empty_delta_spectrum_rejected(self, tmp_path, capsys, extra):
        rc = main(["--output-dir", str(tmp_path), "delta-spectrum",
                   "--gamma", "0", "--half-period", "1", *extra])
        assert rc == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "delta_delta_spectrum.csv").exists()


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
    # omega just above Z^2/4 (modulus at theta within K_ONE_CUTOFF of 1, s near 0 at the
    # bracket top, a discriminant near 0 inside (0, theta)), then the extremes of scale
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
