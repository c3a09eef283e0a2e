"""Command-line surface: reproducible experiments with CSV/JSON emission.

Every emitted CSV gets a JSON sidecar carrying the full configuration,
tolerances, package version, and any residual diagnostics, so a result
file is reproducible from its sidecar alone.  Numeric output uses 17
significant digits ('%.17g', '.' decimal separator) which round-trips
IEEE doubles exactly.

Exit codes: 0 ok, 2 admissibility violation (an output path the OS
refuses included), 3 numeric failure (an allocation the machine refuses
included), 4 inconclusive verdict under --strict-inconclusive.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from . import __version__, delta_op
from .errors import (
    EXIT_INCONCLUSIVE,
    EXIT_NUMERICS,
    EXIT_OK,
    AdmissibilityError,
    NlsDeltaError,
    exit_code_for,
)
from .evolve import DEFAULT_SEED, run_experiment
from .stability import Row, Verdict, classify
from .wave import WaveParams, build_profile

__all__ = ["main"]

_FMT = "%.17g"
_MAX_DELTA_COUNT = 10_000  # delta-spectrum solves one mode at a time, ~50 us each


def _fmt(value: float) -> str:
    return _FMT % value


@contextlib.contextmanager
def _refused(what: str, path: Path):
    """Re-raise an OSError of the path operation inside as an AdmissibilityError naming the path."""
    try:
        yield
    except OSError as exc:
        raise AdmissibilityError(f"cannot {what} {str(path)!r}: {exc.strerror or exc}") from exc


def _out_dir(args: argparse.Namespace) -> Path:
    # Explicit flag wins; then the environment override; then cwd.
    if args.output_dir is not None:
        d = Path(args.output_dir)
    else:
        d = Path(os.environ.get("NLSDELTA_OUTDIR", "."))
    with _refused("make the output directory", d):
        d.mkdir(parents=True, exist_ok=True)
    return d


def _target(args: argparse.Namespace, name: str) -> Path:
    """The output file ``name`` in the output directory, refused before any compute unless its
    parent is a directory (a prefix may name a subdirectory)."""
    path = _out_dir(args) / name
    if not path.parent.is_dir():
        raise AdmissibilityError(
            f"cannot write {str(path)!r}: {str(path.parent)!r} is not a directory")
    return path


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with _refused("write", path), path.open("w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(
                ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row) + "\n"
            )


def _write_sidecar(path: Path, args: argparse.Namespace, extra: dict | None = None) -> None:
    payload = {
        "version": __version__,
        "config": vars(args) | {"func": None},
        **(extra or {}),
    }
    sidecar = path.with_suffix(".json")
    with _refused("write", sidecar):
        sidecar.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _wave_params(args: argparse.Namespace) -> WaveParams:
    return WaveParams(args.omega, args.z, args.half_period)


def cmd_build_wave(args: argparse.Namespace) -> int:
    out = _target(args, f"{args.prefix}_profile.csv")
    profile = build_profile(_wave_params(args), n=args.n)
    diag = profile.diagnostics()
    _write_csv(out, ["x", "phi"], zip(profile.x.tolist(), profile.samples.tolist()))
    _write_sidecar(
        out,
        args,
        {
            "solved": profile.orbit._asdict() | {
                "phi0": profile.phi0,
                "sign_branch": profile.sign_branch.value,
            },
            "residuals": diag,
        },
    )
    print(f"wrote {out} (pde residual {diag['pde_residual']:.3e})")
    return EXIT_OK


def cmd_spectrum(args: argparse.Namespace) -> int:
    from . import linops  # imports scipy.linalg, which no other command needs
    out = _target(args, f"{args.prefix}_{args.which}_spectrum.csv")
    profile = build_profile(_wave_params(args))
    op = linops.assemble(profile, linops.Which(args.which), args.n)
    spec = linops.spectrum(op, args.count)
    idx = linops.index(op)
    rows = [
        (i, float(lam), par.value)
        for i, (lam, par) in enumerate(zip(spec.eigenvalues, spec.parities))
    ]
    _write_csv(out, ["index", "eigenvalue", "parity"], rows)
    _write_sidecar(out, args, {"n_negative": idx.n_negative, "band": idx.band,
                               "expected_kernel": idx.expected_kernel, "surplus": idx.surplus})
    print(f"wrote {out} (n_negative={idx.n_negative})")
    return EXIT_OK


def cmd_delta_spectrum(args: argparse.Namespace) -> int:
    if args.count > _MAX_DELTA_COUNT:
        raise AdmissibilityError(f"--count must be <= {_MAX_DELTA_COUNT}, got {args.count}")
    out = _target(args, f"{args.prefix}_delta_spectrum.csv")
    op = delta_op.DeltaOperator(gamma=args.gamma, halfperiod=args.half_period)
    modes = delta_op.full_spectrum(op, args.count)
    _write_csv(out, ["eigenvalue", "kind", "parity"], delta_op.spectrum_rows(modes))
    _write_sidecar(out, args)
    print(f"wrote {out} ({len(modes)} eigenvalues)")
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    out = _target(args, f"{args.prefix}_classification.json")
    report = classify(_wave_params(args))
    row, orbit = report.row, report.orbit
    numerics = orbit._asdict() | {
        "period_residual": report.period_residual,
        "dT_deta2": report.dT_deta2,
        "deta2_domega": report.deta2_domega,
        "dphi_0plus": -0.5 * report.params.z * orbit.phi,  # its sign and dT_deta2's give the counts
    }
    _write_sidecar(out, args, row._asdict() | {"numerics": numerics})
    print(f"{row.verdict} (n={row.n_negative}, p={row.p_index}, slope={row.slope:.6g}) -> {out}")
    if args.strict_inconclusive and report.verdict is Verdict.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def cmd_evolve(args: argparse.Namespace) -> int:
    out = _target(args, f"{args.prefix}_trace.csv")
    trace = run_experiment(
        _wave_params(args),
        args.perturb,
        T=args.T,
        dt=args.dt,
        n=args.n,
        scheme=args.scheme,
        seed=args.seed,
    )
    _write_csv(out, ["t", "Q", "E", "orbit_distance", "odd_residual"], trace.rows())
    _write_sidecar(out, args, {"blown_up": trace.blown_up, "blowup_time": trace.blowup_time})
    d = trace.orbit_distance
    print(f"wrote {out} (final distance {d[-1]:.3e}, blow-up={trace.blown_up})")
    return EXIT_OK


def _sweep_point(task: tuple[float, float, float]) -> tuple[Row, str | None]:
    """The point's row, and the message of the error it raised (None if it classified)."""
    try:
        return classify(WaveParams(*task)).row, None
    except NlsDeltaError as exc:
        return Row(*task, -1, -1, -1, math.nan, f"error:{type(exc).__name__}", False), str(exc)


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.omega_steps < 1:
        raise AdmissibilityError(f"--omega-steps must be >= 1, got {args.omega_steps}")
    for flag, value in (("--omega-min", args.omega_min), ("--omega-max", args.omega_max)):
        if not math.isfinite(value):
            raise AdmissibilityError(f"{flag} must be finite, got {value}")
    if not 0.0 < args.half_period < math.inf:
        raise AdmissibilityError(f"--half-period must be finite and > 0, got {args.half_period}")
    try:
        zs = [float(token) for token in args.z_values.split(",")]
    except ValueError as exc:
        raise AdmissibilityError(f"--z-values: {exc}") from exc
    if not all(map(math.isfinite, zs)):
        raise AdmissibilityError(f"--z-values must be finite, got {args.z_values}")
    omegas = np.linspace(args.omega_min, args.omega_max, args.omega_steps)
    tasks = [(float(w), z, args.half_period) for w in omegas for z in zs]
    out = _target(args, f"{args.prefix}_sweep.csv")
    rows: list[tuple[Row, str | None]] = []

    def flush() -> None:
        _write_csv(out, Row._fields, (row for row, _ in rows))
        errors = [{"omega": row.omega, "z": row.z, "half_period": row.half_period,
                   "message": message} for row, message in rows if message is not None]
        _write_sidecar(out, args, {"points": len(rows), "errors": errors})

    flush()  # a path the OS refuses to write is refused here, before the first cell
    try:
        rows.extend(map(_sweep_point, tasks))  # appends row by row, so an interrupt keeps them
    finally:
        flush()  # whatever finished, including on interrupt
    print(f"wrote {out} ({len(rows)}/{len(tasks)} points)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads -inf and every token opening with -digit or -.digit as a value, not an option.

    Python 3.11 takes only -12 and -1.5 for negative numbers, so -1e-05 or -inf (as '%.17g'
    writes them) or the list -1,1 after a space was an unknown option.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\.?\d|inf$)")


def _add_wave_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--half-period", type=float, required=True)


@functools.cache  # one parser per process, built on first use
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nlsdelta",
        description="Standing waves of cubic NLS with a periodic point defect",
    )
    parser.add_argument("--output-dir", default=None, help="overrides $NLSDELTA_OUTDIR")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-wave", help="solve and emit a profile")
    _add_wave_args(p)
    p.add_argument("--n", type=int, default=4096)
    p.add_argument("--prefix", default="wave")
    p.set_defaults(func=cmd_build_wave)

    p = sub.add_parser("spectrum", help="linearized-operator spectrum")
    _add_wave_args(p)
    p.add_argument("--which", choices=["L1", "L2"], default="L1")
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--count", type=int, default=8)
    p.add_argument("--prefix", default="linop")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("delta-spectrum", help="point-interaction operator spectrum")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--half-period", type=float, required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--prefix", default="delta")
    p.set_defaults(func=cmd_delta_spectrum)

    p = sub.add_parser("classify", help="stability verdict at one point")
    _add_wave_args(p)
    p.add_argument("--strict-inconclusive", action="store_true")
    p.add_argument("--prefix", default="point")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("evolve", help="perturbed standing-wave experiment")
    _add_wave_args(p)
    p.add_argument("--perturb", default="even:1e-3", help="kind:amplitude")
    p.add_argument("--T", type=float, default=50.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--n", type=int, default=512)
    p.add_argument("--scheme", choices=["exact", "fd"], default="exact")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--prefix", default="run")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("sweep", help="classification lattice")
    p.add_argument("--omega-min", type=float, required=True)
    p.add_argument("--omega-max", type=float, required=True)
    p.add_argument("--omega-steps", type=int, default=5)
    p.add_argument("--z-values", default="1,-1")
    p.add_argument("--half-period", type=float, required=True)
    p.add_argument("--prefix", default="lattice")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NlsDeltaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: {args.command} ran out of memory: {str(exc) or 'an allocation was refused'}",
              file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
