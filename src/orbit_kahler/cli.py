"""Command-line interface.

Subcommands::

    spectrum     RHO                      eigenvalue clusters and frame of a density
    tangent      RHO H                    tangent vector generated by H at rho
    kahler       RHO A B                  omega, metric, and Hermitian product
    uncertainty  RHO A B [--csv PATH]     both uncertainty bounds and slacks
    checks       [--dims ...]             run every invariant suite
    evolve       RHO H --t-max T --steps N   unitary flow, one JSON line per sample
    sweep        --grid a:b:n | --spectra F  CSV of bounds across a spectrum grid

Matrices are read as ``{"n": ..., "re": [[...]], "im": [[...]]}``. Exit codes:
0 success, 2 input or parse error, 3 domain validation error, 4 internal
theorem violation, 5 check-suite failure. The seed defaults to the
``ORBIT_KAHLER_SEED`` environment variable, then 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .checks import run_checks
from .config import Config
from .dynamics import trajectory
from .errors import (
    DegenerateDriftError,
    DegenerateGapError,
    DimMismatchError,
    NegativeVarianceError,
    NonRealResultError,
    NotDensityError,
    NotHermitianError,
    NotOffDiagonalError,
    NotUnitaryError,
    OrbitKahlerError,
    TheoremViolationError,
)
from .kahler import kahler_evaluation
from .operators import make_hermitian, orbit_batch, orbit_point
from .sampling import gaussian_hermitian
from .serialize import (
    check_report_to_json,
    dumps,
    hermitian_from_json,
    kahler_evaluation_to_json,
    matrix_to_json,
    spectrum_from_json,
    spectrum_to_json,
    trajectory_json_lines,
    uncertainty_report_to_json,
)
from .tangent import tangent_map
from .uncertainty import full_report, full_report_batch

_EXIT_INPUT = 2
_EXIT_DOMAIN = 3
_EXIT_THEOREM = 4
_EXIT_CHECKS = 5

# sweep stacks at most this many matrix entries per pass, which bounds its
# memory at large dims
_SWEEP_CHUNK_ENTRIES = 2 ** 16

_DOMAIN_ERRORS = (
    NotHermitianError,
    NotUnitaryError,
    NotDensityError,
    DegenerateGapError,
    NotOffDiagonalError,
    NegativeVarianceError,
    NonRealResultError,
    DegenerateDriftError,
)


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_hermitian(path: str, cfg: Config):
    return hermitian_from_json(_load_json(path), cfg)


def _build_config(args) -> Config:
    cfg = Config.from_json(args.config) if args.config else Config()
    overrides = {}
    if args.hbar is not None:
        overrides["hbar"] = args.hbar
    if args.tol is not None:
        overrides["tol_check"] = args.tol
    if args.fd_step is not None:
        overrides["fd_step"] = args.fd_step
    return cfg.replace(**overrides) if overrides else cfg


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("ORBIT_KAHLER_SEED")
    return int(env) if env else 0


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args) -> int:
    cfg = _build_config(args)
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    payload = spectrum_to_json(point.spectrum)
    payload["frame"] = matrix_to_json(point.frame)
    _emit([dumps(payload)], args.out)
    return 0


def _cmd_tangent(args) -> int:
    cfg = _build_config(args)
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    x = tangent_map(_load_hermitian(args.generator, cfg), point, cfg)
    _emit([dumps(matrix_to_json(x.ambient))], args.out)
    return 0


def _cmd_kahler(args) -> int:
    cfg = _build_config(args)
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    a = _load_hermitian(args.a, cfg)
    b = _load_hermitian(args.b, cfg)
    _emit([dumps(kahler_evaluation_to_json(kahler_evaluation(a, b, point, cfg)))],
          args.out)
    return 0


def _cmd_uncertainty(args) -> int:
    cfg = _build_config(args)
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    a = _load_hermitian(args.a, cfg)
    b = _load_hermitian(args.b, cfg)
    report = full_report(a, b, point, cfg)
    _emit([dumps(uncertainty_report_to_json(report))], args.out)
    if args.csv:
        fresh = not os.path.exists(args.csv)
        with open(args.csv, "a", encoding="utf-8") as fh:
            if fresh:
                fh.write("deltaA,deltaB,product,geom,rs\n")
            fh.write(f"{report.deltaA!r},{report.deltaB!r},{report.product!r},"
                     f"{report.geometric_bound!r},{report.rs_bound!r}\n")
    return 0


def _cmd_checks(args) -> int:
    cfg = _build_config(args)
    dims = tuple(int(part) for part in args.dims.split(","))
    samples = min(args.samples, 100) if args.quick else args.samples
    spectra = None
    if args.spectra:
        spectra = [spectrum_from_json(item, cfg) for item in _load_json(args.spectra)]
    reports = run_checks(dims=dims, samples=samples, seed=_seed(args), cfg=cfg,
                         perturb_j=args.perturb_j, spectra=spectra)
    _emit([dumps(check_report_to_json(r)) for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else _EXIT_CHECKS


def _cmd_evolve(args) -> int:
    cfg = _build_config(args)
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    generator = _load_hermitian(args.generator, cfg)
    traj = trajectory(point, generator, args.t_max, args.steps, cfg)
    _emit(trajectory_json_lines(traj), args.out)
    return 0


def _parse_grid(text: str):
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"grid must be START:STOP:NUM, got {text!r}")
    start, stop = float(parts[0]), float(parts[1])
    num = int(parts[2])
    if num < 1 or not 0.0 <= start <= 1.0 or not 0.0 <= stop <= 1.0:
        raise ValueError(f"bad grid {text!r}: need num >= 1 and 0 <= p <= 1")
    return np.linspace(start, stop, num)


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    if (args.grid is None) == (args.spectra is None):
        raise ValueError("provide exactly one of --grid or --spectra")
    if args.grid is not None:
        eigenvalue_rows = [np.array([p, 1.0 - p]) for p in _parse_grid(args.grid)]
    else:
        spectra = [spectrum_from_json(item, cfg) for item in _load_json(args.spectra)]
        eigenvalue_rows = [s.full_values() for s in spectra]
    dims = {len(row) for row in eigenvalue_rows}
    if len(dims) != 1:
        raise ValueError(f"all spectra in one sweep must share a dimension, got {dims}")
    dim = dims.pop()

    if (args.a is None) != (args.b is None):
        raise ValueError("provide both --a and --b, or neither")
    if args.a is not None:
        a = _load_hermitian(args.a, cfg)
        b = _load_hermitian(args.b, cfg)
    else:
        seed = _seed(args)
        a = gaussian_hermitian(dim, np.random.default_rng(seed))
        b = gaussian_hermitian(dim, np.random.default_rng(seed + 1))
    if a.dim != dim or b.dim != dim:
        raise DimMismatchError(
            f"observable dims {a.dim}, {b.dim} vs spectrum dim {dim}")

    header = ",".join([f"p{i + 1}" for i in range(dim)]
                      + ["deltaA", "deltaB", "product", "geom_bound", "rs_bound"])
    lines = [header]
    values = np.sort(np.array(eigenvalue_rows), axis=1)[:, ::-1]
    chunk = max(1, _SWEEP_CHUNK_ENTRIES // dim ** 2)
    for start in range(0, len(values), chunk):
        rows = values[start:start + chunk]
        rhos = np.zeros(rows.shape + (dim,), dtype=complex)
        rhos[:, np.arange(dim), np.arange(dim)] = rows
        try:
            report = full_report_batch(a, b, orbit_batch(rhos, cfg), cfg)
        except OrbitKahlerError:
            _raise_failing_row(a, b, rhos, start, cfg)
            raise
        columns = (report.deltaA, report.deltaB, report.product,
                   report.geometric_bound, report.rs_bound)
        for row, *cells in zip(rows.tolist(), *(column.tolist() for column in columns)):
            lines.append(",".join(map(repr, row + cells)))
    _emit(lines, args.out)
    return 0


def _raise_failing_row(a, b, rhos, start: int, cfg: Config):
    """Replay a failed sweep chunk one row at a time, so the error is the one
    the first failing row raises, named by its row in the whole sweep."""
    for row, rho in enumerate(rhos, start):
        try:
            full_report(a, b, orbit_point(make_hermitian(rho, cfg), cfg), cfg)
        except OrbitKahlerError as exc:
            raise type(exc)(f"row {row}: {exc}") from exc


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file mirroring the Config fields")
    parser.add_argument("--hbar", type=float, help="override hbar")
    parser.add_argument("--tol", type=float, help="override the cross-check tolerance")
    parser.add_argument("--fd-step", type=float, dest="fd_step",
                        help="override the finite-difference step")
    parser.add_argument("--seed", type=int, help="random seed "
                        "(default: ORBIT_KAHLER_SEED, then 0)")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="orbit-kahler",
        description="Geometry of density-operator orbits: symplectic form, "
                    "complex structure, metric, and uncertainty bounds.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="eigenvalue clusters and frame of a density")
    p.add_argument("rho", help="density matrix JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("tangent", help="tangent vector generated by H at rho")
    p.add_argument("rho")
    p.add_argument("generator", help="Hermitian generator JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_tangent)

    p = sub.add_parser("kahler", help="omega, metric, and Hermitian product")
    p.add_argument("rho")
    p.add_argument("a")
    p.add_argument("b")
    _add_common(p)
    p.set_defaults(func=_cmd_kahler)

    p = sub.add_parser("uncertainty", help="uncertainty bounds for two observables")
    p.add_argument("rho")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--csv", help="append a deltaA,deltaB,product,geom,rs row here")
    _add_common(p)
    p.set_defaults(func=_cmd_uncertainty)

    p = sub.add_parser("checks", help="run every invariant suite")
    p.add_argument("--dims", default="2,3,4,5,6",
                   help="comma-separated dimensions to sample (default 2,3,4,5,6)")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per suite (default 200)")
    p.add_argument("--quick", action="store_true", help="cap samples at 100")
    p.add_argument("--spectra", help="JSON list of spectra to sample orbits from")
    p.add_argument("--perturb-J", type=float, default=0.0, dest="perturb_j",
                   help="fault-injection hook: offset J^2 by this factor")
    _add_common(p)
    p.set_defaults(func=_cmd_checks)

    p = sub.add_parser("evolve", help="sample the unitary flow of a generator")
    p.add_argument("rho")
    p.add_argument("generator")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--steps", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_evolve)

    p = sub.add_parser("sweep", help="CSV of uncertainty bounds across spectra")
    p.add_argument("--grid", help="qubit grid START:STOP:NUM over p (rho=diag(p,1-p))")
    p.add_argument("--spectra", help="JSON list of spectra")
    p.add_argument("--a", help="observable A JSON file (default: seeded random)")
    p.add_argument("--b", help="observable B JSON file")
    _add_common(p)
    p.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_THEOREM
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except (DimMismatchError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
