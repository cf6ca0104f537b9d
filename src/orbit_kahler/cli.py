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
import contextlib
import dataclasses
import itertools
import json
import os
import sys

import numpy as np

from .checks import run_checks
from .config import Config, _integer
from .dynamics import trajectory
from .errors import DimMismatchError, OrbitKahlerError, TheoremViolationError
from .kahler import kahler_evaluation
from .operators import _orbit_stack, _passes, _prefixed, _stacked, orbit_point
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
from .uncertainty import _report, full_report

_EXIT_INPUT = 2
_EXIT_DOMAIN = 3
_EXIT_THEOREM = 4
_EXIT_CHECKS = 5

def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _load_hermitian(path: str, cfg: Config):
    return hermitian_from_json(_load_json(path), cfg)


def _load_spectra(path: str, cfg: Config) -> list:
    items = _load_json(path)
    if not isinstance(items, list):
        raise ValueError(f"{path} must hold a JSON list of spectra, got {type(items).__name__}")
    return [spectrum_from_json(item, cfg) for item in items]


def _build_config(args) -> Config:
    cfg = Config.from_json(args.config) if args.config else Config()
    overrides = {"hbar": args.hbar, "tol_check": args.tol, "fd_step": args.fd_step}
    return dataclasses.replace(cfg, **{k: v for k, v in overrides.items() if v is not None})


def _seed(args) -> int:
    """``--seed``, else ``ORBIT_KAHLER_SEED``, else 0, as an integer >= 0."""
    if args.seed is not None:
        return _integer("seed", args.seed, 0)
    env = os.environ.get("ORBIT_KAHLER_SEED") or "0"
    try:
        value = int(env)
    except ValueError:
        raise ValueError(f"ORBIT_KAHLER_SEED must be an integer, got {env!r}") from None
    return _integer("ORBIT_KAHLER_SEED", value, 0)


def _emit(lines, out_path):
    """Write each of ``lines`` with a newline to ``out_path``, or to stdout."""
    sink = open(out_path, "w", encoding="utf-8") if out_path else contextlib.nullcontext(sys.stdout)
    with sink as fh:
        for line in lines:
            fh.write(line + "\n")


def _cmd_spectrum(args, cfg: Config) -> int:
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    payload = spectrum_to_json(point.spectrum)
    payload["frame"] = matrix_to_json(point.frame)
    _emit([dumps(payload)], args.out)
    return 0


def _cmd_tangent(args, cfg: Config) -> int:
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    x = tangent_map(_load_hermitian(args.generator, cfg), point, cfg)
    _emit([dumps(matrix_to_json(x.ambient))], args.out)
    return 0


def _cmd_kahler(args, cfg: Config) -> int:
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    a = _load_hermitian(args.a, cfg)
    b = _load_hermitian(args.b, cfg)
    _emit([dumps(kahler_evaluation_to_json(kahler_evaluation(a, b, point, cfg)))],
          args.out)
    return 0


def _cmd_uncertainty(args, cfg: Config) -> int:
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


def _cmd_checks(args, cfg: Config) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(","))
    except ValueError:
        raise ValueError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    samples = min(args.samples, 100) if args.quick else args.samples
    spectra = _load_spectra(args.spectra, cfg) if args.spectra else None
    reports = run_checks(dims=dims, samples=samples, seed=_seed(args), cfg=cfg,
                         spectra=spectra)
    _emit([dumps(check_report_to_json(r)) for r in reports], args.out)
    return 0 if all(r.passed for r in reports) else _EXIT_CHECKS


def _cmd_evolve(args, cfg: Config) -> int:
    point = orbit_point(_load_hermitian(args.rho, cfg), cfg)
    generator = _load_hermitian(args.generator, cfg)
    traj = trajectory(point, generator, args.t_max, args.steps, cfg)
    _emit(trajectory_json_lines(traj), args.out)
    return 0


def _parse_grid(text: str):
    try:
        start, stop, num = text.split(":")
        start, stop, num = float(start), float(stop), int(num)
    except ValueError:
        raise ValueError(f"--grid must be START:STOP:NUM, two numbers and an integer, "
                         f"got {text!r}") from None
    if num < 1 or not 0.0 <= start <= 1.0 or not 0.0 <= stop <= 1.0:
        raise ValueError(f"bad grid {text!r}: need num >= 1 and 0 <= p <= 1")
    return np.linspace(start, stop, num)


def _cmd_sweep(args, cfg: Config) -> int:
    if (args.grid is None) == (args.spectra is None):
        raise ValueError("provide exactly one of --grid or --spectra")
    if args.grid is not None:
        p = _parse_grid(args.grid)
        values = np.stack([p, 1.0 - p], axis=1)
    else:
        rows = [s.full_values() for s in _load_spectra(args.spectra, cfg)]
        dims = {len(row) for row in rows}
        if len(dims) != 1:
            raise ValueError(f"all spectra in one sweep must share a dimension, got {dims}")
        values = np.array(rows)
    values = np.sort(values, axis=1)[:, ::-1]
    dim = values.shape[1]

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
    # every row is evaluated before any is written, so a failing sweep writes nothing
    table = np.empty((len(values), dim + 5))
    table[:, :dim] = values
    for chunk in _passes(len(values), dim ** 2):
        rows = values[chunk]
        rhos = np.zeros(rows.shape + (dim,), dtype=complex)
        rhos[:, np.arange(dim), np.arange(dim)] = rows
        # deltaA to rs_bound; a failing row is named by its row in the sweep
        table[chunk, dim:] = np.stack(_stacked(
            lambda stack: _report(a.matrix, b.matrix, _orbit_stack(stack, cfg), cfg)[:5], rhos,
            lambda m, error: _prefixed(chunk.start + m, error)), axis=1)
    lines = (",".join(map(repr, row)) for chunk in _passes(len(table), dim ** 2)
             for row in table[chunk].tolist())
    _emit(itertools.chain([header], lines), args.out)
    return 0


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file mirroring the Config fields")
    parser.add_argument("--hbar", type=float, help="override hbar")
    parser.add_argument("--tol", type=float, help="override the cross-check tolerance")
    parser.add_argument("--fd-step", type=float, dest="fd_step",
                        help="override the finite-difference step")
    parser.add_argument("--seed", type=int, help="random seed "
                        "(default: ORBIT_KAHLER_SEED, then 0)")
    parser.add_argument("--out", help="write output to this file instead of stdout")


def _args_spectrum(p: argparse.ArgumentParser):
    p.add_argument("rho", help="density matrix JSON file")


def _args_tangent(p: argparse.ArgumentParser):
    p.add_argument("rho")
    p.add_argument("generator", help="Hermitian generator JSON file")


def _args_kahler(p: argparse.ArgumentParser):
    p.add_argument("rho")
    p.add_argument("a")
    p.add_argument("b")


def _args_uncertainty(p: argparse.ArgumentParser):
    _args_kahler(p)
    p.add_argument("--csv", help="append a deltaA,deltaB,product,geom,rs row here")


def _args_checks(p: argparse.ArgumentParser):
    p.add_argument("--dims", default="2,3,4,5,6",
                   help="comma-separated dimensions to sample (default 2,3,4,5,6)")
    p.add_argument("--samples", type=int, default=200,
                   help="samples per suite (default 200)")
    p.add_argument("--quick", action="store_true", help="cap samples at 100")
    p.add_argument("--spectra", help="JSON list of spectra to sample orbits from")


def _args_evolve(p: argparse.ArgumentParser):
    p.add_argument("rho")
    p.add_argument("generator")
    p.add_argument("--t-max", type=float, required=True, dest="t_max")
    p.add_argument("--steps", type=int, required=True)


def _args_sweep(p: argparse.ArgumentParser):
    p.add_argument("--grid", help="qubit grid START:STOP:NUM over p (rho=diag(p,1-p))")
    p.add_argument("--spectra", help="JSON list of spectra")
    p.add_argument("--a", help="observable A JSON file (default: seeded random)")
    p.add_argument("--b", help="observable B JSON file")


# name -> (help, adds the subcommand's own arguments, handler), in help order
_COMMANDS = {
    "spectrum": ("eigenvalue clusters and frame of a density", _args_spectrum,
                 _cmd_spectrum),
    "tangent": ("tangent vector generated by H at rho", _args_tangent, _cmd_tangent),
    "kahler": ("omega, metric, and Hermitian product", _args_kahler, _cmd_kahler),
    "uncertainty": ("uncertainty bounds for two observables", _args_uncertainty,
                    _cmd_uncertainty),
    "checks": ("run every invariant suite", _args_checks, _cmd_checks),
    "evolve": ("sample the unitary flow of a generator", _args_evolve, _cmd_evolve),
    "sweep": ("CSV of uncertainty bounds across spectra", _args_sweep, _cmd_sweep),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser, with only the subcommand ``command`` if it names one
    and with all seven otherwise."""
    parser = argparse.ArgumentParser(
        prog="orbit-kahler",
        description="Geometry of density-operator orbits: symplectic form, "
                    "complex structure, metric, and uncertainty bounds.")
    # the metavar keeps all seven in the usage line; on the full parser it would
    # rename the command in the invalid-choice and required errors
    if command in _COMMANDS:
        names = (command,)
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(_COMMANDS) + "}")
    else:
        names = tuple(_COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_arguments, handler = _COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        add_arguments(p)
        _add_common(p)
        p.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return args.func(args, _build_config(args))
    except (DimMismatchError, OSError, ValueError, KeyError) as exc:
        # json.JSONDecodeError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except TheoremViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_THEOREM
    except OrbitKahlerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
