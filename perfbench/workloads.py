"""The benchmark workloads: seeded inputs, timed bodies, and verification.

Each workload is a closed loop with one caller in one process. ``build``
makes the inputs from the seed (this is what ``setup_s`` times), ``body`` is
the timed region, and ``verify`` checks one body's output with the
benchmark's own code (closed forms or a numpy reference), never with the
functions under test. ``verify`` returns the
number of failed units.

Program functions are looked up as module attributes at call time, so the
tracer in ``tracing.py`` sees every call the body makes.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

cli = importlib.import_module("orbit_kahler.cli")
operators = importlib.import_module("orbit_kahler.operators")
sampling = importlib.import_module("orbit_kahler.sampling")
kahler = importlib.import_module("orbit_kahler.kahler")
# the package re-exports the function ``uncertainty`` under the module's name
uncertainty = importlib.import_module("orbit_kahler.uncertainty")

HBAR = 1.0
TOL_CHECK = 1e-9  # the program's default cross-check tolerance

# Input sizes, per piece, and the number of pieces of each workload. "full"
# is what the benchmark measures: one piece takes 30 to 60 ms, so a run
# repeats each piece often enough for its fastest repeat to be steady, and
# the pieces together average out how the seed shapes the inputs. "tiny" is
# for the benchmark's own tests.
SIZES = {
    "full": {"sweep_rows": 101, "checks_samples": 2, "checks_dims": (2, 3, 4, 5, 6),
             "bounds_dims": (16, 16, 16, 32), "bounds_repeat": 8,
             "pieces": {"sweep_qubit": 5, "checks_catalog": 24, "bounds_large": 4}},
    "tiny": {"sweep_rows": 21, "checks_samples": 25, "checks_dims": (2, 3),
             "bounds_dims": (16, 16, 16, 32), "bounds_repeat": 1,
             "pieces": {"sweep_qubit": 2, "checks_catalog": 2, "bounds_large": 2}},
}

# The 22 suites of the catalog and their sample counts, as specified by the
# check design: 15 suites draw ``samples`` each, the
# two panel suites split ``samples`` over max(2, 2 * len(dims)) points, and
# the five flow / finite-difference suites draw max(2, min(10, samples // 25)).
PLAIN_SUITES = ("j_squared", "omega_antisymmetry", "metric_symmetry",
                "metric_positivity", "compatibility", "hermitian_symmetry",
                "block_formula", "tangent_roundtrip", "split_orthogonality",
                "ad_equivariance", "gauge_invariance", "uncertainty_bound",
                "rs_baseline", "pure_state_equality", "variance_identity")
PANEL_SUITES = ("involutivity", "nondegeneracy")
FD_SUITES = ("nijenhuis_fd", "closedness_fd", "spectrum_preservation",
             "flow_composition", "ehrenfest")


def expected_suite_samples(samples: int = 200, n_dims: int = 5) -> dict:
    panel_points = max(2, 2 * n_dims)
    counts = {name: samples for name in PLAIN_SUITES}
    counts.update({name: max(1, samples // panel_points) * panel_points
                   for name in PANEL_SUITES})
    counts.update({name: max(2, min(10, samples // 25)) for name in FD_SUITES})
    return counts


def _write_matrix(path: Path, matrix: np.ndarray) -> str:
    path.write_text(json.dumps({"n": int(matrix.shape[0]),
                                "re": matrix.real.tolist(),
                                "im": matrix.imag.tolist()}), encoding="utf-8")
    return str(path)


def _run_cli(argv) -> tuple:
    """One CLI call with stdout captured: (exit code, stdout text)."""
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(list(argv))
    return code, buffer.getvalue()


def _close(x: float, y: float, tol: float) -> bool:
    return math.isfinite(x) and abs(x - y) <= tol


@dataclass
class Workload:
    name: str
    unit: str
    build: Callable      # (seed, workdir, size) -> inputs
    body: Callable       # (inputs, mark_unit) -> (payload, unit latencies or None)
    verify: Callable     # (inputs, payload) -> failed units


# --- sweep_qubit -----------------------------------------------------------

@dataclass
class SweepInputs:
    argv: list
    grid: np.ndarray
    units: int


def build_sweep(seed: int, workdir: Path, size: dict) -> SweepInputs:
    rng = np.random.default_rng(seed)
    # grid ends on multiples of 1e-3 in [0.5, 1] keep every gap 2p - 1 at
    # exactly 0 or above 1e-4, far from the program's ambiguous clustering band
    start = (500 + int(rng.integers(0, 51))) / 1000
    stop = (1000 - int(rng.integers(0, 51))) / 1000
    rows = size["sweep_rows"]
    sx = _write_matrix(workdir / "sigma_x.json", np.array([[0, 1], [1, 0]], dtype=complex))
    sy = _write_matrix(workdir / "sigma_y.json", np.array([[0, -1j], [1j, 0]]))
    argv = ["sweep", "--grid", f"{start!r}:{stop!r}:{rows}", "--a", sx, "--b", sy]
    return SweepInputs(argv=argv, grid=np.linspace(start, stop, rows), units=rows)


def body_cli(inputs, mark_unit):
    mark_unit()
    return _run_cli(inputs.argv), None


def verify_sweep(inputs: SweepInputs, payload) -> int:
    """Closed forms for sigma_x, sigma_y at diag(p, 1 - p): dA = dB = 1 and
    geom = rs = |2p - 1|."""
    code, text = payload
    lines = text.splitlines()
    if code != 0 or not lines or lines[0] != (
            "p1,p2,deltaA,deltaB,product,geom_bound,rs_bound"):
        return inputs.units
    rows = lines[1:]
    failed = max(0, inputs.units - len(rows))
    tol = 1e-12
    for p, row in zip(inputs.grid, rows):
        try:
            p1, p2, da, db, prod, geom, rs = (float(c) for c in row.split(","))
        except ValueError:
            failed += 1
            continue
        gap = abs(2 * p - 1)
        ok = (_close(p1, max(p, 1 - p), tol) and _close(p2, min(p, 1 - p), tol)
              and _close(da, 1.0, tol) and _close(db, 1.0, tol)
              and _close(prod, 1.0, tol)
              and _close(geom, gap, tol) and _close(rs, gap, tol))
        failed += not ok
    return failed + max(0, len(rows) - inputs.units)


# --- checks_catalog ----------------------------------------------------------

@dataclass
class ChecksInputs:
    argv: list
    seed: int
    expected: dict
    units: int
    run_checks_kwargs: dict


def build_checks(seed: int, workdir: Path, size: dict) -> ChecksInputs:
    samples, dims = size["checks_samples"], size["checks_dims"]
    expected = expected_suite_samples(samples, len(dims))
    argv = ["checks", "--seed", str(seed), "--samples", str(samples),
            "--dims", ",".join(str(d) for d in dims)]
    return ChecksInputs(argv=argv, seed=seed, expected=expected,
                        units=sum(expected.values()),
                        run_checks_kwargs={"dims": dims, "samples": samples, "seed": seed})


def parse_check_lines(text: str) -> dict:
    """Suite name -> parsed JSON line; raises ValueError on a bad or repeated line."""
    out = {}
    for line in text.splitlines():
        record = json.loads(line)
        name = record["check"]
        if name in out:
            raise ValueError(f"suite {name} reported twice")
        out[name] = record
    return out


def verify_checks(inputs: ChecksInputs, payload) -> int:
    """Every expected suite appears with its sample count and passes; any
    further suite must pass as well. Exit code 0."""
    code, text = payload
    try:
        records = parse_check_lines(text)
    except (ValueError, KeyError, TypeError):
        return inputs.units
    if code != 0:
        return inputs.units
    failed = 0
    for name, count in inputs.expected.items():
        record = records.get(name)
        if (record is None or record.get("samples") != count
                or record.get("passed") is not True
                or not record.get("max_residual", math.inf) <= record.get("tolerance", -1)):
            failed += count
    for name, record in records.items():
        if name not in inputs.expected and record.get("passed") is not True:
            failed += int(record.get("samples", 1))
    return failed


# --- bounds_large ------------------------------------------------------------

@dataclass
class BoundsInputs:
    triples: list        # (rho HermitianOperator, A, B) in body order
    units: int
    reference: list = None


def build_bounds(seed: int, workdir: Path, size: dict) -> BoundsInputs:
    rng = np.random.default_rng(seed)
    triples = []
    for _ in range(size["bounds_repeat"]):
        for dim in size["bounds_dims"]:
            # multi-cluster, degenerate spectra; the sampler's defaults cannot
            # split d > 12
            spectrum = sampling.random_spectrum(dim, rng, max_clusters=8, max_mult=6)
            rho = operators.make_hermitian(operators.random_density(spectrum, rng).rho)
            triples.append((rho, sampling.gaussian_hermitian(dim, rng),
                            sampling.gaussian_hermitian(dim, rng)))
    return BoundsInputs(triples=triples, units=len(triples))


def body_bounds(inputs: BoundsInputs, mark_unit):
    """One pass over the pool; each unit is orbit_point + full_report +
    kahler_evaluation, timed on its own."""
    results = []
    latencies = []
    clock = time.perf_counter
    for rho, a, b in inputs.triples:
        mark_unit()
        t0 = clock()
        try:
            point = operators.orbit_point(rho)
            r = uncertainty.full_report(a, b, point)
            e = kahler.kahler_evaluation(a, b, point)
            result = (r.deltaA, r.deltaB, r.product, r.geometric_bound, r.rs_bound,
                      e.omega, e.metric)
        except Exception as exc:  # a failed unit is counted, never retried
            result = repr(exc)
        latencies.append(clock() - t0)
        results.append(result)
    return tuple(results), latencies


def _bounds_reference(rho: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Variances by direct traces and h = (2/hbar) sum_{la > lb} (la - lb)
    A~_ab conj(B~_ab) in the eigenframe of rho; RS from its definition."""
    w, v = np.linalg.eigh(rho)
    fa = v.conj().T @ a @ v
    fb = v.conj().T @ b @ v
    weight = np.maximum(w[:, None] - w[None, :], 0.0)
    h = complex(2.0 / HBAR * np.sum(weight * fa * fb.conj()))
    mean_a = np.trace(rho @ a).real
    mean_b = np.trace(rho @ b).real
    var_a = np.trace(rho @ a @ a).real - mean_a ** 2
    var_b = np.trace(rho @ b @ b).real - mean_b ** 2
    ab, ba = a @ b, b @ a
    cov = np.trace(rho @ (ab + ba)).real / 2 - mean_a * mean_b
    comm = np.trace(rho @ (ab - ba)).imag / 2
    norm_a, norm_b = np.linalg.norm(a), np.linalg.norm(b)
    return var_a, var_b, h, float(np.hypot(cov, comm)), norm_a, norm_b


def verify_bounds(inputs: BoundsInputs, payload) -> int:
    if inputs.reference is None:
        inputs.reference = [_bounds_reference(rho.matrix, a.matrix, b.matrix)
                            for rho, a, b in inputs.triples]
    failed = max(0, inputs.units - len(payload))
    for result, ref in zip(payload, inputs.reference):
        if not isinstance(result, tuple):
            failed += 1
            continue
        da, db, prod, geom, rs, omega, metric = result
        var_a, var_b, h_ref, rs_ref, norm_a, norm_b = ref
        # tolerances scale with the operands: bilinear in (A, B), quadratic in A
        tol_ab = TOL_CHECK * max(1.0, norm_a * norm_b)
        ok = (_close(da * da, var_a, TOL_CHECK * max(1.0, norm_a ** 2))
              and _close(db * db, var_b, TOL_CHECK * max(1.0, norm_b ** 2))
              and _close(prod, da * db, tol_ab)
              and _close(geom, 0.5 * HBAR * abs(h_ref), tol_ab)
              and _close(rs, rs_ref, tol_ab)
              and _close(metric, h_ref.real, tol_ab)
              and _close(omega, h_ref.imag, tol_ab)
              and geom <= prod + tol_ab and rs <= prod + tol_ab)
        failed += not ok
    return failed


def build_pieces(name: str, seed: int, workdir: Path, size: dict) -> list:
    """The inputs of one run: piece i is built from seed * pieces + i."""
    count = size["pieces"][name]
    pieces = []
    for i in range(count):
        piece_dir = workdir / f"piece-{i}"
        piece_dir.mkdir()
        pieces.append(WORKLOADS[name].build(seed * count + i, piece_dir, size))
    return pieces


# Why each workload was chosen is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w for w in (
        Workload("sweep_qubit", "row", build_sweep, body_cli, verify_sweep),
        Workload("checks_catalog", "check sample", build_checks, body_cli, verify_checks),
        Workload("bounds_large", "triple", build_bounds, body_bounds, verify_bounds),
    )
}
