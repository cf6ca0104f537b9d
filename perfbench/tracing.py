"""Per-layer tracing from outside the program.

Each layer is a module of ``orbit_kahler``. The tracer replaces the listed
public functions at every module attribute that binds them (the package uses
``from .x import y``, so ``uncertainty.full_report`` is also bound as
``cli.full_report`` and ``checks.full_report``), plus ``numpy.linalg.eigh``
and ``numpy.linalg.qr``. Every call records a span: name, start, end, parent
span and unit id. Spans stay in memory until the run writes them out. A
span's self time is its duration minus that of its direct children.

The program is single-caller and synchronous, with no queue or lock, so no
layer has a waiting time to report.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

from workloads import FD_SUITES, PANEL_SUITES, PLAIN_SUITES

# layer -> (wrapped public functions, the end-to-end metric and workload the
# layer should move)
LAYERS = {
    "operators": (("orbit_point", "random_density", "haar_unitary", "conjugate_point",
                   "with_gauge", "make_hermitian", "OrbitPoint.to_frame"),
                  "wall_s on sweep_qubit and bounds_large"),
    "tangent": (("tangent_map", "lift", "split_kernel"),
                "wall_s on checks_catalog and sweep_qubit"),
    "kahler": (("apply_J", "j_generator", "symplectic", "symplectic_tangent", "metric",
                "hermitian_product", "hermitian_product_blocks", "kahler_evaluation"),
               "wall_s on checks_catalog and bounds_large"),
    "uncertainty": (("full_report", "uncertainty", "geometric_bound", "rs_bound",
                     "variance_decomposition"),
                    "ops_per_s on sweep_qubit, op_p50_us on bounds_large"),
    "sampling": (("random_spectrum", "gaussian_hermitian", "random_gauge"),
                 "wall_s on checks_catalog; no change elsewhere"),
    "integrability": (("nijenhuis_fd", "closedness_check", "involutivity_check",
                       "nondegeneracy_check"),
                      "wall_s on checks_catalog"),
    "dynamics": (("evolve", "unitary_propagator", "trajectory"),
                 "wall_s on checks_catalog"),
    "serialize": (("matrix_to_json", "dumps", "trajectory_json_lines"),
                  "wall_s on checks_catalog"),
    "cli": (("main",), "wall_s on sweep_qubit"),
    "checks": (("run_checks",), "wall_s on checks_catalog"),
}
KERNELS = ("eigh", "qr")  # numpy.linalg; counts repeat exactly, so caching shows
TAGGED_DIMS = (16, 32)
# dimension of the call, for the per-dim latency of these two functions
_DIM_OF = {"operators.orbit_point": lambda args: args[0].dim,
           "uncertainty.full_report": lambda args: args[2].dim}


def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    out = {}
    for layer, (functions, _) in LAYERS.items():
        if layer in ("cli", "checks"):
            out[f"{layer}.self_s"] = "s"
        else:
            for fn in functions:
                out[f"{layer}.{fn}.calls"] = "calls/unit"
                out[f"{layer}.{fn}.self_s"] = "s"
        if layer in ("operators", "uncertainty"):
            fn = "orbit_point" if layer == "operators" else "full_report"
            for d in TAGGED_DIMS:
                out[f"{layer}.{fn}.us_per_call.d{d}"] = "us"
        if layer == "serialize":
            out["serialize.bytes_out"] = "B"
        if layer == "checks":
            for suite in PLAIN_SUITES + PANEL_SUITES + FD_SUITES:
                out[f"checks.{suite}.s"] = "s"
        out[f"{layer}.errors"] = "count"
    for kernel in KERNELS:
        out[f"numpy.linalg.{kernel}.calls"] = "calls/unit"
        out[f"numpy.linalg.{kernel}.self_s"] = "s"
    out["trace.overhead_ratio"] = "ratio"
    return out


class Tracer:
    """Wraps the program's layer functions and records one span per call."""

    def __init__(self):
        # span: (id, name, parent id, unit id, start, end, dim tag, raised),
        # appended when the call ends; tuples of atomic values leave the
        # garbage collector's tracked set, so many spans do not slow the run
        self.spans = []
        self.unit = -1
        self._ids = itertools.count()
        self._stack = []
        self._patched = []   # (owner, attribute, original)

    def mark_unit(self):
        self.unit += 1

    def _wrap(self, name: str, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter
        dim_of = _DIM_OF.get(name)
        tracer = self

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            dim = dim_of(args) if dim_of else None
            stack.append(span_id)
            raised = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, parent, tracer.unit, start, end, dim, raised))

        return traced

    def _patch(self, owner, attribute: str, wrapper):
        self._patched.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, wrapper)

    @contextlib.contextmanager
    def installed(self):
        program = [m for n, m in list(sys.modules.items())
                   if n == "orbit_kahler" or n.startswith("orbit_kahler.")]
        try:
            for layer, (functions, _) in LAYERS.items():
                module = sys.modules[f"orbit_kahler.{layer}"]
                for fn_name in functions:
                    if "." in fn_name:
                        cls_name, method = fn_name.split(".")
                        owner = getattr(module, cls_name)
                        self._patch(owner, method, self._wrap(f"{layer}.{fn_name}",
                                                              owner.__dict__[method]))
                        continue
                    original = getattr(module, fn_name)
                    wrapper = self._wrap(f"{layer}.{fn_name}", original)
                    for owner in program:
                        for attribute, value in list(vars(owner).items()):
                            if value is original:
                                self._patch(owner, attribute, wrapper)
            for kernel in KERNELS:
                self._patch(np.linalg, kernel,
                            self._wrap(f"numpy.linalg.{kernel}", getattr(np.linalg, kernel)))
            yield self
        finally:
            for owner, attribute, original in reversed(self._patched):
                setattr(owner, attribute, original)
            self._patched.clear()

    def metrics(self, rounds: int, units: int) -> dict:
        """calls per unit, self seconds per round, errors, and per-dim latency."""
        child = [0.0] * len(self.spans)   # ids run from 0 without gaps
        for _, _, parent, _, start, end, _, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = Counter()
        self_s = defaultdict(float)
        errors = Counter()
        by_dim = defaultdict(list)
        for span_id, name, _, _, start, end, dim, raised in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child[span_id]
            errors[name.split(".")[0]] += raised
            if dim in TAGGED_DIMS:
                by_dim[(name, dim)].append(end - start)
        out = {}
        for metric in layer_metric_units():
            parts = metric.split(".")
            if metric in ("cli.self_s", "checks.self_s"):
                value = self_s[f"{parts[0]}.{LAYERS[parts[0]][0][0]}"] / rounds
            elif parts[-1] == "calls":
                value = calls[".".join(parts[:-1])] / units
            elif parts[-1] == "self_s":
                value = self_s[".".join(parts[:-1])] / rounds
            elif parts[-1] == "errors":
                value = errors[parts[0]]
            elif parts[-2] == "us_per_call":
                samples = by_dim[(".".join(parts[:2]), int(parts[-1][1:]))]
                value = 1e6 * statistics.median(samples) if samples else 0.0
            else:
                continue   # measured by the runner, not from spans
            out[metric] = value
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "parent", "unit", "name", "start_s", "end_s", "dim",
                             "raised"])
            for span_id, name, parent, unit, start, end, dim, raised in sorted(self.spans):
                writer.writerow([span_id, parent, unit, name, f"{start:.9f}", f"{end:.9f}",
                                 "" if dim is None else dim, int(raised)])
