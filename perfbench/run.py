"""Benchmark of orbit_kahler: seeded workloads through the CLI and the library.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` it reports the end-to-end metrics, measured with tracing
off. A workload's input is a few pieces, each made from a seed derived from
``--seed``; one body runs one piece and takes 30 to 60 ms. A run repeats
the pieces in turn (a round) for ``--seconds`` and times every body.
``wall_s`` is the sum over the pieces of each piece's fastest body: other
tenants of a shared host slow the same body by up to 1.9x for seconds at a
time, in CPU time as well as wall time, so a run's median tracks the host
while the fastest bodies track the program. The median, quartiles and count
of the round times are printed too. With ``--trace 1`` it reports the
per-layer metrics of a traced run (see ``tracing.py``). The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the run's metadata and every metric with its quartiles.

The program is imported from ``src/`` of the same checkout; without it the
benchmark exits with code 2 and prints no result.
"""

import time

_STARTED = time.perf_counter()  # set-up time of a probe process counts from here

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKLOAD_NAMES = ("sweep_qubit", "checks_catalog", "bounds_large")
SETUP_REPEATS = 9   # fresh processes per run; setup_s is their median
# one caller with matrices of d <= 32: a one-thread OpenBLAS pool keeps the
# pool's start-up, whose cost varies widely between processes, out of setup_s
BLAS_THREADS = "1"
MIN_ROUNDS = 3      # timed rounds per phase, even when --seconds runs out first
END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s", "op_p50_us": "us",
              "peak_rss_mb": "MB"}


class ProgramMissing(RuntimeError):
    pass


def load_program():
    """Import orbit_kahler from this checkout's ``src/`` and nowhere else."""
    package = ROOT / "src" / "orbit_kahler"
    if not (package / "__init__.py").is_file():
        raise ProgramMissing(f"no orbit_kahler package under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import orbit_kahler
    if Path(orbit_kahler.__file__).resolve().parent != package.resolve():
        raise ProgramMissing(f"orbit_kahler imported from {orbit_kahler.__file__}")
    return orbit_kahler


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def _blas_threads():
    """OpenBLAS pool size, read from the library numpy loaded."""
    import numpy as np
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def metadata(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": len(os.sched_getaffinity(0)),
            "seed": seed}


def _setup_probe(workload: str, seed: int, size: str) -> float:
    """Set-up time of one fresh process: import orbit_kahler and build inputs."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload,
         "--seed", str(seed), "--size", size],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


class Phase:
    """Timed rounds of one phase and the failures found in their outputs."""

    def __init__(self, pieces: int):
        self.walls = [[] for _ in range(pieces)]            # per piece, per round
        self.unit_latencies = [[] for _ in range(pieces)]   # per piece, per round
        self.identical = [0] * pieces   # bodies whose output equals the warm-up output
        self.failed = 0                 # failed units in bodies whose output differs

    @property
    def rounds(self) -> int:
        return len(self.walls[0])

    def round_walls(self) -> list:
        return [sum(walls) for walls in zip(*self.walls)]


def time_rounds(workload, pieces, references, seconds: float, mark_unit,
                min_rounds: int = MIN_ROUNDS, phase: Phase = None) -> Phase:
    """Time rounds for ``seconds`` and at least ``min_rounds`` rounds,
    appending to ``phase`` when one is given."""
    phase = phase or Phase(len(pieces))
    clock = time.perf_counter
    deadline = clock() + seconds
    done = phase.rounds + min_rounds
    while phase.rounds < done or clock() < deadline:
        for i, (inputs, reference) in enumerate(zip(pieces, references)):
            t0 = clock()
            payload, latencies = workload.body(inputs, mark_unit)
            phase.walls[i].append(clock() - t0)
            if latencies:
                phase.unit_latencies[i].append(latencies)
            # outputs are deterministic: one equal to the warm-up output shares
            # its verification; any other output is verified on its own
            if payload == reference:
                phase.identical[i] += 1
            else:
                phase.failed += workload.verify(inputs, payload)
    return phase


def _no_unit():
    pass


def _time_suites(inputs, reference_text: str):
    """Seconds per catalog suite, run one at a time; each suite draws from
    its own SeedSequence child, so alone it must reproduce its line of the
    full run. Returns (metrics, failed units)."""
    import workloads
    run_checks = importlib.import_module("orbit_kahler.checks").run_checks
    expected = workloads.parse_check_lines(reference_text)
    metrics, failed = {}, 0
    for suite in inputs.expected:
        t0 = time.perf_counter()
        reports = run_checks(names=[suite], **inputs.run_checks_kwargs)
        metrics[f"checks.{suite}.s"] = time.perf_counter() - t0
        record = expected.get(suite, {})
        if not (len(reports) == 1 and reports[0].max_residual == record.get("max_residual")
                and reports[0].samples == record.get("samples")
                and reports[0].passed == record.get("passed")):
            failed += inputs.expected[suite]
    return metrics, failed


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 size: str = "full", setup_repeats: int = SETUP_REPEATS) -> dict:
    """Run one workload; returns the result object and a summary for humans."""
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        pieces = workloads.build_pieces(name, seed, workdir, workloads.SIZES[size])
        units_per_round = sum(inputs.units for inputs in pieces)
        setups = ([] if trace else
                  [_setup_probe(name, seed, size) for _ in range(setup_repeats)])
        started = time.perf_counter()
        references = [workload.body(inputs, _no_unit)[0] for inputs in pieces]  # warm-up
        warm_up_s = time.perf_counter() - started
        if trace:
            # untraced rounds fill the run; then MIN_ROUNDS traced rounds,
            # which keep the spans in memory small, alternate with untraced
            # ones, and each pair gives one overhead ratio
            untraced = time_rounds(workload, pieces, references,
                                   seconds - 2 * MIN_ROUNDS * warm_up_s, _no_unit)
            tracer = tracing.Tracer()
            traced, paired = Phase(len(pieces)), Phase(len(pieces))
            for _ in range(MIN_ROUNDS):
                with tracer.installed():
                    time_rounds(workload, pieces, references, 0.0, tracer.mark_unit,
                                min_rounds=1, phase=traced)
                time_rounds(workload, pieces, references, 0.0, _no_unit,
                            min_rounds=1, phase=paired)
            phases = [untraced, traced, paired]
        else:
            phases = [time_rounds(workload, pieces, references, seconds, _no_unit)]
            peak_rss = _peak_rss_mb()
        failed = sum(p.failed for p in phases)
        for i, (inputs, reference) in enumerate(zip(pieces, references)):
            failed += sum(p.identical[i] for p in phases) * workload.verify(inputs, reference)
        attempted = units_per_round * sum(p.rounds for p in phases)
        if trace:
            units = tracing.layer_metric_units()
            values = dict.fromkeys(units, 0.0)
            values.update(tracer.metrics(traced.rounds, traced.rounds * units_per_round))
            values["trace.overhead_ratio"] = statistics.median(
                t / u for t, u in zip(traced.round_walls(), paired.round_walls()))
            if workload.body is workloads.body_cli:
                values["serialize.bytes_out"] = sum(len(text.encode("utf-8"))
                                                    for _, text in references)
            if name == "checks_catalog":
                for inputs, (_, text) in zip(pieces, references):
                    suite_times, suite_failed = _time_suites(inputs, text)
                    for key, value in suite_times.items():
                        values[key] += value
                    failed += suite_failed
            tracer.write(WORK / f"spans-{name}.csv")
            summary = {}
        else:
            units = END_TO_END
            phase = phases[0]
            wall = sum(min(walls) for walls in phase.walls)
            if phase.unit_latencies[0]:
                # each unit's fastest repeat; their median over all units
                op_us = 1e6 * statistics.median(
                    min(unit) for per_round in phase.unit_latencies for unit in zip(*per_round))
                latencies = [x for per_round in phase.unit_latencies
                             for body in per_round for x in body]
            else:
                op_us = 1e6 * wall / units_per_round
                latencies = [w / units_per_round for w in phase.round_walls()]
            values = {"setup_s": statistics.median(setups), "wall_s": wall,
                      "ops_per_s": units_per_round / wall, "op_p50_us": op_us,
                      "peak_rss_mb": peak_rss}
            summary = {"setup_s": setups, "round_s": phase.round_walls(),
                       "op_us": [1e6 * x for x in latencies],
                       "timed_one_by_one": bool(phase.unit_latencies[0])}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()}}
    summary.update(unit=workload.unit, pieces=len(pieces), units_per_round=units_per_round,
                   rounds=[p.rounds for p in phases])
    return {"result": result, "summary": summary}


def _print_summary(name: str, seed: int, out: dict):
    result, summary = out["result"], out["summary"]
    print(json.dumps({"meta": metadata(seed), "workload": name}))
    print(f"workload {name}: unit = one {summary['unit']}, {summary['pieces']} pieces, "
          f"{summary['units_per_round']} units per round, rounds {summary['rounds']}")
    for key in ("setup_s", "round_s", "op_us"):
        if key in summary:
            values = summary[key]
            q1, q3 = _quartiles(values)
            print(f"  {key:<12} median {statistics.median(values):.6g}  "
                  f"q1 {q1:.6g}  q3 {q3:.6g}  min {min(values):.6g}  n {len(values)}")
    if summary.get("timed_one_by_one"):
        latencies = sorted(summary["op_us"])
        # p99 needs at least ten samples beyond it
        if len(latencies) >= 1000:
            p99 = statistics.quantiles(latencies, n=100)[98]
            print(f"  op_p99_us    {p99:.6g} us  (n {len(latencies)})")
    elif "op_us" in summary:
        print("  op_p99_us    n/a: units inside one CLI call are not timed one by one")
    for key, metric in result["metrics"].items():
        print(f"  {key:<40} {metric['value']:.6g} {metric['unit']}")
    if "setup_s" not in result["metrics"]:
        import tracing
        for layer, (_, target) in tracing.LAYERS.items():
            print(f"  layer {layer} should move {target}")
    rate = result["failed"] / result["attempted"]
    print(f"  error_rate   {rate:.6g}  ({result['failed']} of {result['attempted']} units)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS   # before numpy loads
    try:
        load_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.setup_probe:
        import workloads
        WORK.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix="probe-", dir=WORK))
        try:
            workloads.build_pieces(args.workload, args.seed, workdir,
                                   workloads.SIZES[args.size])
            print(repr(time.perf_counter() - _STARTED))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    out = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.size)
    _print_summary(args.workload, args.seed, out)
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
