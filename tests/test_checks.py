import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from orbit_kahler import CHECK_NAMES, DEFAULT_CONFIG, make_spectrum, run_checks
from orbit_kahler.cli import main
from orbit_kahler.checks import (
    _UNMIXED,
    _Instances,
    _block_normals,
    _draw,
    _gauges,
    _report_max,
)
from orbit_kahler.operators import _complex, random_density
from orbit_kahler.sampling import (
    _hermitian_part,
    _spectrum_bounds,
    _spectrum_draw,
    maximally_mixed_spectrum,
    pure_spectrum,
    random_gauge,
    random_spectrum,
)
from orbit_kahler.serialize import check_report_to_json, dumps


def _suite(**kwargs):
    defaults = dict(dims=(2, 3, 4), samples=20, seed=11)
    defaults.update(kwargs)
    return run_checks(**defaults)


class TestRunChecks:
    def test_catalog_complete_and_green(self):
        reports = _suite()
        assert [r.check_name for r in reports] == list(CHECK_NAMES)
        failing = [r.check_name for r in reports if not r.passed]
        assert failing == []

    def test_deterministic_given_seed(self):
        first = [dumps(check_report_to_json(r)) for r in _suite()]
        second = [dumps(check_report_to_json(r)) for r in _suite()]
        assert first == second

    def test_seed_changes_worst_cases(self):
        first = _suite(names=["j_squared"])[0]
        second = _suite(names=["j_squared"], seed=99)[0]
        assert first.worst_case != second.worst_case

    def test_name_filter(self):
        reports = _suite(names=["omega_antisymmetry", "ehrenfest"])
        assert {r.check_name for r in reports} == {"omega_antisymmetry", "ehrenfest"}

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            _suite(names=["nope"])

    def test_spectra_pool_respected(self):
        pool = [make_spectrum([0.6, 0.4], [1, 1]), make_spectrum([0.5, 0.25], [1, 2])]
        reports = _suite(spectra=pool, names=["j_squared", "block_formula"])
        for report in reports:
            assert report.passed
            values = tuple(report.worst_case["spectrum"]["values"])
            assert values in {(0.6, 0.4), (0.5, 0.25)}

    def test_reports_serialize(self):
        for report in _suite(samples=5):
            json.loads(dumps(check_report_to_json(report)))

    @pytest.mark.parametrize("dims", [(), (0,), (2, -1)])
    def test_dims_below_1_rejected(self, dims):
        with pytest.raises(ValueError, match="dims must be nonempty and >= 1"):
            _suite(dims=dims)

    @pytest.mark.parametrize("dims", [(2.7,), (True,), (2, 3.5), (math.nan,)])
    def test_non_integer_dims_rejected(self, dims):
        # int() once truncated 2.7 to 2 and True to 1
        with pytest.raises(ValueError, match="dims must be integers"):
            _suite(dims=dims, samples=2, names=["j_squared"])

    def test_integral_dims_accepted(self):
        runs = [_suite(dims=dims, samples=2, names=["j_squared"])
                for dims in ((2, 3), (2.0, np.int64(3)))]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("samples", [2.5, True, math.nan])
    def test_non_integer_samples_rejected(self, samples):
        # range() once raised a bare TypeError on 2.5
        with pytest.raises(ValueError, match="samples must be an integer"):
            _suite(samples=samples, names=["j_squared"])

    @pytest.mark.parametrize("samples", [2.0, np.int64(2)])
    def test_integral_samples_accepted(self, samples):
        # a count follows the rule of every other count: integral values pass
        assert _suite(samples=samples, names=["j_squared"]) == _suite(samples=2, names=["j_squared"])

    def test_single_cluster_dims_rejected(self):
        # every dim-1 spectrum is a single cluster, so drawing a point with a
        # nonzero tangent space once looped forever
        with pytest.raises(ValueError, match="single-cluster"):
            _suite(dims=(1,), samples=2)

    def test_empty_spectra_pool_rejected(self):
        with pytest.raises(ValueError, match="spectra pool is empty"):
            _suite(spectra=[])


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("args, golden", [
    # the benchmark's shape: two samples per suite over dims 2..6
    (["--seed", "0", "--samples", "2"], "checks_seed0_samples2.jsonl"),
    # three finite-difference samples per suite, dims up to 12
    (["--seed", "1", "--samples", "75", "--dims", "2,4,8,12"],
     "checks_seed1_samples75_dims2_4_8_12.jsonl"),
    # the default run at hbar != 1, where a dropped or squared hbar shows
    (["--seed", "1", "--hbar", "0.7"], "checks_seed1_hbar0_7.jsonl"),
    # five rows per dim group in every finite-difference and flow suite
    (["--seed", "2", "--samples", "250", "--dims", "2,3"],
     "checks_seed2_samples250_dims2_3.jsonl"),
])
def test_golden_output(args, golden, capsys):
    # the printed residuals and worst cases are pinned, byte for byte
    assert main(["checks"] + args) == 0
    assert capsys.readouterr().out == (DATA / golden).read_text()


@pytest.mark.parametrize("config, message", [
    # every point of the catalog fails the frame check; the first one drawn
    # (j_squared, sample 0) is named, with no row prefix
    ({"tol_unitary": 1e-18}, "error: frame unitarity defect 2.221e-16\n"),
    # the points pass, and the real check of omega fails at metric_symmetry's
    # first sample
    ({"tol_check": 1e-30}, "error: symplectic form has imaginary part -1.110e-16; "
                           "inputs are likely not Hermitian\n"),
])
def test_first_failing_sample_named(config, message, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["checks", "--samples", "2", "--config", str(path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == message


def test_first_failing_flow_sample_named(monkeypatch):
    # white box: the flows of samples 1..4 of one dim group fail the frame
    # check, sample 0's pass; the error is sample 1's own drift, naming the
    # time of its first flowed row, with no row prefix
    import orbit_kahler.operators as operators
    from orbit_kahler import DegenerateDriftError
    from orbit_kahler.errors import NotUnitaryError

    original, failing = operators._require_frame, []

    def require_frame(rho, frame, values, cfg):
        point = original(rho, frame, values, cfg)
        if not failing:
            # the first pass builds the group's points, in sample order
            failing.extend(values[1:])
            return point
        bad = [any(np.array_equal(row, v) for v in failing) for row in values]
        if any(bad):
            raise operators._BatchFailure(bad.index(True), NotUnitaryError("injected"))
        return point

    monkeypatch.setattr(operators, "_require_frame", require_frame)
    step = DEFAULT_CONFIG.fd_step
    with pytest.raises(DegenerateDriftError,
                       match=f"^flow for time {step} left the validated orbit "
                             "neighborhood: injected$"):
        run_checks(dims=(3,), samples=125, seed=0, names=["nijenhuis_fd"])
    assert len(failing) == 4


@pytest.fixture(scope="module", params=[2, 30])
def full_catalog(request):
    samples = request.param
    reports = run_checks(samples=samples, seed=4)
    return samples, {r.check_name: dumps(check_report_to_json(r)) for r in reports}


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_single_suite_matches_full_run(full_catalog, name):
    # every suite draws from its own child stream, whatever else runs
    samples, lines = full_catalog
    alone = run_checks(samples=samples, seed=4, names=[name])
    assert [dumps(check_report_to_json(r)) for r in alone] == [lines[name]]


@pytest.mark.parametrize("module, entries", [("checks", 1), ("checks", 60), ("operators", 1)],
                         ids=["1", "60", "panel-passes-1"])
def test_chunked_catalog_unchanged(module, entries, monkeypatch):
    # pending draws are built and evaluated whenever they reach the chunk
    # size in matrix entries: after every sample, or every few samples; a
    # panel point's samples are drawn and evaluated in passes of that size,
    # here one sample each
    def lines():
        return [dumps(check_report_to_json(r)) for r in _suite(samples=12, seed=3)]
    whole = lines()
    monkeypatch.setattr(f"orbit_kahler.{module}._CHUNK_ENTRIES", entries)
    assert lines() == whole


def test_random_spectrum_rejects_dim_below_1():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        random_spectrum(0, np.random.default_rng(0))


class _BoundedRng(np.random.Generator):
    """A seeded Generator that fails after ``limit`` uniform draws, so that a
    rejection loop which can never accept fails instead of spinning."""

    def __init__(self, seed, limit=1000):
        super().__init__(np.random.PCG64(seed))  # the stream of default_rng(seed)
        self._left = limit

    def uniform(self, *args, **kwargs):
        self._left -= 1
        assert self._left >= 0, "the rejection loop accepted no draw"
        return super().uniform(*args, **kwargs)


def test_random_spectrum_rejects_bounds_it_cannot_meet():
    for kwargs in ({"max_mult": 0}, {"max_clusters": 0}):
        with pytest.raises(ValueError, match="max_clusters and max_mult must be >= 1"):
            random_spectrum(4, _BoundedRng(0), **kwargs)
    # 3 or 4 levels drawn from [0.1, 1.0) span less than 0.9 < 2 * 0.5
    for seed in range(4):
        with pytest.raises(ValueError, match="levels in \\[0.1, 1.0\\) cannot be 0.5 apart"):
            random_spectrum(4, _BoundedRng(seed), min_gap=0.5)
    # two levels 0.5 apart can be drawn
    assert random_spectrum(2, _BoundedRng(0), min_gap=0.5).k == 2


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint8)


def test_spectrum_draw_is_random_spectrum():
    # the catalog's draw on bounds checked once gives random_spectrum's values,
    # value types and stream state, over the grid of its numpy-rejection test
    for kwargs in ((4, 3, .05), (8, 6, .05), (2, 6, .05), (4, 3, 0), (3, 4, .2)):
        for dim in range(1, 13):
            bounds = _spectrum_bounds(dim, *kwargs)
            for seed in range(300):
                rng, expected = np.random.default_rng(seed), np.random.default_rng(seed)
                s = _spectrum_draw(rng, *bounds, DEFAULT_CONFIG)
                t = random_spectrum(dim, expected, *kwargs)
                assert (s.values, s.mults) == (t.values, t.mults)
                assert list(map(type, s.values + s.mults)) == list(map(type, t.values + t.mults))
                assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("observables, normals", [(0, 0), (1, 0), (2, 0), (3, 0), (2, 1)])
def test_catalog_draws_are_per_matrix_draws(observables, normals):
    # one standard_normal call per sample, complex and Hermitian parts taken
    # over a dim's samples at once as _evaluate takes them, gives the bits,
    # signed zeros included, of the point's normals, each Gaussian observable
    # and each further Haar normal drawn one matrix at a time, and the same
    # stream state
    def one_matrix(dim, rng):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    draw = _draw(observables, _UNMIXED, normals=normals)
    for dim in range(1, 9):
        for seed in range(20):
            rng, looped = np.random.default_rng(seed), np.random.default_rng(seed)
            inst = _Instances((dim,), rng, DEFAULT_CONFIG)
            drawn = [draw(inst, index) for index in range(3)]
            stacked = _complex(np.concatenate([d[1] for d in drawn]))
            gaussians = _hermitian_part(stacked)
            for i, (spectrum, _, *extra) in enumerate(drawn):
                assert spectrum == random_spectrum(dim, looped)
                row = i * (1 + observables)
                assert np.array_equal(_bits(stacked[row]), _bits(one_matrix(dim, looped)))
                for j in range(1, 1 + observables):
                    m = one_matrix(dim, looped)
                    assert np.array_equal(_bits(gaussians[row + j]), _bits(0.5 * (m + m.conj().T)))
                for z in extra:
                    assert np.array_equal(_bits(_complex(z)), _bits(one_matrix(dim, looped)))
            assert rng.bit_generator.state == looped.bit_generator.state


def test_gauges_built_at_evaluation_are_random_gauge():
    # the block normals drawn per sample, turned into gauges with one QR per
    # block size over the samples, are random_gauge's gauges bit for bit
    for dim in range(1, 9):
        rng = np.random.default_rng(dim)
        spectra = ([random_spectrum(dim, rng, max_clusters=8, max_mult=6) for _ in range(10)]
                   + [maximally_mixed_spectrum(dim), pure_spectrum(dim)])
        points = [random_density(spectrum, rng) for spectrum in spectra]
        drawn, looped = np.random.default_rng(100 + dim), np.random.default_rng(100 + dim)
        blocks = [_block_normals(SimpleNamespace(rng=drawn, spectrum=s)) for s in spectra]
        for gauge, p in zip(_gauges(blocks, dim), points):
            assert np.array_equal(_bits(gauge), _bits(random_gauge(p, looped)))
        assert drawn.bit_generator.state == looped.bit_generator.state


class TestReportMax:
    @pytest.mark.parametrize("residuals, worst", [
        ([1e-12, math.nan, 1e-3], 1),  # later finite residuals do not replace it
        ([math.nan, 0.0], 0),
    ])
    def test_nan_residual_fails_the_report(self, residuals, worst):
        pairs = [(r, {"sample": i}) for i, r in enumerate(residuals)]
        report = _report_max("suite", pairs, len(pairs), 1e-9)
        assert math.isnan(report.max_residual)
        assert not report.passed
        assert report.worst_case == {"sample": worst}

    def test_residuals_below_zero_keep_no_sample(self):
        # a zero tangent's residual is -inf: it is never the worst case
        pairs = [(-math.inf, {"sample": 0}), (-1.0, {"sample": 1})]
        report = _report_max("suite", pairs, 2, 1e-9, extra=1)
        assert report.max_residual == 0.0 and report.worst_case == {"extra": 1}

    def test_finite_ties_keep_the_last_sample(self):
        pairs = [(0.0, {"sample": 0}), (2e-10, {"sample": 1}), (1e-10, {"sample": 2}),
                 (2e-10, {"sample": 3})]
        report = _report_max("suite", pairs, 4, 1e-9, extra=1)
        assert report.max_residual == 2e-10 and report.passed
        assert report.worst_case == {"sample": 3, "extra": 1}
