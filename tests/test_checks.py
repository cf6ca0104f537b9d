import json
import math

import numpy as np
import pytest

from orbit_kahler import CHECK_NAMES, make_spectrum, run_checks
from orbit_kahler.checks import _report_max
from orbit_kahler.sampling import random_spectrum
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

    def test_fault_injection_fails_j_squared(self):
        reports = _suite(perturb_j=1e-3)
        by_name = {r.check_name: r for r in reports}
        assert not by_name["j_squared"].passed
        others = [r for r in reports if r.check_name != "j_squared"]
        assert all(r.passed for r in others)

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

    def test_single_cluster_dims_rejected(self):
        # every dim-1 spectrum is a single cluster, so drawing a point with a
        # nonzero tangent space once looped forever
        with pytest.raises(ValueError, match="single-cluster"):
            _suite(dims=(1,), samples=2)

    @pytest.mark.parametrize("perturb_j", [math.nan, math.inf])
    def test_non_finite_perturb_j_rejected(self, perturb_j):
        with pytest.raises(ValueError, match="perturb_j must be finite"):
            _suite(perturb_j=perturb_j)


def test_random_spectrum_rejects_dim_below_1():
    with pytest.raises(ValueError, match="dim must be >= 1, got 0"):
        random_spectrum(0, np.random.default_rng(0))


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

    def test_finite_ties_keep_the_last_sample(self):
        pairs = [(0.0, {"sample": 0}), (2e-10, {"sample": 1}), (1e-10, {"sample": 2}),
                 (2e-10, {"sample": 3})]
        report = _report_max("suite", pairs, 4, 1e-9, extra=1)
        assert report.max_residual == 2e-10 and report.passed
        assert report.worst_case == {"sample": 3, "extra": 1}
