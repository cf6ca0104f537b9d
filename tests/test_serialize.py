import json

import numpy as np
import pytest

from orbit_kahler import (
    full_report,
    involutivity_check,
    kahler_evaluation,
    make_spectrum,
    trajectory,
)
from orbit_kahler.serialize import (
    check_report_to_json,
    dumps,
    hermitian_from_json,
    kahler_evaluation_to_json,
    matrix_from_json,
    matrix_to_json,
    spectrum_from_json,
    spectrum_to_json,
    trajectory_json_lines,
    uncertainty_report_to_json,
)


class TestMatrixFormat:
    def test_field_names(self):
        payload = matrix_to_json(np.eye(2, dtype=complex))
        assert set(payload) == {"n", "re", "im"}
        assert payload["n"] == 2

    def test_roundtrip(self):
        m = np.array([[0.5, 0.1 + 0.2j], [0.1 - 0.2j, 0.5]])
        np.testing.assert_array_equal(matrix_from_json(matrix_to_json(m)), m)

    def test_hermitian_roundtrip(self, sigma_y):
        back = hermitian_from_json(matrix_to_json(sigma_y.matrix))
        np.testing.assert_array_equal(back.matrix, sigma_y.matrix)

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_json({"n": 2, "re": [[1, 0]], "im": [[0, 0], [0, 0]]})
        with pytest.raises(ValueError):
            matrix_from_json({"re": [[1]]})


class TestSpectrumFormat:
    def test_field_names_and_roundtrip(self):
        s = make_spectrum([0.7, 0.3], [1, 1])
        payload = spectrum_to_json(s)
        assert payload == {"values": [0.7, 0.3], "mults": [1, 1]}
        assert spectrum_from_json(payload) == s

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            spectrum_from_json({"values": [1.0]})


class TestReportFormats:
    def test_check_report_keys(self, qubit_point):
        payload = check_report_to_json(involutivity_check(qubit_point, 3, 0))
        assert list(payload) == ["check", "max_residual", "samples",
                                 "tolerance", "passed", "worst_case"]
        json.loads(dumps(payload))

    def test_uncertainty_report_keys(self, sigma_x, sigma_y, qubit_point):
        payload = uncertainty_report_to_json(full_report(sigma_x, sigma_y, qubit_point))
        assert list(payload) == ["deltaA", "deltaB", "product", "geometric_bound",
                                 "rs_bound", "slack_geometric", "slack_rs"]

    def test_kahler_evaluation_payload(self, sigma_x, sigma_y, qubit_point):
        payload = kahler_evaluation_to_json(
            kahler_evaluation(sigma_x, sigma_y, qubit_point))
        assert payload["omega"] == pytest.approx(0.8, abs=1e-13)
        assert payload["h"][1] == pytest.approx(0.8, abs=1e-13)


class TestTrajectoryLines:
    def test_one_line_per_sample(self, qubit_point, sigma_x):
        lines = trajectory_json_lines(trajectory(qubit_point, sigma_x, 1.0, 4))
        assert len(lines) == 4
        for line in lines:
            record = json.loads(line)
            assert set(record) == {"t", "rho"}
            assert set(record["rho"]) == {"n", "re", "im"}

    def test_initial_sample_matches(self, qubit_point, sigma_x):
        lines = trajectory_json_lines(trajectory(qubit_point, sigma_x, 1.0, 3))
        first = json.loads(lines[0])
        assert first["t"] == 0.0
        np.testing.assert_allclose(matrix_from_json(first["rho"]), qubit_point.rho)
