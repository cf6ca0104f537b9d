import json
from pathlib import Path

import numpy as np
import pytest

from orbit_kahler.cli import main
from orbit_kahler.serialize import matrix_to_json

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
DATA = Path(__file__).parent / "data"


def _write_matrix(path, matrix):
    path.write_text(json.dumps(matrix_to_json(np.asarray(matrix, dtype=complex))))
    return str(path)


@pytest.fixture
def qubit_files(tmp_path):
    return {
        "rho": _write_matrix(tmp_path / "rho.json", np.diag([0.7, 0.3])),
        "a": _write_matrix(tmp_path / "a.json", SX),
        "b": _write_matrix(tmp_path / "b.json", SY),
    }


class TestSpectrumCommand:
    def test_diagonal_density(self, qubit_files, capsys):
        assert main(["spectrum", qubit_files["rho"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == [0.7, 0.3]
        assert payload["mults"] == [1, 1]
        assert payload["frame"]["n"] == 2

    def test_maximally_mixed(self, tmp_path, capsys):
        rho = _write_matrix(tmp_path / "mixed.json", np.eye(2) * 0.5)
        assert main(["spectrum", rho]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["values"] == [0.5]
        assert payload["mults"] == [2]

    def test_non_density_exits_3(self, tmp_path, capsys):
        rho = _write_matrix(tmp_path / "bad.json", np.diag([1.3, -0.3]))
        assert main(["spectrum", rho]) == 3

    def test_parse_error_exits_2(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        assert main(["spectrum", str(path)]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["spectrum", str(tmp_path / "absent.json")]) == 2

    def test_non_finite_matrix_exits_3(self, tmp_path, capsys):
        # JSON's Infinity literal parses to float inf
        rho = tmp_path / "inf.json"
        rho.write_text('{"n": 2, "re": [[Infinity, 0], [0, 1]], "im": [[0, 0], [0, 0]]}')
        assert main(["spectrum", str(rho)]) == 3
        assert "non-finite entries" in capsys.readouterr().err


class TestTangentAndKahlerCommands:
    def test_tangent_output(self, qubit_files, capsys):
        assert main(["tangent", qubit_files["rho"], qubit_files["a"]]) == 0
        payload = json.loads(capsys.readouterr().out)
        matrix = np.asarray(payload["re"]) + 1j * np.asarray(payload["im"])
        np.testing.assert_allclose(matrix, [[0, 0.4j], [-0.4j, 0]], atol=1e-12)

    def test_kahler_output(self, qubit_files, capsys):
        args = ["kahler", qubit_files["rho"], qubit_files["a"], qubit_files["b"]]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(0.8, abs=1e-12)
        assert payload["metric"] == pytest.approx(0.0, abs=1e-12)
        assert payload["h"][1] == pytest.approx(0.8, abs=1e-12)

    def test_hbar_flag_scales_omega(self, qubit_files, capsys):
        args = ["kahler", qubit_files["rho"], qubit_files["a"], qubit_files["b"],
                "--hbar", "2.0"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["omega"] == pytest.approx(0.4, abs=1e-12)

    def test_config_file_and_flag_precedence(self, qubit_files, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hbar": 4.0}))
        args = ["kahler", qubit_files["rho"], qubit_files["a"], qubit_files["b"],
                "--config", str(config)]
        main(args)
        assert json.loads(capsys.readouterr().out)["omega"] == pytest.approx(0.2)
        main(args + ["--hbar", "1.0"])
        assert json.loads(capsys.readouterr().out)["omega"] == pytest.approx(0.8)


class TestUncertaintyCommand:
    def test_qubit_report(self, qubit_files, capsys):
        args = ["uncertainty", qubit_files["rho"], qubit_files["a"], qubit_files["b"]]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["geometric_bound"] == pytest.approx(0.4, abs=1e-12)
        assert payload["rs_bound"] == pytest.approx(0.4, abs=1e-12)
        assert payload["product"] == pytest.approx(1.0, abs=1e-12)

    def test_identity_pair_all_zero(self, qubit_files, tmp_path, capsys):
        eye = _write_matrix(tmp_path / "eye.json", np.eye(2))
        assert main(["uncertainty", qubit_files["rho"], eye, eye]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["deltaA"] == 0.0 and payload["geometric_bound"] == 0.0

    def test_dim_mismatch_exits_2(self, qubit_files, tmp_path, capsys):
        big = _write_matrix(tmp_path / "big.json", np.eye(3))
        assert main(["uncertainty", qubit_files["rho"], big, big]) == 2

    def test_csv_appends(self, qubit_files, tmp_path, capsys):
        csv_path = tmp_path / "rows.csv"
        args = ["uncertainty", qubit_files["rho"], qubit_files["a"], qubit_files["b"],
                "--csv", str(csv_path)]
        main(args)
        main(args)
        capsys.readouterr()
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "deltaA,deltaB,product,geom,rs"
        assert len(lines) == 3 and lines[1] == lines[2]

    def test_theorem_violation_exits_4(self, qubit_files, monkeypatch, capsys):
        from orbit_kahler.errors import TheoremViolationError
        import orbit_kahler.cli as cli_module

        def explode(*args, **kwargs):
            raise TheoremViolationError("forced")

        monkeypatch.setattr(cli_module, "full_report", explode)
        args = ["uncertainty", qubit_files["rho"], qubit_files["a"], qubit_files["b"]]
        assert main(args) == 4


class TestChecksCommand:
    def test_quick_run_green(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        args = ["checks", "--dims", "2,3", "--samples", "10", "--seed", "5",
                "--out", str(out)]
        assert main(args) == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(r["passed"] for r in reports)
        assert {r["check"] for r in reports} >= {"j_squared", "nijenhuis_fd"}

    def test_quick_caps_samples(self, tmp_path):
        out = tmp_path / "reports.jsonl"
        args = ["checks", "--dims", "2", "--samples", "500", "--quick",
                "--seed", "5", "--out", str(out)]
        assert main(args) == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        assert max(r["samples"] for r in reports) <= 100

    def test_fault_injection_exits_5(self, tmp_path):
        args = ["checks", "--dims", "2", "--samples", "10", "--seed", "5",
                "--perturb-J", "1e-3", "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 5

    def test_byte_identical_reruns(self, tmp_path):
        args = ["checks", "--dims", "2,3", "--samples", "15", "--seed", "21"]
        first, second = tmp_path / "one.jsonl", tmp_path / "two.jsonl"
        assert main(args + ["--out", str(first)]) == 0
        assert main(args + ["--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_spectra_pool_flag(self, tmp_path):
        spectra = tmp_path / "spectra.json"
        spectra.write_text(json.dumps([{"values": [0.6, 0.4], "mults": [1, 1]}]))
        out = tmp_path / "r.jsonl"
        args = ["checks", "--samples", "8", "--seed", "5",
                "--spectra", str(spectra), "--out", str(out)]
        assert main(args) == 0
        reports = [json.loads(line) for line in out.read_text().splitlines()]
        by_name = {r["check"]: r for r in reports}
        assert by_name["j_squared"]["worst_case"]["spectrum"]["values"] == [0.6, 0.4]

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        base = ["checks", "--dims", "2", "--samples", "8"]
        explicit, via_env = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(base + ["--seed", "77", "--out", str(explicit)]) == 0
        monkeypatch.setenv("ORBIT_KAHLER_SEED", "77")
        assert main(base + ["--out", str(via_env)]) == 0
        assert explicit.read_bytes() == via_env.read_bytes()


class TestEvolveCommand:
    def test_json_lines(self, qubit_files, capsys):
        args = ["evolve", qubit_files["rho"], qubit_files["a"],
                "--t-max", "1.0", "--steps", "5"]
        assert main(args) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 5
        for line in lines:
            record = json.loads(line)
            rho = np.asarray(record["rho"]["re"]) + 1j * np.asarray(record["rho"]["im"])
            eigenvalues = np.sort(np.linalg.eigvalsh(rho))[::-1]
            np.testing.assert_allclose(eigenvalues, [0.7, 0.3], atol=1e-12)


class TestSweepCommand:
    def test_qubit_grid_closed_form(self, qubit_files, tmp_path):
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--grid", "0.5:1.0:6", "--a", qubit_files["a"],
                "--b", qubit_files["b"], "--out", str(out)]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "p1,p2,deltaA,deltaB,product,geom_bound,rs_bound"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 6
        for row in rows:
            p1 = float(row[0])
            assert float(row[5]) == pytest.approx(abs(2 * p1 - 1), abs=1e-12)
            assert float(row[6]) == pytest.approx(abs(2 * p1 - 1), abs=1e-12)
        # p = 0.5 row: maximally mixed, bound collapses
        assert float(rows[0][5]) == 0.0

    def test_reruns_byte_identical(self, qubit_files, tmp_path):
        args = ["sweep", "--grid", "0.5:0.9:5", "--a", qubit_files["a"],
                "--b", qubit_files["b"]]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_random_observables_seeded(self, tmp_path):
        args = ["sweep", "--grid", "0.6:0.8:3", "--seed", "4"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert main(args + ["--out", str(one)]) == 0
        assert main(args + ["--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_spectra_file(self, tmp_path):
        spectra = tmp_path / "spectra.json"
        spectra.write_text(json.dumps([
            {"values": [0.6, 0.4], "mults": [1, 1]},
            {"values": [0.5, 0.25], "mults": [1, 2]},
        ]))
        assert main(["sweep", "--spectra", str(spectra), "--seed", "2",
                     "--out", str(tmp_path / "out.csv")]) == 2  # mixed dims

        spectra.write_text(json.dumps([
            {"values": [0.6, 0.4], "mults": [1, 1]},
            {"values": [0.9, 0.1], "mults": [1, 1]},
        ]))
        out = tmp_path / "ok.csv"
        assert main(["sweep", "--spectra", str(spectra), "--seed", "2",
                     "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 3

    def test_non_finite_spectrum_exits_2(self, tmp_path, capsys):
        spectra = tmp_path / "nan.json"
        spectra.write_text('[{"values": [NaN], "mults": [1]}]')
        assert main(["sweep", "--spectra", str(spectra),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("args, golden", [
        (["--grid", "0.5:1.0:11", "--seed", "3"], "sweep_grid_seed3.csv"),
        (["--spectra", str(DATA / "spectra_d5.json"), "--seed", "5"],
         "sweep_spectra_d5_seed5.csv"),
    ])
    def test_golden_output(self, args, golden, capsys):
        # the printed numbers are pinned, not only stable across reruns
        assert main(["sweep"] + args) == 0
        assert capsys.readouterr().out == (DATA / golden).read_text()

    def test_ambiguous_row_named(self, capsys):
        # row 1 has p - (1 - p) = 1.5e-9, inside the ambiguous clustering band
        assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "row 1:" in captured.err and "ambiguous" in captured.err

    def test_row_named_across_chunks(self, monkeypatch, capsys):
        import orbit_kahler.cli as cli_module

        monkeypatch.setattr(cli_module, "_SWEEP_CHUNK_ENTRIES", 4)  # one qubit row
        assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0"]) == 3
        assert "row 1:" in capsys.readouterr().err

    def test_chunked_output_unchanged(self, monkeypatch, capsys):
        import orbit_kahler.cli as cli_module

        args = ["sweep", "--spectra", str(DATA / "spectra_d5.json"), "--seed", "5"]
        monkeypatch.setattr(cli_module, "_SWEEP_CHUNK_ENTRIES", 25)  # one d=5 row
        assert main(args) == 0
        assert capsys.readouterr().out == (DATA / "sweep_spectra_d5_seed5.csv").read_text()

    def test_grid_longer_than_one_chunk(self, qubit_files, tmp_path):
        import orbit_kahler.cli as cli_module

        rows = 2 * cli_module._SWEEP_CHUNK_ENTRIES // 4 + 3
        out = tmp_path / "long.csv"
        assert main(["sweep", "--grid", f"0.5:1.0:{rows}", "--a", qubit_files["a"],
                     "--b", qubit_files["b"], "--out", str(out)]) == 0
        table = np.loadtxt(out, delimiter=",", skiprows=1)
        p = np.linspace(0.5, 1.0, rows)
        assert table.shape == (rows, 7)
        np.testing.assert_array_equal(table[:, 0], p)
        np.testing.assert_allclose(table[:, 2:5], 1.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table[:, 5], 2 * p - 1, rtol=0, atol=1e-12)
        np.testing.assert_allclose(table[:, 6], 2 * p - 1, rtol=0, atol=1e-12)

    def test_bad_grid_exits_2(self, qubit_files, tmp_path):
        for grid in ("0.5:1.0", "a:b:c", "0.5:2.0:5", "0.7:0.9:0"):
            assert main(["sweep", "--grid", grid, "--a", qubit_files["a"],
                         "--b", qubit_files["b"],
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_grid_and_spectra_exclusive(self, qubit_files, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2
