import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from orbit_kahler import errors
from orbit_kahler.cli import build_parser, main
from orbit_kahler.serialize import matrix_to_json

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
DATA = Path(__file__).parent / "data"
COMMANDS = ("spectrum", "tangent", "kahler", "uncertainty", "checks", "evolve", "sweep")


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


def _stacked_passes(monkeypatch):
    """The row counts of the sweep's stacked passes, in order, as it runs them."""
    import orbit_kahler.cli as cli_module

    passes, original = [], cli_module._orbit_stack

    def counting(rhos, cfg):
        passes.append(len(rhos))
        return original(rhos, cfg)

    monkeypatch.setattr(cli_module, "_orbit_stack", counting)
    return passes


def _exit_of(parse, argv, capsys):
    """(exit code, stdout, stderr) of a call that exits through argparse."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestParser:
    # main may build less than the full parser, but must print what it prints;
    # compared in-process because argparse wording varies across Python versions
    @pytest.mark.parametrize("argv", [["--help"]] + [[name, "--help"] for name in COMMANDS])
    def test_help_matches_full_parser(self, argv, capsys):
        full = _exit_of(build_parser().parse_args, argv, capsys)
        assert full[0] == 0 and full[1] and not full[2]
        assert _exit_of(main, argv, capsys) == full

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["sweep", "--bogus"],
                                      ["evolve", "a", "b"]])
    def test_usage_errors_match_full_parser(self, argv, capsys):
        full = _exit_of(build_parser().parse_args, argv, capsys)
        assert full[0] == 2 and not full[1] and full[2].startswith("usage: orbit-kahler")
        assert _exit_of(main, argv, capsys) == full

    @pytest.mark.parametrize("command", [None, "bogus"] + list(COMMANDS))
    def test_known_command_builds_only_its_parser(self, command):
        sub = next(action for action in build_parser(command)._actions
                   if isinstance(action, argparse._SubParsersAction))
        assert tuple(sub.choices) == (COMMANDS if command in (None, "bogus") else (command,))


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

    @pytest.mark.parametrize("n, dim, shown", [("2.9", 2, "2.9"), ("true", 1, "True"),
                                               ("Infinity", 2, "inf")])
    def test_malformed_n_exits_2(self, tmp_path, capsys, n, dim, shown):
        # 2.9 was read as 2 and true as 1, both exiting 0, and Infinity raised
        # an OverflowError
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(matrix_to_json(np.eye(dim) / dim)).replace(
            f'"n": {dim}', f'"n": {n}'))
        assert main(["spectrum", str(rho)]) == 2
        assert capsys.readouterr() == (
            "", f"error: malformed matrix JSON: n must be an integer, got {shown}\n")

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


class TestConfigValidation:
    def test_infinite_tol_cannot_hide_fault_hook(self, tmp_path, capsys):
        # an infinite gate would pass every suite, a planted defect included
        args = ["checks", "--dims", "2", "--samples", "10", "--seed", "5",
                "--tol", "inf", "--out", str(tmp_path / "r.jsonl")]
        assert main(args) == 2
        assert "tol_check must be finite" in capsys.readouterr().err

    def test_infinite_hbar_exits_2(self, capsys):
        assert main(["sweep", "--grid", "0.5:1:2", "--hbar", "inf"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "hbar must be finite" in captured.err

    @pytest.mark.parametrize("content", ["5", "null", "[[1]]", '["hbar"]'])
    def test_config_not_an_object_exits_2(self, tmp_path, capsys, content):
        # each raised a TypeError, which left the CLI with a traceback
        config = tmp_path / "config.json"
        config.write_text(content)
        assert main(["sweep", "--grid", "0.5:1:3", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must hold a JSON object" in captured.err

    def test_unknown_config_field_exits_2(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hbar": 1.0, "bogus": 1}))
        assert main(["sweep", "--grid", "0.5:1:3", "--config", str(config)]) == 2
        assert capsys.readouterr() == ("", "error: unknown config fields: ['bogus']\n")

    @pytest.mark.parametrize("value", ["1", True])
    def test_non_numeric_config_value_exits_2(self, qubit_files, tmp_path, capsys, value):
        # a string used to crash with a TypeError, and true was taken as hbar = 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"hbar": value}))
        assert main(["kahler", qubit_files["rho"], qubit_files["a"], qubit_files["b"],
                     "--config", str(config)]) == 2
        assert "hbar must be a number" in capsys.readouterr().err


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


ERRORS = sorted((cls for cls in vars(errors).values()
                 if isinstance(cls, type) and issubclass(cls, errors.OrbitKahlerError)),
                key=lambda cls: cls.__name__)
# input errors exit 2, library defects 4, and every other domain error 3
EXIT_CODES = {errors.DimMismatchError: 2, errors.TheoremViolationError: 4}


@pytest.mark.parametrize("error", ERRORS, ids=lambda cls: cls.__name__)
def test_every_library_error_has_its_exit_code(error, monkeypatch, capsys):
    import orbit_kahler.cli as cli_module

    def explode(*args, **kwargs):
        raise error("forced")

    monkeypatch.setattr(cli_module, "run_checks", explode)
    assert main(["checks"]) == EXIT_CODES.get(error, 3)
    assert capsys.readouterr().err == "error: forced\n"


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

    @pytest.mark.parametrize("args, message", [
        # every dim-1 spectrum is a single cluster, which once looped forever
        (["--dims", "1"], "single-cluster"),
        (["--dims", "0"], "dims must be nonempty and >= 1"),
        # a step this large once gated the finite-difference suites at 250
        (["--dims", "2", "--fd-step", "0.5"], "fd_step must be <= 0.01, got 0.5"),
        (["--dims", "16"], "dim 16 cannot be split"),
    ])
    def test_out_of_domain_input_exits_2(self, args, message, capsys):
        assert main(["checks", "--samples", "2"] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    @pytest.mark.parametrize("command", [["checks", "--samples", "2"], ["sweep"]])
    def test_spectra_not_a_list_exits_2(self, command, tmp_path, capsys):
        spectra = tmp_path / "spectra.json"
        spectra.write_text("5")
        assert main(command + ["--spectra", str(spectra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "must hold a JSON list of spectra" in captured.err

    @pytest.mark.parametrize("command", [["checks", "--samples", "2"], ["sweep"]])
    @pytest.mark.parametrize("content", ['[{"values": 5, "mults": 1}]',
                                         '[{"values": [1.0], "mults": [null]}]',
                                         '[{"values": [1.0], "mults": 1}]'])
    def test_malformed_spectrum_exits_2(self, command, content, tmp_path, capsys):
        # each raised a TypeError with a traceback, exit 1
        spectra = tmp_path / "spectra.json"
        spectra.write_text(content)
        assert main(command + ["--spectra", str(spectra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: malformed spectrum JSON: ")

    def test_empty_spectra_pool_exits_2(self, tmp_path, capsys):
        # it used to fall back to the default dims and exit 0
        spectra = tmp_path / "spectra.json"
        spectra.write_text("[]")
        assert main(["checks", "--samples", "2", "--spectra", str(spectra)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "spectra pool is empty" in captured.err

    def test_fd_step_sets_fd_tolerance(self, capsys):
        assert main(["checks", "--dims", "2", "--samples", "2", "--fd-step", "1e-3"]) == 0
        reports = {r["check"]: r for r in map(json.loads, capsys.readouterr().out.splitlines())}
        assert reports["nijenhuis_fd"]["tolerance"] == 0.001

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        base = ["checks", "--dims", "2", "--samples", "8"]
        explicit, via_env = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(base + ["--seed", "77", "--out", str(explicit)]) == 0
        monkeypatch.setenv("ORBIT_KAHLER_SEED", "77")
        assert main(base + ["--out", str(via_env)]) == 0
        assert explicit.read_bytes() == via_env.read_bytes()

    @pytest.mark.parametrize("command", [["sweep", "--grid", "0.5:1:3"],
                                         ["checks", "--dims", "2", "--samples", "2"]],
                             ids=["sweep", "checks"])
    @pytest.mark.parametrize("flag, env, message", [
        (["--seed", "-1"], None, "seed must be >= 0, got -1"),
        ([], "-3", "ORBIT_KAHLER_SEED must be >= 0, got -3"),
        ([], "abc", "ORBIT_KAHLER_SEED must be an integer, got 'abc'"),
    ], ids=["negative-flag", "negative-env", "malformed-env"])
    def test_seed_outside_domain_exits_2(self, command, flag, env, message, monkeypatch,
                                         capsys):
        # sweep printed numpy's "expected non-negative integer", and a malformed
        # variable "invalid literal for int() with base 10: 'abc'"
        if env is None:
            monkeypatch.delenv("ORBIT_KAHLER_SEED", raising=False)
        else:
            monkeypatch.setenv("ORBIT_KAHLER_SEED", env)
        assert main(command + flag) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["checks", "--dims", "2,,3"], "--dims must be comma-separated integers, got '2,,3'"),
        (["checks", "--dims", "2,x"], "--dims must be comma-separated integers, got '2,x'"),
        (["checks", "--dims", "2.5"], "--dims must be comma-separated integers, got '2.5'"),
        (["sweep", "--grid", "a:b:c"],
         "--grid must be START:STOP:NUM, two numbers and an integer, got 'a:b:c'"),
        (["sweep", "--grid", "0.5:1:2.5"],
         "--grid must be START:STOP:NUM, two numbers and an integer, got '0.5:1:2.5'"),
        (["sweep", "--grid", "0.5:1.0"],
         "--grid must be START:STOP:NUM, two numbers and an integer, got '0.5:1.0'"),
    ], ids=["empty-dim", "word-dim", "fractional-dim", "word-grid", "fractional-num",
            "short-grid"])
    def test_malformed_option_named(self, argv, message, capsys):
        # Python's "invalid literal for int() with base 10: ''" and "could not
        # convert string to float: 'a'" named neither the option nor its value
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


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

    @pytest.mark.parametrize("t_max", ["nan", "inf"])
    def test_non_finite_t_max_exits_2(self, qubit_files, t_max, capsys):
        # nan once exited 3 as a non-finite frame, and inf warned first
        args = ["evolve", qubit_files["rho"], qubit_files["a"],
                "--t-max", t_max, "--steps", "3"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: t_max must be finite, got {t_max}\n"


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

    @pytest.mark.parametrize("observables, message", [
        ([("a", np.diag([1.0, -1.0]))], "provide both --a and --b, or neither"),
        ([("a", np.eye(3)), ("b", np.eye(3))], "observable dims 3, 3 vs spectrum dim 2"),
    ])
    def test_observable_input_exits_2(self, observables, message, tmp_path, capsys):
        args = ["sweep", "--grid", "0.5:1.0:3"]
        for name, matrix in observables:
            args += [f"--{name}", _write_matrix(tmp_path / f"{name}.json", matrix)]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_non_finite_spectrum_exits_2(self, tmp_path, capsys):
        spectra = tmp_path / "nan.json"
        spectra.write_text('[{"values": [NaN], "mults": [1]}]')
        assert main(["sweep", "--spectra", str(spectra),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "finite" in capsys.readouterr().err

    def test_fractional_multiplicity_exits_2(self, tmp_path, capsys):
        spectra = tmp_path / "frac.json"
        spectra.write_text(json.dumps([{"values": [0.5, 0.25], "mults": [1, 2.9]}]))
        assert main(["sweep", "--spectra", str(spectra),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert "integers" in capsys.readouterr().err

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

    def test_failing_chunk_replayed_once(self, monkeypatch, capsys):
        import orbit_kahler.cli as cli_module
        import orbit_kahler.operators as operators_module

        evaluated = []
        stacked = []
        original = operators_module.orbit_point
        original_stack = cli_module._orbit_stack

        def counting(rho, cfg):
            evaluated.append(float(rho.matrix[0, 0].real))
            return original(rho, cfg)

        def counting_stack(rhos, cfg):
            stacked.append(len(rhos))
            return original_stack(rhos, cfg)

        monkeypatch.setattr(operators_module, "orbit_point", counting)
        monkeypatch.setattr(cli_module, "orbit_point", counting)
        monkeypatch.setattr(cli_module, "_orbit_stack", counting_stack)
        assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0"]) == 3
        assert "row 1:" in capsys.readouterr().err
        # one stacked pass over the chunk and one over the rows before row 1
        # name it; no row is evaluated alone
        assert evaluated == []
        assert stacked == [3, 1]

    def test_row_named_across_chunks(self, monkeypatch, capsys):
        import orbit_kahler.operators as operators_module

        monkeypatch.setattr(operators_module, "_CHUNK_ENTRIES", 4)  # one qubit row
        passes = _stacked_passes(monkeypatch)
        assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "row 1:" in captured.err
        # row 0 passes alone, and row 1 fails its own pass
        assert passes == [1, 1]

    def test_failing_second_chunk_writes_no_file(self, monkeypatch, tmp_path, capsys):
        import orbit_kahler.operators as operators_module

        monkeypatch.setattr(operators_module, "_CHUNK_ENTRIES", 4)  # one qubit row
        passes = _stacked_passes(monkeypatch)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--grid", "0.5:0.5000000015:3", "--seed", "0",
                     "--out", str(out)]) == 3
        assert "row 1:" in capsys.readouterr().err
        assert not out.exists()
        # the failing row is in the second pass, after the first one passed
        assert passes == [1, 1]

    def test_chunked_output_unchanged(self, monkeypatch, capsys):
        import orbit_kahler.operators as operators_module

        args = ["sweep", "--spectra", str(DATA / "spectra_d5.json"), "--seed", "5"]
        monkeypatch.setattr(operators_module, "_CHUNK_ENTRIES", 25)  # one d=5 row
        passes = _stacked_passes(monkeypatch)
        assert main(args) == 0
        assert capsys.readouterr().out == (DATA / "sweep_spectra_d5_seed5.csv").read_text()
        assert passes == [1, 1, 1]  # the three spectra, one pass each

    def test_grid_longer_than_one_chunk(self, qubit_files, tmp_path):
        import orbit_kahler.operators as operators_module

        rows = 2 * operators_module._CHUNK_ENTRIES // 4 + 3
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
