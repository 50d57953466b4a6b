"""The command-line interface: schemas, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from thetadiag import cli
from thetadiag.chars import MAX_ENUM_GENUS
from thetadiag.cli import EXIT_PASS, EXIT_USAGE, _parse_ladder, run
from thetadiag.theta import PeriodMatrix


@pytest.fixture
def tau_file(tmp_path):
    tau = PeriodMatrix(np.diag([1.0j, 1.2j, 1.5j]))
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(tau.to_json()))
    return str(path)


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


class TestPlumbing:
    def test_ladder_power_syntax(self):
        assert _parse_ladder("2^-3..2^-5") == [0.125, 0.0625, 0.03125]

    def test_ladder_list_syntax(self):
        assert _parse_ladder("0.1,0.05") == [0.1, 0.05]

    def test_ladder_rejects_garbage(self):
        with pytest.raises(cli.UsageError):
            _parse_ladder("3^-1..3^-2")

    @pytest.mark.parametrize("text", ["0.1,0.2", "0.1,0.1", "0.1,-0.05", "0.1,nan",
                                      "inf,0.1", "0.1", "2^-3..2^-3", "2^2000..2^1"])
    def test_ladder_rejects_bad_values(self, text):
        with pytest.raises(cli.UsageError):
            _parse_ladder(text)

    def test_report_envelope(self, tmp_path):
        code, report = run_json(["char", "classify", "[00;00]"], tmp_path)
        assert code == EXIT_PASS
        assert report["schema"] == 1
        assert report["seed"] == 0
        assert "timestamp" in report and report["pass"] is True

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["no-such-command"])
        assert exc.value.code == EXIT_USAGE


class TestChar:
    def test_classify(self, tmp_path):
        code, report = run_json(["char", "classify", "[110;110]"], tmp_path)
        assert code == EXIT_PASS
        (check,) = report["checks"]
        assert check["parity"] == "even" and check["l"] == 2

    def test_malformed_characteristic(self):
        assert run(["char", "classify", "[12;00]"]) == EXIT_USAGE


class TestOrbit:
    def test_even_orbit_g3(self, tmp_path):
        code, report = run_json(
            ["orbit", "--g", "3", "--group", "Gg", "--seed-char", "[000;000]"],
            tmp_path,
        )
        assert code == EXIT_PASS
        (check,) = report["checks"]
        assert check["orbit_size"] == 36

    def test_stab_orbit(self, tmp_path):
        code, report = run_json(
            ["orbit", "--g", "3", "--group", "stab_diagonal",
             "--seed-char", "[110;110]"],
            tmp_path,
        )
        assert code == EXIT_PASS
        (check,) = report["checks"]
        assert check["orbit_size"] == 9  # C(3,2) * 3

    def test_genus_mismatch(self):
        assert run(["orbit", "--g", "3", "--seed-char", "[00;00]"]) == EXIT_USAGE

    @pytest.mark.parametrize("g", [0, MAX_ENUM_GENUS + 1])
    def test_genus_out_of_range(self, g, capsys):
        assert run(["orbit", "--g", str(g)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need 1 <= g <= %d\n" % MAX_ENUM_GENUS


class TestThetaEval:
    def test_constant(self, tmp_path, tau_file):
        code, report = run_json(
            ["theta-eval", "--tau", tau_file, "--char", "[000;000]"], tmp_path
        )
        assert code == EXIT_PASS
        re, im = report["checks"][0]["value"]
        assert re > 1.0 and abs(im) < 1e-12

    def test_derivative_flag(self, tmp_path, tau_file):
        code, report = run_json(
            ["theta-eval", "--tau", tau_file, "--char", "[100;100]",
             "--deriv", "1,0,0"],
            tmp_path,
        )
        assert code == EXIT_PASS
        re, im = report["checks"][0]["value"]
        assert abs(complex(re, im)) > 0

    def test_missing_file(self):
        assert run(["theta-eval", "--tau", "/no/such.json",
                    "--char", "[00;00]"]) == EXIT_USAGE

    def test_wrong_genus(self, tau_file):
        assert run(["theta-eval", "--tau", tau_file,
                    "--char", "[00;00]"]) == EXIT_USAGE

    def test_genus_above_numeric_cap(self, tmp_path, capsys):
        path = tmp_path / "tau6.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([1j] * 6).to_json()))
        code = run(["theta-eval", "--tau", str(path), "--char", "[000000;000000]"])
        assert code == EXIT_USAGE
        assert "genus cap" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "1e-20"])
    def test_bad_tolerance(self, tau_file, tol, capsys):
        code = run(["theta-eval", "--tau", tau_file, "--char", "[000;000]",
                    "--tol", tol])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: tolerance")

    def test_unreachable_tolerance(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([0.02j] * 5).to_json()))
        code = run(["theta-eval", "--tau", str(path), "--char", "[00000;00000]"])
        assert code == EXIT_USAGE
        assert "budget" in capsys.readouterr().err


class TestVerificationJobs:
    def test_expand_verify(self, tmp_path):
        code, report = run_json(
            ["expand-verify", "--g", "4", "--seed", "1", "--directions", "2"],
            tmp_path,
        )
        assert code == EXIT_PASS
        assert len(report["checks"]) == 4  # l in {2, 4}, 2 directions each

    def test_grad_verify(self, tmp_path):
        code, report = run_json(
            ["grad-verify", "--g", "4", "--seed", "1", "--directions", "1"],
            tmp_path,
        )
        assert code == EXIT_PASS

    def test_hess_minor_single(self, tmp_path):
        code, report = run_json(
            ["hess-minor", "--g", "4", "--seed", "1", "--which", "D123"],
            tmp_path,
        )
        assert code == EXIT_PASS

    def test_loci_test(self, tmp_path):
        code, report = run_json(["loci-test", "--g", "3", "--seed", "1"], tmp_path)
        assert code == EXIT_PASS

    def test_loci_test_with_tau(self, tmp_path, tau_file):
        code, report = run_json(["loci-test", "--tau", tau_file], tmp_path)
        assert code == EXIT_PASS
        labels = [c["label"] for c in report["checks"]]
        assert any("diagonal-orbit" in x for x in labels)


class TestInputContract:
    """Malformed input exits 2 with one line on stderr, before any job runs."""

    @pytest.mark.parametrize("argv", [
        ["expand-verify", "--g", "9"],
        ["expand-verify", "--g", "1"],
        ["grad-verify", "--g", "6"],
        ["loci-test", "--g", "1"],
        ["loci-test", "--g", "6"],
        ["report-all", "--g", "0"],
        ["report-all", "--g", "6"],
    ])
    def test_genus_outside_the_numeric_cap(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: need ")

    def test_loci_test_tau_above_the_numeric_cap(self, tmp_path, capsys):
        path = tmp_path / "tau6.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([1j] * 6).to_json()))
        assert run(["loci-test", "--tau", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need 1 <= g <= 5\n"

    def test_increasing_ladder(self, capsys):
        code = run(["grad-verify", "--g", "4", "--ladder", "0.1,0.2"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: ladder must be strictly decreasing")

    @pytest.mark.parametrize("argv", [
        ["expand-verify", "--g", "4", "--directions", "0"],
        ["grad-verify", "--g", "4", "--directions", "-1"],
    ])
    def test_direction_count_below_one(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need at least one direction: %r\n" % argv[-1]

    @pytest.mark.parametrize("argv", [["loci-test", "--g", "3"],
                                      ["hess-minor", "--g", "4", "--which", "D123"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "abc"])
    def test_bad_tolerance(self, argv, tol, capsys):
        assert run(argv + ["--tol", tol]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tolerance" in err and err.count("\n") == 1


class TestFormatsAndReproducibility:
    def test_csv_format(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = run(["char", "classify", "[00;00]", "--format", "csv",
                    "--out", str(out)])
        assert code == EXIT_PASS
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("label,pass")

    def test_report_all_reproducible(self, tmp_path):
        _, first = run_json(["report-all", "--g", "4", "--seed", "7"],
                            tmp_path, "a.json")
        _, second = run_json(["report-all", "--g", "4", "--seed", "7"],
                             tmp_path, "b.json")
        first.pop("timestamp")
        second.pop("timestamp")
        assert first == second

    def test_report_all_seed_changes_data(self, tmp_path):
        _, first = run_json(["report-all", "--g", "4", "--seed", "7"],
                            tmp_path, "a.json")
        _, second = run_json(["report-all", "--g", "4", "--seed", "8"],
                             tmp_path, "b.json")
        first.pop("timestamp")
        second.pop("timestamp")
        assert first != second
        assert first["pass"] and second["pass"]
