"""The command-line interface: schemas, exit codes, reproducibility."""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import thetadiag
from thetadiag import cli, loci, symp
from thetadiag.chars import MAX_ENUM_GENUS
from thetadiag.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, _parse_ladder, run
from thetadiag.theta import PeriodMatrix


@pytest.fixture
def tau_file(tmp_path):
    tau = PeriodMatrix(np.diag([1.0j, 1.2j, 1.5j]))
    path = tmp_path / "tau.json"
    path.write_text(json.dumps(tau.to_json()))
    return str(path)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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

    def test_classify_reports_the_common_genus(self, tmp_path):
        code, report = run_json(["char", "classify", "[110;110]", "[111;010]"],
                                tmp_path)
        assert code == EXIT_PASS
        assert report["g"] == 3

    def test_classify_mixed_genera_reports_null(self, tmp_path):
        code, report = run_json(["char", "classify", "[110;110]", "[1111;0101]"],
                                tmp_path)
        assert code == EXIT_PASS
        assert report["g"] is None
        assert [c["g"] for c in report["checks"]] == [3, 4]


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

    def test_negative_derivative_order(self, tau_file, capsys):
        code = run(["theta-eval", "--tau", tau_file, "--char", "[000;000]",
                    "--deriv=-1,1,0"])
        assert code == EXIT_USAGE
        assert "bad derivative multi-index" in capsys.readouterr().err

    def test_z_of_the_wrong_length(self, tau_file, capsys):
        code = run(["theta-eval", "--tau", tau_file, "--char", "[000;000]",
                    "--z", "0.1,0.2"])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: z must have length g\n"

    def test_huge_real_z(self, tmp_path, tau_file):
        # 1e308 and 1e17 are even integers: theta(z) = theta(0)
        base = ["theta-eval", "--tau", tau_file, "--char", "[100;110]"]
        _, at_zero = run_json(base, tmp_path, "zero.json")
        code, report = run_json(base + ["--z", "1e308,1e17,-1e308"], tmp_path)
        assert code == EXIT_PASS
        assert report["checks"][0]["value"] == at_zero["checks"][0]["value"]


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

    def test_loci_test_one_even_batch_per_point(self, tmp_path, monkeypatch):
        # the diagonal, perturbed and block points: one batch each
        calls = []
        batch = loci.theta_constants_batch

        def counting(*args, **kwargs):
            calls.append(args[0])
            return batch(*args, **kwargs)

        monkeypatch.setattr(loci, "theta_constants_batch", counting)
        code, _ = run_json(["loci-test", "--g", "5", "--seed", "0"], tmp_path)
        assert code == EXIT_PASS
        assert len(calls) == 3 and len(set(map(id, calls))) == 3

    def test_report_all_passes_the_ladder(self, tmp_path):
        ladder = set(_parse_ladder("2^-3..2^-8"))
        code, report = run_json(["report-all", "--g", "4", "--seed", "0",
                                 "--ladder", "2^-3..2^-8"], tmp_path)
        assert code == EXIT_PASS
        fitted = [c["epsilon_ladder"] for c in report["checks"]
                  if "epsilon_ladder" in c]
        assert len(fitted) == 17
        assert all(set(points) <= ladder for points in fitted)

    def test_loci_test_with_tau(self, tmp_path, tau_file):
        code, report = run_json(["loci-test", "--tau", tau_file], tmp_path)
        assert code == EXIT_PASS
        labels = [c["label"] for c in report["checks"]]
        assert any("diagonal-orbit" in x for x in labels)

    @pytest.mark.parametrize("command", [
        ["theta-eval", "--char", "[0;0]"],
        ["loci-test"],
    ])
    def test_tau_jobs_report_the_genus_of_tau(self, command, tmp_path):
        path = tmp_path / "tau1.json"
        path.write_text(json.dumps(PeriodMatrix([[1.1j]]).to_json()))
        code, report = run_json(command + ["--tau", str(path)], tmp_path)
        assert code == EXIT_PASS
        assert report["g"] == 1

    @pytest.mark.parametrize("g,count", [(1, 29), (2, 36), (3, 47), (4, 64), (5, 72)])
    def test_report_all_every_genus(self, g, count, tmp_path):
        code, report = run_json(["report-all", "--g", str(g), "--seed", "0"], tmp_path)
        assert code == EXIT_PASS
        assert len(report["checks"]) == count
        assert all(c["pass"] for c in report["checks"])
        assert_no_child_left()  # g >= 4 forks two check processes


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

    @pytest.mark.parametrize("command", [
        ["theta-eval", "--char", "[00;00]"],
        ["loci-test"],
    ])
    @pytest.mark.parametrize("obj", [
        {"g": 2, "entries": [[["a", 1], [0, 0]], [[0, 0], [0, 1]]]},
        {"g": 2, "entries": [[0, 1], [0, 0]]},
        [1, 2],
    ], ids=["string-entry", "flat", "top-level-list"])
    def test_malformed_tau_file(self, command, obj, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(command + ["--tau", str(path)]) == EXIT_USAGE
        assert capsys.readouterr().err.startswith("error: cannot load period matrix")

    def test_loci_test_tau_beyond_the_point_budget(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([0.02j] * 5).to_json()))
        assert run(["loci-test", "--tau", str(path)]) == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

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

    def test_job_without_checks(self, capsys):
        # g=4 has no pair 4 <= j < k <= g for the D12jk minors
        assert run(["hess-minor", "--g", "4", "--which", "D12jk"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: hess-minor produced no checks at g=4\n"

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


@pytest.fixture
def deadline():
    """Fail, rather than hang, a test that runs longer than a minute."""
    def expire(signum, frame):
        raise TimeoutError("test ran past its deadline")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


class TestForkedChecks:
    """report-all runs its rng-free checks in forked children."""

    def test_child_exception_reaches_the_parent(self, tmp_path, monkeypatch, deadline):
        def failing(g):
            raise ValueError("no orbit at g=%d" % g)

        monkeypatch.setattr(symp, "verify_transitivity", failing)
        with pytest.raises(ValueError, match="^no orbit at g=2$"):
            run(["report-all", "--g", "1", "--out", str(tmp_path / "r.json")])
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="checks run inline")
    @pytest.mark.parametrize("die,how", [
        (lambda: os._exit(3), "exit code 3"),
        (lambda: os._exit(0), "exit code 0"),
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
    ])
    def test_child_dying_without_a_result_is_one_line(self, die, how, tmp_path,
                                                      monkeypatch, capsys, deadline):
        monkeypatch.setattr(symp, "verify_transitivity", lambda g: die())
        out = tmp_path / "r.json"
        assert run(["report-all", "--g", "1", "--out", str(out)]) == EXIT_FAIL
        err = capsys.readouterr().err
        assert err == ("error: the check process for _exact_checks ended with "
                       "%s and no result\n" % how)
        assert not out.exists()
        assert_no_child_left()

    def test_no_child_left_when_a_parent_builder_raises(self, monkeypatch, deadline):
        # both children are running when the Hessian minors fail
        def failing(*args, **kwargs):
            raise RuntimeError("minors failed")

        monkeypatch.setattr(cli, "_hess_minor_checks", failing)
        with pytest.raises(RuntimeError, match="minors failed"):
            run(["report-all", "--g", "4", "--seed", "3"])
        assert_no_child_left()

    def test_inline_without_fork_gives_the_same_report(self, tmp_path, monkeypatch):
        _, forked = run_json(["report-all", "--g", "4", "--seed", "5"], tmp_path, "a.json")
        monkeypatch.delattr(os, "fork")
        _, inline = run_json(["report-all", "--g", "4", "--seed", "5"], tmp_path, "b.json")
        forked.pop("timestamp")
        inline.pop("timestamp")
        assert forked == inline

    def test_import_loads_no_process_pool(self):
        # startup stays flat: the children come from os.fork alone
        src = str(Path(thetadiag.__file__).resolve().parent.parent)
        probe = ("import sys, thetadiag.cli; print(sorted(m for m in sys.modules if "
                 "m.split('.')[0] in ('multiprocessing', 'concurrent')))")
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out == "[]\n"
