"""The command-line interface: schemas, exit codes, reproducibility."""

import argparse
import importlib.util
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest

import thetadiag
from thetadiag import cli, loci, symp, theta
from thetadiag.chars import MAX_ENUM_GENUS
from thetadiag.cli import EXIT_FAIL, EXIT_PASS, EXIT_USAGE, run
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


def cli_process(argv, **kwargs):
    """subprocess.run of `python -m thetadiag.cli` with argv."""
    src = str(Path(thetadiag.__file__).resolve().parent.parent)
    return subprocess.run([sys.executable, "-m", "thetadiag.cli"] + argv,
                          env=dict(os.environ, PYTHONPATH=src), **kwargs)


def run_json(argv, tmp_path, name="report.json"):
    out = tmp_path / name
    code = run(argv + ["--out", str(out)])
    return code, json.loads(out.read_text())


REPORT_KEY_JOBS = {
    "report-all --g 4": ["report-all", "--g", "4"],
    "report-all --g 5": ["report-all", "--g", "5"],
    "loci-test --g 5": ["loci-test", "--g", "5"],
    "loci-test --tau (g=3 diagonal)": ["loci-test", "--tau"],
    "hess-minor --g 5": ["hess-minor", "--g", "5"],
    "grad-verify --g 5 --directions 1": ["grad-verify", "--g", "5", "--directions", "1"],
    "expand-verify --g 5 --directions 1": ["expand-verify", "--g", "5",
                                           "--directions", "1"],
    "orbit --g 3": ["orbit", "--g", "3"],
}


def report_keys(tmp_path, tau_file):
    """{job: [[label, [keys of its entry, in order]], ...]} at the default
    seed 0 (orbit takes no --seed); the --tau job reads tau_file."""
    keys = {}
    for job, argv in REPORT_KEY_JOBS.items():
        argv = argv + [tau_file] if argv[-1] == "--tau" else argv
        _, report = run_json(argv, tmp_path)
        keys[job] = [[c["label"], list(c)] for c in report["checks"]]
    return keys


class TestPlumbing:
    def test_report_envelope(self, tmp_path):
        code, report = run_json(["char", "classify", "[00;00]"], tmp_path)
        assert code == EXIT_PASS
        assert report["schema"] == 1
        assert report["seed"] is None and report["tol"] is None  # char takes neither
        assert "timestamp" in report and report["pass"] is True

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run(["no-such-command"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: argument command: invalid choice")
        assert err.count("\n") == 1

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["--help"])
        assert exc.value.code == 0
        assert "report-all" in capsys.readouterr().out

    def test_benchmark_jobs_parse(self, monkeypatch):
        # every command line of perfbench/run.py, at every seed of its pool,
        # is one the parser takes
        bench = Path(__file__).resolve().parent.parent / "perfbench"
        monkeypatch.syspath_prepend(str(bench))  # run.py imports spans
        spec = importlib.util.spec_from_file_location("perfbench_run", bench / "run.py")
        perfbench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(perfbench)
        parser = cli._build_parser()
        for kind, (argv, _) in perfbench.JOB_KINDS.items():
            for seed in perfbench.SEED_POOLS[kind]:
                args = parser.parse_args(argv + ["--seed", str(seed)])
                assert args.command == argv[0] and args.seed == seed

    def test_option_surface_matches_snapshot(self):
        # each subcommand takes exactly the options it reads
        (commands,) = [a.choices for a in cli._build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)]
        surface = {name: sorted(a.option_strings[0] if a.option_strings else a.dest
                                for a in p._actions
                                if not isinstance(a, argparse._HelpAction))
                   for name, p in commands.items()}
        snapshot = Path(__file__).with_name("data") / "cli_options.json"
        assert surface == json.loads(snapshot.read_text())

    @pytest.mark.parametrize("argv,seed,tol", [
        (["orbit", "--g", "2"], None, None),
        (["theta-eval", "--char", "[000;000]", "--tol", "1e-12"], None, 1e-12),
        (["hess-minor", "--g", "4", "--which", "D123", "--seed", "1"], 1,
         loci.MINOR_THETA_TOL),
        (["loci-test", "--g", "3"], 0, theta.DEFAULT_TOL),
    ], ids=["orbit", "theta-eval", "hess-minor", "loci-test"])
    def test_envelope_seed_and_tol(self, argv, seed, tol, tmp_path, tau_file):
        # tol is the truncation tolerance the job's theta sums used
        argv = argv + ["--tau", tau_file] if argv[0] == "theta-eval" else argv
        code, report = run_json(argv, tmp_path)
        assert code == EXIT_PASS
        assert report["seed"] == seed and report["tol"] == tol

    @pytest.mark.parametrize("argv", [["loci-test", "--g", "3"], ["loci-test", "--tau"],
                                      ["report-all", "--g", "4"]],
                             ids=["loci-test", "loci-test-tau", "report-all"])
    def test_tol_reaches_every_theta_pass(self, argv, tmp_path, tau_file, monkeypatch,
                                          kernel):
        # every lattice sum outside the Hessian minors sums at --tol, and
        # every one inside them, their draws included, at the minors' own
        # tolerance; inline (no fork), so that each kernel call is seen
        argv = argv + [tau_file] if argv[-1] == "--tau" else argv
        monkeypatch.delattr(os, "fork")
        theta.f_phi_psi.cache_clear()  # a cached pass would not be seen
        loci._even_scale.cache_clear()
        inside = []  # the indices of the kernel calls made by the minors
        minors = cli._hess_minor_checks

        def recording_minors(*args, **kwargs):
            start = len(kernel.calls)
            try:
                return minors(*args, **kwargs)
            finally:
                inside.extend(range(start, len(kernel.calls)))

        monkeypatch.setattr(cli, "_hess_minor_checks", recording_minors)
        code, report = run_json(argv + ["--tol", "1e-12"], tmp_path)
        assert code == EXIT_PASS and report["tol"] == 1e-12
        outside = [tol for index, tol in enumerate(kernel.tols) if index not in inside]
        assert outside and set(outside) == {1e-12}
        if argv[0] == "report-all":
            assert {kernel.tols[index] for index in inside} == {loci.MINOR_THETA_TOL}


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

    def test_loci_test_with_tau(self, tmp_path, tau_file):
        # each detector reports its witness table; the vanishing threshold
        # is the detectors' default, whatever --tol is
        code, report = run_json(["loci-test", "--tau", tau_file, "--tol", "1e-12"],
                                tmp_path)
        assert code == EXIT_PASS
        tau = PeriodMatrix(np.diag([1.0j, 1.2j, 1.5j]))
        verdicts = ([loci.is_diagonal_orbit(tau, theta_tol=1e-12)]
                    + [loci.is_product_orbit(tau, g1, theta_tol=1e-12) for g1 in (1, 2)]
                    + [loci.hyperelliptic_vanishing_test(tau, theta_tol=1e-12)])
        assert [c["label"] for c in report["checks"]] == [
            "diagonal-orbit detector", "product-orbit detector split 1+2",
            "product-orbit detector split 2+1", "hyperelliptic vanishing detector"]
        for check, verdict in zip(report["checks"], verdicts):
            assert check["vanish_tol"] == loci.DEFAULT_VANISH_TOL
            assert check["verdict"] is verdict.verdict is True
            assert check["witness"] == [dict(row) for row in verdict.witness]
        rows = report["checks"][-1]["witness"]
        assert {row["required"] for row in rows} == {True, False}
        assert all(row["vanished"] for row in rows if row["required"])

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

    def test_heat_check_covers_the_diagonal(self, monkeypatch):
        # a diagonal heat constant of 4 pi i (1 + 1e-3) fails the check
        def heat(tol):
            checks = cli._theta_numeric_checks(3, np.random.default_rng(0), 4, tol)
            (check,) = [c for c in checks if c["label"].startswith("heat equation")]
            return check["pass"]

        assert heat(theta.DEFAULT_TOL)
        exact = theta.tau_jet

        def skewed(tau, chars, tol):
            values, grads = exact(tau, chars, tol)
            diagonal = np.arange(tau.g)
            grads[:, diagonal, diagonal] /= 1 + 1e-3
            return values, grads

        monkeypatch.setattr(theta, "tau_jet", skewed)
        assert not heat(theta.DEFAULT_TOL)

    def test_block_point_draws(self):
        # the block point is diag(t) and 0.1 (u + iv) per entry of the lower
        # block, drawn row by row: the construction the reports were made with
        rng = np.random.default_rng(5)
        tau = cli._random_block_product(4, rng, theta.DEFAULT_TOL)
        rng = np.random.default_rng(5)
        expected = np.diag(theta.sample_generic_diagonal(4, 2, rng))
        for a in range(1, 4):
            for b in range(a + 1, 4):
                expected[a, b] = expected[b, a] = 0.1 * (rng.uniform(-1, 1)
                                                         + 1j * rng.uniform(-1, 1))
        assert np.array_equal(tau.entries, expected)

    @pytest.mark.parametrize("g,count", [(1, 29), (2, 36), (3, 47), (4, 64), (5, 72)])
    def test_report_all_every_genus(self, g, count, tmp_path):
        code, report = run_json(["report-all", "--g", str(g), "--seed", "0"], tmp_path)
        assert code == EXIT_PASS
        assert len(report["checks"]) == count
        assert all(c["pass"] for c in report["checks"])
        assert_no_child_left()  # g >= 4 forks two check processes

    @pytest.mark.parametrize("g", [4, 5])
    def test_report_all_kernel_calls(self, g, kernel, tmp_path):
        # the main process stacks its spot checks: 279 (g=4) and 298 (g=5)
        # kernel calls, where one call per value made 684 and 703
        theta.f_phi_psi.cache_clear()
        loci._even_scale.cache_clear()
        code, _ = run_json(["report-all", "--g", str(g), "--seed", "0"], tmp_path)
        assert code == EXIT_PASS
        assert len(kernel.calls) <= 300
        assert kernel.stray == 0  # every lattice pass is made inside a kernel call


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
        {"g": True, "entries": [[[0, 1]]]},
        {"g": 1.0, "entries": [[[0, 1]]]},
    ], ids=["string-entry", "flat", "top-level-list", "g-true", "g-float"])
    def test_malformed_tau_file(self, command, obj, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        assert run(command + ["--tau", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: cannot load period matrix") and err.count("\n") == 1

    def test_loci_test_tau_beyond_the_point_budget(self, tmp_path, capsys):
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([0.02j] * 5).to_json()))
        assert run(["loci-test", "--tau", str(path)]) == EXIT_USAGE
        assert "budget" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["theta-eval", "--char", "[00;00]"],
        ["loci-test"],
    ])
    @pytest.mark.parametrize("y", [1e-100, 1e-300, 5e-324])
    def test_tau_with_tiny_im_part_beyond_the_point_budget(self, command, y, tmp_path):
        # a fresh interpreter, so that a numpy warning would reach stderr
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(PeriodMatrix.diagonal([y * 1j, 1j]).to_json()))
        proc = cli_process(command + ["--tau", str(path)], capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.count("\n") == 1 and "budget of %d" % theta.MAX_POINTS in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["expand-verify", "--g", "4", "--directions", "0"],
        ["grad-verify", "--g", "4", "--directions", "-1"],
    ])
    def test_direction_count_below_one(self, argv, capsys):
        assert run(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need at least one direction: %r\n" % argv[-1]

    @pytest.mark.parametrize("argv", [
        ["expand-verify", "--g", "4", "--l", "0"],
        ["orbit", "--seed-char="],
        ["theta-eval", "--char", "[000;000]", "--z="],
        ["theta-eval", "--char", "[000;000]", "--deriv="],
        ["loci-test", "--tau="],
        ["char", "classify", "[00;00]", "--out="],
    ], ids=["l=0", "seed-char=", "z=", "deriv=", "tau=", "out="])
    def test_empty_or_zero_value_is_not_absent(self, argv, tau_file, capsys):
        # a value that was given is checked, even when it is falsy
        argv = argv + ["--tau", tau_file] if argv[0] == "theta-eval" else argv
        assert run(argv) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err.startswith("error: ") and err.count("\n") == 1 and not out

    def test_genus_cap_is_read_when_called(self, monkeypatch, capsys):
        # each numeric range ends at theta.MAX_NUMERIC_GENUS, whatever it is
        monkeypatch.setattr(theta, "MAX_NUMERIC_GENUS", 4)
        t = [1.1j, 1.2j, 1.3j, 1.4j, 1.5j]
        with pytest.raises(ValueError, match=r"^need 3 <= g <= 4$"):
            loci.tridiagonal_tangent_check(5, t)
        with pytest.raises(ValueError, match=r"^need 4 <= g <= 4$"):
            loci.gradient_locus_check(5, t, np.random.default_rng(0))
        assert run(["hess-minor", "--g", "5"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: need 4 <= g <= 4\n"

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_unwritable_out(self, fmt, tmp_path):
        out = tmp_path / "missing" / "r.json"
        proc = cli_process(["char", "classify", "[11;11]", "--format", fmt,
                            "--out", str(out)], capture_output=True, text=True)
        assert proc.returncode == EXIT_USAGE and not proc.stdout
        assert proc.stderr == ("error: cannot write report to %s: "
                               "No such file or directory\n" % out)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_closed_stdout(self, fmt):
        # a reader that has gone costs one line, and no second one from the
        # flush at interpreter exit
        read_fd, write_fd = os.pipe()
        os.close(read_fd)
        try:
            proc = cli_process(["char", "classify", "[11;11]", "--format", fmt],
                               stdout=write_fd, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_fd)
        assert proc.returncode == EXIT_FAIL
        assert proc.stderr == "error: stdout was closed by its reader\n"

    @pytest.mark.parametrize("argv,code", [
        (["report-all", "--g", "2", "--seed", "0"], EXIT_PASS),
        (["report-all", "--g", "0"], EXIT_USAGE),
        (["orbit", "--g", "3", "--seed", "1"], EXIT_USAGE),
    ], ids=["pass", "bad-genus", "unknown-option"])
    def test_process_matches_run(self, argv, code, tmp_path):
        # the CLI process gives the report, exit code and one-line error
        # that run() gives in process
        proc = cli_process(argv, capture_output=True, text=True)
        assert proc.returncode == code
        if code == EXIT_PASS:
            assert not proc.stderr
            _, report = run_json(argv, tmp_path)
            assert json.loads(proc.stdout) == dict(report, timestamp=ANY)
        else:
            assert not proc.stdout and proc.stderr.startswith("error: ")
            assert proc.stderr.count("\n") == 1

    def test_head_of_the_report(self):
        # a reader that takes one line and goes: that line, and no traceback
        proc = subprocess.run(
            "%s -m thetadiag.cli report-all --g 2 --seed 0 | head -1" % sys.executable,
            shell=True, capture_output=True, text=True, env=dict(
                os.environ, PYTHONPATH=str(Path(thetadiag.__file__).resolve().parent.parent)))
        assert proc.returncode == 0 and proc.stdout == "{\n"
        assert proc.stderr in ("", "error: stdout was closed by its reader\n")

    def test_help_still_exits_through_argparse(self):
        proc = cli_process(["--help"], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout.startswith("usage: thetadiag")

    def test_job_without_checks(self, capsys):
        # g=4 has no pair 4 <= j < k <= g for the D12jk minors
        assert run(["hess-minor", "--g", "4", "--which", "D12jk"]) == EXIT_USAGE
        assert capsys.readouterr().err == "error: hess-minor produced no checks at g=4\n"

    @pytest.mark.parametrize("argv", [["loci-test", "--g", "3"],
                                      ["report-all", "--g", "4"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.5", "abc"])
    def test_bad_tolerance(self, argv, tol, capsys):
        assert run(argv + ["--tol", tol]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "tolerance" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command,option", [
        ("char", "--g"), ("char", "--seed"), ("char", "--tol"), ("char", "--ladder"),
        ("orbit", "--seed"), ("orbit", "--tol"), ("orbit", "--ladder"),
        ("theta-eval", "--g"), ("theta-eval", "--seed"), ("theta-eval", "--ladder"),
        ("hess-minor", "--tol"), ("loci-test", "--ladder"),
        ("expand-verify", "--ladder"), ("grad-verify", "--ladder"),
        ("hess-minor", "--ladder"), ("report-all", "--ladder"),
    ])
    def test_option_the_subcommand_does_not_take(self, command, option, capsys):
        # an option no job of the subcommand reads cannot be given and ignored
        argv = {"char": ["char", "classify", "[00;00]"],
                "orbit": ["orbit", "--g", "2"],
                "theta-eval": ["theta-eval", "--tau", "tau.json", "--char", "[000;000]"],
                "hess-minor": ["hess-minor", "--g", "4", "--which", "D123"],
                "loci-test": ["loci-test", "--g", "3"],
                "expand-verify": ["expand-verify", "--g", "4", "--seed", "0"],
                "grad-verify": ["grad-verify", "--g", "4"],
                "report-all": ["report-all", "--g", "4"]}[command]
        value = {"--g": "3", "--seed": "1", "--tol": "1e-12",
                 "--ladder": "2^-3..2^-6"}[option]
        assert run(argv + [option, value]) == EXIT_USAGE
        out, err = capsys.readouterr()
        assert err == "error: unrecognized arguments: %s %s\n" % (option, value)
        assert not out


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

    def test_exact_layer_matches_snapshot(self):
        # the exact layer's entries hold only ints, bools and strings, so a
        # refactor of chars or symp must reproduce them byte for byte
        snapshot = Path(__file__).with_name("data") / "exact_checks.json"
        assert json.dumps(cli._exact_checks(), indent=1) + "\n" == snapshot.read_text()

    def test_report_keys_match_snapshot(self, tmp_path, tau_file):
        # the label and ordered keys of every check entry, which hold no
        # floats: a result field added, renamed or leaked shows up here
        snapshot = Path(__file__).with_name("data") / "report_keys.json"
        assert report_keys(tmp_path, tau_file) == json.loads(snapshot.read_text())

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
