"""End-to-end benchmark of thetadiag's batch verification jobs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload report_all --seed 1 --seconds 40 --trace 0

A workload is a fixed list of ``thetadiag`` command lines built from
``--seed``.  Each job runs in a fresh Python process, the way a CLI user
runs it, one after another from this driver: a closed loop with one client,
so at most one job process runs at a time.  Every job's report is checked
from outside the program (exit code, schema, overall pass, and the count
and labels of its checks).  The job list is repeated while another pass
fits in ``--seconds``, at least twice; timings are medians over passes.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median seconds of
one pass over the job list, spawn to exit of each job), ``peak_rss_mb`` (the
largest peak resident memory of any job), ``setup_s`` (median seconds for
a fresh interpreter to import ``thetadiag.cli``, build the parser and print
the help) and, on its own line, ``jobs_failed_frac``.

``--trace 1`` alternates untraced passes with traced passes (see
``spans.py``) and reports per-layer self times, call counts and work
counters, plus ``trace.overhead_s``, the traced minus the untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
name every metric with its unit and record the environment.  The full result
of the last run is kept in ``.perfbench_work/last_run.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SPANS_SCRIPT = Path(__file__).resolve().parent / "spans.py"

# No run may take longer than this; a job still running when it is reached
# is killed and counts as failed.
RUN_LIMIT_S = 170.0
# setup_s is the median of this many fresh interpreters (about 0.23 s
# each), half before and half after the timed passes: the machine's speed
# drifts over a run.
SETUP_REPEATS = 30
# An untraced run makes at least this many passes, so that no median rests
# on one job: loci-test --g 5 alone takes 17-21 s, half of a 40-second run.
MIN_PASSES = 2

# CLI seeds per job kind.  A job's cost depends on its seed: the lattice
# radius follows the smallest Im t it draws, and at g = 5 radius 4 sums
# 59,049 points where radius 3 sums 16,807.  Over seeds 0-47 the lattice
# points summed by one job varied up to 3.5-fold, so the workload seed draws
# from pools of seeds of one size class instead.  The points were counted on
# the commit that added this benchmark by wrapping ``theta._lattice``; all
# 288 of those reports passed.  For loci-test the pool is the seeds whose
# every batched theta-constant lattice has radius 4, the out-of-cache regime
# detectors_g5 exists for (25.69M points per job).  For the other kinds it is
# the largest set of seeds within 5% of one point count.
SEED_POOLS = {
    "report-all-g4": [0, 2, 3, 7, 9, 10, 11, 15, 16, 18, 20, 21, 23, 25, 27, 28, 31, 33,
                      37, 38, 40, 44, 46, 47],
    "report-all-g5": [0, 1, 4, 6, 8, 9, 10, 13, 15, 18, 20, 21, 23, 30, 34, 35, 36, 41,
                      44],
    "loci-test-g5": [0, 5, 17, 18, 20, 24, 28, 31, 35, 37, 38, 40, 43, 46],
    "hess-minor-g5": [0, 2, 4, 12, 17, 18, 19, 20, 21, 22, 23, 24, 26, 27, 30, 35, 36,
                      37, 38, 46, 47],
    "grad-verify-g5": [0, 1, 2, 3, 4, 5, 6, 10, 11, 12, 13, 15, 16, 17, 18, 19, 20, 21,
                       23, 24, 25, 28, 29, 30, 31, 35, 36, 37, 38, 40, 43, 46, 47],
    "expand-verify-g5": [0, 2, 4, 7, 8, 9, 11, 16, 17, 18, 20, 22, 24, 27, 28, 38, 40,
                         45, 46],
}


def _labels_report_all(g):
    labels = ["even/odd counts g=%d" % k for k in range(1, 9)]
    labels += ["orbit transitivity g=%d" % k for k in range(2, 7)]
    labels += ["special fundamental system g=%d" % k for k in range(2, 7)]
    labels += ["b^3 identity", "hyperelliptic vanishing set g=2 is empty",
               "hyperelliptic vanishing set g=3 is {b^3}"]
    labels += ["vanishing-set characteristics lie in E*, g=%d" % k
               for k in range(2, 7)]
    labels += ["odd theta constants vanish", "block factorization",
               "diagonal product formula",
               "heat equation vs finite differences"] * (min(g, 4) - 1)
    labels += ["bracket example: [1,1] = 0",
               "bracket example: [1,2,3,4]: three matchings, coefficient 1 each",
               "bracket example: [1,1,2,2,3,4]: repeated tau_12^2 monomial halved"]
    labels += ["theta remainder l=%d direction=%d" % (l, d)
               for l in (2, 4) for d in range(3)]
    labels += ["gradient remainder a=%d direction=%d" % (a, d)
               for a in (1, g) for d in range(3)]
    labels += ["tridiagonal tangent space"]
    labels += _labels_gradient_locus(g)
    labels += ["theta-null rank class on H_1 x H_%d" % (g - 1)]
    labels += _labels_hess_minor(g)
    return labels


def _labels_gradient_locus(g):
    labels = ["gradient_locus_slice slope %d" % i for i in range(g - 2)]
    labels += ["gradient_locus_slice coefficient psi_%d - 2 phi_%d^2" % (j, j)
               for j in range(4, g + 1)]
    return labels


def _labels_hess_minor(g):
    labels = ["minor_D123 slope %d" % i for i in range(g - 2)]
    labels += ["minor_D123 coefficient 2 phi_%d^2 - psi_%d/2" % (j, j)
               for j in range(3, g + 1)]
    labels += ["minor_D12jj slope %d" % i for i in range(g - 3)]
    labels += ["minor_D12jj coefficient -(4 phi_3^2 - psi_3)(4 phi_%d^2 - psi_%d)/4"
               % (j, j) for j in range(4, g + 1)]
    pairs = [(j, k) for j in range(4, g + 1) for k in range(j + 1, g + 1)]
    labels += ["minor_D12jk slope %d" % i for i in range(len(pairs))]
    labels += ["minor_D12jk coefficient dD_{%d%d}/dtau_%d%d (leading-bracket route) "
               "vs -phi_%d phi_%d phi_3 u^3 tau_13^2 D123" % (j, k, j, k, j, k)
               for j, k in pairs]
    return labels


def _labels_loci_test(g):
    labels = ["diagonal point is in the diagonal orbit",
              "perturbed diagonal point leaves the diagonal orbit"]
    labels += ["diagonal point is in every product orbit (split %d+%d)"
               % (g1, g - g1) for g1 in range(1, g)]
    labels += ["H_1 x H_%d block point is in the 1+%d product orbit" % (g - 1, g - 1),
               "theta-null rank class at the block point",
               "hyperelliptic vanishing along the diagonal",
               "tridiagonal tangent space"]
    return labels


def _labels_grad_verify(g, directions):
    labels = ["gradient remainder a=%d direction=%d" % (a, d)
              for a in range(1, g + 1) for d in range(directions)]
    return labels + _labels_gradient_locus(g)


def _labels_expand_verify(g, directions):
    return ["theta remainder l=%d direction=%d" % (l, d)
            for l in (2, 4) for d in range(directions)]


# Job kinds: command line without --seed, and the checks its report must hold.
JOB_KINDS = {
    "report-all-g4": (["report-all", "--g", "4"], _labels_report_all(4)),
    "report-all-g5": (["report-all", "--g", "5"], _labels_report_all(5)),
    "loci-test-g5": (["loci-test", "--g", "5"], _labels_loci_test(5)),
    "hess-minor-g5": (["hess-minor", "--g", "5"], _labels_hess_minor(5)),
    "grad-verify-g5": (["grad-verify", "--g", "5", "--directions", "1"],
                       _labels_grad_verify(5, 1)),
    "expand-verify-g5": (["expand-verify", "--g", "5", "--directions", "1"],
                         _labels_expand_verify(5, 1)),
}

# Workload name -> (job kinds, how many CLI seeds per kind).  Why each one:
# report_all is the headline job and the only one that runs symp and the
# bulk chars enumeration; detectors_g5 is dominated by batched theta
# constants over a lattice too large for cache; slices_g5 makes single theta
# evaluations with derivatives, Newton solves and slope fits, and no batch
# calls.
WORKLOADS = {
    "report_all": (["report-all-g4", "report-all-g5"], 1),
    "detectors_g5": (["loci-test-g5"], 1),
    "slices_g5": (["hess-minor-g5", "grad-verify-g5", "expand-verify-g5"], 3),
}


def build_jobs(workload, seed):
    """The workload's job list for one seed: [(kind, argv)]."""
    kinds, per_kind = WORKLOADS[workload]
    rng = random.Random(seed)
    jobs = []
    for kind in kinds:
        base, _ = JOB_KINDS[kind]
        for cli_seed in rng.sample(SEED_POOLS[kind], per_kind):
            jobs.append((kind, base + ["--seed", str(cli_seed)]))
    return jobs


def validate_report(kind, path):
    """None if the report at path is what the job must produce, else why not.
    Float values are not compared: a kernel change may move their last bits."""
    try:
        with open(path) as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return "unreadable report: %s" % exc
    if report.get("schema") != 1:
        return "schema %r, expected 1" % report.get("schema")
    if report.get("pass") is not True:
        failed = [c.get("label") for c in report.get("checks", []) if not c.get("pass")]
        return "report does not pass; failing checks: %s" % failed
    labels = Counter(c.get("label") for c in report.get("checks", []))
    expected = Counter(JOB_KINDS[kind][1])
    if labels != expected:
        return "checks differ from expected: missing %s, unexpected %s" % (
            sorted((expected - labels).elements()), sorted((labels - expected).elements()))
    if not all(c.get("pass") is True for c in report["checks"]):
        return "a check does not pass"
    return None


def spawn(argv, env, timeout, stderr_path):
    """Run argv to completion.  Returns its exit code (None if it was killed
    at the time limit) and the perf_counter readings at spawn and at exit.

    The wait blocks until the exit and a timer kills the process at the
    limit.  ``Popen.wait(timeout)`` would poll instead, at intervals growing
    to 50 ms, and round every time up to that grid: setup_s then read either
    0.215 s or 0.265 s."""
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=err,
                                cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        code = proc.wait()
        end = time.perf_counter()
        killer.cancel()
    return (None if end - start >= timeout else code), start, end


class Runner:
    def __init__(self, deadline):
        self.deadline = deadline
        # One BLAS thread: with OpenBLAS's default of one thread per core, a
        # job's second thread spins on the other core.  On a 2-vCPU VM,
        # report-all --g 5 took 11.8-14.5 s that way and 12.2-13.0 s with one
        # thread (three runs each, interleaved).
        self.env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1")
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def timeout(self):
        return max(1.0, self.deadline - time.perf_counter())

    def run_pass(self, jobs, traced):
        """One pass over the job list.  Returns its wall time, the summed
        per-layer metrics when traced, and the seconds of each job."""
        job_s = []
        layers = Counter()
        for i, (kind, argv) in enumerate(jobs):
            report = WORK / ("job%d.json" % i)
            spans_path = WORK / ("job%d.spans.json" % i)
            for stale in (report, spans_path):
                stale.unlink(missing_ok=True)
            command = argv + ["--out", str(report)]
            if traced:
                full = [sys.executable, str(SPANS_SCRIPT), "--spans", str(spans_path),
                        "--"] + command
            else:
                full = [sys.executable, "-m", "thetadiag.cli"] + command
            code, start, end = spawn(full, self.env, self.timeout(),
                                     WORK / ("job%d.stderr" % i))
            self.attempted += 1
            job_s.append(end - start)
            if code is None:
                problem = "killed at the time limit"
            elif code != 0:
                problem = "exit code %d" % code
            else:
                problem = validate_report(kind, report)
            if problem is None and traced:
                with open(spans_path) as fh:
                    trace = json.load(fh)
                problem = spans.span_problem(trace["spans"], start, end)
                if problem is None:
                    layers.update(spans.job_metrics(trace["spans"], trace["counts"],
                                                    end - start))
            if problem is not None:
                self.failed += 1
                self.failures.append({"job": " ".join(argv), "traced": traced,
                                      "problem": problem})
        return sum(job_s), dict(layers), job_s


def measure_setup(env, repeats):
    """Seconds, spawn to exit, of fresh interpreters importing thetadiag.cli,
    building the parser and printing the help."""
    argv = [sys.executable, "-m", "thetadiag.cli", "--help"]
    times = []
    for _ in range(repeats):
        code, start, end = spawn(argv, env, 60.0, WORK / "setup.stderr")
        if code != 0:
            raise RuntimeError("thetadiag --help exited with %r" % code)
        times.append(end - start)
    return times


ENV_PROBE = r"""
import ctypes, glob, json, os, platform, sys
import numpy
info = {"python": platform.python_version(), "numpy": numpy.__version__}
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = "%s %s" % (blas.get("name"), blas.get("version"))
except Exception as exc:
    info["blas"] = "unknown (%s)" % exc
threads = None
libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
for path in glob.glob(os.path.join(libdir, "*openblas*")):
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            threads = fn()
            break
info["blas_threads"] = threads
print(json.dumps(info))
"""


def environment(seed, workload, env):
    out = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(out.stdout)
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:  # no git on PATH
            pass
    info.update({
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": workload,
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": env.get("OPENBLAS_NUM_THREADS"),
        "not_done": "CPUs are not pinned and caches are not dropped: the sandbox "
                    "rules forbid changing machine settings",
    })
    return info


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.perf_counter()
    if not (SRC / "thetadiag" / "cli.py").is_file():
        print("error: %s/thetadiag not found; run from a thetadiag checkout" % SRC,
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    runner = Runner(started + RUN_LIMIT_S)
    env_info = environment(args.seed, args.workload, runner.env)
    jobs = build_jobs(args.workload, args.seed)
    setup_times = []
    if not args.trace:
        measure_setup(runner.env, 1)  # compiles bytecode, fills the file cache
        setup_times += measure_setup(runner.env, SETUP_REPEATS // 2)

    plain, traced = [], []
    loop_start = round_start = time.perf_counter()
    longest_round = 0.0
    while True:
        plain.append(runner.run_pass(jobs, traced=False))
        if args.trace:
            traced.append(runner.run_pass(jobs, traced=True))
        now = time.perf_counter()
        longest_round = max(longest_round, now - round_start)
        round_start = now
        if runner.failed or now + 2 * longest_round > runner.deadline:
            break
        enough = len(plain) >= (1 if args.trace else MIN_PASSES)
        if enough and now - loop_start + longest_round > args.seconds:
            break

    wall_s = statistics.median(p[0] for p in plain)
    if not args.trace:
        setup_times += measure_setup(runner.env, SETUP_REPEATS - len(setup_times))
    if args.trace:
        traced_wall = statistics.median(p[0] for p in traced)
        names = sorted(set().union(*(p[1] for p in traced)))
        metrics = {}
        for name in names:
            value = statistics.median(p[1].get(name, 0) for p in traced)
            metrics[name] = metric(value, "s" if name.endswith("_s") else "count")
        metrics["trace.overhead_s"] = metric(traced_wall - wall_s, "s")
    else:
        metrics = {
            "wall_s": metric(wall_s, "s"),
            # On Linux the largest peak RSS of any child waited for: the
            # jobs, which are larger than the setup and environment probes.
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup_times), "s"),
        }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    jobs_failed_frac = runner.failed / runner.attempted
    for name, m in metrics.items():
        print("%-24s %14.6f %s" % (name, m["value"], m["unit"]))
    print("%-24s %14.6f fraction (%d of %d jobs)" % (
        "jobs_failed_frac", jobs_failed_frac, runner.failed, runner.attempted))
    print("passes %d, jobs per pass %d: %s" % (
        len(plain), len(jobs), "; ".join(" ".join(a) for _, a in jobs)))
    for failure in runner.failures:
        print("FAILED job: %s" % json.dumps(failure))
    print("environment: %s" % json.dumps(env_info, sort_keys=True))
    with open(WORK / "last_run.json", "w") as fh:
        json.dump({"result": result, "jobs_failed_frac": jobs_failed_frac,
                   "environment": env_info, "setup_times_s": setup_times,
                   "passes": [{"wall_s": p[0], "job_s": p[2]} for p in plain],
                   "traced_passes": [{"wall_s": p[0], "job_s": p[2], "layers": p[1]}
                                     for p in traced],
                   "failures": runner.failures, "jobs": [a for _, a in jobs]},
                  fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
