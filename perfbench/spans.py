"""Layer spans for the traced benchmark run.

A traced job runs the ``thetadiag`` command in-process with wrappers
installed on the public functions of the five library layers (chars, symp,
theta, expand, loci).  A wrapper opens a span only when the call crosses a
layer boundary; a call from a layer into itself passes straight through, so
the recursion inside a layer (``symp.act`` inside ``orbit``, ``chars.parity``
inside ``enumerate_characteristics``) costs one check, not one span.  Spans
stay in memory as ``[name, start, end, parent]`` and are written out when
the job ends.

Run one traced job (from the repository root)::

    python3 perfbench/spans.py --spans OUT.json -- report-all --g 4 --out r.json

The module also holds the arithmetic that turns spans into per-layer
metrics, which the benchmark driver and ``test_spans.py`` share.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("chars", "symp", "theta", "expand", "loci")

# Entry points into theta, grouped by the regime they exercise.
THETA_GROUPS = {
    "batch": ("theta_constants_batch",),
    "single": ("eval_theta", "eval_theta_many", "gradient", "hessian",
               "tau_derivative", "tau_gradient"),
    "genus1": ("genus1_derivatives", "f_phi_psi", "sample_generic_diagonal"),
}


def _one(result):
    return 1


# Counters bumped on every call of the named function, boundary or not, by
# an amount read from its result.  theta.values is counted only at the three
# functions that sum a lattice, which every other theta entry point reaches,
# so no value counts twice; eval_theta_many returns one value per
# multi-index and theta_constants_batch one per characteristic.
COUNTERS = {
    "theta.eval_theta": ("theta.values", _one),
    "theta.eval_theta_many": ("theta.values", len),
    "theta.theta_constants_batch": ("theta.values", len),
    "symp.orbit": ("symp.orbit_points", len),
    "expand.fit_slope": ("expand.slope_fits", _one),
    "loci.impose_thetanull": ("loci.newton_solves", _one),
}


class Recorder:
    """Spans and counters of one traced process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._open = []  # (layer, span index) of the spans still running

    def wrap(self, layer, name, fn):
        qualname = "%s.%s" % (layer, name)
        counter = COUNTERS.get(qualname)
        spans, counts, open_, clock = self.spans, self.counts, self._open, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and open_[-1][0] == layer:
                result = fn(*args, **kwargs)
            else:
                index = len(spans)
                span = [qualname, clock(), None, open_[-1][1] if open_ else -1]
                spans.append(span)
                open_.append((layer, index))
                try:
                    result = fn(*args, **kwargs)
                finally:
                    open_.pop()
                    span[2] = clock()
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def to_json(self):
        return {"spans": self.spans, "counts": dict(self.counts)}


def public_functions(module):
    """The public functions a layer module defines (not re-exports)."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and callable(obj)
        and not inspect.isclass(obj)
        and getattr(obj, "__module__", None) == module.__name__
    }


def install(recorder):
    """Replace every binding of a layer's public functions, in the layer
    modules, ``cli`` and the package root, with a recording wrapper."""
    layers = {layer: importlib.import_module("thetadiag." + layer)
              for layer in LAYERS}
    wrappers = {id(fn): recorder.wrap(layer, name, fn)
                for layer, module in layers.items()
                for name, fn in public_functions(module).items()}
    modules = [importlib.import_module("thetadiag"),
               importlib.import_module("thetadiag.cli"), *layers.values()]
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, name, wrappers[id(obj)])


def layer_of(name):
    return name.split(".", 1)[0]


def span_problem(spans, spawn, exit):
    """None if the spans of one job are well formed, else what is wrong.

    Every span must be closed, lie inside its parent span (a top-level span
    inside the job's spawn-to-exit window, read on the same monotonic clock
    as the spans) and leave a self time of at least 0; so must the job,
    whose self time is ``cli.self_s``.
    """
    child_s = [0.0] * len(spans)
    top_s = 0.0
    for i, (name, start, end, parent) in enumerate(spans):
        if end is None:
            return "span %d (%s) was never closed" % (i, name)
        if not -1 <= parent < i:
            return "span %d (%s) has parent %d" % (i, name, parent)
        lo, hi = (spawn, exit) if parent < 0 else spans[parent][1:3]
        if not lo <= start <= end <= hi:
            return "span %d (%s) [%.6f, %.6f] is outside its parent [%.6f, %.6f]" % (
                i, name, start, end, lo, hi)
        if parent < 0:
            top_s += end - start
        else:
            child_s[parent] += end - start
    for (name, start, end, _), children in zip(spans, child_s):
        if end - start < children:
            return "the children of %s take %.6f s of its %.6f s" % (
                name, children, end - start)
    if exit - spawn < top_s:
        return "top-level spans take %.6f s of the job's %.6f s" % (top_s, exit - spawn)
    return None


def job_metrics(spans, counts, job_s):
    """Per-layer metrics of one traced job from its spans and counters.

    A layer's self time is the duration of its spans minus the duration of
    their direct children, which always belong to another layer.
    ``cli.self_s`` is the job time (spawn to exit) not covered by any
    top-level span.  The self times add up to ``job_s`` by definition; that
    each of them is at least 0 is what ``span_problem`` checks.
    """
    metrics = Counter()
    for layer in LAYERS:
        metrics["%s.self_s" % layer] = 0.0
        metrics["%s.calls" % layer] = 0
    for group in THETA_GROUPS:
        metrics["theta.%s.self_s" % group] = 0.0
    metrics["theta.batch.calls"] = 0
    metrics["loci.theta_calls"] = 0
    for key in ("theta.values", "symp.orbit_points", "expand.slope_fits",
                "loci.newton_solves"):
        metrics[key] = counts.get(key, 0)

    child_s = [0.0] * len(spans)
    top_s = 0.0
    for name, start, end, parent in spans:
        if parent < 0:
            top_s += end - start
        else:
            child_s[parent] += end - start
    group_of = {"theta.%s" % fn: group
                for group, fns in THETA_GROUPS.items() for fn in fns}
    for (name, start, end, parent), children in zip(spans, child_s):
        layer = layer_of(name)
        self_s = end - start - children
        metrics["%s.self_s" % layer] += self_s
        metrics["%s.calls" % layer] += 1
        if layer != "theta":
            continue
        group = group_of.get(name)
        if group is not None:
            metrics["theta.%s.self_s" % group] += self_s
        if group == "batch":
            metrics["theta.batch.calls"] += 1
        if parent >= 0 and layer_of(spans[parent][0]) == "loci":
            metrics["loci.theta_calls"] += 1
    metrics["cli.self_s"] = job_s - top_s
    return dict(metrics)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run one thetadiag command with layer spans recorded")
    parser.add_argument("--spans", required=True, help="where to write spans")
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="-- followed by the thetadiag command line")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    recorder = Recorder()
    install(recorder)
    from thetadiag import cli

    code = cli.run(command)
    with open(args.spans, "w") as fh:
        json.dump(recorder.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
