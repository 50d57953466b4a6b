"""Command-line entry point: every verification as a reproducible batch job.

Each subcommand assembles a report dictionary with a versioned schema
("schema": 1), the seed used, and one entry per check; the process exits 0
iff all checks pass, 1 if any check fails (or a forked check process of
report-all ends without a result, or stdout is closed before the report is
written), and 2 on malformed input (an --out that cannot be written
included).

Randomness: all random draws flow through numpy's default_rng (PCG64),
seeded from --seed, so identical job configurations reproduce identical
reports modulo the timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import itertools
import json
import math
import os
import pickle
import sys
from datetime import datetime, timezone
from fractions import Fraction

import numpy as np

from . import chars, expand, loci, symp, theta

SCHEMA_VERSION = 1
EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Malformed input: reported on stderr with exit code 2."""


class _Parser(argparse.ArgumentParser):
    """An argparse error is a UsageError: one line on stderr, exit code 2."""

    def error(self, message):
        raise UsageError(message)


class ChildLost(Exception):
    """A forked check process ended without a result: reported on stderr
    with exit code 1."""


@contextlib.contextmanager
def _forked(fn, *args):
    """Run fn(*args) in a forked child while the body of the with block runs;
    the block gets a function that waits for the child and returns fn's
    value, or raises the exception fn raised.  What fn allocates stays in
    the child and is freed when it ends; that memory isolation, not wall
    time, is what the fork buys (see the README).

    fn must draw nothing from the job's random generator: the child's copy
    of it is discarded.  The outcome comes back pickled through a pipe; a
    child that ends without one (or whose outcome does not pickle) raises
    ChildLost.  The child always ends with os._exit, and it is reaped
    (killed first if its result was not collected) however the block ends.
    Without os.fork, fn runs here, before the block."""
    if not hasattr(os, "fork"):
        outcome = fn(*args)
        yield lambda: outcome
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            try:
                outcome = (True, fn(*args))
            except BaseException as exc:
                outcome = (False, exc)
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(outcome, fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    pipe = os.fdopen(read_fd, "rb")
    reaped = False

    def result():
        nonlocal reaped
        payload = pipe.read()
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        reaped = True
        if code != 0 or not payload:
            raise ChildLost("the check process for %s ended with %s and no result"
                            % (fn.__name__, "exit code %d" % code if code >= 0
                               else "signal %d" % -code))
        ok, value = pickle.loads(payload)
        if ok:
            return value
        raise value

    try:
        yield result
    finally:
        pipe.close()
        if not reaped:
            import signal  # here, not at startup: only a failed job gets here

            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _parse_tol(text):
    try:
        tol = float(text)
    except ValueError:
        raise UsageError("cannot parse tolerance %r" % text)
    if not (math.isfinite(tol) and tol > 0):
        raise UsageError("tolerance must be finite and positive: %r" % text)
    return tol


def _parse_directions(text):
    try:
        count = int(text)
    except ValueError:
        raise UsageError("cannot parse direction count %r" % text)
    if count < 1:
        raise UsageError("need at least one direction: %r" % text)
    return count


def _require_genus(g, lo, hi):
    if not lo <= g <= hi:
        raise UsageError("need %d <= g <= %d" % (lo, hi))


def _parse_complex_vector(text):
    try:
        return [complex(x.replace(" ", "")) for x in text.split(",")]
    except ValueError:
        raise UsageError("cannot parse complex vector %r" % text)


def _load_tau(args):
    """The period matrix in the --tau file; the report's "g" becomes its genus."""
    try:
        with open(args.tau) as fh:
            tau = theta.PeriodMatrix.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError("cannot load period matrix from %s: %s" % (args.tau, exc))
    args.g = tau.g
    return tau


def _parse_char(text):
    try:
        return chars.Characteristic.parse(text)
    except ValueError as exc:
        raise UsageError(str(exc))


def _jsonable(value):
    if isinstance(value, chars.Characteristic):
        return value.compact()
    if isinstance(value, complex):
        return [value.real, value.imag]
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _check(label, passed, **detail):
    entry = {"label": label, "pass": bool(passed)}
    entry.update(_jsonable(detail))
    return entry


def _report_check(label, result, drop=()):
    """A check entry from a result dataclass: its fields, in declaration
    order and less the names in `drop`, are the entry's detail."""
    return _check(label, result.passed, **{
        f.name: getattr(result, f.name)
        for f in dataclasses.fields(result) if f.name not in drop})


def _slice_checks(result):
    return ([_report_check("%s slope %d" % (result.label, i), r)
             for i, r in enumerate(result.slope_reports)]
            + [_report_check("%s coefficient %s" % (result.label, c.label), c,
                             drop=("label",))
               for c in result.coefficient_checks])


# ---------------------------------------------------------------------------
# check builders, shared by the subcommands and report-all


def _theta_remainder_checks(g, rng, ls, directions, tol):
    checks = []
    for l in ls:
        t = theta.sample_generic_diagonal(g, l, rng, tol)
        checks.extend(
            _report_check("theta remainder l=%d direction=%d" % (l, d),
                          expand.theta_remainder_report(g, l, t, rng, tol=tol))
            for d in range(directions))
    return checks


def _gradient_remainder_checks(g, t, rng, a_values, directions, tol):
    return [_report_check("gradient remainder a=%d direction=%d" % (a, d),
                          expand.gradient_remainder_report(g, 3, a, t, rng, tol=tol))
            for a in a_values for d in range(directions)]


def _gradient_locus_checks(g, t, rng, tol):
    return _slice_checks(loci.gradient_locus_check(g, t, rng, theta_tol=tol))


def _hess_minor_checks(g, rng, names):
    """The minor checks named; each draws its diagonal point at
    loci.MINOR_THETA_TOL, the tolerance of all its theta sums, so the draw's
    genus-1 symbols are the ones the check binds."""
    checks = []
    for name in names:
        t = theta.sample_generic_diagonal(g, 2, rng, loci.MINOR_THETA_TOL)
        checks += _slice_checks(loci.minor_identity_check(g, t, name, rng))
    return checks


def _tridiagonal_check(g, t, tol):
    return _report_check("tridiagonal tangent space",
                         loci.tridiagonal_tangent_check(g, t, theta_tol=tol),
                         drop=("witness",))


def _random_block_product(g, rng, tol):
    """A point of H_1 x H_{g-1} with a generic off-diagonal lower block."""
    t = theta.sample_generic_diagonal(g, 2, rng, tol)
    offdiag = {(a, b): 0.1 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
               for a in range(2, g + 1) for b in range(a + 1, g + 1)}
    return loci._near_diagonal(t, offdiag)


def _rank_class_check(g, blocks, tol):
    """The normal-form l=2 theta-null vanishes with Hessian rank at most 2
    at every point of H_1 x H_{g-1} in `blocks`."""
    m0 = expand.normal_form(2, g)
    nulls, ranks = zip(*(loci.thetanull_rank_class(b, m0, theta_tol=tol)
                         for b in blocks))
    passed = all(nulls) and max(ranks) <= 2
    if len(blocks) == 1:
        return _check("theta-null rank class at the block point", passed,
                      is_null=nulls[0], rank=ranks[0])
    return _check("theta-null rank class on H_1 x H_%d" % (g - 1), passed,
                  all_null=all(nulls), worst_rank=max(ranks))


def _detector_check(label, verdict, **detail):
    """A locus detector's entry: its verdict, then detail, its vanishing
    threshold and one witness row per tested characteristic."""
    return _check(label, True, verdict=verdict.verdict, **detail, vanish_tol=verdict.tol,
                  witness=[dict(row) for row in verdict.witness])


# ---------------------------------------------------------------------------
# subcommands


def _cmd_char(args, rng):
    """One check per characteristic; the report's "g" is their common genus,
    or None (null) when the genera differ."""
    ms = [_parse_char(text) for text in args.characteristics]
    genera = {m.g for m in ms}
    args.g = genera.pop() if len(genera) == 1 else None
    return [_check("classify %s" % m.compact(), True,
                   parity=chars.parity(m), l=chars.scalar_class(m), g=m.g)
            for m in ms]


def _cmd_orbit(args, rng):
    _require_genus(args.g, 1, chars.MAX_ENUM_GENUS)
    if args.seed_char is not None:
        m = _parse_char(args.seed_char)
        if m.g != args.g:
            raise UsageError("seed characteristic genus does not match --g")
    else:
        m = chars.Characteristic.zero(args.g)
    orb = symp.orbit(m, symp.GENERATOR_SETS[args.group](args.g))
    if args.group == "Gg":
        expected = (
            chars.even_count(args.g)
            if chars.is_even(m)
            else chars.odd_count(args.g)
        )
    else:
        l = chars.scalar_class(m)
        expected = math.comb(args.g, l) * 3 ** (args.g - l)
    return [
        _check(
            "orbit of %s under %s" % (m.compact(), args.group),
            len(orb) == expected,
            orbit_size=len(orb),
            expected_size=expected,
            parity=chars.parity(m),
        )
    ]


def _cmd_theta_eval(args, rng):
    tau = _load_tau(args)
    m = _parse_char(args.char)
    if m.g != tau.g:
        raise UsageError("characteristic genus does not match the period matrix")
    z = _parse_complex_vector(args.z) if args.z is not None else None
    deriv = None
    if args.deriv is not None:
        try:
            deriv = tuple(int(x) for x in args.deriv.split(","))
        except ValueError:
            raise UsageError("cannot parse derivative multi-index %r" % args.deriv)
        if len(deriv) != tau.g:
            raise UsageError("derivative multi-index must have length g")
    try:
        value = theta.eval_theta(m, tau, z=z, deriv=deriv, tol=args.tol)
    except ValueError as exc:
        raise UsageError(str(exc))
    return [
        _check("theta-eval %s" % m.compact(), True, value=value,
               deriv=list(deriv) if deriv else None, tol=args.tol)
    ]


def _cmd_expand_verify(args, rng):
    _require_genus(args.g, 2, theta.MAX_NUMERIC_GENUS)
    if args.l is not None and (not 2 <= args.l <= args.g or args.l % 2):
        raise UsageError("need even l with 2 <= l <= g")
    ls = [args.l] if args.l is not None else [l for l in (2, 4) if l <= args.g]
    return _theta_remainder_checks(args.g, rng, ls, args.directions, args.tol)


def _cmd_grad_verify(args, rng):
    _require_genus(args.g, 3, theta.MAX_NUMERIC_GENUS)
    t = theta.sample_generic_diagonal(args.g, 3, rng, args.tol)
    checks = _gradient_remainder_checks(args.g, t, rng, range(1, args.g + 1),
                                        args.directions, args.tol)
    if args.g >= 4:
        checks += _gradient_locus_checks(args.g, t, rng, args.tol)
    return checks


def _cmd_hess_minor(args, rng):
    _require_genus(args.g, 4, theta.MAX_NUMERIC_GENUS)
    which = [args.which] if args.which else list(loci.MINOR_CHECKS)
    return _hess_minor_checks(args.g, rng, which)


def _cmd_loci_test(args, rng):
    tol = args.tol
    if args.tau is not None:
        tau = _load_tau(args)
        _require_genus(tau.g, 1, theta.MAX_NUMERIC_GENUS)
        digest = hashlib.sha256(np.ascontiguousarray(tau.entries).tobytes())
        try:
            checks = [_detector_check("diagonal-orbit detector",
                                      loci.is_diagonal_orbit(tau, theta_tol=tol),
                                      tau_digest=digest.hexdigest()[:16])]
            checks += [_detector_check("product-orbit detector split %d+%d"
                                       % (g1, tau.g - g1),
                                       loci.is_product_orbit(tau, g1, theta_tol=tol))
                       for g1 in range(1, tau.g)]
            checks.append(_detector_check(
                "hyperelliptic vanishing detector",
                loci.hyperelliptic_vanishing_test(tau, theta_tol=tol)))
        except ValueError as exc:  # e.g. the lattice point budget
            raise UsageError(str(exc))
        return checks
    g = args.g
    _require_genus(g, 2, theta.MAX_NUMERIC_GENUS)
    t = theta.sample_generic_diagonal(g, 2, rng, tol)
    diag = theta.PeriodMatrix.diagonal(t)
    checks = [_check("diagonal point is in the diagonal orbit",
                     loci.is_diagonal_orbit(diag, theta_tol=tol).verdict)]
    direction = np.zeros((g, g), dtype=complex)
    direction[0, 1] = direction[1, 0] = 1j
    perturbed = diag.perturbed(direction, 0.05)
    checks.append(_check("perturbed diagonal point leaves the diagonal orbit",
                         not loci.is_diagonal_orbit(perturbed, theta_tol=tol).verdict))
    checks += [_check("diagonal point is in every product orbit (split %d+%d)"
                      % (g1, g - g1),
                      loci.is_product_orbit(diag, g1, theta_tol=tol).verdict)
               for g1 in range(1, g)]
    block = _random_block_product(g, rng, tol)
    checks.append(_check("H_1 x H_%d block point is in the 1+%d product orbit"
                         % (g - 1, g - 1),
                         loci.is_product_orbit(block, 1, theta_tol=tol).verdict))
    checks.append(_rank_class_check(g, [block], tol))
    checks.append(_check("hyperelliptic vanishing along the diagonal",
                         loci.hyperelliptic_vanishing_test(diag, theta_tol=tol).verdict))
    if g >= 3:
        checks.append(_tridiagonal_check(g, t, tol))
    return checks


def _theta_numeric_checks(g, rng, n_samples, tol):
    """Spot checks of the theta evaluator: odd symmetry in z, block
    factorization, the diagonal product formula, and the heat equation in
    one off-diagonal and one diagonal tau entry.  Every sample is drawn
    first, in the order of a sample-by-sample run; then each quantity is one
    theta stack."""
    z = np.linspace(0.1, 0.3, g)  # real, so the radius is that of z = 0
    odd = chars.enumerate_characteristics(g, parity_filter=chars.ODD)
    evens = chars.enumerate_characteristics(g, parity_filter=chars.EVEN)
    samples = []  # (t, tau, odd m, g1, even m, (j, k))
    for _ in range(n_samples):
        t = theta.sample_generic_diagonal(g, 0, rng, tol)
        tau = theta.PeriodMatrix.diagonal(t).perturbed(
            expand.random_offdiagonal_direction(g, rng), 0.1
        )
        samples.append((t, tau, odd[rng.integers(len(odd))], int(rng.integers(1, g)),
                        evens[rng.integers(len(evens))],
                        sorted(rng.choice(g, size=2, replace=False))))

    def per_sample(items, width):
        values = theta.eval_theta_stack(items, tol)
        return [values[k:k + width] for k in range(0, len(values), width)]

    # odd m: theta(-z) = -theta(z); each side of z has its own exponential
    parity = max(abs(plus + minus) for plus, minus in per_sample(
        [(tau, m, s * z) for _, tau, m, *_ in samples for s in (1, -1)], 2))
    # block factorization
    items = []
    for _, tau, _, g1, m, _ in samples:
        block = np.array(tau.entries)
        block[:g1, g1:] = block[g1:, :g1] = 0.0
        items += [(theta.PeriodMatrix(block), m, None),
                  (theta.PeriodMatrix(block[:g1, :g1]),
                   chars.Characteristic(m.eps[:g1], m.delta[:g1]), None),
                  (theta.PeriodMatrix(block[g1:, g1:]),
                   chars.Characteristic(m.eps[g1:], m.delta[g1:]), None)]
    factorization = max(abs(lhs - first * second)
                        for lhs, first, second in per_sample(items, 3))
    # diagonal product formula
    items = []
    for t, *_, m, _ in samples:
        items.append((theta.PeriodMatrix.diagonal(t), m, None))
        items += [(theta.PeriodMatrix([[t[a - 1]]]), m.column(a), None)
                  for a in range(1, g + 1)]
    diagonal = 0.0
    for value, *columns in per_sample(items, g + 1):
        prod = 1.0 + 0j
        for column in columns:
            prod *= column
        diagonal = max(diagonal, abs(value - prod))

    # heat equation against central differences in tau_jk and tau_jj
    def unit(a, b):
        direction = np.zeros((g, g), dtype=complex)
        direction[a, b] = direction[b, a] = 1.0
        return direction

    h, heat = 1e-4, 0.0
    differences = per_sample([(tau.perturbed(unit(a, b), s * h), m, None)
                              for _, tau, _, _, m, (j, k) in samples
                              for a, b in ((j, k), (j, j)) for s in (1, -1)], 4)
    for (_, tau, _, _, m, (j, k)), values in zip(samples, differences):
        grad = theta.tau_gradient(m, tau, tol=tol)
        for (a, b), plus, minus in zip(((j, k), (j, j)), values[::2], values[1::2]):
            an = grad[a, b]
            heat = max(heat, abs((plus - minus) / (2 * h) - an) / max(abs(an), 1e-30))
    return [
        _check("odd theta constants vanish", parity < 1e-8,
               worst_abs=parity, samples=n_samples),
        _check("block factorization", factorization < 1e-8,
               worst_abs=factorization, samples=n_samples),
        _check("diagonal product formula", diagonal < 1e-8,
               worst_abs=diagonal, samples=n_samples),
        _check("heat equation vs finite differences", heat < 1e-6,
               worst_rel=heat, samples=n_samples),
    ]


def _bracket_example_checks():
    """The worked bracket examples, reproduced with exact coefficients."""
    g = 4

    def mono(pairs):
        counts = {}
        for pair in pairs:
            counts[pair] = counts.get(pair, 0) + 1
        return tuple(sorted(counts.items()))

    cases = [
        ("[1,1] = 0", expand.bracket([1, 1], g).is_zero()),
        (
            "[1,2,3,4]: three matchings, coefficient 1 each",
            expand.bracket([1, 2, 3, 4], g).terms
            == {
                (2, mono([(1, 2), (3, 4)]), ()): Fraction(1),
                (2, mono([(1, 3), (2, 4)]), ()): Fraction(1),
                (2, mono([(1, 4), (2, 3)]), ()): Fraction(1),
            },
        ),
        (
            "[1,1,2,2,3,4]: repeated tau_12^2 monomial halved",
            expand.bracket([1, 1, 2, 2, 3, 4], g).terms
            == {
                (3, mono([(1, 2), (1, 2), (3, 4)]), ()): Fraction(1, 2),
                (3, mono([(1, 2), (1, 3), (2, 4)]), ()): Fraction(1),
                (3, mono([(1, 2), (1, 4), (2, 3)]), ()): Fraction(1),
            },
        ),
    ]
    return [_check("bracket example: %s" % label, ok) for label, ok in cases]


def _exact_checks():
    """The exact layer of report-all: counts, orbits, fundamental systems
    and vanishing sets over Z_2; no random draws and no theta values."""
    checks = []
    # counting
    for g in range(1, 9):
        evens = len(chars.enumerate_characteristics(g, parity_filter=chars.EVEN))
        checks.append(
            _check("even/odd counts g=%d" % g,
                   evens == chars.even_count(g)
                   and 4**g - evens == chars.odd_count(g),
                   even=evens, odd=4**g - evens)
        )
    # transitivity
    for g in range(2, 7):
        checks.append(_report_check("orbit transitivity g=%d" % g,
                                    symp.verify_transitivity(g)))
    # fundamental systems
    for g in range(2, 7):
        fs = chars.special_fundamental_system(g)
        members = fs.members()
        azygetic = all(
            chars.is_azygetic_triple(*triple)
            for triple in itertools.combinations(members, 3)
        )
        essential = all(
            chars.is_essential_basis(members[:i] + members[i + 1:])
            for i in range(len(members))
        )
        checks.append(
            _check("special fundamental system g=%d" % g, azygetic and essential,
                   azygetic_triples=azygetic, essential_after_any_drop=essential)
        )
    b3 = chars.b_char(chars.special_fundamental_system(3))
    checks.append(_check("b^3 identity", b3.compact() == "[111;101]"))
    # hyperelliptic vanishing sets
    checks.append(
        _check("hyperelliptic vanishing set g=2 is empty",
               not chars.hyperelliptic_vanishing_set(2))
    )
    checks.append(
        _check("hyperelliptic vanishing set g=3 is {b^3}",
               chars.hyperelliptic_vanishing_set(3) == {b3})
    )
    for g in range(2, 7):
        checks.append(
            _check("vanishing-set characteristics lie in E*, g=%d" % g,
                   chars.vanish_lemma_check(g))
        )
    return checks


def _cmd_report_all(args, rng):
    """Every acceptance check.  Each builder that draws from rng runs here,
    in report order, so the random streams are those of a sequential run;
    the exact layer and the theta-null rank class (on block points drawn
    here) draw nothing and run in forked children meanwhile, which keeps
    their memory (the g = 8 count's 32,896 characteristics) out of this
    process's peak RSS."""
    _require_genus(args.g, 1, theta.MAX_NUMERIC_GENUS)
    with _forked(_exact_checks) as exact_checks:
        checks = []
        # theta numerics
        for g in range(2, min(args.g, 4) + 1):
            checks += _theta_numeric_checks(g, rng, n_samples=10, tol=args.tol)
        # bracket calculus
        checks += _bracket_example_checks()
        # expansion orders
        checks += _theta_remainder_checks(args.g, rng,
                                          [l for l in (2, 4) if l <= args.g],
                                          3, args.tol)
        if args.g >= 3:
            t = theta.sample_generic_diagonal(args.g, 3, rng, args.tol)
            checks += _gradient_remainder_checks(args.g, t, rng, (1, args.g), 3,
                                                 args.tol)
            # tridiagonal tangent spaces
            t = theta.sample_generic_diagonal(args.g, 0, rng, args.tol)
            checks.append(_tridiagonal_check(args.g, t, args.tol))
        # gradient-locus slice, theta-null rank class and Hessian minors
        if args.g >= 4:
            t = theta.sample_generic_diagonal(args.g, 3, rng, args.tol)
            checks += _gradient_locus_checks(args.g, t, rng, args.tol)
            blocks = [_random_block_product(args.g, rng, args.tol) for _ in range(5)]
            with _forked(_rank_class_check, args.g, blocks, args.tol) as rank_class:
                minors = _hess_minor_checks(args.g, rng, loci.MINOR_CHECKS)
                checks.append(rank_class())
            checks += minors
        return exact_checks() + checks


# ---------------------------------------------------------------------------
# plumbing


def _build_parser():
    parser = _Parser(
        prog="thetadiag",
        description="verification jobs for theta characteristic machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    shared = {
        "--g": dict(type=int, default=4),
        "--seed": dict(type=int, default=0),
        "--tol": dict(type=_parse_tol, default=theta.DEFAULT_TOL,
                      help="truncation tolerance of the theta sums"),
        "--out": dict(default=None, help="report path (default stdout)"),
        "--format": dict(choices=("json", "csv"), default="json"),
    }

    def command(name, func, help, *options):
        """A subcommand taking the shared options named, then --out and
        --format, each under its whole name only; its report's seed and tol
        are null unless it takes them."""
        p = sub.add_parser(name, help=help, allow_abbrev=False)
        p.set_defaults(func=func, seed=None, tol=None)
        for option in options + ("--out", "--format"):
            p.add_argument(option, **shared[option])
        return p

    p = command("char", _cmd_char, "classify characteristics")
    p.add_argument("action", choices=("classify",))
    p.add_argument("characteristics", nargs="+")

    p = command("orbit", _cmd_orbit, "orbit enumeration against expected counts", "--g")
    p.set_defaults(g=3)
    p.add_argument("--group", choices=sorted(symp.GENERATOR_SETS), default="Gg")
    p.add_argument("--seed-char", default=None)

    p = command("theta-eval", _cmd_theta_eval, "evaluate one theta value", "--tol")
    p.add_argument("--tau", required=True, help="period matrix JSON file")
    p.add_argument("--char", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--deriv", default=None, help="multi-index, e.g. 1,0,0,0")

    p = command("expand-verify", _cmd_expand_verify, "theta expansion remainder slopes",
                "--g", "--seed", "--tol")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--directions", type=_parse_directions, default=10)

    p = command("grad-verify", _cmd_grad_verify, "gradient expansion and slice checks",
                "--g", "--seed", "--tol")
    p.add_argument("--directions", type=_parse_directions, default=10)

    p = command("hess-minor", _cmd_hess_minor, "Hessian minor identity checks",
                "--g", "--seed")
    p.set_defaults(tol=loci.MINOR_THETA_TOL)  # the checks fix their own
    p.add_argument("--which", choices=loci.MINOR_CHECKS, default=None)

    p = command("loci-test", _cmd_loci_test, "locus detectors on canonical points",
                "--g", "--seed", "--tol")
    p.add_argument("--tau", default=None, help="optional period matrix JSON file")

    command("report-all", _cmd_report_all, "aggregate of every acceptance check",
            "--g", "--seed", "--tol")
    return parser


def _write_report(report, out, fmt):
    """Write the report to the file out, or to stdout (flushed) when out is
    None; a file that cannot be written is a UsageError."""
    if fmt == "json":
        text = json.dumps(report, indent=2) + "\n"
    else:
        rows = [["label", "pass", "detail"]]
        for entry in report["checks"]:
            detail = {k: v for k, v in entry.items() if k not in ("label", "pass")}
            rows.append([entry["label"], entry["pass"], json.dumps(detail)])
        buffer = io.StringIO()
        csv.writer(buffer).writerows(rows)
        text = buffer.getvalue()
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
        return
    try:
        with open(out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError("cannot write report to %s: %s" % (out, exc.strerror or exc))


def run(argv=None):
    parser = _build_parser()
    try:
        # argparse and the --tol and --directions types raise UsageError
        args = parser.parse_args(argv)
        checks = args.func(args, np.random.default_rng(args.seed))
        if not checks:
            raise UsageError("%s produced no checks at g=%d" % (args.command, args.g))
        report = {
            "schema": SCHEMA_VERSION,
            "command": args.command,
            "g": args.g,
            "seed": args.seed,
            "tol": args.tol,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "checks": checks,
            "pass": all(c["pass"] for c in checks),
        }
        _write_report(report, args.out, args.format)
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ChildLost as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except BrokenPipeError:
        # stdout's reader has gone; stdout becomes devnull, so that the
        # flush at interpreter exit does not fail on the same pipe
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed by its reader", file=sys.stderr)
        return EXIT_FAIL
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
