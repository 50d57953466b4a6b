"""Command-line entry point: every verification as a reproducible batch job.

Each subcommand assembles a report dictionary with a versioned schema
("schema": 1), the seed used, and one entry per check; the process exits 0
iff all checks pass, 1 if any check fails (or a forked check process of
report-all ends without a result), and 2 on malformed input.

Randomness: all random draws flow through numpy's default_rng (PCG64),
seeded from --seed, so identical job configurations reproduce identical
reports modulo the timestamp field.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
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


class ChildLost(Exception):
    """A forked check process ended without a result: reported on stderr
    with exit code 1."""


@contextlib.contextmanager
def _forked(fn, *args):
    """Run fn(*args) in a forked child while the body of the with block runs;
    the block gets a function that waits for the child and returns fn's
    value, or raises the exception fn raised.

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


def _parse_ladder(text):
    """Parse "2^-3..2^-9" or a comma-separated list of floats."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)

        def _power(s):
            s = s.strip()
            if s.startswith("2^"):
                return int(s[2:])
            raise UsageError("ladder bounds must look like 2^-3")

        a, b = _power(lo), _power(hi)
        if a < b:
            a, b = b, a
        try:
            ladder = [2.0**k for k in range(a, b - 1, -1)]
        except OverflowError:
            raise UsageError("ladder bounds out of range: %r" % text)
    else:
        try:
            ladder = [float(x) for x in text.split(",")]
        except ValueError:
            raise UsageError("cannot parse ladder %r" % text)
    if len(ladder) < 2:
        raise UsageError("a ladder needs at least two points: %r" % text)
    if not all(math.isfinite(e) and e > 0 for e in ladder):
        raise UsageError("ladder points must be finite and positive: %r" % text)
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise UsageError("ladder must be strictly decreasing: %r" % text)
    return ladder


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


def _report_check(label, report, drop=()):
    """A check entry from a report's to_dict(), less the keys in `drop`."""
    detail = report.to_dict()
    for key in ("pass",) + tuple(drop):
        detail.pop(key)
    return _check(label, report.passed, **detail)


def _slice_checks(result):
    return ([_report_check("%s slope %d" % (result.label, i), r)
             for i, r in enumerate(result.slope_reports)]
            + [_report_check("%s coefficient %s" % (result.label, c.label), c,
                             drop=("label",))
               for c in result.coefficient_checks])


# ---------------------------------------------------------------------------
# check builders, shared by the subcommands and report-all


def _theta_remainder_checks(g, rng, ls, directions, tol, ladder=None):
    checks = []
    for l in ls:
        t = theta.sample_generic_diagonal(g, l, rng)
        checks.extend(
            _report_check("theta remainder l=%d direction=%d" % (l, d),
                          expand.theta_remainder_report(g, l, t, rng, ladder=ladder,
                                                        tol=tol))
            for d in range(directions))
    return checks


def _gradient_remainder_checks(g, t, rng, a_values, directions, tol, ladder=None):
    return [_report_check("gradient remainder a=%d direction=%d" % (a, d),
                          expand.gradient_remainder_report(g, 3, a, t, rng,
                                                           ladder=ladder, tol=tol))
            for a in a_values for d in range(directions)]


def _gradient_locus_checks(g, t, rng, tol, ladder=None):
    return _slice_checks(loci.gradient_locus_check(g, t, rng, theta_tol=tol,
                                                   ladder=ladder))


def _hess_minor_checks(g, rng, names, ladder=None):
    checks = []
    for name in names:
        t = theta.sample_generic_diagonal(g, 2, rng)
        checks += _slice_checks(loci.minor_identity_check(g, t, name, rng,
                                                          ladder=ladder))
    return checks


def _tridiagonal_check(g, t):
    return _report_check("tridiagonal tangent space",
                         loci.tridiagonal_tangent_check(g, t), drop=("witness",))


def _random_block_product(g, rng):
    """A point of H_1 x H_{g-1} with a generic off-diagonal lower block."""
    t = theta.sample_generic_diagonal(g, 2, rng)
    tau = np.diag(np.asarray(t, dtype=complex))
    for a in range(1, g):
        for b in range(a + 1, g):
            tau[a, b] = tau[b, a] = 0.1 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    return theta.PeriodMatrix(tau)


def _rank_class_check(g, blocks):
    """The normal-form l=2 theta-null vanishes with Hessian rank at most 2
    at every point of H_1 x H_{g-1} in `blocks`."""
    m0 = expand.normal_form(2, g)
    nulls, ranks = zip(*(loci.thetanull_rank_class(b, m0) for b in blocks))
    passed = all(nulls) and max(ranks) <= 2
    if len(blocks) == 1:
        return _check("theta-null rank class at the block point", passed,
                      is_null=nulls[0], rank=ranks[0])
    return _check("theta-null rank class on H_1 x H_%d" % (g - 1), passed,
                  all_null=all(nulls), worst_rank=max(ranks))


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
    if args.seed_char:
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
    z = _parse_complex_vector(args.z) if args.z else None
    deriv = None
    if args.deriv:
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
    if args.l and (not 2 <= args.l <= args.g or args.l % 2):
        raise UsageError("need even l with 2 <= l <= g")
    ls = [args.l] if args.l else [l for l in (2, 4) if l <= args.g]
    return _theta_remainder_checks(args.g, rng, ls, args.directions, args.tol,
                                   ladder=args.ladder)


def _cmd_grad_verify(args, rng):
    _require_genus(args.g, 3, theta.MAX_NUMERIC_GENUS)
    t = theta.sample_generic_diagonal(args.g, 3, rng)
    checks = _gradient_remainder_checks(args.g, t, rng, range(1, args.g + 1),
                                        args.directions, args.tol, ladder=args.ladder)
    if args.g >= 4:
        checks += _gradient_locus_checks(args.g, t, rng, args.tol, ladder=args.ladder)
    return checks


def _cmd_hess_minor(args, rng):
    _require_genus(args.g, 4, 5)
    which = [args.which] if args.which else list(loci.MINOR_CHECKS)
    return _hess_minor_checks(args.g, rng, which, ladder=args.ladder)


def _cmd_loci_test(args, rng):
    checks = []
    if args.tau:
        tau = _load_tau(args)
        _require_genus(tau.g, 1, theta.MAX_NUMERIC_GENUS)
        try:
            v = loci.is_diagonal_orbit(tau, tol=args.tol)
            checks.append(_check("diagonal-orbit detector", True, verdict=v.verdict,
                                 tau_digest=v.tau_digest))
            for g1 in range(1, tau.g):
                v = loci.is_product_orbit(tau, g1, tol=args.tol)
                checks.append(_check("product-orbit detector split %d+%d"
                                     % (g1, tau.g - g1), True, verdict=v.verdict))
            v = loci.hyperelliptic_vanishing_test(tau, tol=args.tol)
        except ValueError as exc:  # e.g. the lattice point budget
            raise UsageError(str(exc))
        checks.append(_check("hyperelliptic vanishing detector", True,
                             verdict=v.verdict))
        return checks
    g = args.g
    _require_genus(g, 2, theta.MAX_NUMERIC_GENUS)
    t = theta.sample_generic_diagonal(g, 2, rng)
    diag = theta.PeriodMatrix.diagonal(t)
    checks.append(
        _check("diagonal point is in the diagonal orbit",
               loci.is_diagonal_orbit(diag).verdict)
    )
    direction = np.zeros((g, g), dtype=complex)
    direction[0, 1] = direction[1, 0] = 1j
    perturbed = diag.perturbed(direction, 0.05)
    checks.append(
        _check("perturbed diagonal point leaves the diagonal orbit",
               not loci.is_diagonal_orbit(perturbed).verdict)
    )
    for g1 in range(1, g):
        checks.append(
            _check("diagonal point is in every product orbit (split %d+%d)"
                   % (g1, g - g1), loci.is_product_orbit(diag, g1).verdict)
        )
    block = _random_block_product(g, rng)
    checks.append(
        _check("H_1 x H_%d block point is in the 1+%d product orbit"
               % (g - 1, g - 1), loci.is_product_orbit(block, 1).verdict)
    )
    checks.append(_rank_class_check(g, [block]))
    checks.append(
        _check("hyperelliptic vanishing along the diagonal",
               loci.hyperelliptic_vanishing_test(diag).verdict)
    )
    if g >= 3:
        checks.append(_tridiagonal_check(g, t))
    return checks


def _theta_numeric_checks(g, rng, n_samples, tol):
    """Spot checks of the theta evaluator: parity vanishing, block
    factorization, the diagonal product formula, and the heat equation."""
    checks = []
    worst = {"parity": 0.0, "factorization": 0.0, "diagonal": 0.0, "heat": 0.0}
    odd = chars.enumerate_characteristics(g, parity_filter=chars.ODD)
    evens = chars.enumerate_characteristics(g, parity_filter=chars.EVEN)
    for _ in range(n_samples):
        t = theta.sample_generic_diagonal(g, 0, rng)
        tau = theta.PeriodMatrix.diagonal(t).perturbed(
            expand.random_offdiagonal_direction(g, rng), 0.1
        )
        m = odd[rng.integers(len(odd))]
        worst["parity"] = max(worst["parity"], abs(theta.eval_theta(m, tau, tol=tol)))
        # block factorization
        g1 = int(rng.integers(1, g))
        block = np.array(tau.entries)
        block[:g1, g1:] = 0.0
        block[g1:, :g1] = 0.0
        btau = theta.PeriodMatrix(block)
        m = evens[rng.integers(len(evens))]
        m1 = chars.Characteristic(m.eps[:g1], m.delta[:g1])
        m2 = chars.Characteristic(m.eps[g1:], m.delta[g1:])
        lhs = theta.eval_theta(m, btau, tol=tol)
        rhs = theta.eval_theta(
            m1, theta.PeriodMatrix(block[:g1, :g1]), tol=tol
        ) * theta.eval_theta(m2, theta.PeriodMatrix(block[g1:, g1:]), tol=tol)
        worst["factorization"] = max(worst["factorization"], abs(lhs - rhs))
        # diagonal product formula
        diag = theta.PeriodMatrix.diagonal(t)
        prod = 1.0 + 0j
        for a in range(1, g + 1):
            prod *= theta.eval_theta(
                m.column(a), theta.PeriodMatrix([[t[a - 1]]]), tol=tol
            )
        worst["diagonal"] = max(
            worst["diagonal"], abs(theta.eval_theta(m, diag, tol=tol) - prod)
        )
        # heat equation against a finite difference in tau
        j, k = sorted(rng.choice(g, size=2, replace=False) + 1)
        h = 1e-4
        direction = np.zeros((g, g), dtype=complex)
        direction[j - 1, k - 1] = direction[k - 1, j - 1] = 1.0
        fd = (
            theta.eval_theta(m, tau.perturbed(direction, h), tol=tol)
            - theta.eval_theta(m, tau.perturbed(direction, -h), tol=tol)
        ) / (2 * h)
        an = theta.tau_derivative(m, tau, (int(j), int(k)), tol=tol)
        worst["heat"] = max(worst["heat"], abs(fd - an) / max(abs(an), 1e-30))
    checks.append(_check("odd theta constants vanish", worst["parity"] < 1e-8,
                         worst_abs=worst["parity"], samples=n_samples))
    checks.append(_check("block factorization", worst["factorization"] < 1e-8,
                         worst_abs=worst["factorization"], samples=n_samples))
    checks.append(_check("diagonal product formula", worst["diagonal"] < 1e-8,
                         worst_abs=worst["diagonal"], samples=n_samples))
    checks.append(_check("heat equation vs finite differences",
                         worst["heat"] < 1e-6,
                         worst_rel=worst["heat"], samples=n_samples))
    return checks


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
    here) draw nothing and run in forked children meanwhile."""
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
                                          3, args.tol, ladder=args.ladder)
        if args.g >= 3:
            t = theta.sample_generic_diagonal(args.g, 3, rng)
            checks += _gradient_remainder_checks(args.g, t, rng, (1, args.g), 3,
                                                 args.tol, ladder=args.ladder)
            # tridiagonal tangent spaces
            checks.append(_tridiagonal_check(
                args.g, theta.sample_generic_diagonal(args.g, 0, rng)))
        # gradient-locus slice, theta-null rank class and Hessian minors
        if args.g >= 4:
            t = theta.sample_generic_diagonal(args.g, 3, rng)
            checks += _gradient_locus_checks(args.g, t, rng, args.tol,
                                             ladder=args.ladder)
            blocks = [_random_block_product(args.g, rng) for _ in range(5)]
            with _forked(_rank_class_check, args.g, blocks) as rank_class_check:
                minors = _hess_minor_checks(args.g, rng, loci.MINOR_CHECKS,
                                            ladder=args.ladder)
                checks.append(rank_class_check())
            checks += minors
        return exact_checks() + checks


# ---------------------------------------------------------------------------
# plumbing


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="thetadiag",
        description="verification jobs for theta characteristic machinery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, g_default=4):
        p.add_argument("--g", type=int, default=g_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=_parse_tol, default=theta.DEFAULT_TOL)
        p.add_argument("--ladder", type=_parse_ladder, default=None,
                       help="epsilon ladder, e.g. 2^-3..2^-9")
        p.add_argument("--out", default=None, help="report path (default stdout)")
        p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("char", help="classify characteristics")
    p.add_argument("action", choices=("classify",))
    p.add_argument("characteristics", nargs="+")
    common(p)
    p.set_defaults(func=_cmd_char)

    p = sub.add_parser("orbit", help="orbit enumeration against expected counts")
    p.add_argument("--group", choices=sorted(symp.GENERATOR_SETS), default="Gg")
    p.add_argument("--seed-char", default=None)
    common(p, g_default=3)
    p.set_defaults(func=_cmd_orbit)

    p = sub.add_parser("theta-eval", help="evaluate one theta value")
    p.add_argument("--tau", required=True, help="period matrix JSON file")
    p.add_argument("--char", required=True)
    p.add_argument("--z", default=None)
    p.add_argument("--deriv", default=None, help="multi-index, e.g. 1,0,0,0")
    common(p)
    p.set_defaults(func=_cmd_theta_eval)

    p = sub.add_parser("expand-verify", help="theta expansion remainder slopes")
    p.add_argument("--l", type=int, default=None)
    p.add_argument("--directions", type=_parse_directions, default=10)
    common(p)
    p.set_defaults(func=_cmd_expand_verify)

    p = sub.add_parser("grad-verify", help="gradient expansion and slice checks")
    p.add_argument("--directions", type=_parse_directions, default=10)
    common(p)
    p.set_defaults(func=_cmd_grad_verify)

    p = sub.add_parser("hess-minor", help="Hessian minor identity checks")
    p.add_argument("--which", choices=loci.MINOR_CHECKS, default=None)
    common(p)
    p.set_defaults(func=_cmd_hess_minor)

    p = sub.add_parser("loci-test", help="locus detectors on canonical points")
    p.add_argument("--tau", default=None, help="optional period matrix JSON file")
    common(p)
    p.set_defaults(func=_cmd_loci_test)

    p = sub.add_parser("report-all", help="aggregate of every acceptance check")
    common(p)
    p.set_defaults(func=_cmd_report_all)

    return parser


def _write_report(report, out, fmt):
    if fmt == "json":
        text = json.dumps(report, indent=2)
        if out:
            with open(out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return
    rows = [["label", "pass", "detail"]]
    for entry in report["checks"]:
        detail = {k: v for k, v in entry.items() if k not in ("label", "pass")}
        rows.append([entry["label"], entry["pass"], json.dumps(detail)])
    if out:
        with open(out, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
    else:
        csv.writer(sys.stdout).writerows(rows)


def run(argv=None):
    parser = _build_parser()
    try:
        # the --tol, --ladder and --directions types raise UsageError
        args = parser.parse_args(argv)
        checks = args.func(args, np.random.default_rng(args.seed))
        if not checks:
            raise UsageError("%s produced no checks at g=%d" % (args.command, args.g))
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ChildLost as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
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
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
