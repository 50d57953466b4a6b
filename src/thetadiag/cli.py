"""Command-line entry point: every verification as a reproducible batch job.

Each subcommand assembles a report dictionary with a versioned schema
("schema": 1), the seed used, and one entry per check; the process exits 0
iff all checks pass, 1 if any check fails, and 2 on malformed input.

Randomness: all random draws flow through numpy's default_rng (PCG64),
seeded from --seed, so identical job configurations reproduce identical
reports modulo the timestamp field.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
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


def _load_tau(path):
    try:
        with open(path) as fh:
            return theta.PeriodMatrix.from_json(json.load(fh))
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        raise UsageError("cannot load period matrix from %s: %s" % (path, exc))


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


def _slope_check(label, report):
    d = report.to_dict()
    d.pop("pass")
    return _check(label, report.passed, **d)


def _slice_checks(result):
    out = []
    for i, r in enumerate(result.slope_reports):
        out.append(_slope_check("%s slope %d" % (result.label, i), r))
    for c in result.coefficient_checks:
        d = c.to_dict()
        d.pop("pass")
        out.append(_check("%s coefficient %s" % (result.label, d.pop("label")),
                          c.passed, **d))
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_char(args, rng):
    checks = []
    for text in args.characteristics:
        m = _parse_char(text)
        checks.append(
            _check("classify %s" % m.compact(), True,
                   parity=chars.parity(m), l=chars.scalar_class(m), g=m.g)
        )
    return checks


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
    tau = _load_tau(args.tau)
    m = _parse_char(args.char)
    if m.g != tau.g:
        raise UsageError("characteristic genus does not match the period matrix")
    z = _parse_complex_vector(args.z) if args.z else None
    if z is not None and len(z) != tau.g:
        raise UsageError("z must have length g")
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
    checks = []
    ls = [args.l] if args.l else [l for l in (2, 4) if l <= args.g]
    for l in ls:
        if not 2 <= l <= args.g or l % 2:
            raise UsageError("need even l with 2 <= l <= g")
        t = theta.sample_generic_diagonal(args.g, l, rng)
        for d in range(args.directions):
            report = expand.theta_remainder_report(
                args.g, l, t, rng, ladder=args.ladder, tol=args.tol
            )
            checks.append(
                _slope_check("theta remainder l=%d direction=%d" % (l, d), report)
            )
    return checks


def _cmd_grad_verify(args, rng):
    _require_genus(args.g, 3, theta.MAX_NUMERIC_GENUS)
    checks = []
    t = theta.sample_generic_diagonal(args.g, 3, rng)
    for a in range(1, args.g + 1):
        for d in range(args.directions):
            report = expand.gradient_remainder_report(
                args.g, 3, a, t, rng, ladder=args.ladder, tol=args.tol
            )
            checks.append(
                _slope_check("gradient remainder a=%d direction=%d" % (a, d), report)
            )
    if 4 <= args.g <= 5:
        result = loci.gradient_locus_check(args.g, t, rng, theta_tol=args.tol,
                                           ladder=args.ladder)
        checks.extend(_slice_checks(result))
    return checks


def _cmd_hess_minor(args, rng):
    _require_genus(args.g, 4, 5)
    which = [args.which] if args.which else list(loci.MINOR_CHECKS)
    checks = []
    for name in which:
        t = theta.sample_generic_diagonal(args.g, 2, rng)
        result = loci.minor_identity_check(args.g, t, name, rng, ladder=args.ladder)
        checks.extend(_slice_checks(result))
    return checks


def _random_block_product(g, rng):
    """A point of H_1 x H_{g-1} with a generic off-diagonal lower block."""
    t = theta.sample_generic_diagonal(g, 2, rng)
    tau = np.diag(np.asarray(t, dtype=complex))
    for a in range(1, g):
        for b in range(a + 1, g):
            tau[a, b] = tau[b, a] = 0.1 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    return theta.PeriodMatrix(tau)


def _cmd_loci_test(args, rng):
    checks = []
    if args.tau:
        tau = _load_tau(args.tau)
        _require_genus(tau.g, 1, theta.MAX_NUMERIC_GENUS)
        v = loci.is_diagonal_orbit(tau, tol=args.tol)
        checks.append(_check("diagonal-orbit detector", True, verdict=v.verdict,
                             tau_digest=v.tau_digest))
        for g1 in range(1, tau.g):
            v = loci.is_product_orbit(tau, g1, tol=args.tol)
            checks.append(_check("product-orbit detector split %d+%d"
                                 % (g1, tau.g - g1), True, verdict=v.verdict))
        v = loci.hyperelliptic_vanishing_test(tau, tol=args.tol)
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
    m0 = chars.Characteristic((1, 1) + (0,) * (g - 2), (1, 1) + (0,) * (g - 2))
    is_null, rank = loci.thetanull_rank_class(block, m0)
    checks.append(
        _check("theta-null rank class at the block point", is_null and rank <= 2,
               is_null=is_null, rank=rank)
    )
    checks.append(
        _check("hyperelliptic vanishing along the diagonal",
               loci.hyperelliptic_vanishing_test(diag).verdict)
    )
    if 3 <= g <= 5:
        report = loci.tridiagonal_tangent_check(g, t)
        d = report.to_dict()
        d.pop("pass")
        d.pop("witness")
        checks.append(_check("tridiagonal tangent space", report.passed, **d))
    return checks


def _theta_numeric_checks(g, rng, n_samples, tol):
    """Spot checks of the theta evaluator: parity vanishing, block
    factorization, the diagonal product formula, and the heat equation."""
    checks = []
    worst = {"parity": 0.0, "factorization": 0.0, "diagonal": 0.0, "heat": 0.0}
    for _ in range(n_samples):
        t = theta.sample_generic_diagonal(g, 0, rng)
        tau = theta.PeriodMatrix.diagonal(t).perturbed(
            expand.random_offdiagonal_direction(g, rng), 0.1
        )
        odd = chars.enumerate_characteristics(g, parity_filter=chars.ODD)
        m = odd[rng.integers(len(odd))]
        worst["parity"] = max(worst["parity"], abs(theta.eval_theta(m, tau, tol=tol)))
        # block factorization
        g1 = int(rng.integers(1, g))
        block = np.array(tau.entries)
        block[:g1, g1:] = 0.0
        block[g1:, :g1] = 0.0
        btau = theta.PeriodMatrix(block)
        evens = chars.enumerate_characteristics(g, parity_filter=chars.EVEN)
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


def _cmd_report_all(args, rng):
    _require_genus(args.g, 1, theta.MAX_NUMERIC_GENUS)
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
        report = symp.verify_transitivity(g)
        d = report.to_dict()
        d.pop("pass")
        checks.append(_check("orbit transitivity g=%d" % g, report.passed, **d))
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
    checks.append(
        _check("b^3 identity",
               chars.b_char(chars.special_fundamental_system(3)).compact()
               == "[111;101]")
    )
    # hyperelliptic vanishing sets
    checks.append(
        _check("hyperelliptic vanishing set g=2 is empty",
               not chars.hyperelliptic_vanishing_set(2))
    )
    b3 = chars.b_char(chars.special_fundamental_system(3))
    checks.append(
        _check("hyperelliptic vanishing set g=3 is {b^3}",
               chars.hyperelliptic_vanishing_set(3) == {b3})
    )
    for g in range(2, 7):
        checks.append(
            _check("vanishing-set characteristics lie in E*, g=%d" % g,
                   chars.vanish_lemma_check(g))
        )
    # theta numerics
    for g in range(2, min(args.g, 4) + 1):
        checks.extend(_theta_numeric_checks(g, rng, n_samples=10, tol=args.tol))
    # bracket calculus
    checks.extend(_bracket_example_checks())
    # expansion orders
    for l in (2, 4):
        if l > args.g:
            continue
        t = theta.sample_generic_diagonal(args.g, l, rng)
        for d in range(3):
            checks.append(
                _slope_check(
                    "theta remainder l=%d direction=%d" % (l, d),
                    expand.theta_remainder_report(args.g, l, t, rng, tol=args.tol),
                )
            )
    if args.g >= 3:
        t = theta.sample_generic_diagonal(args.g, 3, rng)
        for a in (1, args.g):
            for d in range(3):
                checks.append(
                    _slope_check(
                        "gradient remainder a=%d direction=%d" % (a, d),
                        expand.gradient_remainder_report(
                            args.g, 3, a, t, rng, tol=args.tol
                        ),
                    )
                )
    # tridiagonal tangent spaces
    if 3 <= args.g <= 5:
        t = theta.sample_generic_diagonal(args.g, 0, rng)
        report = loci.tridiagonal_tangent_check(args.g, t)
        d = report.to_dict()
        d.pop("pass")
        d.pop("witness")
        checks.append(_check("tridiagonal tangent space", report.passed, **d))
    # gradient-locus slice and Hessian minors
    if 4 <= args.g <= 5:
        t = theta.sample_generic_diagonal(args.g, 3, rng)
        checks.extend(_slice_checks(loci.gradient_locus_check(args.g, t, rng,
                                                              theta_tol=args.tol)))
        m0 = chars.Characteristic((1, 1) + (0,) * (args.g - 2),
                                  (1, 1) + (0,) * (args.g - 2))
        worst_rank = 0
        all_null = True
        for _ in range(5):
            block = _random_block_product(args.g, rng)
            is_null, rank = loci.thetanull_rank_class(block, m0)
            all_null = all_null and is_null
            worst_rank = max(worst_rank, rank)
        checks.append(
            _check("theta-null rank class on H_1 x H_%d" % (args.g - 1),
                   all_null and worst_rank <= 2,
                   all_null=all_null, worst_rank=worst_rank)
        )
        for name in loci.MINOR_CHECKS:
            t = theta.sample_generic_diagonal(args.g, 2, rng)
            checks.extend(
                _slice_checks(loci.minor_identity_check(args.g, t, name, rng))
            )
    return checks


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
    except UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
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
