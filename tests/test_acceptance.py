"""The acceptance suite: one test per numbered criterion.

Each test prints a single PASS line when it completes, so `pytest -v -s`
reads as a checklist.  Tolerances and sample counts follow the stated
criteria verbatim.
"""

import itertools
import json

import numpy as np
import pytest

from thetadiag import cli
from thetadiag.chars import (
    ODD,
    Characteristic,
    b_char,
    enumerate_characteristics,
    even_count,
    hyperelliptic_vanishing_set,
    is_azygetic_triple,
    is_essential_basis,
    is_even,
    odd_count,
    scalar_class,
    special_fundamental_system,
    vanish_lemma_check,
)
from thetadiag.expand import (
    bracket,
    gradient_remainder_report,
    theta_remainder_report,
)
from thetadiag.loci import (
    COEFF_REL_TOL,
    MINOR_CHECKS,
    gradient_locus_check,
    minor_identity_check,
    thetanull_rank_class,
    tridiagonal_tangent_check,
)
from thetadiag.symp import verify_transitivity
from thetadiag.theta import (
    PeriodMatrix,
    eval_theta,
    sample_generic_diagonal,
    tau_gradient,
)
from test_expand import oracle_bracket_terms


def done(n, text):
    print("criterion %2d PASS: %s" % (n, text))


def test_criterion_01_counting():
    for g in range(1, 9):
        evens = sum(1 for m in enumerate_characteristics(g) if is_even(m))
        assert evens == even_count(g)
        assert 4**g - evens == odd_count(g)
    assert even_count(3) == 36
    done(1, "even/odd counts exact for g = 1..8; 36 even at g = 3")


def test_criterion_02_transitivity():
    for g in range(2, 7):
        report = verify_transitivity(g)
        assert report.even_orbit_size == even_count(g), g
        assert report.odd_orbit_size == odd_count(g), g
    done(2, "G_g orbits exhaust E and O for g = 2..6")


def test_criterion_03_fundamental_system():
    for g in range(2, 7):
        members = special_fundamental_system(g).members()
        assert len(members) == 2 * g + 2
        for triple in itertools.combinations(members, 3):
            assert is_azygetic_triple(*triple)
        for i in range(len(members)):
            assert is_essential_basis(members[:i] + members[i + 1:])
    assert b_char(special_fundamental_system(3)).compact() == "[111;101]"
    done(3, "azygetic triples, essential bases, and b^3 for g = 2..6")


def test_criterion_04_hyperelliptic_vanishing_sets():
    assert hyperelliptic_vanishing_set(2) == set()
    b3 = b_char(special_fundamental_system(3))
    assert hyperelliptic_vanishing_set(3) == {b3}
    assert scalar_class(b3) >= 2
    for g in range(2, 7):
        assert vanish_lemma_check(g)
    done(4, "vanishing sets exact and inside E* for g = 2..6")


def test_criterion_05_theta_numerics():
    rng = np.random.default_rng(5)
    n_samples = 100
    for _ in range(n_samples):
        g = int(rng.integers(1, 5))
        t = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(0.8, 2.0, size=g)
        tau = np.diag(t.astype(complex))
        for a in range(g):
            for b in range(a + 1, g):
                tau[a, b] = tau[b, a] = 0.1 * (
                    rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                )
        tau = PeriodMatrix(tau)
        # parity: theta[m](-z) = -theta[m](z) for odd m, at a z where theta
        # does not vanish (at z = 0 the +-q pairing gives exactly 0)
        odds = enumerate_characteristics(g, parity_filter=ODD)
        if odds:
            m = odds[rng.integers(len(odds))]
            z = np.linspace(0.1, 0.3, g)
            value = eval_theta(m, tau, z)
            assert abs(value + eval_theta(m, tau, -z)) < 1e-8
            assert abs(value) > 1e-6
        # block factorization
        if g >= 2:
            g1 = int(rng.integers(1, g))
            block = np.array(tau.entries)
            block[:g1, g1:] = 0.0
            block[g1:, :g1] = 0.0
            chars = enumerate_characteristics(g)
            m = chars[rng.integers(len(chars))]
            m1 = Characteristic(m.eps[:g1], m.delta[:g1])
            m2 = Characteristic(m.eps[g1:], m.delta[g1:])
            lhs = eval_theta(m, PeriodMatrix(block))
            rhs = eval_theta(m1, PeriodMatrix(block[:g1, :g1])) * eval_theta(
                m2, PeriodMatrix(block[g1:, g1:])
            )
            assert abs(lhs - rhs) < 1e-8
        # diagonal product formula
        chars = enumerate_characteristics(g)
        m = chars[rng.integers(len(chars))]
        diag = PeriodMatrix.diagonal(t)
        prod = 1.0 + 0j
        for a in range(1, g + 1):
            prod *= eval_theta(m.column(a), PeriodMatrix([[t[a - 1]]]))
        assert abs(eval_theta(m, diag) - prod) < 1e-8
        # heat equation vs finite differences
        if g >= 2:
            j = int(rng.integers(1, g + 1))
            k = int(rng.integers(1, g + 1))
            j, k = min(j, k), max(j, k)
            h = 1e-4
            direction = np.zeros((g, g), dtype=complex)
            direction[j - 1, k - 1] = direction[k - 1, j - 1] = 1.0
            fd = (
                eval_theta(m, tau.perturbed(direction, h))
                - eval_theta(m, tau.perturbed(direction, -h))
            ) / (2 * h)
            an = tau_gradient(m, tau)[j - 1, k - 1]
            assert abs(fd - an) <= 1e-6 * max(1.0, abs(an))
    done(5, "parity/factorization/diagonal/heat over %d samples" % n_samples)


def test_criterion_06_bracket_calculus():
    from fractions import Fraction

    assert bracket([1, 1], 4).is_zero()
    assert bracket([1, 2, 3, 4], 4).terms == {
        (2, (((1, 2), 1), ((3, 4), 1)), ()): Fraction(1),
        (2, (((1, 3), 1), ((2, 4), 1)), ()): Fraction(1),
        (2, (((1, 4), 1), ((2, 3), 1)), ()): Fraction(1),
    }
    assert bracket([1, 1, 2, 2, 3, 4], 4).terms == {
        (3, (((1, 2), 2), ((3, 4), 1)), ()): Fraction(1, 2),
        (3, (((1, 2), 1), ((1, 3), 1), ((2, 4), 1)), ()): Fraction(1),
        (3, (((1, 2), 1), ((1, 4), 1), ((2, 3), 1)), ()): Fraction(1),
    }
    g = 5
    count = 0
    for n in (1, 2, 3):
        for multiset in itertools.combinations_with_replacement(
            range(1, g + 1), 2 * n
        ):
            assert bracket(multiset, g).terms == oracle_bracket_terms(multiset)
            count += 1
    done(6, "worked examples exact; oracle agreement on %d multisets" % count)


def test_criterion_07_expansion_orders():
    n_directions = 10
    for g in (4, 5):
        for l in (2, 4):
            rng = np.random.default_rng(100 * g + l)
            t = sample_generic_diagonal(g, l, rng)
            for _ in range(n_directions):
                report = theta_remainder_report(g, l, t, rng)
                assert report.passed, (g, l, report.fitted_slope)
        rng = np.random.default_rng(100 * g + 3)
        t = sample_generic_diagonal(g, 3, rng)
        for a in (1, g):  # a <= l exercises the first display, a > l the second
            for _ in range(n_directions):
                report = gradient_remainder_report(g, 3, a, t, rng)
                assert report.passed, (g, a, report.fitted_slope)
    done(7, "theta and gradient remainder slopes over 10 directions each")


def test_criterion_08_tridiagonal_tangent():
    for g in (3, 4, 5):
        rng = np.random.default_rng(200 + g)
        for _ in range(5):
            t = sample_generic_diagonal(g, 0, rng)
            report = tridiagonal_tangent_check(g, t)
            assert report.passed, (g, report)
            assert report.kernel_dimension == 2 * g - 1
    done(8, "per-triple support and kernel dimension 2g-1, 5 points each")


def test_criterion_09_gradient_locus_slice():
    assert COEFF_REL_TOL == 0.05
    for g in (4, 5):
        rng = np.random.default_rng(300 + g)
        for _ in range(5):
            t = sample_generic_diagonal(g, 3, rng)
            result = gradient_locus_check(g, t, rng)
            assert result.passed, (g, result)
    done(9, "slice expansions and (psi_j - 2 phi_j^2) coefficients, 5 points")


def test_criterion_10_hessian_rank_loci():
    assert COEFF_REL_TOL == 0.05
    for g in (4, 5):
        rng = np.random.default_rng(400 + g)
        m0 = Characteristic((1, 1) + (0,) * (g - 2), (1, 1) + (0,) * (g - 2))
        for _ in range(20):
            t = sample_generic_diagonal(g, 0, rng)
            tau = np.diag(np.asarray(t, dtype=complex))
            for a in range(1, g):
                for b in range(a + 1, g):
                    tau[a, b] = tau[b, a] = 0.1 * (
                        rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
                    )
            is_null, rank = thetanull_rank_class(PeriodMatrix(tau), m0)
            assert is_null and rank <= 2, (g, is_null, rank)
        for which in MINOR_CHECKS:
            for point in range(5):
                rng = np.random.default_rng(1000 * g + 10 * point + len(which))
                t = sample_generic_diagonal(g, 2, rng)
                result = minor_identity_check(g, t, which, rng)
                assert result.passed, (g, which, point, result)
    done(10, "rank class at 20 block points; minor identities at 5 points each")


def test_criterion_11_reproducibility(tmp_path):
    reports = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        code = cli.run(["report-all", "--g", "4", "--seed", "7", "--out", str(out)])
        assert code == cli.EXIT_PASS
        reports.append(json.loads(out.read_text()))
    for report in reports:
        report.pop("timestamp")
    assert reports[0] == reports[1]
    done(11, "report-all --g 4 --seed 7 identical modulo timestamp")
