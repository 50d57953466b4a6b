"""Numerical theta evaluation against independent oracles.

Oracles: an extended-precision mpmath lattice sum (independent of the
module's vectorized numpy sum and of its truncation-radius logic), known
closed-form values, and finite differences for every analytic derivative.
"""

import itertools
import time

import mpmath
import numpy as np
import pytest

from thetadiag.chars import EVEN, ODD, Characteristic, enumerate_characteristics
from thetadiag import cli, expand, theta
from thetadiag.theta import (
    DEFAULT_TOL,
    MAX_DERIV_ORDER,
    MAX_NUMERIC_GENUS,
    MAX_POINTS,
    PeriodMatrix,
    _ellipsoid_points,
    _jet,
    _monomials,
    _parity_phases,
    eval_theta,
    eval_theta_many,
    eval_theta_stack,
    f_phi_psi,
    genus1_derivatives,
    gradient,
    hessian,
    numerical_rank,
    sample_generic_diagonal,
    tau_gradient,
    tau_jet,
    theta_constants_batch,
)


def mpmath_theta(m, tau_entries, z=None, deriv=None, radius=25, dps=40):
    """Independent extended-precision lattice sum over the whole cube
    |p|_inf <= radius, with the exponent built up coordinate by coordinate."""
    g = m.g
    deriv = deriv or (0,) * g
    with mpmath.workdps(dps):
        tau = [[mpmath.mpc(tau_entries[a][b]) for b in range(g)] for a in range(g)]
        zv = [mpmath.mpc(z[a]) if z is not None else mpmath.mpc(0) for a in range(g)]
        half = mpmath.mpf(1) / 2
        pii = mpmath.mpc(0, mpmath.pi)
        # per coordinate a, for each q_a = p_a + eps_a/2: the terms of
        # q^t tau q + 2 q.(z + delta/2) in q_a alone, and (2 pi i q_a)^deriv_a
        steps = []
        for a in range(g):
            qs = [n + m.eps[a] * half for n in range(-radius, radius + 1)]
            steps.append([
                (qa, tau[a][a] * qa * qa + 2 * qa * (zv[a] + m.delta[a] * half),
                 (2 * pii * qa) ** deriv[a])
                for qa in qs
            ])

        def rec(a, q, exponent, factor):
            # exponent and factor hold the contributions of q_0 .. q_{a-1}
            if a == g:
                return factor * mpmath.exp(pii * exponent)
            cross = 2 * mpmath.fsum(tau[a][b] * q[b] for b in range(a))
            return mpmath.fsum(
                rec(a + 1, q + [qa], exponent + own + qa * cross, factor * power)
                for qa, own, power in steps[a]
            )

        return complex(rec(0, [], mpmath.mpc(0), mpmath.mpc(1)))


def phase_oracle(q, deltas):
    """The phases exp(pi i q . delta) as complex exponentials."""
    return np.exp(np.pi * 1j * (q @ deltas.T))


def monomial_oracle(q, alphas):
    """The monomials q ** alpha through libm pow, one per coordinate."""
    return np.prod(q[:, None, :] ** alphas, axis=2)


def gathered_monomials(q, alphas):
    """The monomials from one K x N gather of a power table per axis: the
    same multiplications in the same order as _monomials, which only skips
    the exact products by 1, so the two agree bit for bit."""
    powers = np.empty((int(alphas.max(initial=0)) + 1,) + q.T.shape)
    powers[0] = 1.0
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * q.T
    product = powers[:, 0][alphas[:, 0]]
    for a in range(1, q.shape[1]):
        product *= powers[:, a][alphas[:, a]]
    return product.T


def shifted_points(g, eps, rng, size=200):
    """Points of eps/2 + Z^g with coordinates in [-4.5, 4.5], both signs."""
    return rng.integers(-4, 5, size=(size, g)) + np.asarray(eps) / 2.0


def cube_tail_bound(tau_entries, radius, order):
    """Bound on what mpmath_theta(..., radius) omits at z = 0, for derivative
    order <= order: the points with |p|_inf = k > radius number at most
    (2k+1)^g - (2k-1)^g, have |q| >= k - 1/2 and |q|_inf <= k + 1/2."""
    tau_entries = np.asarray(tau_entries)
    g = tau_entries.shape[0]
    lam = float(np.linalg.eigvalsh(tau_entries.imag)[0])
    return sum(
        ((2 * k + 1) ** g - (2 * k - 1) ** g)
        * (2 * np.pi * (k + 0.5)) ** order
        * np.exp(-np.pi * lam * (k - 0.5) ** 2)
        for k in range(radius + 1, radius + 60)
    )


class TestPeriodMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[1j, 0.1], [0.2, 1j]])

    def test_rejects_non_positive_imaginary(self):
        with pytest.raises(ValueError):
            PeriodMatrix([[1j, 2j], [2j, 1j]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PeriodMatrix([[1j, 0.1], [0.1, bad]])

    def test_json_roundtrip(self):
        tau = PeriodMatrix([[0.3 + 1.1j, 0.05j], [0.05j, -0.2 + 0.9j]])
        again = PeriodMatrix.from_json(tau.to_json())
        assert np.allclose(tau.entries, again.entries)

    def test_from_json_checks_declared_genus(self):
        obj = PeriodMatrix.diagonal([1j, 1.5j]).to_json()
        obj["g"] = 3
        with pytest.raises(ValueError):
            PeriodMatrix.from_json(obj)
        for g in (True, 1.0, "1", None):  # True == 1 and 1.0 == 1, but no genus
            with pytest.raises(ValueError, match="declared g must be an integer"):
                PeriodMatrix.from_json({"g": g, "entries": [[[0.0, 1.0]]]})

    def test_genus1_factor_is_lapack_bit_for_bit(self):
        # sqrt(Im t) and Im t, without the LAPACK calls, on 1,000 random t
        rng = np.random.default_rng(14)
        for t in rng.uniform(-0.5, 0.5, 1000) + 1j * rng.uniform(1e-3, 5.0, 1000):
            tau, y = PeriodMatrix([[t]]), np.array([[t.imag]])
            assert tau._cholesky.shape == (1, 1)
            assert tau._cholesky[0, 0] == np.linalg.cholesky(y)[0, 0]
            assert tau.lambda_min() == np.linalg.eigvalsh(y)[0]

    @pytest.mark.parametrize("t", [1.0 + 0j, 0.5 - 1j, -0j])
    def test_genus1_rejects_non_positive_imaginary(self, t):
        with pytest.raises(ValueError, match="positive definite"):
            PeriodMatrix([[t]])

    def test_perturbed(self):
        tau = PeriodMatrix.diagonal([1j, 1j])
        direction = np.array([[0, 1], [1, 0]], dtype=complex)
        assert PeriodMatrix(tau.perturbed(direction, 0.1).entries).entries[0, 1] == 0.1


class TestAgainstOracles:
    def test_classical_value_at_i(self):
        # theta[0;0](i) = pi^(1/4) / Gamma(3/4)
        value = eval_theta(Characteristic.zero(1), PeriodMatrix([[1j]]))
        expected = float(mpmath.pi**0.25 / mpmath.gamma(0.75))
        assert abs(value - expected) < 1e-12

    @pytest.mark.parametrize(
        "char,t",
        [("[0;0]", 0.3 + 1.1j), ("[0;1]", -0.2 + 0.9j), ("[1;0]", 0.1 + 1.4j)],
    )
    def test_genus1_constants(self, char, t):
        m = Characteristic.parse(char)
        ours = eval_theta(m, PeriodMatrix([[t]]), tol=1e-12)
        assert abs(ours - mpmath_theta(m, [[t]])) < 1e-11

    def test_genus1_derivatives_vs_mpmath(self):
        m = Characteristic.parse("[1;1]")
        t = 0.2 + 1.0j
        for k in (1, 3):
            ours = eval_theta(m, PeriodMatrix([[t]]), deriv=(k,), tol=1e-12)
            assert abs(ours - mpmath_theta(m, [[t]], deriv=(k,))) < 1e-10

    def test_genus2_constants_vs_mpmath(self):
        tau = [[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 1.2j]]
        for char in ("[00;00]", "[10;01]", "[01;11]"):
            m = Characteristic.parse(char)
            ours = eval_theta(m, PeriodMatrix(tau), tol=1e-12)
            assert abs(ours - mpmath_theta(m, tau, radius=15)) < 1e-10

    def test_genus2_with_z_vs_mpmath(self):
        tau = [[0.1 + 1.0j, 0.15j], [0.15j, 1.1j]]
        z = [0.1 + 0.05j, -0.2 + 0.1j]
        m = Characteristic.parse("[11;11]")
        ours = eval_theta(m, PeriodMatrix(tau), z=z, tol=1e-12)
        assert abs(ours - mpmath_theta(m, tau, z=z, radius=15)) < 1e-10

    def test_genus2_odd_orders_with_z_vs_mpmath(self):
        # every characteristic at z != 0: both points of each pair differ,
        # and -q carries (-1) ** |alpha|; one pass over all 16 takes the
        # parity bins, one characteristic at a time the direct sum
        tau = [[0.1 + 1.0j, 0.2 + 0.15j], [0.2 + 0.15j, -0.3 + 1.1j]]
        z = [0.3 + 0.1j, -0.7 - 0.2j]
        derivs = [(0, 0), (1, 0), (1, 2)]
        chars = enumerate_characteristics(2)
        stack = [(PeriodMatrix(tau), m, z) for m in chars]
        batch = _jet(stack, derivs, 1e-12, MAX_DERIV_ORDER)
        for m, row in zip(chars, batch):
            single = eval_theta_many(m, PeriodMatrix(tau), derivs, z=z, tol=1e-12)
            for deriv, ours, alone in zip(derivs, row, single):
                exact = mpmath_theta(m, tau, z=z, deriv=deriv, radius=12, dps=30)
                assert abs(ours - exact) < 1e-10
                assert abs(alone - exact) < 1e-10

    def test_genus2_batch_vs_mpmath(self):
        # all 16 constants from the parity bins of one batch
        tau = [[0.1 + 1.0j, 0.2 + 0.3j], [0.2 + 0.3j, -0.3 + 1.2j]]
        values = theta_constants_batch(PeriodMatrix(tau), enumerate_characteristics(2),
                                       tol=1e-12)
        assert len(values) == 16
        for m, ours in values.items():
            assert abs(ours - mpmath_theta(m, tau, radius=15)) < 1e-10

    @pytest.mark.parametrize(
        "char", ["[110;110]", "[1100;1100]", "[11010;11001]"]
    )
    def test_higher_genus_derivatives_vs_mpmath(self, char):
        # orders 0, 2 and 4 at the default tolerance and at hess-minor's
        # theta_tol; the oracle's cube is large enough that its own tail
        # leaves the comparison room below tol
        m = Characteristic.parse(char)
        g = m.g
        tau = _random_tau(g, np.random.default_rng(20 + g))
        radius = 4
        tail = cube_tail_bound(tau.entries, radius, order=4)
        assert tail < 1e-14
        for deriv in [(0,) * g, (1, 1) + (0,) * (g - 2), (2, 1, 1) + (0,) * (g - 3)]:
            exact = mpmath_theta(m, tau.entries, deriv=deriv, radius=radius, dps=30)
            for tol in (1e-10, 1e-13):
                ours = eval_theta(m, tau, deriv=deriv, tol=tol)
                assert abs(ours - exact) + tail < tol


class TestStructuralIdentities:
    def test_odd_constants_vanish(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            g = int(rng.integers(1, 5))
            tau = _random_tau(g, rng)
            odds = enumerate_characteristics(g, parity_filter=ODD)
            m = odds[rng.integers(len(odds))]
            # theta(-z) = -theta(z); away from z = 0 each side of the +-q
            # pairing has its own exponential, so neither cancels by construction
            z = np.linspace(0.1, 0.3, g)
            value = eval_theta(m, tau, z)
            assert abs(value + eval_theta(m, tau, -z)) < 1e-10
            assert abs(value) > 1e-6

    def test_even_gradients_vanish(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            g = int(rng.integers(2, 5))
            tau = _random_tau(g, rng)
            evens = enumerate_characteristics(g, parity_filter=EVEN)
            m = evens[rng.integers(len(evens))]
            assert np.abs(gradient(m, tau)).max() < 1e-10

    def test_block_factorization(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            g = int(rng.integers(2, 5))
            g1 = int(rng.integers(1, g))
            tau = _random_tau(g, rng)
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
            assert abs(lhs - rhs) < 1e-9

    def test_diagonal_product_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            g = int(rng.integers(2, 5))
            t = sample_generic_diagonal(g, 0, rng)
            chars = enumerate_characteristics(g)
            m = chars[rng.integers(len(chars))]
            prod = 1.0 + 0j
            for a in range(1, g + 1):
                prod *= eval_theta(m.column(a), PeriodMatrix([[t[a - 1]]]))
            assert abs(eval_theta(m, PeriodMatrix.diagonal(t)) - prod) < 1e-9

    def test_quasi_periodicity_in_z(self):
        # theta(z + unit vector) = exp(pi i eps_a) theta(z)
        m = Characteristic.parse("[10;11]")
        tau = _random_tau(2, np.random.default_rng(4))
        z = [0.1 + 0.2j, -0.3 + 0.1j]
        shifted = [z[0] + 1, z[1]]
        lhs = eval_theta(m, tau, z=shifted)
        rhs = np.exp(1j * np.pi * m.eps[0]) * eval_theta(m, tau, z=z)
        assert abs(lhs - rhs) < 1e-10

    def test_huge_real_shift_is_reduced_exactly(self):
        # theta(z + n) = (-1)^(eps . n) theta(z) for n in Z^g, and so are its
        # second derivatives; 1e17 is even and 2^53 - 1 odd
        tau = _random_tau(2, np.random.default_rng(12))
        z = [0.2j, -0.1j]
        shifted = [1e17 + 0.2j, 2.0**53 - 1 - 0.1j]
        alphas = [(0, 0), (2, 0), (1, 1), (0, 2)]
        for m in enumerate_characteristics(2):
            expected = (-1) ** m.eps[1] * np.array(eval_theta_many(m, tau, alphas, z=z))
            np.testing.assert_allclose(eval_theta_many(m, tau, alphas, z=shifted),
                                       expected, rtol=1e-12, atol=1e-12)
            assert abs(eval_theta(m, tau, z=shifted) - expected[0]) < 1e-12


class TestDerivatives:
    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = int(rng.integers(2, 5))
            tau = _random_tau(g, rng)
            odds = enumerate_characteristics(g, parity_filter=ODD)
            m = odds[rng.integers(len(odds))]
            grad = gradient(m, tau)
            h = 1e-5
            for a in range(g):
                zp = [0.0] * g
                zm = [0.0] * g
                zp[a], zm[a] = h, -h
                fd = (eval_theta(m, tau, z=zp) - eval_theta(m, tau, z=zm)) / (2 * h)
                assert abs(fd - grad[a]) < 1e-6 * max(1.0, abs(grad[a]))

    def test_hessian_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        tau = _random_tau(3, rng)
        m = Characteristic.parse("[110;110]")
        hess = hessian(m, tau)
        assert np.allclose(hess, hess.T)
        h = 1e-4
        for a in range(3):
            for b in range(3):
                zpp = [0.0] * 3
                zpp[a] += h
                zpp[b] += h
                zpm = [0.0] * 3
                zpm[a] += h
                zpm[b] -= h
                zmp = [0.0] * 3
                zmp[a] -= h
                zmp[b] += h
                zmm = [0.0] * 3
                zmm[a] -= h
                zmm[b] -= h
                fd = (
                    eval_theta(m, tau, z=zpp)
                    - eval_theta(m, tau, z=zpm)
                    - eval_theta(m, tau, z=zmp)
                    + eval_theta(m, tau, z=zmm)
                ) / (4 * h * h)
                assert abs(fd - hess[a, b]) < 1e-5 * max(1.0, abs(hess[a, b]))

    def test_heat_equation(self):
        rng = np.random.default_rng(7)
        for _ in range(15):
            g = int(rng.integers(2, 5))
            tau = _random_tau(g, rng)
            evens = enumerate_characteristics(g, parity_filter=EVEN)
            m = evens[rng.integers(len(evens))]
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
            assert abs(fd - an) < 1e-6 * max(1.0, abs(an))

    def test_tau_gradient_matches_tau_derivative(self):
        # each d theta / d tau_jk, by the heat equation from the z-Hessian
        tau = _random_tau(3, np.random.default_rng(8))
        m = Characteristic.parse("[110;110]")
        grad, hess = tau_gradient(m, tau), hessian(m, tau)
        for j in range(1, 4):
            for k in range(j, 4):
                heat = 4j * np.pi if j == k else 2j * np.pi
                assert grad[k - 1, j - 1] == grad[j - 1, k - 1]
                assert abs(grad[j - 1, k - 1] - hess[j - 1, k - 1] / heat) < 1e-12

    @pytest.mark.parametrize("g", (2, 3, 4, 5))
    def test_tau_jet_matches_independent_paths(self, g):
        # three deltas share each of two eps (the phase path) and one eps
        # stands alone (the real path)
        tau = _random_tau(g, np.random.default_rng(g + 60))
        deltas = [(0,) * g, (1,) + (0,) * (g - 1), (1,) * g]
        chars = [Characteristic(eps, delta)
                 for eps in [(1,) + (0,) * (g - 1), (1,) * g] for delta in deltas]
        chars.append(Characteristic((0,) * (g - 1) + (1,), (0,) * g))
        values, grads = tau_jet(tau, chars)
        assert values.shape == (len(chars),) and grads.shape == (len(chars), g, g)
        heat = np.where(np.eye(g, dtype=bool), 4j * np.pi, 2j * np.pi)
        for m, value, grad in zip(chars, values, grads):
            assert abs(value - eval_theta(m, tau)) < 2 * DEFAULT_TOL
            np.testing.assert_allclose(grad, hessian(m, tau) / heat,
                                       rtol=0, atol=2 * DEFAULT_TOL)


class TestBatchAndBounds:
    def test_batch_matches_single_evaluations(self):
        tau = _random_tau(3, np.random.default_rng(9))
        chars = enumerate_characteristics(3, parity_filter=EVEN)
        values = theta_constants_batch(tau, chars)
        for m in chars[::5]:
            assert abs(values[m] - eval_theta(m, tau)) < 1e-10

    @pytest.mark.parametrize("g", range(1, MAX_NUMERIC_GENUS + 1))
    def test_batch_matches_single_evaluations_for_every_characteristic(self, g):
        # odd characteristics included: their constants vanish to rounding
        tau = _random_tau(g, np.random.default_rng(40 + g))
        chars = enumerate_characteristics(g)
        # reversed, each eps leads with delta = 1...1 in the exponent; one
        # characteristic per eps takes the batch's one-delta path
        one_per_eps = list({m.eps: m for m in chars}.values())
        for batch in (chars, chars[::-1], one_per_eps):
            values = theta_constants_batch(tau, batch)
            for m in batch:
                assert abs(values[m] - eval_theta(m, tau)) < 1e-12

    @pytest.mark.parametrize("g", range(1, MAX_NUMERIC_GENUS + 1))
    def test_quarter_turn_phases_vs_exponentials(self, g):
        # i ** (eps . delta) (-1) ** (n . delta) = exp(pi i q . delta) for
        # q = eps/2 + n, read off the parity bins, for deltas of either sign
        # (the kernel passes delta - delta_0)
        rng = np.random.default_rng(50 + g)
        deltas = np.array(list(itertools.product((-1, 0, 1), repeat=g)))
        for eps in ((0,) * g, (1,) * g, tuple(rng.integers(0, 2, size=g))):
            q = shifted_points(g, eps, rng)
            assert (q < 0).any()
            bins, walsh = _parity_phases(q, eps, deltas)
            assert walsh.shape == (len(deltas), 2**g)
            assert set(np.round(walsh.ravel(), 12)) <= {1, 1j, -1, -1j}
            np.testing.assert_allclose(walsh[:, bins].T, phase_oracle(q, deltas),
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("g", range(1, MAX_NUMERIC_GENUS + 1))
    def test_power_table_monomials_vs_pow(self, g):
        rng = np.random.default_rng(60 + g)
        alphas = np.array([a for a in itertools.product(range(6), repeat=g)
                           if sum(a) <= 5])
        for eps in ((0,) * g, (1,) * g):
            q = shifted_points(g, eps, rng)
            np.testing.assert_allclose(_monomials(q, alphas), monomial_oracle(q, alphas),
                                       rtol=1e-13, atol=0)
            np.testing.assert_array_equal(_monomials(q, alphas),
                                          gathered_monomials(q, alphas))

    def test_eval_theta_many(self):
        tau = _random_tau(2, np.random.default_rng(10))
        m = Characteristic.parse("[11;11]")
        many = eval_theta_many(m, tau, [(1, 0), (0, 1)])
        assert abs(many[0] - eval_theta(m, tau, deriv=(1, 0))) < 1e-12
        assert abs(many[1] - eval_theta(m, tau, deriv=(0, 1))) < 1e-12

    def test_tolerance_monotone(self):
        tau = _random_tau(3, np.random.default_rng(11))
        m = Characteristic.parse("[000;000]")
        loose = eval_theta(m, tau, tol=1e-6)
        tight = eval_theta(m, tau, tol=1e-13)
        assert abs(loose - tight) < 2e-6

    def test_genus_cap(self):
        with pytest.raises(ValueError):
            eval_theta(
                Characteristic.zero(MAX_NUMERIC_GENUS + 1),
                PeriodMatrix.diagonal([1j] * (MAX_NUMERIC_GENUS + 1)),
            )

    @pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            eval_theta(Characteristic.zero(1), PeriodMatrix([[1j]]), tol=tol)

    def test_point_budget_refuses_near_degenerate_tau(self):
        # lambda_min = 0.02: the ellipsoid holds ~1e8 points at tol 1e-10
        tau = PeriodMatrix.diagonal([0.02j] * 5)
        start = time.perf_counter()
        with pytest.raises(ValueError, match="budget of %d" % MAX_POINTS):
            eval_theta(Characteristic.zero(5), tau)
        assert time.perf_counter() - start < 5.0

    def test_point_budget_counts_both_points_of_each_pair(self, monkeypatch):
        # radius 4 holds 306,529 lattice points in 153,265 rows: the budget
        # counts points, so the rows fitting under it do not let it pass
        tau = PeriodMatrix.diagonal([0.2j] * 5)
        with monkeypatch.context() as patched:
            patched.setattr(theta, "MAX_POINTS", 10**6)
            rows, _, (zero,) = _ellipsoid_points(tau._cholesky.T[None], np.zeros((1, 5)), [4])
        assert zero is not None
        assert len(rows) < MAX_POINTS < 2 * len(rows) - 1
        with pytest.raises(ValueError, match="needs 3.07e[+]05 lattice points at radius 4"):
            eval_theta(Characteristic.zero(5), tau)

    @pytest.mark.parametrize("g", [1, 2, 3, 4])
    def test_ellipsoid_points_match_filtered_cube(self, g):
        # reference: every point of a cube that contains the ellipsoid, kept
        # when q^t Y q <= R^2; the rows hold one point of each pair +-q
        rng = np.random.default_rng(30 + g)
        tau = _random_tau(g, rng)
        y = tau.entries.imag
        radius = 3
        side = int(np.ceil(radius / np.sqrt(tau.lambda_min()))) + 1
        axes = [np.arange(-side, side + 1)] * g
        cube = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, g)
        for shift in (np.zeros(g), np.full(g, 0.5), rng.integers(0, 2, size=g) / 2.0):
            shifted = cube + shift
            inside = np.einsum("ij,jk,ik->i", shifted, y, shifted) <= radius**2
            expected = sorted(map(tuple, shifted[inside]))
            half, _, (zero,) = _ellipsoid_points(tau._cholesky.T[None], 2 * shift[None],
                                                 [radius])
            rows, negatives = set(map(tuple, half)), set(map(tuple, -half))
            assert len(rows) == len(half)
            assert sorted(rows | negatives) == expected
            assert rows & negatives <= {(0.0,) * g}
            assert (zero is not None) == (not shift.any())
            if zero is not None:
                assert not half[zero].any()

    def test_derivative_order_cap(self, monkeypatch):
        tau = PeriodMatrix([[1j]])
        m = Characteristic.zero(1)
        with pytest.raises(ValueError):
            eval_theta(m, tau, deriv=(MAX_DERIV_ORDER + 1,))
        # the genus-1 symbols go past the cap, to order 5
        assert len(genus1_derivatives(m, 1j, (MAX_DERIV_ORDER + 1,))) == 1
        # the cap is read when called
        monkeypatch.setattr(theta, "MAX_DERIV_ORDER", MAX_DERIV_ORDER + 2)
        eval_theta(m, tau, deriv=(MAX_DERIV_ORDER + 1,))

    @pytest.mark.parametrize("alpha", [(-1, 1), (2, -1)])
    def test_negative_derivative_orders_rejected(self, alpha):
        tau = PeriodMatrix.diagonal([1j, 1j])
        m = Characteristic.zero(2)
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            eval_theta(m, tau, deriv=alpha)
        with pytest.raises(ValueError, match="bad derivative multi-index"):
            eval_theta_many(m, tau, [(0, 0), alpha])

    @pytest.mark.parametrize("z", [0.5, [0.5], [0.1, 0.2, 0.3], [[0.1, 0.2]]])
    def test_z_of_the_wrong_shape_rejected(self, z):
        tau = PeriodMatrix.diagonal([1j, 1j])
        m = Characteristic.zero(2)
        with pytest.raises(ValueError, match="^z must have length g$"):
            eval_theta(m, tau, z=z)
        with pytest.raises(ValueError, match="^z must have length g$"):
            eval_theta_many(m, tau, [(0, 0), (1, 0)], z=z)


class TestStackedKernel:
    @pytest.mark.parametrize("g", range(1, MAX_NUMERIC_GENUS + 1))
    def test_stack_matches_one_item_calls(self, g, kernel, monkeypatch):
        # three tau, z = 0, a real and a complex z, two eps per (tau, z) and
        # up to three delta per eps; derivatives up to order 4; passes small
        # enough that the stack spans several, some with several groups
        rng = np.random.default_rng(80 + g)
        zs = [None, 0.3 * rng.normal(size=g),
              0.3 * rng.normal(size=g) + 0.2j * rng.normal(size=g)]
        items = []
        for tau in (_random_tau(g, rng) for _ in range(3)):
            for z in zs:
                for eps in {tuple(rng.integers(0, 2, size=g)) for _ in range(2)}:
                    deltas = {tuple(rng.integers(0, 2, size=g)) for _ in range(3)}
                    items += [(tau, Characteristic(eps, delta), z) for delta in deltas]
        items = [items[k] for k in rng.permutation(len(items))]  # passes mix tau
        derivs = [(0,) * g, theta._unit(g, 0), (2,) + (0,) * (g - 1),
                  (4,) + (0,) * (g - 1), tuple(int(k) for k in rng.multinomial(4, [1 / g] * g))]
        alone, rows = [], {}  # one-item values, and the rows of each (tau, eps, z) group
        for tau, m, z in items:
            alone.append(theta._jet([(tau, m, z)], derivs, 1e-12, MAX_DERIV_ORDER)[0])
            rows.setdefault((id(tau), m.eps, id(z)), kernel.passes[-1][1][0])
        del kernel.passes[:]
        # passes of about two groups: the stack spans several
        monkeypatch.setattr(theta, "PASS_ROWS", 2.5 * np.median(list(rows.values())))
        stacked = theta._jet(items, derivs, 1e-12, MAX_DERIV_ORDER)
        assert len(kernel.passes) > 1 and any(len(epses) > 1 for epses, _ in kernel.passes)
        assert [n for _, counts in kernel.passes for n in counts] == list(rows.values())
        for row, one in zip(stacked, alone):
            assert np.abs(row - one).max() <= 1e-13 * np.abs(one).max()

    @pytest.mark.parametrize("diagonal", [[1e-100j, 1j], [1e-300j, 1j], [5e-324j, 1j],
                                          [1e-300j] * 5],
                             ids=["1e-100", "1e-300", "5e-324", "1e-300-g5"])
    def test_point_budget_refuses_tiny_im_tau(self, diagonal):
        # interval counts past intp, and sqrt(det Im tau) underflowing to 0
        # at g = 5, are refused by the budget, in a stack and alone
        tiny = PeriodMatrix.diagonal(diagonal)
        good = PeriodMatrix.diagonal([1.1j] * tiny.g)
        m = Characteristic.zero(tiny.g)
        with pytest.raises(ValueError, match="budget of %d" % MAX_POINTS):
            eval_theta(m, tiny)
        with pytest.raises(ValueError, match="budget of %d" % MAX_POINTS):
            eval_theta_stack([(good, m, None), (tiny, m, None)], DEFAULT_TOL)

    def test_point_budget_refusal_inside_a_stack(self):
        bad, good = PeriodMatrix.diagonal([0.02j] * 5), PeriodMatrix.diagonal([1.1j] * 5)
        m = Characteristic.zero(5)
        with pytest.raises(ValueError, match="budget of %d" % MAX_POINTS) as alone:
            eval_theta(m, bad)
        for items in ([(good, m, None), (bad, m, None)], [(bad, m, None), (good, m, None)]):
            start = time.perf_counter()
            with pytest.raises(ValueError) as stacked:
                eval_theta_stack(items, DEFAULT_TOL)
            assert str(stacked.value) == str(alone.value)
            assert time.perf_counter() - start < 5.0

    def test_stack_of_several_genera(self, kernel):
        # one kernel call per genus, values in item order
        rng = np.random.default_rng(9)
        items = [(_random_tau(g, rng), Characteristic.zero(g), None) for g in (2, 1, 3, 1, 2)]
        values = eval_theta_stack(items, DEFAULT_TOL)
        assert len(kernel.calls) == 3
        np.testing.assert_allclose(values, [eval_theta(m, tau) for tau, m, _ in items],
                                   rtol=1e-13, atol=0)

    @pytest.mark.parametrize("g", [2, 3, 4])
    def test_spot_checks_draw_as_one_sample_at_a_time(self, g):
        # every draw comes first, in the order of a sample-by-sample run
        def replay(rng):
            odd = enumerate_characteristics(g, parity_filter=ODD)
            evens = enumerate_characteristics(g, parity_filter=EVEN)
            for _ in range(10):
                sample_generic_diagonal(g, 0, rng, DEFAULT_TOL)
                expand.random_offdiagonal_direction(g, rng)
                rng.integers(len(odd))
                rng.integers(1, g)
                rng.integers(len(evens))
                rng.choice(g, size=2, replace=False)
            return rng.bit_generator.state

        rng = np.random.default_rng(g)
        cli._theta_numeric_checks(g, rng, 10, DEFAULT_TOL)
        assert rng.bit_generator.state == replay(np.random.default_rng(g))


class TestGenus1Symbols:
    def test_f_phi_psi_consistency(self):
        t = 0.1 + 1.2j
        d1, d3, d5 = genus1_derivatives(Characteristic.parse("[1;1]"), t, (1, 3, 5))
        f, phi, psi = f_phi_psi(t, odd=True)
        assert abs(f - d1) < 1e-12
        assert abs(phi - d3 / d1) < 1e-10
        assert abs(psi - (d5 / d1 - (d3 / d1) ** 2)) < 1e-8

    def test_sample_generic_diagonal_window(self):
        rng = np.random.default_rng(12)
        t = sample_generic_diagonal(4, 2, rng)
        assert ((t.imag >= 0.8) & (t.imag <= 2.0)).all()
        assert ((t.real >= -0.5) & (t.real <= 0.5)).all()


class TestNumericalRank:
    def test_exact_ranks(self):
        assert numerical_rank(np.zeros((3, 3))) == 0
        assert numerical_rank(np.eye(4)) == 4
        mat = np.outer([1, 2, 3], [4, 5, 6]).astype(complex)
        assert numerical_rank(mat) == 1

    def test_threshold_is_relative(self, monkeypatch):
        mat = np.diag([1.0, 1e-3, 1e-12])
        monkeypatch.setattr(theta, "RANK_REL_TOL", 1e-7)
        assert numerical_rank(mat) == numerical_rank(1e6 * mat) == 2
        monkeypatch.setattr(theta, "RANK_REL_TOL", 1e-2)
        assert numerical_rank(mat) == numerical_rank(1e-6 * mat) == 1

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            numerical_rank(np.array([[np.nan, 0], [0, 1]]))


def _random_tau(g, rng):
    t = rng.uniform(-0.5, 0.5, size=g) + 1j * rng.uniform(0.8, 2.0, size=g)
    tau = np.diag(t.astype(complex))
    for a in range(g):
        for b in range(a + 1, g):
            tau[a, b] = tau[b, a] = 0.1 * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
    return PeriodMatrix(tau)
