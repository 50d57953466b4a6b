"""Exact bracket-polynomial calculus and near-diagonal leading-term expansions.

A bracket [a_1,...,a_2n] is a sum over perfect matchings of the index
list: matchings pairing equal indices contribute nothing, each distinct
monomial in the off-diagonal variables tau_{ab} is counted exactly once,
and the coefficient is divided by prod d_{ab}! for repeated factors.
Every term carries a tracked power of u = 1/(2 pi i), one per matched pair.

Coefficients are exact rationals times formal monomials in the symbols
phi_1..phi_g, psi_1..psi_g, which are bound to genus-1 theta derivative
ratios only at evaluation time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import theta as theta_mod
from .chars import Characteristic

MAX_BRACKET_PAIRS = 4
TWO_PI_I = 2j * np.pi
ZERO_RAY_FLOOR = 1e-13
DEFAULT_SLOPE_TOL = 0.15


class BracketPolynomial:
    """Sparse exact polynomial in the off-diagonal tau variables.

    Terms map (u_power, tau_monomial, symbol_monomial) -> Fraction, where
    tau_monomial is a sorted tuple of ((a, b), exponent) with a < b
    (1-based), and symbol_monomial is a sorted tuple of
    (("phi"|"psi", index), exponent).
    """

    def __init__(self, g, terms=None):
        if g < 1:
            raise ValueError("genus must be positive")
        self.g = g
        self.terms = {key: Fraction(coeff) for key, coeff in (terms or {}).items()
                      if coeff}

    def is_zero(self):
        return not self.terms

    @staticmethod
    def zero(g):
        return BracketPolynomial(g)

    @staticmethod
    def one(g):
        return BracketPolynomial(g, {(0, (), ()): Fraction(1)})

    def __add__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            out[key] = out.get(key, Fraction(0)) + coeff
        return BracketPolynomial(self.g, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, rational):
        rational = Fraction(rational)
        return BracketPolynomial(
            self.g, {k: c * rational for k, c in self.terms.items()}
        )

    def times_symbol(self, kind, index):
        """Multiply by phi_index or psi_index."""
        if kind not in ("phi", "psi"):
            raise ValueError("symbol kind must be phi or psi")
        if not 1 <= index <= self.g:
            raise ValueError("symbol index out of range")
        out = {}
        for (n, tau_mono, sym_mono), coeff in self.terms.items():
            sym = dict(sym_mono)
            sym[(kind, index)] = sym.get((kind, index), 0) + 1
            out[(n, tau_mono, tuple(sorted(sym.items())))] = coeff
        return BracketPolynomial(self.g, out)

    def __mul__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        out = {}
        for (n1, t1, s1), c1 in self.terms.items():
            for (n2, t2, s2), c2 in other.terms.items():
                tau = dict(t1)
                for pair, e in t2:
                    tau[pair] = tau.get(pair, 0) + e
                sym = dict(s1)
                for name, e in s2:
                    sym[name] = sym.get(name, 0) + e
                key = (n1 + n2, tuple(sorted(tau.items())), tuple(sorted(sym.items())))
                out[key] = out.get(key, Fraction(0)) + c1 * c2
        return BracketPolynomial(self.g, out)

    def min_degree(self):
        """Lowest total tau-degree among the terms (None if zero)."""
        if not self.terms:
            return None
        return min(sum(e for _, e in t) for _, t, _ in self.terms)


def bracket(indices, g):
    """The bracket polynomial [a_1,...,a_2n] of Convention-style matching sums."""
    indices = [int(a) for a in indices]
    if len(indices) % 2:
        raise ValueError("bracket needs an even number of indices")
    n = len(indices) // 2
    if n > MAX_BRACKET_PAIRS:
        raise ValueError("bracket with %d pairs above cap %d" % (n, MAX_BRACKET_PAIRS))
    for a in indices:
        if not 1 <= a <= g:
            raise ValueError("bracket index %d out of range 1..%d" % (a, g))
    monomials = set()
    for matching in _perfect_matchings_of(list(range(len(indices)))):
        pairs = []
        ok = True
        for i, j in matching:
            a, b = indices[i], indices[j]
            if a == b:
                ok = False
                break
            pairs.append((min(a, b), max(a, b)))
        if not ok:
            continue
        mono = {}
        for pair in pairs:
            mono[pair] = mono.get(pair, 0) + 1
        monomials.add(tuple(sorted(mono.items())))
    terms = {}
    for mono in monomials:
        denom = 1
        for _, e in mono:
            denom *= math.factorial(e)
        terms[(n, mono, ())] = Fraction(1, denom)
    return BracketPolynomial(g, terms)


def _perfect_matchings_of(positions):
    """All ways to split the list of positions into unordered pairs."""
    if not positions:
        yield []
        return
    first = positions[0]
    for i in range(1, len(positions)):
        rest = positions[1:i] + positions[i + 1:]
        for sub in _perfect_matchings_of(rest):
            yield [(first, positions[i])] + sub


def x_poly(l, g):
    """X_l = [1,...,l]."""
    return bracket(range(1, l + 1), g)


def y_poly(l, g):
    """Y_l = sum over alpha of phi_alpha [alpha, alpha, 1,...,l]."""
    out = BracketPolynomial.zero(g)
    for alpha in range(1, g + 1):
        out = out + bracket([alpha, alpha] + list(range(1, l + 1)), g).times_symbol(
            "phi", alpha
        )
    return out


def theta_leading(l, g):
    """X_l + Y_l: the two lowest-order terms of theta for the normal-form
    even characteristic with l leading (1,1) columns (l even; the
    prod f_alpha prefactor is bound at evaluation, not included here)."""
    if not 2 <= l <= g:
        raise ValueError("need 2 <= l <= g")
    if l % 2:
        raise ValueError("theta_leading requires even l")
    return x_poly(l, g) + y_poly(l, g)


def grad_leading(l, g, a):
    """Leading terms of the z_a-derivative of theta for the normal-form odd
    characteristic with l leading (1,1) columns (l odd)."""
    if not 3 <= l <= g or l % 2 == 0:
        raise ValueError("need odd l with 3 <= l <= g")
    if not 1 <= a <= g:
        raise ValueError("direction out of range")
    if a <= l:
        kept = [x for x in range(1, l + 1) if x != a]
        out = bracket(kept, g)
        for alpha in range(1, g + 1):
            out = out + bracket([alpha, alpha] + kept, g).times_symbol("phi", alpha)
        return out
    base = list(range(1, l + 1))
    out = bracket([a] + base, g).times_symbol("phi", a)
    out = out + bracket([a, a, a] + base, g).times_symbol("psi", a)
    for alpha in range(1, g + 1):
        out = out + (
            bracket([alpha, alpha, a] + base, g)
            .times_symbol("phi", alpha)
            .times_symbol("phi", a)
        )
    return out


def hessian_minor(rows, cols, g):
    """Matrix of leading expansions of d theta / d tau_{rc} for the
    characteristic [110...0;110...0], per the second-derivative entry list
    (each entry is the expansion divided by prod f_alpha)."""
    rows = [int(r) for r in rows]
    cols = [int(c) for c in cols]
    for x in rows + cols:
        if not 1 <= x <= g:
            raise ValueError("index out of range")
    return [[_hessian_entry(r, c, g) for c in cols] for r in rows]


def _hessian_entry(a, b, g):
    a, b = min(a, b), max(a, b)
    x2 = x_poly(2, g)
    if a == b:
        if a <= 2:
            # (J,J): (phi_J (X2+Y2) + psi_J X2) / 2
            p = (x2 + y_poly(2, g)).times_symbol("phi", a) + x2.times_symbol("psi", a)
            return p.scale(Fraction(1, 2))
        # (j,j): (phi_j (X2+Y2) + psi_j [j,j,1,2]) / 2
        p = (x2 + y_poly(2, g)).times_symbol("phi", a) + bracket(
            [a, a, 1, 2], g
        ).times_symbol("psi", a)
        return p.scale(Fraction(1, 2))
    if a <= 2 and b <= 2:
        # (1,2): 1; its correction brackets [alpha, alpha] vanish identically
        return BracketPolynomial.one(g)
    if a <= 2:
        # (J, j): phi_j [other, j] + phi_j sum phi_alpha [alpha, alpha, other, j]
        other = 3 - a
        out = bracket([other, b], g).times_symbol("phi", b)
        for alpha in range(1, g + 1):
            out = out + (
                bracket([alpha, alpha, other, b], g)
                .times_symbol("phi", alpha)
                .times_symbol("phi", b)
            )
        return out
    # (j,k): phi_j phi_k [j,k,1,2]
    return bracket([a, b, 1, 2], g).times_symbol("phi", a).times_symbol("phi", b)


def bind_symbols(t, l, tol=theta_mod.DEFAULT_TOL):
    """Numeric (f, phi, psi) per coordinate for the normal-form
    characteristic with l leading (1,1) columns, at diagonal values t."""
    fs, phis, psis = [], [], []
    for a, ta in enumerate(t):
        f, phi, psi = theta_mod.f_phi_psi(ta, a < l, tol)
        if abs(f) < 1e-12:
            raise ValueError("f_%d vanishes at the given point" % (a + 1))
        fs.append(f)
        phis.append(phi)
        psis.append(psi)
    return np.array(fs), np.array(phis), np.array(psis)


def evaluate(pbp, t, offdiag, l, tol=theta_mod.DEFAULT_TOL):
    """Numeric value of the polynomial: tau variables from `offdiag`
    (a dict (a,b) -> complex with 1-based a < b), phi/psi symbols bound via
    genus-1 theta derivatives at t (columns 1..l odd, the rest even), and
    each term multiplied by its tracked power of 1/(2 pi i).
    """
    _, phis, psis = bind_symbols(t, l, tol=tol)
    total = 0j
    for (n, tau_mono, sym_mono), coeff in pbp.terms.items():
        value = complex(Fraction(coeff)) / TWO_PI_I**n
        for (a, b), e in tau_mono:
            value *= offdiag.get((a, b), 0j) ** e
        for (kind, idx), e in sym_mono:
            value *= (phis if kind == "phi" else psis)[idx - 1] ** e
        total += value
    return total


def offdiag_of(tau_entries):
    """Off-diagonal dictionary {(a,b): tau_ab, a<b, 1-based} of a matrix."""
    g = tau_entries.shape[0]
    return {
        (a + 1, b + 1): complex(tau_entries[a, b])
        for a in range(g)
        for b in range(a + 1, g)
    }


@dataclass(frozen=True)
class SlopeReport:
    """Order-of-vanishing estimate along a shrinking ray."""

    epsilon_ladder: tuple
    values: tuple
    fitted_slope: float
    target_order: float
    tolerance: float
    comparison: str  # "equal" or "at_least"
    zero_ray: bool

    @property
    def passed(self):
        if self.zero_ray:
            # the quantity vanishes identically along the ray, which is
            # consistent with any vanishing-order claim
            return True
        if self.comparison == "at_least":
            return self.fitted_slope >= self.target_order - self.tolerance
        return abs(self.fitted_slope - self.target_order) <= self.tolerance


def default_ladder():
    return [2.0**-k for k in range(3, 10)]


def fit_slope(ladder, magnitudes, target_order, comparison="equal"):
    """Least-squares log-log slope of |value| against epsilon, held to
    DEFAULT_SLOPE_TOL.  Exact zeros are left out; it needs two others unless
    every magnitude is below ZERO_RAY_FLOOR (a zero ray, no slope fitted)."""
    ladder = [float(e) for e in ladder]
    magnitudes = [float(abs(v)) for v in magnitudes]
    if len(ladder) != len(magnitudes):
        raise ValueError("ladder has %d points but %d magnitudes were given"
                         % (len(ladder), len(magnitudes)))
    if any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ValueError("epsilon ladder must be strictly decreasing")
    if comparison not in ("equal", "at_least"):
        raise ValueError("comparison must be 'equal' or 'at_least'")
    if all(v < ZERO_RAY_FLOOR for v in magnitudes):
        return SlopeReport(
            tuple(ladder), tuple(magnitudes), float("nan"), float(target_order),
            float(DEFAULT_SLOPE_TOL), comparison, True,
        )
    points = [(e, v) for e, v in zip(ladder, magnitudes) if v > 0]
    if len(points) < 2:
        raise ValueError("a slope needs two nonzero magnitudes, got %d" % len(points))
    xs, ys = np.log(points).T
    slope = float(np.polyfit(xs, ys, 1)[0])
    return SlopeReport(
        tuple(ladder), tuple(magnitudes), slope, float(target_order),
        float(DEFAULT_SLOPE_TOL), comparison, False,
    )


def vanishing_order(target, base, direction, target_order=1.0, comparison="equal",
                    tail=None):
    """SlopeReport for |target(base + eps * direction)| along default_ladder().

    `target` maps a PeriodMatrix to a complex number; `direction` is a
    symmetric matrix, normalized here to unit max-entry.  With `tail` set,
    only the last `tail` ladder points are evaluated and fitted -- remainders
    whose higher-order terms carry large constants are pre-asymptotic at the
    large-epsilon end.
    """
    direction = np.asarray(direction, dtype=complex)
    if not (direction == direction.T).all():
        raise ValueError("direction must be symmetric")
    peak = np.abs(direction).max()
    if peak == 0:
        raise ValueError("direction must be nonzero")
    direction = direction / peak
    ladder = default_ladder()
    if tail is not None:
        ladder = ladder[-tail:]
    values = [abs(target(base.perturbed(direction, eps))) for eps in ladder]
    return fit_slope(ladder, values, target_order, comparison)


def random_offdiagonal_direction(g, rng):
    """Random complex symmetric direction with zero diagonal, unit max-entry."""
    mat = np.zeros((g, g), dtype=complex)
    for a in range(g):
        for b in range(a + 1, g):
            mat[a, b] = mat[b, a] = rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
    return mat / np.abs(mat).max()


def normal_form(l, g):
    """The normal-form characteristic [1...10...0;1...10...0] of genus g
    with l leading (1,1) columns."""
    return Characteristic((1,) * l + (0,) * (g - l), (1,) * l + (0,) * (g - l))


def _remainder_report(g, l, t, rng, lead, value, order, tol):
    """Slope of value(m, tau) - prod(f) * lead along a random off-diagonal
    ray from diag(t), for the normal-form characteristic m with l leading
    (1,1) columns; the remainder must vanish to order at least `order`."""
    m = normal_form(l, g)
    prod_f = np.prod(bind_symbols(t, l, tol=tol)[0])
    base = theta_mod.PeriodMatrix.diagonal(t)
    direction = random_offdiagonal_direction(g, rng)

    def target(tau):
        model = prod_f * evaluate(lead, t, offdiag_of(tau.entries), l, tol=tol)
        return value(m, tau) - model

    return vanishing_order(target, base, direction, target_order=order,
                           comparison="at_least", tail=4)


def theta_remainder_report(g, l, t, rng, tol=theta_mod.DEFAULT_TOL):
    """Slope of theta_m - prod(f) * (X_l + Y_l) along a random off-diagonal
    ray from diag(t), for the normal-form even characteristic with l leading
    (1,1) columns; the remainder has order at least s + 2 with s = l/2."""
    return _remainder_report(
        g, l, t, rng, theta_leading(l, g),
        lambda m, tau: theta_mod.eval_theta(m, tau, tol=tol), l // 2 + 2, tol)


def gradient_remainder_report(g, l, a, t, rng, tol=theta_mod.DEFAULT_TOL):
    """Slope of the z_a-gradient of theta minus its leading expansion along
    a random off-diagonal ray from diag(t), for the normal-form odd
    characteristic (l odd); order at least s + 2 for a <= l and s + 3 for
    a > l, with s = (l - 1)/2."""
    s = (l - 1) // 2
    return _remainder_report(
        g, l, t, rng, grad_leading(l, g, a),
        lambda m, tau: theta_mod.gradient(m, tau, tol=tol)[a - 1],
        s + 2 if a <= l else s + 3, tol)
