"""Detectors for geometric loci near the diagonal, and numerical verifiers
for the local structure results: tridiagonal tangent spaces, the
gradient-locus slice computation, and the Hessian minor identities.  The
slice-Y model of the z_1 derivative is expand.grad_leading(3, g, 1).

All vanishing tests are relative: a theta constant counts as zero when it
is below DEFAULT_VANISH_TOL times the largest even theta constant at the
same point.  Every characteristic a detector tests is even, so the
detectors read their constants from the batch that gives that scale: each
period matrix and theta tolerance costs one batch (even_scale).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import theta
from .chars import (
    EVEN,
    ODD,
    Characteristic,
    enumerate_characteristics,
    hyperelliptic_vanishing_set,
    scalar_class,
    special_fundamental_system,
)
from .expand import (bind_symbols, default_ladder, evaluate, fit_slope, grad_leading,
                     normal_form)
from .symp import act, permutation_element
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    gradient,
    hessian,
    numerical_rank,
    tau_jet,
    theta_constants_batch,
)

DEFAULT_VANISH_TOL = 1e-8  # vanishing, relative to the even scale
COEFF_REL_TOL = 0.05  # a slice check's leading coefficient, relative
MINOR_THETA_TOL = 1e-13  # every theta pass of the Hessian minor checks
U = 1.0 / (2j * np.pi)


@dataclass(frozen=True)
class LocusVerdict:
    """Outcome of a locus membership test, with a complete witness table."""

    locus: str
    witness: tuple
    tol: float
    verdict: bool


def even_scale(tau, theta_tol=DEFAULT_TOL):
    """(max |theta_m(tau)| over even m, the reference scale for vanishing;
    every even theta constant at tau, as a read-only mapping).

    Memoised per period matrix object and theta_tol: PeriodMatrix entries
    are write-protected, and the cache holds tau, so its id is not reused."""
    return _even_scale(tau, theta_tol)


@functools.lru_cache(maxsize=8)
def _even_scale(tau, theta_tol):
    """even_scale, cached on positional arguments only, so a default and an
    explicit theta_tol share one entry."""
    evens = enumerate_characteristics(tau.g, parity_filter=EVEN)
    values = theta_constants_batch(tau, evens, tol=theta_tol)
    return max(abs(v) for v in values.values()), MappingProxyType(values)


def _vanishing_witness(values, ms, scale, *extra):
    """Witness rows (characteristic, |theta|, *extra, vanished) for ms, and
    whether all vanished: were below DEFAULT_VANISH_TOL times scale."""
    rows = tuple(
        (("characteristic", m.compact()), ("abs_value", abs(values[m])))
        + extra + (("vanished", abs(values[m]) < DEFAULT_VANISH_TOL * scale),)
        for m in ms
    )
    return rows, all(row[-1][1] for row in rows)


def is_diagonal_orbit(tau, *, theta_tol=DEFAULT_TOL):
    """True iff every even theta constant with a (1,1) column vanishes
    relative to the largest even theta constant."""
    scale, values = even_scale(tau, theta_tol)
    ms = sorted((m for m in values if scalar_class(m)), key=Characteristic.compact)
    witness, verdict = _vanishing_witness(values, ms, scale)
    return LocusVerdict("diagonal_orbit", witness, DEFAULT_VANISH_TOL, verdict)


def is_product_orbit(tau, g1, *, theta_tol=DEFAULT_TOL):
    """True iff theta vanishes at every characteristic odd on the columns of
    the first factor and odd on the others: columns 1..g1 for a whole number
    g1, or the 1-based columns in a tuple g1 ((2,) splits off column 2)."""
    g = tau.g
    first = tuple(range(1, g1 + 1)) if isinstance(g1, int) else tuple(sorted(g1))
    rest = tuple(c for c in range(1, g + 1) if c not in first)
    if not (first and rest) or sorted(first + rest) != list(range(1, g + 1)):
        raise ValueError("need a proper nonempty set of distinct columns in 1..%d" % g)
    # the permutation sending column i of m1 joined to m2 to column (first + rest)[i]
    move = permutation_element(first + rest)
    odd2 = enumerate_characteristics(len(rest), parity_filter=ODD)
    chars = [act(move, Characteristic(m1.eps + m2.eps, m1.delta + m2.delta))
             for m1 in enumerate_characteristics(len(first), parity_filter=ODD)
             for m2 in odd2]
    # odd on one factor plus odd on the other is even
    scale, values = even_scale(tau, theta_tol)
    witness, verdict = _vanishing_witness(values, chars, scale)
    split = "%d_%d" % (len(first), len(rest))
    if first != tuple(range(1, len(first) + 1)):
        split = "_".join("".join(map(str, cols)) for cols in (first, rest))
    return LocusVerdict("product_orbit_" + split, witness, DEFAULT_VANISH_TOL, verdict)


def thetanull_rank_class(tau, m, *, theta_tol=DEFAULT_TOL):
    """(is_null, rank): whether theta_m, read from the even batch, vanishes
    relative to the even scale, and the numerical rank of the z-Hessian of
    theta_m at z=0.  ValueError unless m is an even characteristic of tau's
    genus."""
    scale, values = even_scale(tau, theta_tol)
    value = values.get(m)
    if value is None:
        raise ValueError("%s is not an even characteristic of genus %d" % (m.compact(), tau.g))
    return abs(value) < DEFAULT_VANISH_TOL * scale, numerical_rank(hessian(m, tau, theta_tol))


def hyperelliptic_vanishing_test(tau, *, theta_tol=DEFAULT_TOL):
    """True iff every theta constant indexed by the standard hyperelliptic
    vanishing set vanishes relative to the even scale.  The witness also
    records every other even constant, whose non-vanishing is not required:
    each characteristic is a sum of at most g essential members in exactly
    one way, so these are the even shifts by b^g of sums of exactly g."""
    vanishing = hyperelliptic_vanishing_set(tau.g)
    required = sorted(vanishing, key=Characteristic.compact)
    scale, values = even_scale(tau, theta_tol)
    witness, verdict = _vanishing_witness(values, required, scale, ("required", True))
    extra = [m for m in values if m not in vanishing]  # batch order: compact order
    witness += _vanishing_witness(values, extra, scale, ("required", False))[0]
    return LocusVerdict("hyperelliptic_vanishing", witness, DEFAULT_VANISH_TOL, verdict)


# ---------------------------------------------------------------------------
# tridiagonal tangent space


@dataclass(frozen=True)
class TridiagonalReport:
    g: int
    witness: tuple  # one row per triple, ending in ("pass", bool)
    kernel_dimension: int
    expected_kernel_dimension: int

    @property
    def passed(self):
        return (all(row[-1][1] for row in self.witness)
                and self.kernel_dimension == self.expected_kernel_dimension)


def tridiagonal_tangent_check(g, t, *, theta_tol=DEFAULT_TOL):
    """For every triple j1<j2<j3, the tau-gradient at diag(t) of theta for
    the characteristic o_{j1}+o_{j2}+o_{j3} must be supported (relative to
    its largest entry) only at the off-diagonal entry (j1, j3); the joint
    kernel of these linear forms must be the tridiagonal matrices, of
    dimension 2g - 1."""
    if not 3 <= g <= theta.MAX_NUMERIC_GENUS:
        raise ValueError("need 3 <= g <= %d" % theta.MAX_NUMERIC_GENUS)
    fs = special_fundamental_system(g)
    triples = list(itertools.combinations(range(1, g + 1), 3))
    chars = [fs.odds[j1 - 1] + fs.odds[j2 - 1] + fs.odds[j3 - 1]
             for j1, j2, j3 in triples]
    _, grads = tau_jet(PeriodMatrix.diagonal(t), chars, theta_tol)
    witness = []
    for (j1, j2, j3), m, grad in zip(triples, chars, grads):
        off = np.abs(grad)
        bound = DEFAULT_VANISH_TOL * off.max()
        expected = off[j1 - 1, j3 - 1]
        off[j1 - 1, j3 - 1] = off[j3 - 1, j1 - 1] = 0.0
        spurious = off.max()
        ok = expected > bound and spurious < bound
        witness.append(
            (("triple", (j1, j2, j3)), ("characteristic", m.compact()),
             ("support_entry", (j1, j3)), ("support_abs", float(expected)),
             ("max_spurious_abs", float(spurious)), ("pass", ok))
        )
    rows, cols = zip(*((a, b) for a in range(g) for b in range(a, g)))
    kernel_dim = len(rows) - numerical_rank(grads[:, rows, cols])
    return TridiagonalReport(
        g=g,
        witness=tuple(witness),
        kernel_dimension=int(kernel_dim),
        expected_kernel_dimension=2 * g - 1,
    )


# ---------------------------------------------------------------------------
# gradient-locus slice (l = 3)


@dataclass(frozen=True)
class CoefficientCheck:
    label: str
    measured: complex
    expected: complex
    rel_tol: float

    @property
    def passed(self):
        return abs(self.measured - self.expected) <= self.rel_tol * abs(self.expected)


@dataclass(frozen=True)
class SliceCheckResult:
    label: str
    slope_reports: tuple
    coefficient_checks: tuple

    @property
    def passed(self):
        return all(r.passed for r in self.slope_reports) and all(
            c.passed for c in self.coefficient_checks
        )


def _near_diagonal(t, offdiag):
    """The period matrix diag(t) with the 1-based entries {(a, b): value} of
    offdiag set symmetrically: the inverse of expand.offdiag_of."""
    tau = np.diag(np.asarray(t, dtype=complex))
    for (a, b), value in offdiag.items():
        tau[a - 1, b - 1] = tau[b - 1, a - 1] = value
    return PeriodMatrix(tau)


def gradient_locus_check(g, t, rng, *, theta_tol=DEFAULT_TOL):
    """On the slice Y = {tau_jk = 0 for 4 <= j < k, tau_1j = tau_2j = tau_3j
    for j >= 4} for the normal-form odd characteristic with three leading
    (1,1) columns: (a) the z_1 derivative minus prod(f) times its leading
    model grad_leading(3, g, 1) has residual slope >= 3, and (b) for each
    j >= 4 the combination

        d_{z_j}theta - phi_j * u * tau_1j * (d_{z_1}+d_{z_2}+d_{z_3}) theta

    (u = 1/(2 pi i)) vanishes to order 3 along the ray with leading coefficient
    prod(f) * u^3 * (psi_j - 2 phi_j^2) * tau_1j^3 (within COEFF_REL_TOL)."""
    if not 4 <= g <= theta.MAX_NUMERIC_GENUS:
        raise ValueError("need 4 <= g <= %d" % theta.MAX_NUMERIC_GENUS)
    m = normal_form(3, g)
    fs, phis, psis = bind_symbols(t, 3, tol=theta_tol)
    prod_f = np.prod(fs)
    ladder = default_ladder()
    weights = _random_weights(rng, g)
    model = grad_leading(3, g, 1)
    js = range(4, g + 1)
    residuals, combos = [], {j: [] for j in js}
    for eps in ladder:
        # tau_12, tau_13, tau_23 and each tau_1j = tau_2j = tau_3j: weights * eps
        offdiag = {(1, 2): weights[0] * eps, (1, 3): weights[1] * eps,
                   (2, 3): weights[2] * eps}
        offdiag.update(((a, j), weights[j - 1] * eps) for j in js for a in (1, 2, 3))
        grad = gradient(m, _near_diagonal(t, offdiag), tol=theta_tol)
        residuals.append(abs(grad[0] - prod_f * evaluate(model, t, offdiag, 3,
                                                          tol=theta_tol)))
        for j in js:
            combos[j].append(grad[j - 1] - phis[j - 1] * U * offdiag[1, j]
                             * (grad[0] + grad[1] + grad[2]))
    # (a) the residual's higher-order terms carry large constants; fit its
    # slope on the asymptotic tail of the ladder
    reports = [fit_slope(ladder[-4:], residuals[-4:], target_order=3,
                         comparison="at_least")]
    coeffs = []
    # (b) the decisive combination for each j >= 4
    for j in js:
        reports.append(fit_slope(ladder, [abs(v) for v in combos[j]], target_order=3,
                                 comparison="equal"))
        t1j = weights[j - 1] * ladder[-1]
        coeffs.append(CoefficientCheck(
            "psi_%d - 2 phi_%d^2" % (j, j),
            complex(combos[j][-1] / (prod_f * U**3 * t1j**3)),
            complex(psis[j - 1] - 2 * phis[j - 1] ** 2),
            COEFF_REL_TOL,
        ))
    return SliceCheckResult("gradient_locus_slice", tuple(reports), tuple(coeffs))


def _random_weights(rng, g):
    """Unit-magnitude complex weights for the slice coordinates."""
    phases = rng.uniform(0, 2 * np.pi, size=g)
    radii = rng.uniform(0.5, 1.0, size=g)
    return radii * np.exp(1j * phases)


# ---------------------------------------------------------------------------
# Hessian minor identities (l = 2)


NEWTON_MAX_PASSES = 40


def _tau_index(g, pairs):
    """0-based (rows, cols) of 1-based pairs (j, k); ValueError unless 1 <= j, k <= g."""
    if not all(1 <= int(j) <= g and 1 <= int(k) <= g for j, k in pairs):
        raise ValueError("tau coordinates %r out of range 1..%d" % (pairs, g))
    return (np.array(pairs, dtype=np.intp).reshape(-1, 2) - 1).T


def newton_onto(chars, tau, coords, theta_tol=DEFAULT_TOL):
    """Gauss-Newton toward theta_m = 0 for all m of chars: minimum-norm lstsq
    steps in the 1-based coordinates (j, k) of coords alone, one tau_jet pass
    each, until all |theta_m| < theta_tol, the pass's certified error; returns
    (tau, gradients at tau, passes).  ValueError for a coordinate given
    twice, as (j, k) or (k, j), and after NEWTON_MAX_PASSES."""
    rows, cols = _tau_index(tau.g, coords)
    unordered = [(min(j, k), max(j, k)) for j, k in zip(rows + 1, cols + 1)]
    for i, pair in enumerate(unordered):
        if pair in unordered[:i]:
            raise ValueError("tau coordinate (%d, %d) given twice" % pair)
    for passes in range(1, NEWTON_MAX_PASSES + 1):
        values, grads = tau_jet(tau, chars, theta_tol)
        if np.abs(values).max() < theta_tol:
            return tau, grads, passes
        # lstsq of the real form: the same step, by the real routine polyfit loads
        jac = grads[:, rows, cols]
        real = np.block([[jac.real, -jac.imag], [jac.imag, jac.real]])
        x = np.linalg.lstsq(real, -np.concatenate([values.real, values.imag]), rcond=None)[0]
        entries = tau.entries.copy()
        entries[rows, cols] += x[:len(rows)] + 1j * x[len(rows):]
        entries[cols, rows] = entries[rows, cols]
        tau = PeriodMatrix(entries)
    raise ValueError("theta-null solve did not converge in %d passes" % NEWTON_MAX_PASSES)


def impose_thetanull(m, t, weights, eps, phis, theta_tol=DEFAULT_TOL):
    """(tau, d theta_m / d tau at tau): tau on the slice Z = {tau_jk = 0 for
    3 <= j < k, tau_1j = tau_2j = weights[j-1] * eps for j >= 3} with
    theta_m = 0, solved for tau_12 by newton_onto from the expansion's
    leading term."""
    tau1 = {j: weights[j - 1] * eps for j in range(3, len(t) + 1)}
    offdiag = {(a, j): v for j, v in tau1.items() for a in (1, 2)}
    offdiag[1, 2] = -U * sum(phis[j - 1] * v ** 2 for j, v in tau1.items())
    tau, grads, _ = newton_onto([m], _near_diagonal(t, offdiag), [(1, 2)], theta_tol)
    return tau, grads[0]


MINOR_CHECKS = ("D123", "D12jj", "D12jk")


def minor_identity_check(g, t, which, rng):
    """Compare Hessian minor determinants along the theta-null slice Z
    against their leading formulas, within COEFF_REL_TOL; every theta pass
    sums at MINOR_THETA_TOL.

    D123:  det of rows/cols (1,2,j), j >= 3, of the normalized
           tau-derivative matrix equals (2 phi_j^2 - psi_j/2) u^2 tau_1j^2
           to leading order (order 2 along the ray).
    D12jj: det of rows/cols (1,2,3,j), j >= 4, equals
           -u^4 tau_13^2 tau_1j^2 (4 phi_3^2 - psi_3)(4 phi_j^2 - psi_j)/4
           (order 4).
    D12jk: for 4 <= j < k <= g, the tau_jk-dependence of the determinant
           with rows (1,2,3,j) and columns (1,2,3,k) through the leading
           bracket of its (j,k) entry equals
           phi_j phi_k u^2 tau_12 * D123 = -phi_j phi_k phi_3 u^3
           tau_13^2 * D123 to leading order (order 4).  Vacuous for
           g < 5, where no such pair exists.
    """
    if which not in MINOR_CHECKS:
        raise ValueError("unknown minor check %r" % (which,))
    if g < 4:
        raise ValueError("need g >= 4")
    m = normal_form(2, g)
    fs, phis, psis = bind_symbols(t, 2, tol=MINOR_THETA_TOL)
    prod_f = np.prod(fs)
    weights = _random_weights(rng, g)
    # D12jk keeps the ladder 2^-4..2^-7 of its recorded reports
    ladder = [2.0**-k for k in range(4, 8)] if which == "D12jk" else default_ladder()
    pairs = list(itertools.combinations(range(4, g + 1), 2))
    if which == "D12jk" and not pairs:
        return SliceCheckResult("minor_D12jk", (), ())
    # one theta-null solve per ladder point; every minor is read from it
    solves = []
    for eps in ladder:
        w = weights
        if which == "D12jk":
            # in the paper's regime the principal-minor equations force
            # tau_1j = O(eps^2) for j >= 4
            w = weights.copy()
            w[3:] *= eps
        tau, grad = impose_thetanull(m, t, w, eps, phis, MINOR_THETA_TOL)
        solves.append((tau, grad * (2j * np.pi) / prod_f))  # (1,2) entry 1 + O(eps^2)
    reports = []
    coeffs = []
    if which != "D12jk":
        # the principal minors with rows/cols (1,2,j) (D123) or (1,2,3,j) (D12jj)
        lead = [0, 1] if which == "D123" else [0, 1, 2]
        eps = ladder[-1]
        for j in range(len(lead) + 1, g + 1):
            idx = lead + [j - 1]
            values = [np.linalg.det(M[np.ix_(idx, idx)]) for _, M in solves]
            tau1j = weights[j - 1] * eps
            if which == "D123":
                order = 2
                label = "2 phi_%d^2 - psi_%d/2" % (j, j)
                measured = values[-1] / (U**2 * tau1j**2)
                expected = 2 * phis[j - 1] ** 2 - psis[j - 1] / 2
            else:
                order = 4
                label = "-(4 phi_3^2 - psi_3)(4 phi_%d^2 - psi_%d)/4" % (j, j)
                tau13 = weights[2] * eps
                measured = values[-1] / (U**4 * tau13**2 * tau1j**2)
                expected = (-(4 * phis[2] ** 2 - psis[2])
                            * (4 * phis[j - 1] ** 2 - psis[j - 1]) / 4)
            reports.append(fit_slope(ladder, [abs(v) for v in values],
                                     target_order=order, comparison="equal"))
            coeffs.append(CoefficientCheck(label, complex(measured),
                                           complex(expected), COEFF_REL_TOL))
    else:
        # The tau_jk-dependence of the minor with rows (1,2,3,j) and
        # columns (1,2,3,k), expanded along the last row, enters through
        # the bracket [j,k,1,2] = u^2 (tau_jk tau_12 + tau_1j tau_2k +
        # tau_2j tau_1k) of the (j,k) entry, exactly linear in tau_jk with
        # coefficient u^2 tau_12; with the theta-null value of tau_12
        # this contribution is phi_j phi_k u^2 tau_12 * D123, of order 4.
        #
        # Note: this is the dependence through the leading bracket only.
        # The next-order bracket [3,3,j,k,1,2] of the same entry carries
        # the compensating tau_jk-coefficient phi_3 u^3 tau_13 tau_23, so
        # the *total* tau_jk-derivative of the determinant at the
        # theta-null point is proportional to the vanishing null residual
        # and is of higher order; the module verifies the stated route.
        d123 = [np.linalg.det(M[:3, :3]) for _, M in solves]
        for j, k in pairs:
            derivs = [phis[j - 1] * phis[k - 1] * U**2 * tau.entries[0, 1] * d
                      for (tau, _), d in zip(solves, d123)]
            tau13 = solves[-1][0].entries[0, 2]
            expected = -phis[j - 1] * phis[k - 1] * phis[2] * U**3 * tau13**2 * d123[-1]
            reports.append(fit_slope(ladder, [abs(v) for v in derivs],
                                     target_order=4, comparison="equal"))
            coeffs.append(CoefficientCheck(
                "dD_{%d%d}/dtau_%d%d (leading-bracket route) vs "
                "-phi_%d phi_%d phi_3 u^3 tau_13^2 D123" % (j, k, j, k, j, k),
                complex(derivs[-1]), complex(expected), COEFF_REL_TOL,
            ))
    return SliceCheckResult("minor_%s" % which, tuple(reports), tuple(coeffs))
