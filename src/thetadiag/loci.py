"""Detectors for geometric loci near the diagonal, and numerical verifiers
for the local structure results: tridiagonal tangent spaces, the
gradient-locus slice computation, and the Hessian minor identities.

All vanishing tests are relative: a theta constant counts as zero when it
is below tol times the largest even theta constant at the same point.  Every
characteristic a detector tests is even, so the detectors read their
constants from the batch that gives that scale: each period matrix and
theta tolerance costs one batch of even theta constants (even_scale).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import operator
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .chars import (
    EVEN,
    ODD,
    Characteristic,
    _char_to_mask,
    _mask_to_char,
    enumerate_characteristics,
    hyperelliptic_vanishing_set,
    scalar_class,
    special_fundamental_system,
    b_char,
)
from .expand import (bind_symbols, bracket, default_ladder, evaluate, fit_slope,
                     normal_form, offdiag_of)
from .theta import (
    DEFAULT_TOL,
    PeriodMatrix,
    _value_and_hessian,
    eval_theta_many,
    gradient,
    numerical_rank,
    tau_gradient,
    theta_constants_batch,
)

DEFAULT_VANISH_TOL = 1e-8
U = 1.0 / (2j * np.pi)


def _digest(tau):
    return hashlib.sha256(np.ascontiguousarray(tau.entries).tobytes()).hexdigest()[:16]


@dataclass(frozen=True)
class LocusVerdict:
    """Outcome of a locus membership test, with a complete witness table."""

    locus: str
    tau_digest: str
    witness: tuple
    tol: float
    verdict: bool

    def to_dict(self):
        return {
            "locus": self.locus,
            "tau_digest": self.tau_digest,
            "witness": [dict(w) for w in self.witness],
            "tol": self.tol,
            "verdict": self.verdict,
        }


@functools.lru_cache(maxsize=8)
def even_scale(tau, theta_tol=DEFAULT_TOL):
    """(max |theta_m(tau)| over even m, the reference scale for vanishing;
    every even theta constant at tau, as a read-only mapping).

    Memoised per period matrix object and theta_tol: PeriodMatrix entries
    are write-protected, and the cache holds tau, so its id is not reused."""
    evens = enumerate_characteristics(tau.g, parity_filter=EVEN)
    values = theta_constants_batch(tau, evens, tol=theta_tol)
    return max(abs(v) for v in values.values()), MappingProxyType(values)


def _vanishing_witness(values, ms, scale, tol, *extra):
    """Witness rows (characteristic, |theta|, *extra, vanished) for ms, where
    vanished means below tol times scale, and whether every one vanished."""
    rows = tuple(
        (("characteristic", m.compact()), ("abs_value", abs(values[m])))
        + extra + (("vanished", abs(values[m]) < tol * scale),)
        for m in ms
    )
    return rows, all(row[-1][1] for row in rows)


def is_diagonal_orbit(tau, tol=DEFAULT_VANISH_TOL, theta_tol=DEFAULT_TOL):
    """True iff every even theta constant with a (1,1) column vanishes
    relative to the largest even theta constant."""
    scale, values = even_scale(tau, theta_tol)
    ms = sorted((m for m in values if scalar_class(m)), key=Characteristic.compact)
    witness, verdict = _vanishing_witness(values, ms, scale, tol)
    return LocusVerdict("diagonal_orbit", _digest(tau), witness, tol, verdict)


def is_product_orbit(tau, g1, tol=DEFAULT_VANISH_TOL, theta_tol=DEFAULT_TOL):
    """True iff theta vanishes for every characteristic that splits as
    odd (genus g1) plus odd (genus g - g1)."""
    g = tau.g
    if not 0 < g1 < g:
        raise ValueError("need 0 < g1 < g")
    odd1 = enumerate_characteristics(g1, parity_filter=ODD)
    odd2 = enumerate_characteristics(g - g1, parity_filter=ODD)
    chars = [
        Characteristic(m1.eps + m2.eps, m1.delta + m2.delta)
        for m1 in odd1
        for m2 in odd2
    ]
    # odd (genus g1) plus odd (genus g - g1) is even
    scale, values = even_scale(tau, theta_tol)
    witness, verdict = _vanishing_witness(values, chars, scale, tol)
    return LocusVerdict(
        "product_orbit_%d_%d" % (g1, g - g1), _digest(tau), witness, tol, verdict
    )


def thetanull_rank_class(tau, m, tol=DEFAULT_VANISH_TOL, rank_rel_tol=1e-7,
                         theta_tol=DEFAULT_TOL):
    """(is_null, rank): whether theta_m vanishes relative to the even scale,
    and the numerical rank of the z-Hessian of theta_m at z=0."""
    scale, _ = even_scale(tau, theta_tol)
    value, h = _value_and_hessian(m, tau, tol=theta_tol)
    return abs(value) < tol * scale, numerical_rank(h, rank_rel_tol)


def hyperelliptic_vanishing_test(tau, tol=DEFAULT_VANISH_TOL, theta_tol=DEFAULT_TOL):
    """True iff every theta constant indexed by the standard hyperelliptic
    vanishing set vanishes relative to the even scale.  The witness also
    records the constants for sums of exactly g members, whose
    non-vanishing is not required."""
    g = tau.g
    required = sorted(hyperelliptic_vanishing_set(g), key=Characteristic.compact)
    scale, values = even_scale(tau, theta_tol)
    witness, verdict = _vanishing_witness(values, required, scale, tol,
                                          ("required", True))
    # informational part: the even shifts of sums of exactly g members
    fs = special_fundamental_system(g)
    b = _char_to_mask(b_char(fs))
    members = [_char_to_mask(x) for x in fs.essential_members()]
    extra = set()
    for combo in itertools.combinations(members, g):
        shifted = functools.reduce(operator.xor, combo, b)
        if ((shifted >> g) & shifted).bit_count() % 2 == 0:
            extra.add(shifted)
    # mask order is the compact-string order
    extra = [_mask_to_char(x, g) for x in sorted(extra)]
    witness += _vanishing_witness(values, extra, scale, tol, ("required", False))[0]
    return LocusVerdict("hyperelliptic_vanishing", _digest(tau), witness, tol, verdict)


# ---------------------------------------------------------------------------
# tridiagonal tangent space


@dataclass(frozen=True)
class TridiagonalReport:
    g: int
    witness: tuple  # one entry per triple
    kernel_dimension: int
    expected_kernel_dimension: int
    per_triple_pass: bool

    @property
    def passed(self):
        return self.per_triple_pass and (
            self.kernel_dimension == self.expected_kernel_dimension
        )

    def to_dict(self):
        return {
            "g": self.g,
            "witness": [dict(w) for w in self.witness],
            "kernel_dimension": self.kernel_dimension,
            "expected_kernel_dimension": self.expected_kernel_dimension,
            "pass": self.passed,
        }


def tridiagonal_tangent_check(g, t, tol=DEFAULT_VANISH_TOL, theta_tol=DEFAULT_TOL):
    """For every triple j1<j2<j3, the tau-gradient at diag(t) of theta for
    the characteristic o_{j1}+o_{j2}+o_{j3} must be supported (relative to
    its largest entry) only at the off-diagonal entry (j1, j3); the joint
    kernel of these linear forms must be the tridiagonal matrices, of
    dimension 2g - 1."""
    if not 3 <= g <= 5:
        raise ValueError("need 3 <= g <= 5")
    fs = special_fundamental_system(g)
    tau = PeriodMatrix.diagonal(t)
    pairs = [(a, b) for a in range(g) for b in range(a, g)]
    rows = []
    witness = []
    per_triple = True
    for j1, j2, j3 in itertools.combinations(range(1, g + 1), 3):
        m = fs.odds[j1 - 1] + fs.odds[j2 - 1] + fs.odds[j3 - 1]
        grad = tau_gradient(m, tau, tol=theta_tol)
        off = np.abs(grad.copy())
        scale = off.max()
        expected = off[j1 - 1, j3 - 1]
        off[j1 - 1, j3 - 1] = 0.0
        off[j3 - 1, j1 - 1] = 0.0
        spurious = off.max()
        ok = expected > tol * scale and spurious < tol * scale
        per_triple = per_triple and ok
        witness.append(
            (("triple", (j1, j2, j3)), ("characteristic", m.compact()),
             ("support_entry", (j1, j3)), ("support_abs", float(expected)),
             ("max_spurious_abs", float(spurious)), ("pass", ok))
        )
        rows.append([grad[a, b] for a, b in pairs])
    rows = np.array(rows)
    kernel_dim = len(pairs) - numerical_rank(rows, rel_tol=1e-7)
    return TridiagonalReport(
        g=g,
        witness=tuple(witness),
        kernel_dimension=int(kernel_dim),
        expected_kernel_dimension=2 * g - 1,
        per_triple_pass=per_triple,
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

    def to_dict(self):
        return {
            "label": self.label,
            "measured": [self.measured.real, self.measured.imag],
            "expected": [self.expected.real, self.expected.imag],
            "rel_tol": self.rel_tol,
            "pass": self.passed,
        }


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

    def to_dict(self):
        return {
            "label": self.label,
            "slope_reports": [r.to_dict() for r in self.slope_reports],
            "coefficient_checks": [c.to_dict() for c in self.coefficient_checks],
            "pass": self.passed,
        }


def _slice_y_tau(t, weights, eps):
    """Period matrix on the slice {tau_jk = 0 for 4 <= j < k,
    tau_1j = tau_2j = tau_3j for j >= 4}, with the free off-diagonal
    coordinates (tau_12, tau_13, tau_23, tau_1j) set to weights * eps."""
    g = len(t)
    tau = np.diag(np.asarray(t, dtype=complex))
    w12, w13, w23 = weights[0], weights[1], weights[2]
    tau[0, 1] = tau[1, 0] = w12 * eps
    tau[0, 2] = tau[2, 0] = w13 * eps
    tau[1, 2] = tau[2, 1] = w23 * eps
    for j in range(4, g + 1):
        v = weights[j - 1] * eps
        for a in (1, 2, 3):
            tau[a - 1, j - 1] = tau[j - 1, a - 1] = v
    return PeriodMatrix(tau)


def gradient_locus_check(g, t, rng, rel_tol=0.05, theta_tol=DEFAULT_TOL,
                         ladder=None):
    """On the slice Y for the normal-form odd characteristic with three
    leading (1,1) columns: (a) the displayed expansion of the z_1
    derivative holds with residual slope >= 3, and (b) for each j >= 4 the
    combination

        d_{z_j}theta - phi_j * u * tau_1j * (d_{z_1}+d_{z_2}+d_{z_3}) theta

    (u = 1/(2 pi i)) vanishes to order 3 along the ray with leading
    coefficient prod(f) * u^3 * (psi_j - 2 phi_j^2) * tau_1j^3."""
    if not 4 <= g <= 5:
        raise ValueError("need 4 <= g <= 5")
    m = normal_form(3, g)
    fs, phis, psis = bind_symbols(t, 3, tol=theta_tol)
    prod_f = np.prod(fs)
    if ladder is None:
        ladder = default_ladder()
    weights = _random_weights(rng, g)
    grads = {}
    for eps in ladder:
        tau = _slice_y_tau(t, weights, eps)
        grads[eps] = (gradient(m, tau, tol=theta_tol), tau)
    reports = []
    coeffs = []
    # (a) residual of the z_1 expansion model
    residuals = []
    for eps in ladder:
        grad, tau = grads[eps]
        e = tau.entries
        model = prod_f * (
            U * e[1, 2]
            + U**2 * phis[0] * e[0, 1] * e[0, 2]
            + U**2 * sum(phis[j - 1] * e[0, j - 1] ** 2 for j in range(4, g + 1))
        )
        residuals.append(abs(grad[0] - model))
    # the residual's higher-order terms carry large constants; fit its
    # slope on the asymptotic tail of the ladder
    reports.append(
        fit_slope(ladder[-4:], residuals[-4:], target_order=3,
                  comparison="at_least")
    )
    # (b) the decisive combination for each j >= 4
    for j in range(4, g + 1):
        combo_values = []
        for eps in ladder:
            grad, tau = grads[eps]
            t1j = tau.entries[0, j - 1]
            combo = grad[j - 1] - phis[j - 1] * U * t1j * (grad[0] + grad[1] + grad[2])
            combo_values.append(combo)
        reports.append(
            fit_slope(ladder, [abs(v) for v in combo_values], target_order=3,
                      comparison="equal")
        )
        eps = ladder[-1]
        t1j = grads[eps][1].entries[0, j - 1]
        measured = combo_values[-1] / (prod_f * U**3 * t1j**3)
        coeffs.append(
            CoefficientCheck(
                "psi_%d - 2 phi_%d^2" % (j, j),
                complex(measured),
                complex(psis[j - 1] - 2 * phis[j - 1] ** 2),
                rel_tol,
            )
        )
    return SliceCheckResult("gradient_locus_slice", tuple(reports), tuple(coeffs))


def _random_weights(rng, g):
    """Unit-magnitude complex weights for the slice coordinates."""
    phases = rng.uniform(0, 2 * np.pi, size=g)
    radii = rng.uniform(0.5, 1.0, size=g)
    return radii * np.exp(1j * phases)


# ---------------------------------------------------------------------------
# Hessian minor identities (l = 2)


def _slice_z_tau(t, weights, eps, tau12):
    """Period matrix on the slice {tau_jk = 0 for 3 <= j < k,
    tau_1j = tau_2j for 3 <= j}, with tau_1j = weights[j-1] * eps and the
    given tau_12."""
    g = len(t)
    tau = np.diag(np.asarray(t, dtype=complex))
    tau[0, 1] = tau[1, 0] = tau12
    for j in range(3, g + 1):
        v = weights[j - 1] * eps
        tau[0, j - 1] = tau[j - 1, 0] = v
        tau[1, j - 1] = tau[j - 1, 1] = v
    return PeriodMatrix(tau)


def impose_thetanull(m, t, weights, eps, phis, theta_tol=DEFAULT_TOL,
                     max_iter=40):
    """Solve theta_m = 0 for tau_12 on the slice Z by Newton iteration, seeded
    from the expansion's leading term; d theta_m/d tau_12 = U d_z1 d_z2 theta_m."""
    tau12 = -U * sum(
        phis[j - 1] * (weights[j - 1] * eps) ** 2 for j in range(3, len(t) + 1)
    )
    jet = [(0,) * m.g, (1, 1) + (0,) * (m.g - 2)]  # theta_m, d_z1 d_z2 theta_m
    for _ in range(max_iter):
        tau = _slice_z_tau(t, weights, eps, tau12)
        value, second = eval_theta_many(m, tau, jet, tol=theta_tol)
        if abs(value) < 1e-13:
            return tau
        tau12 = tau12 - value / (U * second)
    raise ValueError("theta-null imposition did not converge")


def _normalized_tau_gradient(m, tau, prod_f, theta_tol):
    """The tau-derivative matrix scaled by 2 pi i / prod(f): equivalently
    the z-Hessian with halved diagonal, normalized so the (1,2) entry is
    1 + O(eps^2) at the diagonal."""
    return tau_gradient(m, tau, tol=theta_tol) * (2j * np.pi) / prod_f


MINOR_CHECKS = ("D123", "D12jj", "D12jk")


def minor_identity_check(g, t, which, rng, rel_tol=0.05, theta_tol=1e-13,
                         ladder=None):
    """Compare Hessian minor determinants along the theta-null slice Z
    against their leading formulas.

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
    fs, phis, psis = bind_symbols(t, 2, tol=theta_tol)
    prod_f = np.prod(fs)
    weights = _random_weights(rng, g)
    if ladder is None:
        # the D12jk finite difference needs signal above the determinant's
        # floating-point floor, so its ladder stays at larger epsilon
        ladder = (
            [2.0**-k for k in range(4, 8)] if which == "D12jk" else default_ladder()
        )
    reports = []
    coeffs = []
    if which in ("D123", "D12jj"):
        # one theta-null solve per ladder point; every principal minor with
        # rows/cols (1,2,j) (D123) or (1,2,3,j) (D12jj) is read from it
        lead = [0, 1] if which == "D123" else [0, 1, 2]
        js = range(len(lead) + 1, g + 1)
        minors = {j: [] for j in js}
        for eps in ladder:
            tau = impose_thetanull(m, t, weights, eps, phis, theta_tol)
            M = _normalized_tau_gradient(m, tau, prod_f, theta_tol)
            for j in js:
                idx = lead + [j - 1]
                minors[j].append(np.linalg.det(M[np.ix_(idx, idx)]))
        eps = ladder[-1]
        for j in js:
            values = minors[j]
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
                                           complex(expected), rel_tol))
    else:  # D12jk
        # The tau_jk-dependence of the minor with rows (1,2,3,j) and
        # columns (1,2,3,k), expanded along the last row, enters through
        # the bracket [j,k,1,2] of the (j,k) entry, whose tau_jk
        # coefficient is u^2 tau_12; with the theta-null value of tau_12
        # this contribution is phi_j phi_k u^2 tau_12 * D123, of order 4.
        #
        # Note: this is the dependence through the leading bracket only.
        # The next-order bracket [3,3,j,k,1,2] of the same entry carries
        # the compensating tau_jk-coefficient phi_3 u^3 tau_13 tau_23, so
        # the *total* tau_jk-derivative of the determinant at the
        # theta-null point is proportional to the vanishing null residual
        # and is of higher order; the module verifies the stated route.
        bound = (fs, phis, psis)
        for j in range(4, g + 1):
            for k in range(j + 1, g + 1):
                pol = bracket([j, k, 1, 2], g)
                derivs = []
                expected_vals = []
                for eps in ladder:
                    # in the paper's regime the principal-minor equations
                    # force tau_1j = O(eps^2) for j >= 4
                    wq = weights.copy()
                    wq[3:] *= eps
                    tau = impose_thetanull(m, t, wq, eps, phis, theta_tol)
                    M = _normalized_tau_gradient(m, tau, prod_f, theta_tol)
                    d123 = np.linalg.det(M[:3, :3])
                    h = 1e-3 * eps
                    vals = []
                    for sgn in (1.0, -1.0):
                        off = offdiag_of(tau.entries)
                        off[(j, k)] = off.get((j, k), 0j) + sgn * h
                        vals.append(evaluate(pol, t, off, 2, bound=bound))
                    db = (vals[0] - vals[1]) / (2 * h)
                    derivs.append(phis[j - 1] * phis[k - 1] * db * d123)
                    tau13 = tau.entries[0, 2]
                    expected_vals.append(
                        -phis[j - 1] * phis[k - 1] * phis[2] * U**3 * tau13**2 * d123
                    )
                reports.append(fit_slope(ladder, [abs(v) for v in derivs],
                                         target_order=4, comparison="equal"))
                coeffs.append(
                    CoefficientCheck(
                        "dD_{%d%d}/dtau_%d%d (leading-bracket route) vs "
                        "-phi_%d phi_%d phi_3 u^3 tau_13^2 D123" % (j, k, j, k, j, k),
                        complex(derivs[-1]),
                        complex(expected_vals[-1]),
                        rel_tol,
                    )
                )
    return SliceCheckResult("minor_%s" % which, tuple(reports), tuple(coeffs))
