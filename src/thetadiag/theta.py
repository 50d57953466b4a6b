"""Certified numerical evaluation of theta functions with characteristics.

theta[eps;delta](tau, z) = sum over p in Z^g of
    exp(pi i [ (p+eps/2)^t tau (p+eps/2) + 2 (p+eps/2) . (z+delta/2) ])

With q = p + eps/2 and Y = Im tau, the sum runs over the points of
eps/2 + Z^g in the ellipsoid q^t Y q <= R^2 (Deconinck, Heil, Bobenko,
van Hoeij and Schmies, "Computing Riemann theta functions", Math. Comp.
2004), enumerated from the Cholesky factor of Y (Fincke-Pohst).  R is the
smallest whole number whose rigorous tail bound, aware of the derivative
order and of Im z, is below the requested tolerance (_ellipsoid_radius);
a sum needing more than MAX_POINTS points raises ValueError before they
are allocated.  One kernel, _jet, sums for every entry point, after
reducing Re z mod 2 (theta(z + 2n) = theta(z) for n in Z^g, exactly).
Its pass per eps serves every delta and derivative multi-index: the first
delta enters the exponent, each other one the phase
exp(pi i q . (delta - delta_0)), an exact quarter turn, and a multi-index
alpha the monomial q ** alpha, read off a table of powers.  One delta meets
the real monomials in two real products; several meet the phases after
the monomials in one complex product (an N x (D K) weight matrix is
slower).  z-derivatives are term-wise derivatives of the series, never
finite differences; tau derivatives come from the heat equation.
"""

from __future__ import annotations

import json
import math
from functools import cached_property

import numpy as np

from .chars import Characteristic

DEFAULT_TOL = 1e-10
MIN_TOL = 1e-14
# Largest lattice sum, in points: a g=5 Hessian near this size peaks at
# ~160 MB, while no test or benchmark job sums more than ~16,000.
MAX_POINTS = 200_000
MAX_NUMERIC_GENUS = 5
MAX_DERIV_ORDER = 4
_QUARTER_TURNS = np.array([1, 1j, -1, -1j])  # i ** k for k mod 4


class PeriodMatrix:
    """A g x g complex symmetric matrix with positive-definite imaginary part."""

    def __init__(self, entries):
        entries = np.array(entries, dtype=complex)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("entries must form a square matrix")
        if not np.isfinite(entries).all():
            raise ValueError("period matrix entries must be finite")
        if not (entries == entries.T).all():
            raise ValueError("period matrix must be symmetric")
        try:
            # Im tau = L L^t; the lattice enumeration walks the rows of L^t
            self._cholesky = np.linalg.cholesky(entries.imag)
        except np.linalg.LinAlgError:
            raise ValueError("imaginary part must be positive definite")
        entries.setflags(write=False)
        self.entries = entries

    @property
    def g(self):
        return self.entries.shape[0]

    def lambda_min(self):
        """Smallest eigenvalue of Im tau; controls the truncation radius."""
        return self._lambda_min

    @cached_property
    def _lambda_min(self):
        # the entries are write-protected, so one eigvalsh serves every pass
        return float(np.linalg.eigvalsh(self.entries.imag)[0])

    @staticmethod
    def diagonal(t):
        return PeriodMatrix(np.diag(np.asarray(t, dtype=complex)))

    def perturbed(self, direction, scale):
        """tau + scale * direction (direction a symmetric g x g array)."""
        direction = np.asarray(direction, dtype=complex)
        return PeriodMatrix(self.entries + scale * direction)

    def to_json(self):
        return {
            "g": self.g,
            "entries": [
                [[float(v.real), float(v.imag)] for v in row] for row in self.entries
            ],
        }

    @staticmethod
    def from_json(obj):
        """The inverse of to_json, from the object or its JSON text; ValueError
        unless it holds g and a g x g array of [re, im] number pairs."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        pairs = np.asarray(obj.get("entries") if isinstance(obj, dict) else None)
        if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3
                or pairs.shape[1:] != (pairs.shape[0], 2)):
            raise ValueError("entries must be a g x g array of [re, im] number pairs")
        if obj.get("g") != pairs.shape[0]:
            raise ValueError("declared g does not match entries shape")
        return PeriodMatrix(np.ascontiguousarray(pairs, dtype=float).view(complex)[..., 0])


def _ellipsoid_radius(tau, ynorm, order, tol):
    """The smallest whole-number radius R for which the terms of derivative
    order <= `order` outside the ellipsoid ||q|| < R sum to less than tol.

    Here ||q||^2 = q^t Y q with Y = Im tau, and ynorm = |Im z|.  Distinct
    points of eps/2 + Z^g are at least rho = sqrt(lambda_min(Y)) apart in
    this norm, so balls of radius rho/2 about them are disjoint and at most
    ((2r + rho)/rho)^g of them have ||q|| < r.  A point with ||q|| < r1 has
    |q| <= r1/rho, so its term, differentiated k <= order times, is at most
        (1 + 2 pi r1/rho)^order * exp(-pi ||q||^2 + 2 pi r1 ynorm/rho).
    The unit shell r0 <= ||q|| < r1 = r0 + 1 therefore contributes at most
        s(r0) = (1 + 2 r1/rho)^g (1 + 2 pi r1/rho)^order
                * exp(-pi r0^2 + 2 pi r1 ynorm/rho).
    log s is concave, so the ratio s(r0 + 1)/s(r0) never increases: once
    it is at most 1/2 the shells from R outward sum to at most 2 s(R).  R is
    certified when s(R + 1) <= s(R)/2 and 2 s(R) <= tol.  The certified
    radii form a half-line, found by doubling and then bisection.
    """
    g = tau.g
    rho = math.sqrt(tau.lambda_min())
    log_half_tol = math.log(tol / 2.0)

    def log_shell(r0):
        r1 = r0 + 1.0
        return (g * math.log1p(2.0 * r1 / rho)
                + order * math.log1p(2.0 * math.pi * r1 / rho)
                - math.pi * r0 * r0 + 2.0 * math.pi * r1 * ynorm / rho)

    def certified(r):
        s = log_shell(r)
        return log_shell(r + 1.0) <= s - math.log(2.0) and s <= log_half_tol

    lo, hi = 0, 1
    while not certified(hi):
        lo, hi = hi, 2 * hi
        if hi > 2**60:
            raise ValueError("tolerance %g unreachable (|Im z| = %g)" % (tol, ynorm))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _ellipsoid_points(tau, shift, radius):
    """The points q of shift + Z^g with q^t (Im tau) q <= radius^2, as rows.

    Fincke-Pohst, vectorised: with Im tau = U^t U (U upper triangular),
    q^t (Im tau) q = sum_i U_ii^2 (q_i - c_i)^2 where c_i depends only on
    q_{i+1}, ..., q_{g-1}.  The coordinates are fixed from the last one
    down; each layer extends every partial point by the whole interval of
    q_i that what is left of radius^2 allows.  A layer is counted before it
    is allocated, and ValueError is raised if it would exceed MAX_POINTS.
    """
    g = tau.g
    u = tau._cholesky.T
    q = np.zeros((1, g))
    # a hair beyond the radius, so rounding cannot drop a point inside it
    remaining = np.array([(radius + 1e-9) ** 2])
    for i in range(g - 1, -1, -1):
        center = -(q[:, i + 1:] @ u[i, i + 1:]) / u[i, i]
        half = np.sqrt(np.maximum(remaining, 0.0)) / u[i, i]
        # q_i = shift_i + n must lie in [center - half, center + half]
        first = np.ceil(center - half - shift[i])
        counts = np.maximum(np.floor(center + half - shift[i]) - first + 1.0, 0.0)
        total = counts.sum()
        if total > MAX_POINTS:
            raise ValueError(
                "theta sum needs %.3g lattice points at radius %d, above the "
                "budget of %d (near-degenerate Im tau or unreachable tolerance)"
                % (total, radius, MAX_POINTS))
        counts = counts.astype(np.intp)
        parent = np.arange(counts.size).repeat(counts)
        # child k of parent p is its (k - starts[p])-th point on the interval
        starts = np.cumsum(counts) - counts
        qi = (first - starts)[parent] + np.arange(int(total)) + shift[i]
        remaining = remaining[parent] - (u[i, i] * (qi - center[parent])) ** 2
        q = q[parent]
        q[:, i] = qi
    return q


def _phases(q, deltas):
    """exp(pi i q . delta) for rows q of eps/2 + Z^g and integer vectors delta,
    as N x K: 2q is a whole vector, so the phase is exactly i ** (2q . delta)."""
    return _QUARTER_TURNS[np.rint(2.0 * q @ deltas.T).astype(np.intp) & 3]


def _monomials(q, alphas):
    """q ** alpha for rows q and multi-indices alpha, as N x K, from a power
    table built by repeated multiplication; one K x N product per axis."""
    powers = np.empty((int(alphas.max(initial=0)) + 1,) + q.T.shape)
    powers[0] = 1.0
    for k in range(1, len(powers)):
        powers[k] = powers[k - 1] * q.T
    product = powers[:, 0][alphas[:, 0]]
    for a in range(1, q.shape[1]):
        product *= powers[:, a][alphas[:, a]]
    return product.T


def _jet(tau, chars, multi_indices, z, tol, max_order):
    """d^alpha theta_m(tau, z) for each m of chars (rows) and alpha of
    multi_indices (columns), absolute error below tol: one validation, one
    radius, and per distinct eps one point set and one exponential."""
    g = tau.g
    if any(m.g != g for m in chars):
        raise ValueError("genus mismatch")
    if g > MAX_NUMERIC_GENUS:
        raise ValueError("numeric genus cap exceeded: g=%d > %d" % (g, MAX_NUMERIC_GENUS))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive: %r" % tol)
    if tol < MIN_TOL:
        raise ValueError("tolerance below achievable precision: %g" % tol)
    alphas = [tuple(int(k) for k in alpha) for alpha in multi_indices]
    for alpha in alphas:
        if len(alpha) != g or min(alpha) < 0 or sum(alpha) > max_order:
            raise ValueError("bad derivative multi-index %r: need %d entries >= 0 "
                             "of total order <= %d" % (alpha, g, max_order))
    alphas = np.array(alphas, dtype=int).reshape(len(alphas), g)
    z = np.zeros(g) if z is None else np.asarray(z, dtype=complex)
    if z.shape != (g,):
        raise ValueError("z must have length g")
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    # theta(z + 2n) = theta(z) for n in Z^g, and so is every z-derivative:
    # an exact reduction to |Re z| <= 1 that leaves no sign to track
    z = z - 2.0 * np.rint(z.real / 2.0)
    orders = alphas.sum(axis=1)
    radius = _ellipsoid_radius(tau, math.hypot(*z.imag), int(orders.max(initial=0)), tol)
    rows_by_eps = {}
    for row, m in enumerate(chars):
        rows_by_eps.setdefault(m.eps, []).append(row)
    values = np.empty((len(chars), len(alphas)), dtype=complex)
    for eps, rows in rows_by_eps.items():
        deltas = np.array([chars[row].delta for row in rows], dtype=float)
        q = _ellipsoid_points(tau, np.asarray(eps, dtype=float) / 2.0, radius)
        # q is real: two real quadratic forms, not a complex N x g product
        quad = (np.einsum("ij,ij->i", q @ tau.entries.real, q)
                + 1j * np.einsum("ij,ij->i", q @ tau.entries.imag, q))
        terms = np.exp(np.pi * 1j * (quad + 2.0 * (q @ (z + deltas[0] / 2.0))))
        monomials = _monomials(q, alphas)
        if len(rows) == 1:
            # two real products, not a complex copy of the monomials
            sums = (terms.real @ monomials + 1j * (terms.imag @ monomials))[None]
        else:
            sums = ((terms[:, None] * monomials).T @ _phases(q, deltas - deltas[0])).T
        values[rows] = sums * (2j * np.pi) ** orders
    return values


def eval_theta(m, tau, z=None, deriv=None, tol=DEFAULT_TOL, max_order=MAX_DERIV_ORDER):
    """theta_m(tau, z), or its z-derivative for the multi-index `deriv`.

    Absolute error is below tol.  max_order caps the total derivative
    order (default 4; the genus-1 helpers raise it to 5 internally).
    """
    deriv = (0,) * tau.g if deriv is None else deriv
    return complex(_jet(tau, [m], [deriv], z, tol, max_order)[0, 0])


def eval_theta_many(m, tau, multi_indices, z=None, tol=DEFAULT_TOL,
                    max_order=MAX_DERIV_ORDER):
    """Several z-derivatives of theta_m in a single lattice pass."""
    return _jet(tau, [m], multi_indices, z, tol, max_order)[0].tolist()


def theta_constants_batch(tau, characteristics, tol=DEFAULT_TOL):
    """Theta constants for many characteristics, one lattice pass per eps,
    as a mapping from characteristic to value."""
    characteristics = list(characteristics)
    values = _jet(tau, characteristics, [(0,) * tau.g], None, tol, 0)
    return dict(zip(characteristics, values[:, 0].tolist()))


def _unit(g, a, b=None):
    alpha = [0] * g
    alpha[a] += 1
    if b is not None:
        alpha[b] += 1
    return tuple(alpha)


def gradient(m, tau, tol=DEFAULT_TOL):
    """The z-gradient of theta_m at z=0 (identically zero for even m)."""
    vals = eval_theta_many(m, tau, [_unit(m.g, a) for a in range(m.g)], tol=tol)
    return np.array(vals)


def _second_order(g):
    """The multi-indices of the z-Hessian's upper triangle, row by row."""
    return [_unit(g, a, b) for a in range(g) for b in range(a, g)]


def _symmetric(g, upper):
    """The symmetric g x g matrix with the given upper triangle, row by row."""
    h = np.zeros((g, g), dtype=complex)
    for (a, b), v in zip(((a, b) for a in range(g) for b in range(a, g)), upper):
        h[a, b] = h[b, a] = v
    return h


def hessian(m, tau, tol=DEFAULT_TOL):
    """The symmetric z-Hessian of theta_m at z=0."""
    return _symmetric(m.g, eval_theta_many(m, tau, _second_order(m.g), tol=tol))


def _value_and_hessian(m, tau, tol=DEFAULT_TOL):
    """theta_m and its z-Hessian at z=0 from one lattice pass (the value is
    summed to the Hessian's radius)."""
    g = m.g
    value, *second = eval_theta_many(m, tau, [(0,) * g] + _second_order(g), tol=tol)
    return value, _symmetric(g, second)


def tau_derivative(m, tau, pair, tol=DEFAULT_TOL):
    """d theta_m / d tau_{jk} at z=0 via the heat equation:
    (1/4pii) d^2_{z_j} for j=k, (1/2pii) d_{z_j} d_{z_k} for j != k.
    The pair is 1-based."""
    j, k = pair
    second = eval_theta(m, tau, deriv=_unit(m.g, j - 1, k - 1), tol=tol)
    if j == k:
        return second / (4j * np.pi)
    return second / (2j * np.pi)


def tau_gradient(m, tau, tol=DEFAULT_TOL):
    """All d theta_m / d tau_{jk}, j <= k, as a symmetric g x g array: the
    z-Hessian rescaled by the heat equation (see tau_derivative)."""
    diagonal = np.eye(m.g, dtype=bool)
    return hessian(m, tau, tol=tol) / np.where(diagonal, 4j * np.pi, 2j * np.pi)


def numerical_rank(matrix, rel_tol=1e-7):
    """Number of singular values above rel_tol times the largest one."""
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > rel_tol * sv[0]))


# ---------------------------------------------------------------------------
# genus-1 building blocks for the expansion conventions


_ODD1 = Characteristic((1,), (1,))
_EVEN1 = Characteristic((0,), (0,))


def genus1_derivatives(m1, t, orders, tol=DEFAULT_TOL):
    """d^k/dz^k theta_{m1}(t, 0) for each k in orders (genus 1; k up to 5)."""
    tau = PeriodMatrix([[t]])
    return eval_theta_many(m1, tau, [(k,) for k in orders], tol=tol, max_order=5)


def f_phi_psi(t, odd, tol=DEFAULT_TOL):
    """The triple (f, phi, psi) at the genus-1 point t.

    For an odd column f = theta'[1;1](t), phi = theta'''/theta',
    psi = theta''''' / theta' - phi^2; for an even column f = theta[0;0](t),
    phi = theta''/theta, psi = theta''''/theta - phi^2.
    """
    if odd:
        d1, d3, d5 = genus1_derivatives(_ODD1, t, (1, 3, 5), tol=tol)
        f, phi = d1, d3 / d1
        return f, phi, d5 / d1 - phi**2
    d0, d2, d4 = genus1_derivatives(_EVEN1, t, (0, 2, 4), tol=tol)
    f, phi = d0, d2 / d0
    return f, phi, d4 / d0 - phi**2


GENERICITY_FLOOR = 1e-3


def sample_generic_diagonal(g, l, rng, tol=DEFAULT_TOL, max_tries=200):
    """Diagonal entries t_1..t_g with Im t in [0.8, 2.0], Re t in [-0.5, 0.5],
    redrawn per coordinate until |psi - 2 phi^2| and |4 phi^2 - psi| are
    both above GENERICITY_FLOOR (columns 1..l are odd, the rest even)."""
    t = np.zeros(g, dtype=complex)
    for a in range(g):
        odd = a < l
        for _ in range(max_tries):
            cand = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            _, phi, psi = f_phi_psi(cand, odd, tol=tol)
            if (
                abs(psi - 2 * phi**2) > GENERICITY_FLOOR
                and abs(4 * phi**2 - psi) > GENERICITY_FLOOR
            ):
                t[a] = cand
                break
        else:
            raise ValueError("failed to draw a generic diagonal coordinate")
    return t
