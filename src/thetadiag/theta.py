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
are allocated.  One kernel, _jet, sums for every entry point: a stack of
(tau, m, z) items of one genus, each with its own sum, after reducing
Re z mod 2 (theta(z + 2n) = theta(z) for n in Z^g, exactly).  The items
sharing tau, eps and z form a group, and one vectorised enumeration
serves many groups, in passes of about PASS_ROWS rows, each summed group
by group (_pass_sums, _group_sums).  A group sums one
point of each pair +-q; the term of -q is that of q with z and delta
negated, times (-1) ** |alpha| (at z = 0 just (-1) ** (eps . delta + |alpha|)).
The first delta enters the exponent, each other one is read off 2^g bins
of n = q - eps/2 mod 2 through the exact phase i ** (eps . delta)
(-1) ** (n . delta), and a multi-index alpha through a table of powers.
z-derivatives are term-wise derivatives of the series; tau derivatives
come from the heat equation, in tau_jet.
"""

from __future__ import annotations

import json
import math
from functools import cached_property, lru_cache
from itertools import accumulate

import numpy as np

from .chars import Characteristic, scalar_class

DEFAULT_TOL = 1e-10
MIN_TOL = 1e-14
# Largest lattice sum, in points: a g=5 Hessian near this size peaks at
# ~22 MB traced, while no test or benchmark job sums more than ~16,000.
MAX_POINTS = 200_000
MAX_NUMERIC_GENUS = 5
MAX_DERIV_ORDER = 4  # eval_theta and eval_theta_many; the genus-1 series go to 5
RANK_REL_TOL = 1e-7  # numerical_rank, relative to the largest singular value
# Rows of one lattice pass: _jet enumerates the groups of a stack together,
# cut into passes of about this many rows.  A trade-off, measured: at 3,072
# rows the ~1,200-row eps groups of a genus-5 even batch pair up and the
# batch takes 0.85x the time (2,048 rows pairs none of them), while
# report-all --g 4's main process peaks 0.28 MB above the parent's (0.12 MB
# at 1,024 rows) from its stacked spot checks.
PASS_ROWS = 3072
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
        if entries.shape == (1, 1):
            # genus 1: L and the eigenvalue are sqrt(Im t) and Im t, bit for
            # bit what LAPACK returns, without its call overhead
            if not entries[0, 0].imag > 0:
                raise ValueError("imaginary part must be positive definite")
            self._cholesky = np.sqrt(entries.imag)
            self._lambda_min = float(entries[0, 0].imag)
        else:
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
        unless it holds an int g and a g x g array of [re, im] number pairs."""
        if isinstance(obj, str):
            obj = json.loads(obj)
        pairs = np.asarray(obj.get("entries") if isinstance(obj, dict) else None)
        if (pairs.dtype.kind not in "iuf" or pairs.ndim != 3
                or pairs.shape[1:] != (pairs.shape[0], 2)):
            raise ValueError("entries must be a g x g array of [re, im] number pairs")
        if type(obj.get("g")) is not int:  # true and 1.0 equal 1, but are no genus
            raise ValueError("declared g must be an integer, not %r" % (obj.get("g"),))
        if obj["g"] != pairs.shape[0]:
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
    radii form a half-line, found by doubling from a lower bound and then
    bisection.
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

    # no radius below sqrt(-log(tol/2) / pi) is certified: every other term of
    # log s is >= 0
    hi = max(1, math.ceil(math.sqrt(max(-log_half_tol, 0.0) / math.pi)))
    lo = hi - 1
    while not certified(hi):
        lo, hi = hi, 2 * hi
        if hi > 2**60:
            raise ValueError("tolerance %g unreachable (|Im z| = %g)" % (tol, ynorm))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if certified(mid) else (mid, hi)
    return hi


def _ellipsoid_points(factors, epses, radii):
    """(rows, bounds, zeros) for groups k = 0..G-1: the points q of
    epses[k]/2 + Z^g (each eps a g-tuple of 0s and 1s) with
    q^t Y_k q <= radii[k]^2, one of each pair +-q (the one whose last
    nonzero coordinate is positive), where Y_k = U^t U for the upper
    triangular U = factors[k] (factors[0] for every group when it holds
    one).  Group k holds the rows bounds[k]:bounds[k + 1], and zeros[k] is
    its row of q = 0, or None.

    Fincke-Pohst, vectorised over the rows of every group: with Y = U^t U,
    q^t Y q = sum_i U_ii^2 (q_i - c_i)^2 where c_i depends only on
    q_{i+1}, ..., q_{g-1}.  The coordinates are fixed from the last one
    down; each layer extends every partial point by the whole interval of
    q_i that what is left of its radius^2 allows, each row reading its
    group's U entries and shift (q_i >= 0 for a group's partial point whose
    coordinates so far are all 0: its centre is 0); negation mirrors each
    interval exactly in floating point, so the rows and their negatives are
    the whole ellipsoid.  A layer in which a group's points (two per row,
    one for q = 0) exceed MAX_POINTS raises ValueError before it is
    allocated.
    """
    count, g = len(epses), len(epses[0])
    shared = len(factors) == 1
    shifts = np.multiply(epses, 0.5).T  # shifts[i][k]: coordinate i of group k's eps/2
    q = np.zeros((count, g))
    group = np.arange(count)  # the group of each row; rows stay sorted by group
    at = 0 if shared else group  # the row of factors that each row reads
    zeros = [(k, k) for k in range(count)]  # (group, its row whose coordinates so far are 0)
    # a hair beyond the radius, so rounding cannot drop a point inside it
    remaining = np.array([(radius + 1e-9) ** 2 for radius in radii])
    center = np.zeros(count)
    for i in range(g - 1, -1, -1):
        half = np.sqrt(np.maximum(remaining, 0.0)) / factors[at, i, i]
        # n = q_i - shift_i must lie in [low - half, low + half]
        shift = shifts[i][group]
        low = center - shift
        first = np.ceil(low - half)
        for _, row in zeros:
            first[row] = 0.0  # centre 0: keep q_i >= 0
        # checked as floats: a near-degenerate Im tau gives counts past intp
        counts = np.maximum(np.floor(low + half) - first + 1.0, 0.0)
        if 2 * counts.sum() > MAX_POINTS:
            points = 2 * np.bincount(group, counts, count)
            points[[k for k, _ in zeros if not epses[k][i]]] -= 1
            k = int(np.argmax(points))
            if points[k] > MAX_POINTS:
                raise ValueError(
                    "theta sum needs %.3g lattice points at radius %d, above the "
                    "budget of %d (near-degenerate Im tau or unreachable tolerance)"
                    % (points[k], radii[k], MAX_POINTS))
        counts = counts.astype(np.intp)
        # child k of parent p is its (k - starts[p])-th point on the interval
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        starts = ends - counts
        # an all-0 row's first child is q_i = 0 when shift_i = 0
        zeros = [(k, int(starts[row])) for k, row in zeros if not epses[k][i]]
        parent = np.arange(counts.size).repeat(counts)
        qi = (first - starts + shift)[parent] + np.arange(total)
        q = q[parent]
        q[:, i] = qi
        group = group[parent]
        if i:  # what is left of radius^2, and the centres, one layer down
            at = 0 if shared else group
            remaining = remaining[parent] - (factors[at, i, i] * (qi - center[parent])) ** 2
            u = factors[at, i - 1]
            # one U: a matrix-vector product (a per-row gather and einsum
            # made a lone eval_theta up to 9% slower at g = 3, 4)
            dots = q[:, i:] @ u[i:] if shared else np.einsum("ij,ij->i", q[:, i:], u[:, i:])
            center = -dots / u[..., i - 1]
    zero_rows = [None] * count
    for k, row in zeros:
        zero_rows[k] = row
    return q, np.searchsorted(group, np.arange(count + 1)).tolist(), zero_rows


def _parity_phases(q, eps, deltas):
    """(bins, walsh) with walsh[:, bins] = exp(pi i q . delta), exactly, for
    rows q = eps/2 + n and integer rows delta: i ** (eps . delta) (-1) ** (n . delta),
    with bins = n mod 2 as a g-bit number and walsh D x 2^g (Walsh-Hadamard)."""
    g, eps = q.shape[1], np.asarray(eps)
    bins = (np.rint(q - eps / 2.0).astype(np.intp) & 1) @ (1 << np.arange(g))
    bits = (np.arange(2**g) >> np.arange(g)[:, None]) & 1  # g x 2^g, per bin
    return bins, _QUARTER_TURNS[(deltas @ eps) & 3][:, None] * (1 - 2 * (deltas @ bits & 1))


def _monomials(q, alphas):
    """q ** alpha for rows q and the K multi-indices alpha, as N x K: row by
    row, in place, the product over the axes a with alpha_a >= 1 of
    q_a ** alpha_a."""
    top = max(map(max, alphas), default=0)
    powers = list(accumulate([q.T] * top, np.multiply))  # q, q * q, ... up to q ** top
    product = np.ones((len(alphas), len(q)))
    for row, alpha in zip(product, alphas):
        for a, k in enumerate(alpha):
            if k:
                row *= powers[k - 1][a]
    return product.T


def _jet(items, multi_indices, tol, max_order):
    """d^alpha theta_m(tau, z) for each item (tau, m, z) of a stack (rows; z
    None for 0) and each alpha of multi_indices (columns), absolute error
    below tol, from one validation.

    The items that share tau, eps and z form a group: one radius per tau and
    |Im z|, one set of pairs +-q and one exponential per group (two away
    from z = 0), the group's first delta in the exponent and every other one
    read off its parity bins.  The groups are enumerated together, in passes
    of about PASS_ROWS rows by the volume of their ellipsoids (a larger
    group is a pass of its own)."""
    if not items:
        return np.zeros((0, len(multi_indices)), dtype=complex)
    g = items[0][0].g
    if g > MAX_NUMERIC_GENUS:
        raise ValueError("numeric genus cap exceeded: g=%d > %d" % (g, MAX_NUMERIC_GENUS))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive: %r" % tol)
    if tol < MIN_TOL:
        raise ValueError("tolerance below achievable precision: %g" % tol)
    alphas = [tuple(map(int, alpha)) for alpha in multi_indices]
    orders = [sum(alpha) for alpha in alphas]
    for alpha, order in zip(alphas, orders):
        if len(alpha) != g or min(alpha) < 0 or order > max_order:
            raise ValueError("bad derivative multi-index %r: need %d entries >= 0 "
                             "of total order <= %d" % (alpha, g, max_order))
    top = max(orders, default=0)
    orders = np.array(orders, dtype=int)
    groups = {}  # (tau, eps, z) -> (tau, eps, z, rows)
    deltas, signs = [], []  # each item's delta, and (-1) ** (eps . delta)
    for row, (tau, m, z) in enumerate(items):
        if m.g != g:
            raise ValueError("genus mismatch")
        if z is not None:
            z = np.asarray(z, dtype=complex)
            if z.shape != (g,):
                raise ValueError("z must have length g")
            if not np.isfinite(z).all():
                raise ValueError("z must be finite")
            # theta(z + 2n) = theta(z) for n in Z^g, and so is every
            # z-derivative: an exact reduction that leaves no sign to track
            z = z - 2.0 * np.rint(z.real / 2.0)
        key = (id(tau), m.eps, None if z is None else z.tobytes())
        group = groups.get(key)
        if group is None:
            if tau.g != g:
                raise ValueError("genus mismatch")
            group = groups[key] = (tau, m.eps, z, [])
        group[3].append(row)
        deltas.append(m.delta)
        signs.append((-1) ** scalar_class(m))
    # a group's rows, one per pair +-q, are about half the volume of its
    # ellipsoid: half that of the unit ball, times radius^g / sqrt(det Im tau)
    half_ball = math.pi ** (g / 2) / math.gamma(g / 2 + 1) / 2
    radii, passes, size = {}, [[]], 0.0
    for tau, eps, z, rows in groups.values():
        ynorm = 0.0 if z is None else math.hypot(*z.imag)
        if (id(tau), ynorm) not in radii:
            radii[id(tau), ynorm] = _ellipsoid_radius(tau, ynorm, top, tol)
        radius = radii[id(tau), ynorm]
        root_det = math.prod(tau._cholesky.diagonal().tolist())  # 0.0 once it underflows
        volume = half_ball * radius**g / root_det if root_det else math.inf
        if passes[-1] and size + volume > PASS_ROWS:
            passes.append([])
            size = 0.0
        size += volume
        passes[-1].append((tau, eps, z, rows, radius))
    # the sums over the rows q and, away from z = 0, over their pairs -q
    sums = np.empty((2, len(items), len(alphas)), dtype=complex)
    two_sided = []
    for chunk in passes:
        for (*_, rows, _), sides in zip(chunk, _pass_sums(chunk, alphas, deltas)):
            for out, side in zip(sums, sides):
                out[rows] = side
            if len(sides) > 1:
                two_sided += rows
    # at z = 0 the -q terms are the q terms times (-1) ** (eps . delta)
    plus = sums[0]
    minus = plus * np.array(signs)[:, None]
    if two_sided:
        minus[two_sided] = sums[1][two_sided]
    return (plus + (-1) ** orders * minus) * (2j * np.pi) ** orders


def _pass_sums(chunk, alphas, deltas):
    """The sums of _group_sums for each group (tau, eps, z, rows, radius) of
    one lattice pass (deltas[row] is the delta of item row).  Nothing of a
    pass but these sums outlives it, and nothing of a group but its sums."""
    taus = [tau for tau, *_ in chunk]
    if all(tau is taus[0] for tau in taus):
        taus = taus[:1]  # one tau: _ellipsoid_points reads its U as scalars
    q, bounds, zeros = _ellipsoid_points(np.array([tau._cholesky.T for tau in taus]),
                                         [eps for _, eps, *_ in chunk],
                                         [radius for *_, radius in chunk])
    return [_group_sums(q[start:stop], None if zero is None else zero - start, tau, eps, z,
                        np.array([deltas[row] for row in rows]), alphas)
            for (tau, eps, z, rows, _), start, stop, zero in zip(chunk, bounds, bounds[1:], zeros)]


def _group_sums(q, zero, tau, eps, z, deltas, alphas):
    """For the rows q of one (tau, eps, z) group (zero the row of q = 0, or
    None), the D x K array of sums over q of q ** alpha exp(pi i [q^t tau q +
    2 q . (z + delta/2)]) for its D deltas, and away from z = 0 the same
    sums with z and delta negated (the terms of the pairs -q, up to sign):
    a list of one or two such arrays."""
    powers = _monomials(q, alphas)
    # q is real: two real quadratic forms, not a complex N x g product
    quad = (np.einsum("ij,ij->i", q @ tau.entries.real, q)
            + 1j * np.einsum("ij,ij->i", q @ tau.entries.imag, q))
    # the first delta enters the exponent; every other one is read off
    # 2^g bins of n mod 2 with the phase exp(pi i q . (delta - delta_0))
    lin = q @ (deltas[0] if z is None else 2.0 * z + deltas[0])
    if len(deltas) > 1:
        bins, walsh = _parity_phases(q, eps, deltas - deltas[0])
    sides = []
    for negated in (False, True)[:1 + (z is not None and bool(z.any()))]:
        terms = np.exp(np.pi * 1j * (quad - lin if negated else quad + lin))
        if zero is not None:
            terms[zero] = 0.5  # q = 0 is its own pair
        if len(deltas) == 1:
            # two real products, not a complex copy of the monomials
            sides.append((terms.real @ powers + 1j * (terms.imag @ powers))[None])
            continue
        binned = np.array([np.bincount(bins, terms.real * col, walsh.shape[1])
                           + 1j * np.bincount(bins, terms.imag * col, walsh.shape[1])
                           for col in powers.T])
        sides.append((walsh.conj() if negated else walsh) @ binned.T)
    return sides


def eval_theta(m, tau, z=None, deriv=None, tol=DEFAULT_TOL):
    """theta_m(tau, z), or its z-derivative for the multi-index `deriv` of
    total order at most MAX_DERIV_ORDER; absolute error below tol."""
    deriv = (0,) * tau.g if deriv is None else deriv
    return complex(_jet([(tau, m, z)], [deriv], tol, MAX_DERIV_ORDER)[0, 0])


def eval_theta_many(m, tau, multi_indices, z=None, tol=DEFAULT_TOL):
    """Several z-derivatives of theta_m in a single lattice pass."""
    return _jet([(tau, m, z)], multi_indices, tol, MAX_DERIV_ORDER)[0].tolist()


def eval_theta_stack(items, tol):
    """theta_m(tau, z) for each (tau, m, z) of items (z None for 0): one
    kernel call per genus among them, whose lattice passes each enumerate
    many (tau, eps, z) groups at once."""
    items, values = list(items), {}
    for g in {tau.g for tau, _, _ in items}:
        rows = [row for row, (tau, _, _) in enumerate(items) if tau.g == g]
        values.update(zip(rows, _jet([items[row] for row in rows], [(0,) * g], tol, 0)[:, 0]))
    return [complex(values[row]) for row in range(len(items))]


def theta_constants_batch(tau, characteristics, tol=DEFAULT_TOL):
    """Theta constants for many characteristics, as a mapping from each to
    its value: one pass over the +-q pairs of a few eps at a time, every
    delta read off the 2^g parity bins of its eps."""
    characteristics = list(characteristics)
    values = _jet([(tau, m, None) for m in characteristics], [(0,) * tau.g], tol, 0)
    return dict(zip(characteristics, values[:, 0].tolist()))


def _unit(g, a, b=None):
    return tuple((c == a) + (c == b) for c in range(g))


def gradient(m, tau, tol=DEFAULT_TOL):
    """The z-gradient of theta_m at z=0 (identically zero for even m)."""
    return np.array(eval_theta_many(m, tau, [_unit(m.g, a) for a in range(m.g)], tol=tol))


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


def tau_jet(tau, chars, tol=DEFAULT_TOL):
    """(values, gradients): theta_m at z=0 for each m of chars and its
    tau-gradient as a symmetric g x g array, from one lattice pass per eps.
    The heat equation gives d theta / d tau_jk = c_jk d_{z_j} d_{z_k} theta,
    c = 1/(4pii) for j=k and 1/(2pii) for the one coordinate tau_jk = tau_kj."""
    g = tau.g
    jet = _jet([(tau, m, None) for m in chars], [(0,) * g] + _second_order(g), tol, 2)
    heat = np.where(np.eye(g, dtype=bool), 4j * np.pi, 2j * np.pi)
    return jet[:, 0], np.array([_symmetric(g, row) for row in jet[:, 1:]]) / heat


def tau_gradient(m, tau, tol=DEFAULT_TOL):
    """All d theta_m / d tau_jk at z=0, as a symmetric g x g array (tau_jet)."""
    return tau_jet(tau, [m], tol)[1][0]


def numerical_rank(matrix):
    """Number of singular values above RANK_REL_TOL times the largest one."""
    matrix = np.asarray(matrix, dtype=complex)
    if not np.isfinite(matrix).all():
        raise ValueError("matrix has non-finite entries")
    sv = np.linalg.svd(matrix, compute_uv=False)
    if sv.size == 0 or sv[0] == 0.0:
        return 0
    return int(np.sum(sv > RANK_REL_TOL * sv[0]))


# ---------------------------------------------------------------------------
# genus-1 building blocks for the expansion conventions


_ODD1 = Characteristic((1,), (1,))
_EVEN1 = Characteristic((0,), (0,))


def genus1_derivatives(m1, t, orders, tol=DEFAULT_TOL):
    """d^k/dz^k theta_{m1}(t, 0) for each k in orders (genus 1; k up to 5)."""
    orders = [(k,) for k in orders]
    return _jet([(PeriodMatrix([[t]]), m1, None)], orders, tol, 5)[0].tolist()


@lru_cache(maxsize=128)
def f_phi_psi(t, odd, tol=DEFAULT_TOL):
    """The triple (f, phi, psi) at the genus-1 point t.

    For an odd column f = theta'[1;1](t), phi = theta'''/theta',
    psi = theta''''' / theta' - phi^2; for an even column f = theta[0;0](t),
    phi = theta''/theta, psi = theta''''/theta - phi^2.

    Memoised: drawing a diagonal computes the triples that binding the
    symbols at it reads again.  Call it as f_phi_psi(t, odd, tol), all
    positional, so that every caller shares one cache entry.
    """
    f, d2, d4 = genus1_derivatives(_ODD1 if odd else _EVEN1, t,
                                   (1, 3, 5) if odd else (0, 2, 4), tol=tol)
    phi = d2 / f
    return f, phi, d4 / f - phi**2


GENERICITY_FLOOR = 1e-3
MAX_DRAW_TRIES = 200  # per coordinate


def sample_generic_diagonal(g, l, rng, tol=DEFAULT_TOL):
    """Diagonal entries t_1..t_g with Im t in [0.8, 2.0], Re t in [-0.5, 0.5],
    each redrawn (at most MAX_DRAW_TRIES times) until |psi - 2 phi^2| and
    |4 phi^2 - psi| exceed GENERICITY_FLOOR (columns 1..l odd, the rest even)."""
    t = np.zeros(g, dtype=complex)
    for a in range(g):
        odd = a < l
        for _ in range(MAX_DRAW_TRIES):
            cand = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 2.0))
            _, phi, psi = f_phi_psi(cand, odd, tol)
            if min(abs(psi - 2 * phi**2), abs(4 * phi**2 - psi)) > GENERICITY_FLOOR:
                t[a] = cand
                break
        else:
            raise ValueError("failed to draw a generic diagonal coordinate")
    return t
