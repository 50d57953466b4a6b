"""The affine action of Sp(2g, Z_2) on theta characteristics, and orbits.

Only the mod-2 quotient of the integral symplectic group acts on
characteristics.  An element is held as its four g x g blocks over Z_2
(numpy uint8 arrays), which the group law multiplies.  For the action each
element is compiled once into an affine map on characteristics as 2g-bit
masks (Characteristic.mask): two 2^g-entry lookup tables, giving the image
under the linear part of the high (eps) and of the low (delta) half of a
mask, plus a shift mask.  Acting is two lookups and two XORs, and an orbit
is a breadth-first search over ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .chars import EVEN, Characteristic, even_count, odd_count, parity


def _mat(rows):
    return np.array(rows, dtype=np.uint8) % 2


@dataclass(frozen=True)
class SpMod2Element:
    """Block matrix [[A,B],[C,D]] over Z_2 preserving the symplectic form."""

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for blk in (self.a, self.b, self.c, self.d):
            blk.setflags(write=False)
        if not self.is_symplectic():
            raise ValueError("blocks do not satisfy the symplectic relations mod 2")

    @property
    def g(self):
        return self.a.shape[0]

    def is_symplectic(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        g = a.shape[0]
        eye = np.eye(g, dtype=np.uint8)
        if ((a @ d.T + b @ c.T) % 2 != eye).any():
            return False
        ab = (a @ b.T) % 2
        cd = (c @ d.T) % 2
        return (ab == ab.T).all() and (cd == cd.T).all()

    def matrix(self):
        return np.block([[self.a, self.b], [self.c, self.d]]) % 2

    def __mul__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        m = (self.matrix() @ other.matrix()) % 2
        g = self.g
        return SpMod2Element(m[:g, :g], m[:g, g:], m[g:, :g], m[g:, g:])

    @cached_property
    def _affine(self):
        """The action (see act) on 2g-bit masks as (g, high, low, shift).

        high[e] and low[d] are the images under the linear part of the masks
        e << g and d, for e, d < 2^g; shift is the image of the zero
        characteristic.  So mask x goes to
        high[x >> g] ^ low[x & (2^g - 1)] ^ shift.
        """
        # numpy rows and columns in mask bit order, most significant first:
        # eps_1..eps_g, delta_1..delta_g
        linear = np.block([[self.d, self.c], [self.b, self.a]]) % 2
        shift = np.concatenate([np.diag(self.c @ self.d.T), np.diag(self.a @ self.b.T)]) % 2

        def to_mask(bits):
            return int("".join(map(str, bits)), 2)

        def table(bits):
            # entry x is the XOR of the images of the set bits of x; each
            # column (least significant first) doubles the table
            out = [0]
            for j in reversed(bits):
                column = to_mask(linear[:, j])
                out += [image ^ column for image in out]
            return out

        g = self.g
        return g, table(range(g)), table(range(g, 2 * g)), to_mask(shift)

    @staticmethod
    def from_blocks(a, b, c, d):
        return SpMod2Element(_mat(a), _mat(b), _mat(c), _mat(d))


def _apply(affine, mask):
    g, high, low, shift = affine
    return high[mask >> g] ^ low[mask & ((1 << g) - 1)] ^ shift


def act(sigma, m):
    """The affine-linear action of sigma = [[A,B],[C,D]] on a characteristic:

        eps'   = D eps + C delta + diag(C D^t)
        delta' = B eps + A delta + diag(A B^t)

    (signs are trivial mod 2).  This is the unique pairing of the classical
    contragredient linear part with the diag shifts that is simultaneously a
    left action -- act(s1 * s2, m) == act(s1, act(s2, m)) -- and parity
    preserving; the tests pin both properties.
    """
    if sigma.g != m.g:
        raise ValueError("genus mismatch")
    return Characteristic._from_mask(_apply(sigma._affine, m.mask), m.g)


def sigma0():
    """The genus-2 element whose action shifts the scalar class by 2; it
    sends [00;00] to [11;11], and its inverse sends [11;11] back to [00;00]."""
    return SpMod2Element.from_blocks(
        [[1, 0], [0, 1]], [[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 1], [1, 1]]
    )


def embed(piece, positions, g):
    """Block-embed a genus-k element into coordinates `positions` of genus g.

    positions is 1-based and ordered; the element acts as the identity on
    the remaining coordinates.
    """
    k = piece.g
    if len(positions) != k:
        raise ValueError("positions must match the genus of the embedded piece")
    if len(set(positions)) != k:
        raise ValueError("positions must be distinct")
    if any(p < 1 or p > g for p in positions):
        raise ValueError("position out of range")
    a = np.eye(g, dtype=np.uint8)
    d = np.eye(g, dtype=np.uint8)
    b = np.zeros((g, g), dtype=np.uint8)
    c = np.zeros((g, g), dtype=np.uint8)
    idx = [p - 1 for p in positions]
    for bi, blk in ((a, piece.a), (b, piece.b), (c, piece.c), (d, piece.d)):
        for r, pr in enumerate(idx):
            for s, ps in enumerate(idx):
                bi[pr, ps] = blk[r, s]
    return SpMod2Element(a, b, c, d)


def permutation_element(pi):
    """The symplectic element with A = D = P(pi), B = C = 0.

    pi is a tuple with pi[i] = image of i+1 (1-based values).
    """
    g = len(pi)
    p = np.zeros((g, g), dtype=np.uint8)
    for i, image in enumerate(pi):
        p[image - 1, i] = 1
    zero = np.zeros((g, g), dtype=np.uint8)
    return SpMod2Element(p, zero.copy(), zero.copy(), p.copy())


def gamma1_s():
    """The order-swapping SL(2,Z_2) generator ((0,1),(1,0)) as genus 1."""
    return SpMod2Element.from_blocks([[0]], [[1]], [[1]], [[0]])


def gamma1_t():
    """The shear SL(2,Z_2) generator ((1,1),(0,1)) as genus 1."""
    return SpMod2Element.from_blocks([[1]], [[1]], [[0]], [[1]])


def stab_diagonal_generators(g):
    """Generators of the image of Stab(I_g) = Gamma_1 wr S_g in Sp(2g, Z_2):
    per-coordinate Gamma_1 generators plus permutations."""
    gens = []
    for j in range(1, g + 1):
        gens.append(embed(gamma1_s(), [j], g))
        gens.append(embed(gamma1_t(), [j], g))
    if g >= 2:
        gens.append(permutation_element((2, 1) + tuple(range(3, g + 1))))
        if g >= 3:
            cycle = tuple(range(2, g + 1)) + (1,)
            gens.append(permutation_element(cycle))
    return gens


def group_generators(g):
    """Generators of G_g = Gamma_2 x Gamma_1^{g-2} wr S_g acting mod 2:
    the diagonal stabilizer generators plus sigma0 embedded at (1,2)."""
    gens = stab_diagonal_generators(g)
    if g == 2:
        gens.append(sigma0())
    elif g > 2:
        gens.append(embed(sigma0(), [1, 2], g))
    return gens


def orbit(m, generators):
    """Breadth-first closure of {m} under the given generators.

    Returns the orbit sorted lexicographically on (eps, delta).
    """
    if not generators:
        raise ValueError("need at least one generator")
    if any(gen.g != m.g for gen in generators):
        raise ValueError("genus mismatch")
    g = m.g
    low_bits = (1 << g) - 1
    maps = [gen._affine[1:] for gen in generators]
    seen = {m.mask}
    frontier = [m.mask]
    while frontier:
        new_frontier = []
        for x in frontier:
            e, d = x >> g, x & low_bits
            for high, low, shift in maps:
                y = high[e] ^ low[d] ^ shift
                if y not in seen:
                    seen.add(y)
                    new_frontier.append(y)
        frontier = new_frontier
    # mask order is the lexicographic (eps, delta) order
    return [Characteristic._from_mask(x, g) for x in sorted(seen)]


@dataclass(frozen=True)
class OrbitReport:
    g: int
    seed_characteristic: Characteristic
    generator_set: str
    even_orbit_size: int
    odd_orbit_size: int
    expected_even: int
    expected_odd: int

    @property
    def passed(self):
        return (
            self.even_orbit_size == self.expected_even
            and self.odd_orbit_size == self.expected_odd
        )


def verify_transitivity(g):
    """Orbit of the zero characteristic (even) and of [10..;10..] (odd) under
    the G_g generators, compared against the global even/odd counts."""
    gens = group_generators(g)
    even_seed = Characteristic.zero(g)
    odd_seed = Characteristic(
        (1,) + (0,) * (g - 1),
        (1,) + (0,) * (g - 1),
    )
    even_orbit = orbit(even_seed, gens)
    odd_orbit = orbit(odd_seed, gens)
    if not all(parity(x) == EVEN for x in even_orbit):
        raise RuntimeError("the even orbit of genus %d holds an odd characteristic" % g)
    return OrbitReport(
        g=g,
        seed_characteristic=even_seed,
        generator_set="Gg",
        even_orbit_size=len(even_orbit),
        odd_orbit_size=len(odd_orbit),
        expected_even=even_count(g),
        expected_odd=odd_count(g),
    )


GENERATOR_SETS = {
    "Gg": group_generators,
    "stab_diagonal": stab_diagonal_generators,
}
