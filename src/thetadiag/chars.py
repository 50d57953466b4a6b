"""Exact combinatorics of theta characteristics.

A characteristic is a pair of length-g bit vectors [eps; delta], added
coordinatewise over Z_2 and held as one 2g-bit int.  Everything here is
exact integer arithmetic; no numerics enter this module.
"""

from __future__ import annotations

import itertools
import operator
import re
from dataclasses import dataclass
from functools import lru_cache, reduce

EVEN = "even"
ODD = "odd"

# 2^{2g} characteristics; g=8 means 65536, still fast to enumerate exhaustively.
MAX_ENUM_GENUS = 8

_COMPACT_RE = re.compile(r"^\[([01]+);([01]+)\]$")
_VERBOSE_RE = re.compile(r"^eps:([01]+)\s+delta:([01]+)$")
_BITS = frozenset((0, 1))


@dataclass(frozen=True, init=False, repr=False)
class Characteristic:
    """A theta characteristic m = [eps; delta] with eps, delta in Z_2^g,
    stored as the 2g-bit int mask: the bits of eps then delta, most
    significant first.  So eps sits in the high g bits and delta in the low
    g bits, the scalar class is a popcount, addition is one XOR, and the
    numeric order of masks is the lexicographic (eps, delta) order."""

    # by hand: slots=True makes assigning to eps raise TypeError, not frozen's error
    __slots__ = ("g", "mask")
    g: int
    mask: int

    def __init__(self, eps, delta):
        if len(eps) != len(delta):
            raise ValueError("eps and delta must have equal length")
        if not eps:
            raise ValueError("genus must be positive")
        try:
            valid = _BITS.issuperset(eps) and _BITS.issuperset(delta)
        except TypeError:  # an unhashable entry is not a bit either
            valid = False
        if not valid:
            raise ValueError("characteristic entries must be 0 or 1")
        mask = 0
        for bit in (*eps, *delta):
            mask = mask << 1 | int(bit)
        object.__setattr__(self, "g", len(eps))
        object.__setattr__(self, "mask", mask)

    @classmethod
    def _from_mask(cls, mask, g):
        """The characteristic of genus g with the given mask, unchecked."""
        m = object.__new__(cls)
        object.__setattr__(m, "g", g)
        object.__setattr__(m, "mask", mask)
        return m

    @property
    def eps(self):
        return _bits(self.mask >> self.g, self.g)

    @property
    def delta(self):
        return _bits(self.mask & ((1 << self.g) - 1), self.g)

    def __hash__(self):  # hashes like the (eps, delta) pair, so set orders hold
        return hash((self.eps, self.delta))

    def __reduce__(self):  # frozen: unpickle through the constructor, not setattr
        return Characteristic, (self.eps, self.delta)

    def __repr__(self):
        return "Characteristic(eps=%r, delta=%r)" % (self.eps, self.delta)

    def __add__(self, other):
        if self.g != other.g:
            raise ValueError("genus mismatch")
        return Characteristic._from_mask(self.mask ^ other.mask, self.g)

    def column(self, a):
        """Column a (1-based) as a genus-1 characteristic; ValueError unless
        1 <= a <= g."""
        if not 1 <= a <= self.g:
            raise ValueError("column %r out of range 1..%d" % (a, self.g))
        return Characteristic._from_mask(self.eps[a - 1] << 1 | self.delta[a - 1], 1)

    def compact(self):
        bits = format(self.mask, "0%db" % (2 * self.g))
        return "[%s;%s]" % (bits[:self.g], bits[self.g:])

    def __str__(self):
        return self.compact()

    @staticmethod
    def zero(g):
        return Characteristic((0,) * g, (0,) * g)

    @staticmethod
    def parse(text):
        """Parse either the compact "[110;110]" or "eps:110 delta:110" form."""
        text = text.strip()
        m = _COMPACT_RE.match(text) or _VERBOSE_RE.match(text)
        if m is None:
            raise ValueError("cannot parse characteristic: %r" % text)
        eps, delta = m.group(1), m.group(2)
        if len(eps) != len(delta):
            raise ValueError("eps and delta must have equal length: %r" % text)
        return Characteristic._from_mask(int(eps + delta, 2), len(eps))


@lru_cache(maxsize=1024)
def _bits(x, g):
    """The g-bit int x as a tuple of bits, most significant first."""
    return tuple((x >> k) & 1 for k in range(g - 1, -1, -1))


def scalar_class(m):
    """The scalar product <eps, delta> taken in Z: the number of (1,1) columns."""
    return ((m.mask >> m.g) & m.mask).bit_count()


def parity(m):
    """Return EVEN or ODD according to eps . delta mod 2."""
    return ODD if scalar_class(m) % 2 else EVEN


def is_even(m):
    return parity(m) == EVEN


def sign(m):
    """e(m) = (-1)^{<eps,delta>}."""
    return -1 if scalar_class(m) % 2 else 1


def enumerate_characteristics(g, parity_filter=None, class_filter=None):
    """All 2^{2g} characteristics of genus g, in lexicographic (eps, delta) order.

    parity_filter: EVEN, ODD, or None; class_filter: an integer l or None.
    """
    if g < 1:
        raise ValueError("genus must be positive")
    if g > MAX_ENUM_GENUS:
        raise ValueError("enumeration bound exceeded: g=%d > %d" % (g, MAX_ENUM_GENUS))
    out = []
    for mask in range(4**g):  # mask order is the lexicographic (eps, delta) order
        l = ((mask >> g) & mask).bit_count()
        if parity_filter is not None and (ODD if l % 2 else EVEN) != parity_filter:
            continue
        if class_filter is not None and l != class_filter:
            continue
        out.append(Characteristic._from_mask(mask, g))
    return out


def is_azygetic_triple(m1, m2, m3):
    """True iff e(m1) e(m2) e(m3) e(m1+m2+m3) = -1."""
    if not (m1.g == m2.g == m3.g):
        raise ValueError("genus mismatch")
    return sign(m1) * sign(m2) * sign(m3) * sign(m1 + m2 + m3) == -1


@dataclass(frozen=True)
class FundamentalSystem:
    """A special fundamental system: g odd and g+2 even characteristics,
    every triple azygetic, summing to zero."""

    odds: tuple
    evens: tuple

    @property
    def g(self):
        return len(self.odds)

    def members(self):
        return self.odds + self.evens

    def essential_members(self):
        """The 2g+1 members forming an essential basis: drop e_1 = 0."""
        return self.odds + self.evens[1:]


@lru_cache(maxsize=None)
def special_fundamental_system(g):
    """The standard special fundamental system of genus g.

    o_j = [unit_j ; 1^j 0^{g-j}],
    e_1 = 0, e_k = [unit_{k-1} ; 1^{k-2} 0^...] for 2 <= k <= g+1,
    e_{g+2} = [0 ; 1^g].
    """
    if g < 1:
        raise ValueError("genus must be positive")

    def unit(j):
        return tuple(1 if a == j else 0 for a in range(1, g + 1))

    def ones(k):
        return tuple(1 if a <= k else 0 for a in range(1, g + 1))

    odds = tuple(Characteristic(unit(j), ones(j)) for j in range(1, g + 1))
    evens = [Characteristic.zero(g)]
    for k in range(2, g + 2):
        evens.append(Characteristic(unit(k - 1), ones(k - 2)))
    evens.append(Characteristic((0,) * g, ones(g)))
    return FundamentalSystem(odds, tuple(evens))


def b_char(fs):
    """b^g = o_1 + ... + o_g, the sum of the odd members."""
    total = Characteristic.zero(fs.g)
    for o in fs.odds:
        total = total + o
    return total


def _gf2_rank(vectors):
    """The rank over Z_2 of int bit vectors."""
    basis = []  # each one's leading bit is clear in every later one
    for x in vectors:
        for b in basis:
            x = min(x, x ^ b)  # clears b's leading bit in x
        if x:
            basis.append(x)
    return len(basis)


def is_essential_basis(members):
    """True iff members are 2g+1 characteristics of genus g through which
    every characteristic is a sum of an odd number of members in exactly
    one way.

    Two odd subsets with the same sum differ by a nonempty even subset
    summing to zero, so this holds iff the masks with a parity bit appended
    are linearly independent over Z_2."""
    if not members:
        return False
    g = members[0].g
    if any(x.g != g for x in members):
        raise ValueError("genus mismatch")
    n = 2 * g + 1
    return len(members) == n and _gf2_rank(x.mask << 1 | 1 for x in members) == n


def hyperelliptic_vanishing_set(g):
    """Even characteristics m + b^g with m a sum of k < g essential members.

    These index the theta constants cut out along the standard hyperelliptic
    component; parity of m + b^g is governed by k = g or g+1 mod 4.
    """
    if g > MAX_ENUM_GENUS:
        raise ValueError("bound exceeded: g=%d > %d" % (g, MAX_ENUM_GENUS))
    fs = special_fundamental_system(g)
    members = [x.mask for x in fs.essential_members()]
    b = b_char(fs).mask
    out = set()
    for k in range(g):
        for combo in itertools.combinations(members, k):
            shifted = reduce(operator.xor, combo, b)
            if ((shifted >> g) & shifted).bit_count() % 2 == 0:
                # cross-check against the mod-4 parity rule
                if k % 4 not in (g % 4, (g + 1) % 4):
                    raise RuntimeError("mod-4 parity rule fails: k=%d, g=%d" % (k, g))
                out.add(Characteristic._from_mask(shifted, g))
    return out


def vanish_lemma_check(g):
    """True iff every even m + b^g (m a sum of < g essential members) has
    scalar class >= 2, i.e. lies in E*."""
    return all(scalar_class(m) >= 2 for m in hyperelliptic_vanishing_set(g))


def even_count(g):
    """2^{g-1} (2^g + 1)."""
    return 2 ** (g - 1) * (2 ** g + 1)


def odd_count(g):
    """2^{g-1} (2^g - 1)."""
    return 2 ** (g - 1) * (2 ** g - 1)
