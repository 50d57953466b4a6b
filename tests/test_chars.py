"""Exact combinatorics: parities, counts, fundamental systems, vanishing sets."""

import itertools
import pickle
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from thetadiag import chars
from thetadiag.chars import (
    EVEN,
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
    parity,
    scalar_class,
    sign,
    special_fundamental_system,
    vanish_lemma_check,
)


def bits(g):
    return st.lists(st.integers(0, 1), min_size=g, max_size=g).map(tuple)


def characteristics(g):
    return st.tuples(bits(g), bits(g)).map(lambda p: Characteristic(*p))


def reference_enumeration(g, parity_filter=None, class_filter=None):
    """enumerate_characteristics by itertools.product over bit tuples."""
    out = []
    for eps in itertools.product((0, 1), repeat=g):
        for delta in itertools.product((0, 1), repeat=g):
            m = Characteristic(eps, delta)
            if parity_filter is not None and parity(m) != parity_filter:
                continue
            if class_filter is not None and scalar_class(m) != class_filter:
                continue
            out.append(m)
    return out


def sum_masks(masks):
    total = 0
    for x in masks:
        total ^= x
    return total


def odd_sums_distinct(members):
    """The definition of an essential basis, by brute force: 2g+1 members of
    genus g whose sums over odd-size subsets are pairwise distinct."""
    g = members[0].g
    if len(members) != 2 * g + 1:
        return False
    seen = set()
    for k in range(1, len(members) + 1, 2):
        for combo in itertools.combinations(members, k):
            total = Characteristic.zero(g)
            for m in combo:
                total = total + m
            if total in seen:
                return False
            seen.add(total)
    return True


class TestCharacteristic:
    def test_parse_roundtrip(self):
        m = Characteristic.parse("[110;101]")
        assert m.eps == (1, 1, 0) and m.delta == (1, 0, 1)
        assert Characteristic.parse(m.compact()) == m
        assert Characteristic.parse("eps:110 delta:101") == m

    def test_parse_rejects_garbage(self):
        for text in ("[11;1]", "[12;10]", "110;110", ""):
            with pytest.raises(ValueError):
                Characteristic.parse(text)

    def test_validation(self):
        with pytest.raises(ValueError):
            Characteristic((0, 1), (0,))
        with pytest.raises(ValueError):
            Characteristic((2,), (0,))
        with pytest.raises(ValueError):
            Characteristic((), ())
        for entry in (-1, 0.5, "1", None, [0]):
            with pytest.raises(ValueError):
                Characteristic((0, entry), (1, 0))
            with pytest.raises(ValueError):
                Characteristic((0, 1), (entry, 0))

    def test_addition_is_componentwise_xor(self):
        a = Characteristic.parse("[110;011]")
        b = Characteristic.parse("[101;001]")
        assert (a + b).compact() == "[011;010]"
        assert a + a == Characteristic.zero(3)

    def test_column(self):
        m = Characteristic.parse("[10;01]")
        assert m.column(1) == Characteristic((1,), (0,))
        assert m.column(2) == Characteristic((0,), (1,))

    def test_every_column_in_range(self):
        for m in enumerate_characteristics(3):
            assert [m.column(a) for a in (1, 2, 3)] == [
                Characteristic((e,), (d,)) for e, d in zip(m.eps, m.delta)]

    @pytest.mark.parametrize("a", [0, -1, 3])
    def test_column_out_of_range(self, a):
        with pytest.raises(ValueError, match=r"1\.\.2"):
            Characteristic.parse("[10;01]").column(a)


class TestParity:
    def test_examples(self):
        assert parity(Characteristic.parse("[00;00]")) == EVEN
        assert parity(Characteristic.parse("[1;1]")) == ODD
        assert parity(Characteristic.parse("[110;110]")) == EVEN

    def test_counts_g1_to_8(self):
        for g in range(1, 9):
            evens = sum(1 for m in enumerate_characteristics(g) if is_even(m))
            assert evens == even_count(g) == 2 ** (g - 1) * (2**g + 1)
            assert 4**g - evens == odd_count(g) == 2 ** (g - 1) * (2**g - 1)

    def test_scalar_class_counts_11_columns(self):
        m = Characteristic.parse("[1101;1011]")
        assert scalar_class(m) == 2
        assert sign(m) == 1

    @given(characteristics(3), characteristics(3))
    def test_sign_bilinear_relation(self, a, b):
        # e(a)e(b)e(a+b) = (-1)^{eps_a . delta_b + eps_b . delta_a} ... the
        # weaker invariant used here: parity of a+b is determined by the
        # parities and the cross terms, so the triple (a, b, a, a+b+a) sums
        # to b and the azygetic predicate is symmetric in its arguments.
        assert is_azygetic_triple(a, b, a + b) == is_azygetic_triple(b, a, a + b)

    def test_enumeration_filters(self):
        evens = enumerate_characteristics(3, parity_filter=EVEN)
        assert len(evens) == 36
        e2 = enumerate_characteristics(3, parity_filter=EVEN, class_filter=2)
        assert all(scalar_class(m) == 2 and is_even(m) for m in e2)
        assert len(e2) == 3 * 3  # choose the two (1,1) columns, 3 even rest

    def test_enumeration_bound(self):
        with pytest.raises(ValueError):
            enumerate_characteristics(9)

    @pytest.mark.parametrize("g", range(1, 6))
    def test_enumeration_matches_reference(self, g):
        for parity_filter in (None, EVEN, ODD):
            for class_filter in (None,) + tuple(range(g + 1)):
                assert enumerate_characteristics(g, parity_filter, class_filter) == \
                    reference_enumeration(g, parity_filter, class_filter)


class TestMasks:
    @pytest.mark.parametrize("g", range(1, 5))
    def test_roundtrip_in_lexicographic_order(self, g):
        ordered = reference_enumeration(g)
        assert [m.mask for m in ordered] == list(range(4**g))
        assert [Characteristic._from_mask(m.mask, g) for m in ordered] == ordered

    def test_layout(self):
        m = Characteristic.parse("[110;011]")
        assert (m.g, m.mask) == (3, 0b110011)
        assert ((m.mask >> 3) & m.mask).bit_count() == scalar_class(m)


NON_BITS = (-1, 2, 0.5, "1", None, [0])


@st.composite
def genus_and_bits(draw, n):
    """A genus g in 1..8 and n bit tuples of length g."""
    g = draw(st.integers(1, 8))
    return g, [draw(bits(g)) for _ in range(n)]


class TestMaskForm:
    """The mask form against the semantics of a pair of bit tuples."""

    @given(genus_and_bits(2))
    def test_bits_roundtrip(self, case):
        g, (eps, delta) = case
        m = Characteristic(eps, delta)
        assert (m.eps, m.delta, m.g) == (eps, delta, g)
        assert Characteristic(eps=list(eps), delta=delta) == m
        assert Characteristic._from_mask(m.mask, g) == m
        assert pickle.loads(pickle.dumps(m)) == m
        assert repr(m) == "Characteristic(eps=%r, delta=%r)" % (eps, delta)

    @given(genus_and_bits(2))
    def test_compact_parse_roundtrip(self, case):
        _, (eps, delta) = case
        m = Characteristic(eps, delta)
        text = "".join(map(str, eps)), "".join(map(str, delta))
        assert m.compact() == "[%s;%s]" % text
        assert Characteristic.parse(m.compact()) == m
        assert Characteristic.parse("eps:%s delta:%s" % text) == m

    @given(genus_and_bits(4))
    def test_addition_is_coordinatewise_xor(self, case):
        _, (e1, d1, e2, d2) = case
        total = Characteristic(e1, d1) + Characteristic(e2, d2)
        assert total.eps == tuple(a ^ b for a, b in zip(e1, e2))
        assert total.delta == tuple(a ^ b for a, b in zip(d1, d2))

    @given(genus_and_bits(2))
    def test_scalar_class_parity_and_sign(self, case):
        _, (eps, delta) = case
        m = Characteristic(eps, delta)
        l = sum(a * b for a, b in zip(eps, delta))
        assert scalar_class(m) == l
        assert parity(m) == (ODD if l % 2 else EVEN)
        assert sign(m) == (-1) ** l

    @given(genus_and_bits(4))
    def test_equality_hash_and_order(self, case):
        _, (e1, d1, e2, d2) = case
        m, n = Characteristic(e1, d1), Characteristic(e2, d2)
        assert (m == n) == ((e1, d1) == (e2, d2))
        assert hash(m) == hash((e1, d1))
        assert (m.mask < n.mask) == ((e1, d1) < (e2, d2))

    @given(genus_and_bits(2), st.sampled_from(NON_BITS), st.data())
    def test_malformed_input_raises(self, case, entry, data):
        g, (eps, delta) = case
        m = Characteristic(eps, delta)
        other = data.draw(st.integers(1, 8).filter(lambda h: h != g))
        with pytest.raises(ValueError, match="genus mismatch"):
            m + Characteristic.zero(other)
        with pytest.raises(ValueError, match="equal length"):
            Characteristic(eps, delta + (0,))
        at = data.draw(st.integers(0, g - 1))
        bad = eps[:at] + (entry,) + eps[at + 1:]
        with pytest.raises(ValueError, match="0 or 1"):
            Characteristic(bad, delta)
        with pytest.raises(ValueError, match="0 or 1"):
            Characteristic(delta, bad)


class TestFundamentalSystem:
    @pytest.mark.parametrize("g", range(2, 7))
    def test_members_parity(self, g):
        fs = special_fundamental_system(g)
        assert all(parity(o) == ODD for o in fs.odds)
        assert all(parity(e) == EVEN for e in fs.evens)
        assert len(fs.odds) == g and len(fs.evens) == g + 2

    @pytest.mark.parametrize("g", range(2, 7))
    def test_all_triples_azygetic(self, g):
        members = special_fundamental_system(g).members()
        for triple in itertools.combinations(members, 3):
            assert is_azygetic_triple(*triple)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_members_sum_to_zero(self, g):
        total = Characteristic.zero(g)
        for m in special_fundamental_system(g).members():
            total = total + m
        assert total == Characteristic.zero(g)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_dropping_any_member_gives_essential_basis(self, g):
        members = special_fundamental_system(g).members()
        for i in range(len(members)):
            assert is_essential_basis(members[:i] + members[i + 1:])

    def test_essential_basis_rejects_wrong_size(self):
        members = special_fundamental_system(3).members()
        assert not is_essential_basis(members[:6])
        assert not is_essential_basis([])

    def test_essential_basis_genus_mismatch(self):
        members = special_fundamental_system(3).essential_members()[:6]
        with pytest.raises(ValueError, match="genus mismatch"):
            is_essential_basis(members + (Characteristic.zero(2),))

    @pytest.mark.parametrize("g", range(1, 5))
    def test_essential_basis_matches_odd_sum_oracle(self, g):
        # seeded lists of 2g+1 members: valid bases, repeated members, and
        # members with a nonempty even subset summing to zero
        rng = random.Random(g)
        pool = enumerate_characteristics(g)
        basis = special_fundamental_system(g).essential_members()
        cases = [list(basis)]
        for _ in range(60):
            members = rng.sample(pool, 2 * g + 1)
            cases.append(members)
            repeated = list(members)
            repeated[rng.randrange(2 * g + 1)] = rng.choice(members)
            cases.append(repeated)
            if g > 1:
                dependent = list(members)  # the last four sum to zero
                a, b, c = rng.sample(pool, 3)
                dependent[-4:] = [a, b, c, a + b + c]
                cases.append(dependent)
        verdicts = [is_essential_basis(members) for members in cases]
        assert verdicts == [odd_sums_distinct(members) for members in cases]
        assert any(verdicts) and not all(verdicts)

    def test_b3(self):
        assert b_char(special_fundamental_system(3)).compact() == "[111;101]"

    @pytest.mark.parametrize("g", range(1, 7))
    def test_small_sums_are_distinct(self, g):
        # Mumford, Tata Lectures on Theta II: every characteristic is a sum
        # of at most g essential members in exactly one way
        members = [x.mask for x in special_fundamental_system(g).essential_members()]
        sums = [sum_masks(combo) for k in range(g + 1)
                for combo in itertools.combinations(members, k)]
        assert len(sums) == len(set(sums)) == 4**g


class TestHyperellipticVanishing:
    def test_g2_empty(self):
        assert hyperelliptic_vanishing_set(2) == set()

    def test_g3_single_b3(self):
        b3 = b_char(special_fundamental_system(3))
        assert hyperelliptic_vanishing_set(3) == {b3}

    @pytest.mark.parametrize("g", range(2, 7))
    def test_vanish_lemma(self, g):
        assert vanish_lemma_check(g)

    @pytest.mark.parametrize("g", range(2, 7))
    def test_sums_match_chained_addition(self, g):
        fs = special_fundamental_system(g)
        b = b_char(fs)
        expected = set()
        for k in range(g):
            for combo in itertools.combinations(fs.essential_members(), k):
                total = b
                for m in combo:
                    total = total + m
                if is_even(total):
                    expected.add(total)
        assert hyperelliptic_vanishing_set(g) == expected

    @pytest.mark.parametrize("g", range(2, 6))
    def test_members_are_even_shifts(self, g):
        # the shift of a sum of k < g members by b^g is even exactly when
        # k = g or g + 1 mod 4
        fs = special_fundamental_system(g)
        members, b = [x.mask for x in fs.essential_members()], b_char(fs).mask
        expected = {Characteristic._from_mask(sum_masks(combo) ^ b, g)
                    for k in range(g) if k % 4 in (g % 4, (g + 1) % 4)
                    for combo in itertools.combinations(members, k)}
        assert hyperelliptic_vanishing_set(g) == expected
