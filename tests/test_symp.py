"""The mod-2 symplectic action: group law, parity, orbits, transitivity."""

import itertools
import math

import numpy as np
import pytest

from thetadiag import symp
from thetadiag.chars import (
    EVEN,
    MAX_ENUM_GENUS,
    ODD,
    Characteristic,
    enumerate_characteristics,
    even_count,
    is_even,
    odd_count,
    parity,
    scalar_class,
)
from thetadiag.symp import (
    GENERATOR_SETS,
    SpMod2Element,
    act,
    embed,
    gamma1_s,
    gamma1_t,
    group_generators,
    orbit,
    permutation_element,
    sigma0,
    stab_diagonal_generators,
    verify_transitivity,
)


def act_oracle(sigma, m):
    """The action formula of act, as numpy matrix products mod 2."""
    eps = np.array(m.eps, dtype=np.uint8)
    delta = np.array(m.delta, dtype=np.uint8)
    shift_eps = np.diag((sigma.c @ sigma.d.T) % 2)
    shift_delta = np.diag((sigma.a @ sigma.b.T) % 2)
    new_eps = (sigma.d @ eps + sigma.c @ delta + shift_eps) % 2
    new_delta = (sigma.b @ eps + sigma.a @ delta + shift_delta) % 2
    return Characteristic(tuple(int(x) for x in new_eps), tuple(int(x) for x in new_delta))


def identity(g):
    eye, zero = np.eye(g, dtype=int), np.zeros((g, g), dtype=int)
    return SpMod2Element.from_blocks(eye, zero, zero, eye)


def random_word(g, rng, length=12):
    """A pseudo-random element: a word in the G_g generators."""
    gens = group_generators(g)
    el = identity(g)
    for _ in range(length):
        el = el * gens[rng.integers(len(gens))]
    return el


def elements_under_test(g, rng):
    """Every generator of every registered set, plus random words."""
    gens = [gen for make in GENERATOR_SETS.values() for gen in make(g)]
    return gens + [random_word(g, rng) for _ in range(10)]


class TestSpMod2Element:
    def test_identity_is_symplectic(self):
        assert identity(3).is_symplectic()

    def test_rejects_non_symplectic(self):
        with pytest.raises(ValueError):
            SpMod2Element.from_blocks([[1, 1], [0, 1]], [[0, 0], [0, 0]],
                                      [[0, 0], [0, 0]], [[1, 1], [0, 1]])

    def test_inverse(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            el = random_word(3, rng)
            # over Z_2 the symplectic inverse is [[D^t, B^t], [C^t, A^t]]
            prod = el * SpMod2Element.from_blocks(el.d.T, el.b.T, el.c.T, el.a.T)
            assert (prod.matrix() == identity(3).matrix()).all()

    def test_product_is_symplectic(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert (random_word(2, rng) * random_word(2, rng)).is_symplectic()


class TestAction:
    def test_left_action_property(self):
        rng = np.random.default_rng(2)
        chars3 = enumerate_characteristics(3)
        for _ in range(25):
            s1, s2 = random_word(3, rng), random_word(3, rng)
            m = chars3[rng.integers(len(chars3))]
            assert act(s1 * s2, m) == act(s1, act(s2, m))

    def test_parity_preserved(self):
        rng = np.random.default_rng(3)
        for g in (2, 3):
            for m in enumerate_characteristics(g):
                el = random_word(g, rng)
                assert parity(act(el, m)) == parity(m)

    def test_identity_acts_trivially(self):
        for m in enumerate_characteristics(2):
            assert act(identity(2), m) == m

    def test_sigma0_moves_zero_to_full(self):
        assert act(sigma0(), Characteristic.zero(2)).compact() == "[11;11]"

    def test_sigma0_shifts_scalar_class_by_two(self):
        # on the even class representatives the action changes l by +-2
        for m in enumerate_characteristics(2, parity_filter=EVEN):
            image = act(sigma0(), m)
            assert (scalar_class(image) - scalar_class(m)) % 2 == 0

    def test_embedded_sigma0_genus_4(self):
        el = embed(sigma0(), [1, 2], 4)
        assert act(el, Characteristic.zero(4)).compact() == "[1100;1100]"

    def test_permutation_action(self):
        pi = (2, 3, 1)
        el = permutation_element(pi)
        m = Characteristic.parse("[100;110]")
        image = act(el, m)
        for i, target in enumerate(pi):
            assert image.eps[target - 1] == m.eps[i]
            assert image.delta[target - 1] == m.delta[i]

    def test_genus_mismatch(self):
        with pytest.raises(ValueError):
            act(identity(2), Characteristic.zero(3))

    @pytest.mark.parametrize("g", range(1, 9))
    def test_compiled_action_matches_matrix_formula(self, g):
        rng = np.random.default_rng(10 + g)
        els = elements_under_test(g, rng)
        if g <= 4:
            sample = enumerate_characteristics(g)
        else:
            # the compiled tables split the mask at bit g: draw both halves
            def bits():
                return tuple(int(x) for x in rng.integers(0, 2, g))

            sample = [Characteristic(bits(), bits()) for _ in range(100)]
        for el in els:
            for m in sample:
                assert act(el, m) == act_oracle(el, m)

    @pytest.mark.parametrize("g", range(1, 5))
    def test_left_action_on_masks(self, g):
        rng = np.random.default_rng(20 + g)
        els = elements_under_test(g, rng)
        for s1, s2 in itertools.product(els[-4:], els):
            prod = (s1 * s2)._affine
            for x in range(4**g):
                assert symp._apply(prod, x) == symp._apply(s1._affine, symp._apply(s2._affine, x))


class TestOrbits:
    @pytest.mark.parametrize("g", range(2, MAX_ENUM_GENUS + 1))
    def test_transitivity(self, g):
        report = verify_transitivity(g)
        assert report.passed
        assert report.even_orbit_size == even_count(g)
        assert report.odd_orbit_size == odd_count(g)

    @pytest.mark.parametrize("g,l", [(2, 0), (2, 2), (3, 0), (3, 2), (4, 1)])
    def test_stab_diagonal_orbit_is_the_scalar_class(self, g, l):
        seed = Characteristic((1,) * l + (0,) * (g - l), (1,) * l + (0,) * (g - l))
        orb = orbit(seed, stab_diagonal_generators(g))
        assert len(orb) == math.comb(g, l) * 3 ** (g - l)
        assert all(scalar_class(m) == l for m in orb)

    def test_orbit_is_sorted_and_closed(self):
        gens = group_generators(2)
        orb = orbit(Characteristic.zero(2), gens)
        assert orb == sorted(orb, key=lambda m: (m.eps, m.delta))
        members = set(orb)
        for m in orb:
            for gen in gens:
                assert act(gen, m) in members

    def test_orbit_genus_mismatch(self):
        with pytest.raises(ValueError):
            orbit(Characteristic.zero(3), group_generators(2))

    @pytest.mark.parametrize("g", range(2, 5))
    def test_orbit_matches_oracle_closure(self, g):
        for name, make in GENERATOR_SETS.items():
            gens = make(g)
            for seed in enumerate_characteristics(g)[::4**g // 8]:
                closure, frontier = {seed}, [seed]
                while frontier:
                    frontier = {act_oracle(gen, x) for x in frontier for gen in gens} - closure
                    closure.update(frontier)
                assert orbit(seed, gens) == sorted(closure, key=lambda m: (m.eps, m.delta))

    def test_transitivity_check_raises_on_an_odd_member(self, monkeypatch):
        monkeypatch.setattr(symp, "parity", lambda m: ODD)
        with pytest.raises(RuntimeError):
            verify_transitivity(2)

    def test_generator_sets_registry(self):
        assert set(GENERATOR_SETS) == {"Gg", "stab_diagonal"}
        assert all(el.is_symplectic() for el in GENERATOR_SETS["Gg"](3))

    def test_gamma1_generators(self):
        assert gamma1_s().is_symplectic()
        assert gamma1_t().is_symplectic()
        # the two generate all six elements of SL(2, Z_2)
        seen = {identity(1).key()}
        frontier = [identity(1)]
        while frontier:
            nxt = []
            for el in frontier:
                for gen in (gamma1_s(), gamma1_t()):
                    prod = el * gen
                    if prod.key() not in seen:
                        seen.add(prod.key())
                        nxt.append(prod)
            frontier = nxt
        assert len(seen) == 6

    def test_conjugation_by_permutation_permutes_orbits(self):
        pi = (3, 1, 2)
        el = permutation_element(pi)
        m = Characteristic.parse("[110;110]")
        assert is_even(act(el, m))
        assert scalar_class(act(el, m)) == scalar_class(m)
