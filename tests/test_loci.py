"""Locus detectors and theorem verifiers on canonical and random points."""

import itertools
import zlib
from dataclasses import replace

import numpy as np
import pytest

from thetadiag import loci, theta
from thetadiag.chars import (
    EVEN,
    Characteristic,
    b_char,
    enumerate_characteristics,
    hyperelliptic_vanishing_set,
    is_even,
    special_fundamental_system,
)
from thetadiag.expand import (bind_symbols, default_ladder, evaluate, grad_leading,
                              offdiag_of)
from thetadiag.loci import (
    MINOR_CHECKS,
    even_scale,
    gradient_locus_check,
    hyperelliptic_vanishing_test,
    impose_thetanull,
    is_diagonal_orbit,
    is_product_orbit,
    minor_identity_check,
    newton_onto,
    thetanull_rank_class,
    tridiagonal_tangent_check,
)
from thetadiag.theta import (
    PeriodMatrix,
    eval_theta,
    numerical_rank,
    sample_generic_diagonal,
    tau_gradient,
    theta_constants_batch,
)


def _m0(g):
    return Characteristic((1, 1) + (0,) * (g - 2), (1, 1) + (0,) * (g - 2))


def _block_product(g, rng, off_scale=0.1):
    t = sample_generic_diagonal(g, 0, rng)
    tau = np.diag(np.asarray(t, dtype=complex))
    for a in range(1, g):
        for b in range(a + 1, g):
            tau[a, b] = tau[b, a] = off_scale * (
                rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1)
            )
    return PeriodMatrix(tau)


class TestDiagonalOrbit:
    @pytest.mark.parametrize("g", (2, 3, 4))
    def test_diagonal_is_in_orbit(self, g):
        rng = np.random.default_rng(g)
        t = sample_generic_diagonal(g, 0, rng)
        verdict = is_diagonal_orbit(PeriodMatrix.diagonal(t))
        assert verdict.verdict
        assert verdict.witness  # complete witness table

    def test_perturbed_diagonal_leaves_orbit(self):
        rng = np.random.default_rng(1)
        t = sample_generic_diagonal(3, 0, rng)
        direction = np.zeros((3, 3), dtype=complex)
        direction[0, 1] = direction[1, 0] = 1j
        tau = PeriodMatrix.diagonal(t).perturbed(direction, 0.05)
        assert not is_diagonal_orbit(tau).verdict

    def test_block_point_leaves_orbit(self):
        # H_1 x H_2 with a generic 2x2 block: some scalar-class-2 theta
        # constant supported on the block is nonzero
        rng = np.random.default_rng(2)
        tau = _block_product(3, rng)
        assert not is_diagonal_orbit(tau).verdict

    def test_tolerance_monotone(self, monkeypatch):
        rng = np.random.default_rng(3)
        t = sample_generic_diagonal(3, 0, rng)
        tau = PeriodMatrix.diagonal(t).perturbed(
            np.array([[0, 1e-6, 0], [1e-6, 0, 0], [0, 0, 0]], dtype=complex), 1.0
        )
        verdicts = []
        for tol in (1e-10, 1e-6, 1e-2):
            monkeypatch.setattr(loci, "DEFAULT_VANISH_TOL", tol)
            verdict = is_diagonal_orbit(tau)
            assert verdict.tol == tol
            verdicts.append(verdict.verdict)
        # loosening the tolerance never flips true -> false
        for a, b in zip(verdicts, verdicts[1:]):
            assert b or not a


class TestProductOrbit:
    def test_exact_product(self):
        rng = np.random.default_rng(4)
        tau = _block_product(4, rng)
        block = np.array(tau.entries)
        block[:1, 1:] = 0.0
        block[1:, :1] = 0.0
        assert is_product_orbit(PeriodMatrix(block), 1).verdict

    def test_generic_near_diagonal_fails(self):
        rng = np.random.default_rng(5)
        t = sample_generic_diagonal(3, 0, rng)
        direction = np.full((3, 3), 0.05j, dtype=complex)
        np.fill_diagonal(direction, 0.0)
        tau = PeriodMatrix.diagonal(t).perturbed(direction, 1.0)
        assert not is_product_orbit(tau, 1).verdict

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_diagonal_refines_every_split(self, g):
        rng = np.random.default_rng(g + 10)
        for _ in range(5 if g < 5 else 2):
            t = sample_generic_diagonal(g, 0, rng)
            diag = PeriodMatrix.diagonal(t)
            assert is_diagonal_orbit(diag).verdict
            for g1 in range(1, g):
                assert is_product_orbit(diag, g1).verdict

    def test_split_off_a_later_column(self):
        # a block product with column 2 split off: {2} | {1,3,4,5}
        rng = np.random.default_rng(14)
        swap = [1, 0, 2, 3, 4]
        tau = PeriodMatrix(np.array(_block_product(5, rng).entries)[swap][:, swap])
        assert is_product_orbit(tau, (2,)).verdict
        assert is_product_orbit(tau, (4, 1, 3, 5)).verdict
        assert not is_product_orbit(tau, 1).verdict
        assert not is_product_orbit(tau, (1,)).verdict
        verdict = is_product_orbit(tau, (2,))
        assert verdict.locus == "product_orbit_2_1345"
        assert is_product_orbit(tau, (1, 2)).locus == "product_orbit_2_3"
        # odd on column 2 and odd on the other four: 1 x 120 characteristics
        ms = [Characteristic.parse(dict(w)["characteristic"]) for w in verdict.witness]
        assert len(ms) == 120
        assert all(m.eps[1] == m.delta[1] == 1 for m in ms)

    def test_split_validation(self):
        with pytest.raises(ValueError):
            is_product_orbit(PeriodMatrix.diagonal([1j, 1j]), 2)
        tau = PeriodMatrix.diagonal([1j, 1j, 1j])
        for bad in ((), (1, 2, 3), (3, 2, 1), (0,), (4,), (1, 1), 0, 3):
            with pytest.raises(ValueError, match="distinct columns in 1..3"):
                is_product_orbit(tau, bad)


class TestRankClass:
    @pytest.mark.parametrize("g", (4, 5))
    def test_block_point_is_rank_two_null(self, g):
        rng = np.random.default_rng(g)
        for _ in range(3):
            tau = _block_product(g, rng)
            is_null, rank = thetanull_rank_class(tau, _m0(g))
            assert is_null and rank <= 2

    def test_perturbation_flips_null(self):
        rng = np.random.default_rng(6)
        tau = _block_product(4, rng)
        direction = np.zeros((4, 4), dtype=complex)
        direction[0, 1] = direction[1, 0] = 1.0
        perturbed = tau.perturbed(direction, 0.05)
        is_null, _ = thetanull_rank_class(perturbed, _m0(4))
        assert not is_null

    def test_generic_even_constant_not_null(self):
        rng = np.random.default_rng(7)
        t = sample_generic_diagonal(3, 0, rng)
        is_null, _ = thetanull_rank_class(
            PeriodMatrix.diagonal(t), Characteristic.zero(3)
        )
        assert not is_null

    def test_diagonal_m0_rank_two(self):
        rng = np.random.default_rng(8)
        t = sample_generic_diagonal(4, 0, rng)
        is_null, rank = thetanull_rank_class(PeriodMatrix.diagonal(t), _m0(4))
        assert is_null and rank == 2

    def test_sums_one_single_evaluation_pass_after_the_even_batch(self, kernel):
        # theta_m is read from the batch; its z-Hessian is one lattice pass
        # at eps(m)
        tau = PeriodMatrix.diagonal([1.1j, 1.2j, 0.9j, 1.3j])
        even_scale(tau, theta.DEFAULT_TOL)  # the batch, as the detector reads it
        batch_passes = len(kernel.passes)
        is_null, rank = thetanull_rank_class(tau, _m0(4))
        assert is_null and rank == 2
        assert [epses for epses, _ in kernel.passes[batch_passes:]] == [[(1, 1, 0, 0)]]

    @pytest.mark.parametrize("m", ["[1000;1000]", "[110;110]"])
    def test_characteristic_outside_the_even_batch_rejected(self, m):
        tau = PeriodMatrix.diagonal([1.1j, 1.2j, 0.9j, 1.3j])
        with pytest.raises(ValueError, match="not an even characteristic of genus 4"):
            thetanull_rank_class(tau, Characteristic.parse(m))


class TestHyperellipticVanishing:
    def test_g2_vacuous(self):
        rng = np.random.default_rng(9)
        tau = _block_product(2, rng)
        assert hyperelliptic_vanishing_test(tau).verdict

    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_diagonal_passes(self, g):
        rng = np.random.default_rng(g + 20)
        t = sample_generic_diagonal(g, 0, rng)
        assert hyperelliptic_vanishing_test(PeriodMatrix.diagonal(t)).verdict

    def test_g3_reduces_to_b3(self):
        rng = np.random.default_rng(10)
        tau = _block_product(3, rng)
        b3 = b_char(special_fundamental_system(3))
        verdict = hyperelliptic_vanishing_test(tau)
        required = [w for w in verdict.witness if dict(w).get("required")]
        assert len(required) == 1
        assert dict(required[0])["characteristic"] == b3.compact()


def _detector_points(g):
    t = sample_generic_diagonal(g, 0, np.random.default_rng(g + 40))
    direction = np.full((g, g), 0.05j, dtype=complex)
    np.fill_diagonal(direction, 0.0)
    diag = PeriodMatrix.diagonal(t)
    return [diag, diag.perturbed(direction, 1.0)]


def _exact_g_sums_oracle(g):
    """The even shifts by b^g of sums of exactly g essential members, by
    Characteristic addition."""
    fs = special_fundamental_system(g)
    b = b_char(fs)
    extra = set()
    for combo in itertools.combinations(fs.essential_members(), g):
        m = Characteristic.zero(g)
        for x in combo:
            m = m + x
        if is_even(m + b):
            extra.add(m + b)
    return sorted(extra, key=Characteristic.compact)


class TestEvenScaleMemo:
    """Every detector reads its constants from one memoised even batch."""

    @pytest.mark.parametrize("g", (2, 3, 4, 5))
    def test_detectors_match_fresh_batches(self, g):
        for tau in _detector_points(g):
            verdicts = ([is_diagonal_orbit(tau)]
                        + [is_product_orbit(tau, g1) for g1 in range(1, g)]
                        + [hyperelliptic_vanishing_test(tau)])
            evens = enumerate_characteristics(g, parity_filter=EVEN)
            scale = max(map(abs, theta_constants_batch(tau, evens).values()))
            for v in verdicts:
                rows = [dict(w) for w in v.witness]
                ms = [Characteristic.parse(r["characteristic"]) for r in rows]
                fresh = theta_constants_batch(tau, ms)
                for row, m in zip(rows, ms):
                    assert row["abs_value"] == pytest.approx(abs(fresh[m]), abs=1e-15)
                    assert row["vanished"] == (abs(fresh[m]) < v.tol * scale)
                assert v.verdict == all(r["vanished"] for r in rows
                                        if r.get("required", True))

    def test_mapping_is_read_only(self):
        _, values = even_scale(PeriodMatrix.diagonal([1j, 1.2j]))
        with pytest.raises(TypeError):
            values[Characteristic.zero(2)] = 0j

    def test_other_theta_tol_recomputes(self, monkeypatch):
        calls = []

        def counting(tau, characteristics, tol):
            calls.append(tol)
            return theta_constants_batch(tau, characteristics, tol=tol)

        monkeypatch.setattr(loci, "theta_constants_batch", counting)
        tau = PeriodMatrix.diagonal([1j, 1.1j, 1.3j])
        coarse = even_scale(tau, 1e-10)
        fine = even_scale(tau, 1e-13)
        assert even_scale(tau, 1e-10) is coarse
        assert calls == [1e-10, 1e-13]
        assert fine[0] == pytest.approx(coarse[0], abs=2e-10)

    def test_equal_period_matrices_each_correct(self):
        entries = np.diag([1j, 1.1j, 1.3j]) + 0.05j * (1 - np.eye(3))
        evens = enumerate_characteristics(3, parity_filter=EVEN)
        for tau in (PeriodMatrix(entries), PeriodMatrix(entries)):
            scale, values = even_scale(tau)
            fresh = theta_constants_batch(tau, evens)
            assert values.keys() == fresh.keys()
            assert all(abs(values[m] - fresh[m]) <= 1e-15 for m in evens)
            assert scale == max(map(abs, values.values()))

    @pytest.mark.parametrize("g", (2, 3, 4, 5))
    def test_informational_set_matches_oracle(self, g):
        tau = PeriodMatrix.diagonal([1j + 0.1j * a for a in range(g)])
        rows = [dict(w) for w in hyperelliptic_vanishing_test(tau).witness]
        extra = [r["characteristic"] for r in rows if not r["required"]]
        assert extra == [m.compact() for m in _exact_g_sums_oracle(g)]
        # required and informational rows partition the even characteristics
        evens = enumerate_characteristics(g, parity_filter=EVEN)
        assert sorted(r["characteristic"] for r in rows) == \
            sorted(m.compact() for m in evens)

    def test_default_and_explicit_theta_tol_share_one_batch(self, monkeypatch):
        calls = []

        def counting(tau, characteristics, tol):
            calls.append(tol)
            return theta_constants_batch(tau, characteristics, tol=tol)

        monkeypatch.setattr(loci, "theta_constants_batch", counting)
        tau = PeriodMatrix.diagonal([1j, 1.05j, 1.25j])
        first = even_scale(tau)
        assert even_scale(tau, theta.DEFAULT_TOL) is first
        assert even_scale(tau, theta_tol=theta.DEFAULT_TOL) is first
        assert calls == [theta.DEFAULT_TOL]


class TestRemarkHpo:
    def test_mI_equals_b5(self):
        fs = special_fundamental_system(5)
        total = Characteristic.zero(5)
        for o in fs.odds[:5]:
            total = total + o
        assert total == b_char(fs)

    @pytest.mark.parametrize("g", (5, 6, 7))
    def test_decomposition_through_bg(self, g):
        fs = special_fundamental_system(g)
        lhs = Characteristic.zero(g)
        for o in fs.odds[:5]:
            lhs = lhs + o
        rhs = b_char(fs)
        for o in fs.odds[5:]:
            rhs = rhs + o
        assert lhs == rhs


class TestTridiagonalTangent:
    @pytest.mark.parametrize("g", (3, 4, 5))
    def test_kernel_dimension(self, g):
        rng = np.random.default_rng(g + 30)
        t = sample_generic_diagonal(g, 0, rng)
        report = tridiagonal_tangent_check(g, t)
        assert report.passed
        assert report.kernel_dimension == 2 * g - 1

    def test_permuted_triples_permute_support(self):
        # conjugating the three odd members by a permutation moves the
        # support entry accordingly
        g = 4
        rng = np.random.default_rng(11)
        t = sample_generic_diagonal(g, 0, rng)
        report = tridiagonal_tangent_check(g, t)
        for w in report.witness:
            d = dict(w)
            j1, _, j3 = d["triple"]
            assert d["support_entry"] == (j1, j3)

    def test_one_failing_row_or_the_wrong_kernel_fails(self):
        rng = np.random.default_rng(11)
        report = tridiagonal_tangent_check(4, sample_generic_diagonal(4, 0, rng))
        assert report.passed
        first = report.witness[0][:-1] + (("pass", False),)
        assert not replace(report, witness=(first,) + report.witness[1:]).passed
        assert not replace(report, kernel_dimension=report.kernel_dimension + 1).passed

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            tridiagonal_tangent_check(2, [1j, 1j])


class TestGradientLocusSlice:
    @pytest.mark.parametrize("g", (4, 5))
    def test_slice_checks_pass(self, g):
        rng = np.random.default_rng(g + 40)
        t = sample_generic_diagonal(g, 3, rng)
        result = gradient_locus_check(g, t, rng)
        assert result.passed, result

    def test_genus_validation(self):
        with pytest.raises(ValueError):
            gradient_locus_check(3, [1j] * 3, np.random.default_rng(0))

    @pytest.mark.parametrize("g, seed", [(4, 0), (4, 1), (5, 0), (5, 1)])
    def test_grad_leading_is_the_typed_out_slice_model(self, g, seed):
        # on slice Y (tau_1j = tau_2j = tau_3j, tau_jk = 0 for j, k >= 4) the
        # leading terms of d_{z_1}theta are u tau_23 + u^2 phi_1 tau_12 tau_13
        # + u^2 sum_{j>=4} phi_j tau_1j^2, times prod(f)
        rng = np.random.default_rng(seed)
        t = sample_generic_diagonal(g, 3, rng)
        fs, phis, _ = bind_symbols(t, 3)
        prod_f = np.prod(fs)
        weights = loci._random_weights(rng, g)
        u, model = loci.U, grad_leading(3, g, 1)
        for eps in default_ladder():
            d = {(1, 2): weights[0] * eps, (1, 3): weights[1] * eps,
                 (2, 3): weights[2] * eps}
            d.update(((a, j), weights[j - 1] * eps) for j in range(4, g + 1)
                     for a in (1, 2, 3))
            e = loci._near_diagonal(t, d).entries
            typed = prod_f * (u * e[1, 2] + u**2 * phis[0] * e[0, 1] * e[0, 2]
                              + u**2 * sum(phis[j - 1] * e[0, j - 1] ** 2
                                           for j in range(4, g + 1)))
            derived = prod_f * evaluate(model, t, offdiag_of(e), 3)
            assert abs(derived - typed) <= 1e-15 * abs(typed)


def test_near_diagonal_inverts_offdiag_of():
    rng = np.random.default_rng(3)
    g = 5
    t = sample_generic_diagonal(g, 0, rng)
    d = {(a, b): complex(*rng.uniform(-0.1, 0.1, size=2))
         for a in range(1, g + 1) for b in range(a + 1, g + 1)}
    tau = loci._near_diagonal(t, d)
    assert offdiag_of(tau.entries) == d
    assert tau.entries.diagonal().tolist() == list(np.asarray(t, dtype=complex))


class TestMinorIdentities:
    @pytest.mark.parametrize("g", (4, 5))
    @pytest.mark.parametrize("which", MINOR_CHECKS)
    def test_minor_checks_pass(self, g, which):
        rng = np.random.default_rng(zlib.crc32(("%d %s" % (g, which)).encode()))
        t = sample_generic_diagonal(g, 2, rng)
        result = minor_identity_check(g, t, which, rng)
        assert result.passed, result

    def test_d12jk_vacuous_for_g4(self):
        rng = np.random.default_rng(12)
        t = sample_generic_diagonal(4, 2, rng)
        result = minor_identity_check(4, t, "D12jk", rng)
        assert result.passed
        assert not result.slope_reports and not result.coefficient_checks

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            minor_identity_check(4, [1j] * 4, "D999", np.random.default_rng(0))

    @staticmethod
    def _solved_at(monkeypatch, g, which):
        """The ladder points of every impose_thetanull call, and the result."""
        solved_at = []

        def counting(m, t, weights, eps, *args, **kwargs):
            solved_at.append(eps)
            return impose_thetanull(m, t, weights, eps, *args, **kwargs)

        monkeypatch.setattr(loci, "impose_thetanull", counting)
        rng = np.random.default_rng(14)
        t = sample_generic_diagonal(g, 2, rng)
        return solved_at, minor_identity_check(g, t, which, rng)

    def test_d12jj_solves_once_per_ladder_point(self, monkeypatch):
        # every (1,2,3,j) minor at a ladder point comes from one solve
        solved_at, result = self._solved_at(monkeypatch, 5, "D12jj")
        assert solved_at == default_ladder()
        assert len(result.slope_reports) == 2  # j = 4, 5

    @pytest.mark.parametrize("g", (4, 5))
    def test_d12jk_solves_once_per_ladder_point(self, monkeypatch, g):
        # every pair j < k reads one solve per point; g = 4 has no pair
        solved_at, result = self._solved_at(monkeypatch, g, "D12jk")
        assert solved_at == ([2.0**-k for k in range(4, 8)] if g == 5 else [])
        assert len(result.slope_reports) == (g == 5)  # (j, k) = (4, 5)

    def test_impose_thetanull_sums_one_lattice_per_iteration(self, monkeypatch):
        # each Newton iteration reads theta and its tau-gradient from one
        # tau_jet call, which sums one lattice
        counts = {"iterations": 0, "passes": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(loci, "tau_jet", counting("iterations", loci.tau_jet))
        monkeypatch.setattr(theta, "_ellipsoid_points",
                            counting("passes", theta._ellipsoid_points))
        g = 5
        rng = np.random.default_rng(13)
        t = sample_generic_diagonal(g, 2, rng)
        _, phis, _ = bind_symbols(t, 2, tol=1e-13)
        counts.update(iterations=0, passes=0)
        impose_thetanull(_m0(g), t, rng.uniform(0.5, 1.0, size=g), 2.0**-4, phis, 1e-13)
        assert counts["iterations"] >= 2
        assert counts["passes"] == counts["iterations"]

    def test_impose_thetanull_drives_theta_to_zero(self):
        g = 4
        rng = np.random.default_rng(13)
        t = sample_generic_diagonal(g, 2, rng)
        _, phis, _ = bind_symbols(t, 2, tol=1e-13)
        weights = rng.uniform(0.5, 1.0, size=g) * np.exp(
            1j * rng.uniform(0, 2 * np.pi, size=g)
        )
        tau, grad = impose_thetanull(_m0(g), t, weights, 2.0**-5, phis, 1e-13)
        assert abs(eval_theta(_m0(g), tau, tol=1e-13)) < 1e-12
        # the gradient is the one at the solution, from the solve's last pass
        np.testing.assert_allclose(grad, tau_gradient(_m0(g), tau, tol=1e-13),
                                   rtol=0, atol=1e-13)


class TestNewtonOnto:
    def test_hyperelliptic_graph_g4(self):
        # the vanishing set's constants solved for the entries tau_jk with
        # k >= j + 2, from diag(t) plus eps * w on the first off-diagonal
        g, tol = 4, 1e-12
        rng = np.random.default_rng(50)
        start = np.diag(np.asarray(sample_generic_diagonal(g, 0, rng), dtype=complex))
        for a in range(g - 1):
            w = rng.uniform(0.5, 1.0) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            start[a, a + 1] = start[a + 1, a] = 2.0**-4 * w
        coords = [(j, k) for j in range(1, g + 1) for k in range(j + 2, g + 1)]
        chars = sorted(hyperelliptic_vanishing_set(g), key=Characteristic.compact)
        tau, grads, passes = newton_onto(chars, PeriodMatrix(start), coords, tol)
        assert passes <= 5
        values = theta_constants_batch(tau, chars, tol=tol)
        assert max(abs(v) for v in values.values()) < tol
        moved = np.zeros((g, g), dtype=bool)
        for j, k in coords:
            moved[j - 1, k - 1] = moved[k - 1, j - 1] = True
        assert tau.entries[~moved].tobytes() == start[~moved].tobytes()
        rows, cols = np.array(coords).T - 1
        jacobian = grads[:, rows, cols]
        assert jacobian.shape == (10, 3)
        assert numerical_rank(jacobian) == 3

    @pytest.mark.parametrize("coords", [[(0, 1)], [(1, 2), (5, 1)], [(1, 0)], [(1, 5)], [(5, 1)],
                                        [(1, 2), (0, 1)]])
    def test_coords_out_of_range(self, coords):
        # (0, 1) would otherwise wrap round to the last row
        with pytest.raises(ValueError, match="out of range"):
            newton_onto([_m0(4)], PeriodMatrix.diagonal([1j] * 4), coords)

    @pytest.mark.parametrize("coords", [[(1, 2), (2, 1)], [(1, 2), (3, 4), (1, 2)]])
    def test_repeated_coordinate_rejected(self, coords):
        # a repeat would make the lstsq step skip one of its two half-steps
        with pytest.raises(ValueError, match=r"\(1, 2\) given twice"):
            newton_onto([_m0(4)], PeriodMatrix.diagonal([1j] * 4), coords)

    def test_pass_cap(self, monkeypatch):
        monkeypatch.setattr(loci, "NEWTON_MAX_PASSES", 1)
        tau = PeriodMatrix([[1j, 0.1], [0.1, 1.2j]])
        with pytest.raises(ValueError, match="did not converge in 1 passes"):
            newton_onto([_m0(2)], tau, [(1, 2)])
