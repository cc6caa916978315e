import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.errors import (
    BothChoicesZero,
    CoincidentRoots,
    NoEpsilonFits,
    NotEntire,
    RankDeficient,
)
from sovchain.qalgebra import ChainModel, xi_shifted
from sovchain import spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.sovbasis import build_basis
from sovchain.tq_inhom import root_multiset_distance

ETA = 0.31 + 0.07j
SINH_ETA = 0.31421767077936635556 + 0.073330601551639318257j


def model(two_s, xi, kappa=np.exp(0.3j)):
    return ChainModel(
        two_s=tuple(two_s), xi=tuple(xi), eta=ETA, kappa=kappa,
        delta_min=0.05,
    )


D1 = model([1], [0.4])
D2 = model([1, 1], [0.0, 0.7])
D3 = model([1, 2], [0.0, 0.7])
D5 = model([2, 2], [0.0, 0.9])


def solved_spectrum(m):
    """The spectrum and the solution of every eigenvalue, from one solve
    over the stack."""
    spec = sp.brute_force_spectrum(m)
    sol, errors = thm.solve_q_hom(
        m, spec.rows, ti.draw_zeta0(m, np.random.default_rng(3)))
    assert errors == [None] * m.hilbert_dim
    return spec, sol


@pytest.fixture(scope="module")
def d2_solved():
    return solved_spectrum(D2)


@pytest.fixture(scope="module")
def d3_solved():
    return solved_spectrum(D3)


@pytest.fixture(scope="module")
def d5_solved():
    return solved_spectrum(D5)


class TestSingleSiteAnchor:
    def test_roots_signs_and_windings(self):
        spec, sol = solved_spectrum(D1)
        assert sol.roots.shape == (2, 1)
        assert not sol.winding.any()
        (plus,), (minus,) = (np.flatnonzero(sol.epsilon == e) for e in (1, -1))
        t = spec.rows.base_values[:, 0]
        assert abs(t[plus] - SINH_ETA) < 1e-12
        assert abs(t[minus] + SINH_ETA) < 1e-12
        assert abs(sol.roots[plus, 0] - 0.4) < 1e-9
        assert abs(sol.roots[minus, 0] - (0.4 + 1j * np.pi)) < 1e-9

    def test_inner_rung_product_is_constant(self):
        # One spin-1/2 site has no inner rungs, so the Wronskian target is
        # the bare constant 2*eps*(i/2).
        for lam in [0.3 + 0.2j, -1.1 + 0.8j]:
            assert_allclose(thm.w_eps(D1, 1, lam), 1j, rtol=1e-14)
            assert_allclose(thm.w_eps(D1, -1, lam), -1j, rtol=1e-14)

    def test_single_root_wronskian_literal(self):
        _, sol = solved_spectrum(D1)
        lam = np.linspace(-0.8, 1.2, 5)
        expected = 1j * np.sinh(lam - sol.roots - ETA / 2.0)
        assert_allclose(thm.wronskian(D1, sol, lam), expected, rtol=1e-11)

    def test_anchor_bethe_residuals(self):
        _, sol = solved_spectrum(D1)
        assert thm.bethe_residuals_hom(D1, sol)[0].max() < 1e-12

    def test_untwisted_plus_state_is_uniform(self):
        d1_plain = model([1], [0.4], kappa=1.0)
        spec, sol = solved_spectrum(d1_plain)
        basis = build_basis(d1_plain)
        (i,) = np.flatnonzero(
            np.abs(spec.rows.base_values[:, 0] - SINH_ETA) < 1e-10)
        q = thm.QFunctionHom(d1_plain, sol.roots[i], sol.epsilon[i],
                             sol.winding[i])
        states = thm.eigenstates_from_q_hom(d1_plain, q, basis)
        assert len(states) == 2
        for _, _, right in states:
            assert abs(right[0] - right[1]) < 1e-9 * abs(right[0])


class TestClosureSystem:
    def test_shape_and_conditioning(self, d3_solved):
        spec, _ = d3_solved
        zeta0 = ti.draw_zeta0(D3, np.random.default_rng(3))
        mat = ti._closure(D3, spec.rows.ladder[0], zeta0, angle_scale=0.5)[0]
        assert mat.shape == (D3.hilbert_dim, 2, 3)
        sing = np.linalg.svd(mat, compute_uv=False)
        assert np.all(sing[:, -1] > 1e-6 * sing[:, 0])

    def test_solution_matches_ladder_on_all_rungs(self, d3_solved):
        spec, sol = d3_solved
        qs = spec.rows.ladder[0]
        for n in range(1, D3.n_sites + 1):
            rungs = [xi_shifted(D3, n, h) for h in range(D3.two_s[n - 1] + 1)]
            got = sol.value(rungs)
            want = qs[:, D3.rung_table.site == n - 1] * got[:, :1]
            assert np.all(np.abs(got - want)
                          <= 1e-9 * np.maximum(1.0, np.abs(want)))

    def test_zeta0_independence(self, d3_solved):
        spec, sol = d3_solved
        other, errors = thm.solve_q_hom(D3, spec.rows, zeta0=0.37 - 0.52j)
        assert errors == [None] * D3.hilbert_dim
        for mine, theirs in zip(sol.roots, other.roots):
            assert root_multiset_distance(
                mine, theirs, period=2j * np.pi) < 1e-9

    def test_root_count_follows_total_spin(self, d5_solved):
        _, sol = d5_solved
        assert sol.roots.shape == (D5.hilbert_dim, D5.n_s)
        assert np.all((0.0 <= sol.roots.imag) & (sol.roots.imag < 2 * np.pi))

    def test_rank_deficient_row_alone_is_recorded(self, d3_solved,
                                                  rank_deficient_hom_row):
        # Row 2's closure gets its first row twice, so its nullspace is
        # two-dimensional; the other rows must solve as before.
        spec, sol = d3_solved
        rank_deficient_hom_row(2)
        patched, errors = thm.solve_q_hom(
            D3, spec.rows, ti.draw_zeta0(D3, np.random.default_rng(3)))
        assert isinstance(errors.pop(2), RankDeficient)
        assert errors == [None] * (D3.hilbert_dim - 1)
        others = np.arange(D3.hilbert_dim) != 2
        assert np.array_equal(patched.roots[others], sol.roots[others])


class TestSolvedPipelines:
    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_grid_residual(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        spec, sol = request.getfixturevalue(f"{name}_solved")
        assert thm.hom_grid_residual(m, spec.rows, sol).max() < 1e-8

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_wronskian_identity_and_sign(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        _, sol = request.getfixturevalue(f"{name}_solved")
        res, errors = thm.verify_wronskian_identity(m, sol)
        assert errors == [None] * m.hilbert_dim
        assert res.max() < 1e-9
        flipped = thm.QFunctionHom(m, sol.roots, -sol.epsilon, sol.winding)
        res, errors = thm.verify_wronskian_identity(m, flipped)
        assert np.all(res > 1.0)
        assert [str(e) for e in errors] == [
            f"Wronskian misses the sign {-eps} of the root sum: defect "
            f"{r:.3e}" for eps, r in zip(sol.epsilon, res)]

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_sum_rule(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        _, sol = request.getfixturevalue(f"{name}_solved")
        eps, winding, residual = thm.sum_rule_check(m, sol.roots)
        assert np.array_equal(eps, sol.epsilon)
        assert np.array_equal(winding, sol.winding)
        assert residual.max() < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_bethe_residuals(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        _, sol = request.getfixturevalue(f"{name}_solved")
        residuals, errors = thm.bethe_residuals_hom(m, sol)
        assert errors == [None] * m.hilbert_dim
        assert residuals.max() < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_translate_spans_same_line(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        _, sol = request.getfixturevalue(f"{name}_solved")
        angles, both_zero = thm.q_vector_proportionality(m, sol)
        assert not both_zero.any()
        assert angles.max() < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_rebuild_matches_spectrum(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        spec, sol = request.getfixturevalue(f"{name}_solved")
        rebuilt, report, errors = thm.t_from_q_pair(m, sol)
        assert errors == [None] * m.hilbert_dim
        assert np.max(np.abs(rebuilt - spec.rows.base_values)) < 1e-8
        if report.size:
            assert report.max() < 1e-8

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_root_map_injective_and_total(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        _, sol = request.getfixturevalue(f"{name}_solved")
        assert len(sol.roots) == m.hilbert_dim
        for i in range(len(sol.roots)):
            for j in range(i + 1, len(sol.roots)):
                assert root_multiset_distance(
                    sol.roots[i], sol.roots[j], period=2j * np.pi,
                ) > 1e-4

    def test_wronskian_half_period_parity(self, d3_solved):
        _, sol = d3_solved
        sign = (-1.0) ** D3.n_s
        lam = np.array([0.2 + 0.3j, -0.9 + 0.1j])
        assert_allclose(
            thm.wronskian(D3, sol, lam + 1j * np.pi),
            sign * thm.wronskian(D3, sol, lam),
            rtol=1e-11,
        )

    def test_rebuilt_quasi_periodicity(self, d3_solved):
        _, sol = d3_solved
        rebuilt = sp.EigenvalueFunction(D3, thm.t_from_q_pair(D3, sol)[0])
        lam = 0.17 - 0.42j
        assert_allclose(
            rebuilt(lam + 1j * np.pi),
            (-1.0) ** (D3.n_sites - 1) * rebuilt(lam),
            rtol=1e-12,
        )

    def test_round_trip_through_rebuilt_function(self, d3_solved):
        _, sol = d3_solved
        rebuilt = sp.EigenvalueFunction(D3, thm.t_from_q_pair(D3, sol)[0])
        again, errors = thm.solve_q_hom(D3, rebuilt, zeta0=0.53 + 0.21j)
        assert errors == [None] * D3.hilbert_dim
        for mine, theirs in zip(sol.roots, again.roots):
            assert root_multiset_distance(
                mine, theirs, period=2j * np.pi) < 1e-8

    def test_epsilon_flips_under_half_period_root_shift(self, d3_solved):
        _, sol = d3_solved
        eps, winding, res = thm.sum_rule_check(D3, sol.roots)
        shifted = sol.roots.copy()
        shifted[:, 0] += 1j * np.pi
        eps2, _, res2 = thm.sum_rule_check(D3, shifted)
        assert np.array_equal(eps2, -eps)
        assert np.all(res2 < res + 1e-12)


class TestZeroEigenvalue:
    def test_paired_roots_carry_the_zero_eigenvalue(self, d5_solved):
        spec, sol = d5_solved
        mags = np.max(np.abs(spec.rows.base_values), axis=1)
        idx = int(np.argmin(mags))
        assert mags[idx] < 1e-10
        paired = [
            D5.xi[0], D5.xi[0] + 1j * np.pi,
            D5.xi[1], D5.xi[1] + 1j * np.pi,
        ]
        assert root_multiset_distance(
            sol.roots[idx], paired, period=2j * np.pi
        ) < 1e-9
        rebuilt, report, errors = thm.t_from_q_pair(D5, sol)
        assert errors == [None] * D5.hilbert_dim
        assert np.max(np.abs(rebuilt[idx])) < 1e-10
        assert report[idx].max() < 1e-10


class TestEigenstates:
    def test_both_choices_reproduce_brute_force(self, d3_solved):
        spec, sol = d3_solved
        basis = build_basis(D3)
        for idx in (0, 2, 5):
            f = sp.EigenvalueFunction(D3, spec.rows.base_values[idx])
            q = thm.QFunctionHom(D3, sol.roots[idx], sol.epsilon[idx],
                                 sol.winding[idx])
            states = thm.eigenstates_from_q_hom(D3, q, basis)
            assert len(states) == 2
            ref = spec.right[:, idx]
            for choice, left, right in states:
                overlap = abs(np.vdot(ref, right))
                deficiency = 1.0 - overlap / (
                    np.linalg.norm(ref) * np.linalg.norm(right)
                )
                assert deficiency < 1e-8
                for lam in (0.23 + 0.11j, -0.4 + 0.6j):
                    assert sp.eigen_residual(
                        D3, f, right, lam, side="right"
                    ) < 1e-8
                    assert sp.eigen_residual(
                        D3, f, left, lam, side="left"
                    ) < 1e-8

    def test_one_choice_may_vanish(self):
        basis = build_basis(D1)
        # Roots on both rungs of the only site kill the plain choice but
        # leave the translated one intact.
        rungs = (xi_shifted(D1, 1, 0), xi_shifted(D1, 1, 1))
        q = thm.QFunctionHom(D1, rungs, 1, 0)
        states = thm.eigenstates_from_q_hom(D1, q, basis)
        assert len(states) == 1
        assert states[0][0] == -1

    def test_both_choices_zero_raises(self):
        basis = build_basis(D1)
        rungs = (
            xi_shifted(D1, 1, 0), xi_shifted(D1, 1, 1),
            xi_shifted(D1, 1, 0) + 1j * np.pi,
            xi_shifted(D1, 1, 1) + 1j * np.pi,
        )
        q = thm.QFunctionHom(D1, rungs, 1, 0)
        with pytest.raises(BothChoicesZero):
            thm.eigenstates_from_q_hom(D1, q, basis)


class TestNegativeControls:
    def test_perturbed_root_breaks_wronskian(self, d3_solved):
        _, sol = d3_solved
        roots = sol.roots.copy()
        roots[:, 0] += 1e-3
        bad = thm.QFunctionHom(D3, roots, sol.epsilon, sol.winding)
        res, errors = thm.verify_wronskian_identity(D3, bad)
        assert all(isinstance(e, NoEpsilonFits) or r > 1e-5
                   for e, r in zip(errors, res))

    def test_perturbed_root_breaks_bethe(self, d3_solved):
        _, sol = d3_solved
        roots = sol.roots.copy()
        roots[:, 1] += 1e-3
        bad = thm.QFunctionHom(D3, roots, sol.epsilon, sol.winding)
        assert np.all(thm.bethe_residuals_hom(D3, bad)[0].max(axis=-1) > 1e-5)

    def test_perturbed_eigenvalue_breaks_grid(self, d3_solved):
        spec, sol = d3_solved
        off = sp.EigenvalueFunction(D3, spec.rows.base_values + 1e-3)
        assert np.all(thm.hom_grid_residual(D3, off, sol) > 1e-5)

    def test_random_roots_are_not_proportional(self):
        rng = np.random.default_rng(5)
        roots = tuple(
            rng.uniform(0, 1, D3.n_s) + 1j * rng.uniform(0, 2 * np.pi, D3.n_s)
        )
        q = thm.QFunctionHom(D3, roots, 1, 0)
        angles, both_zero = thm.q_vector_proportionality(D3, q)
        assert not both_zero.any()
        assert angles.min() > 1e-2

    def test_perturbed_root_is_not_entire(self, d3_solved):
        _, sol = d3_solved
        roots = sol.roots.copy()
        roots[:, 0] += 1e-2
        bad = thm.QFunctionHom(D3, roots, sol.epsilon, sol.winding)
        errors = thm.t_from_q_pair(D3, bad)[2]
        assert all(isinstance(e, NotEntire) for e in errors)

    def test_vanishing_grid_is_not_entire_in_its_row_alone(self, d3_solved):
        # Row 1's cached Q is 0 on the grid, so the cross combination has
        # no scale to be measured against; the other rows rebuild their
        # base values as the unaltered solution does.
        _, sol = d3_solved
        clean = thm.t_from_q_pair(D3, sol)
        bad = thm.QFunctionHom(D3, sol.roots, sol.epsilon, sol.winding)
        table = {key: value.copy() for key, value in sol.table.items()}
        cut = ti.GRID_POINTS.size
        for key in ("grid", "grid+ip"):
            table[key][1] = 0.0
        for key in ("x-eta", "x+ip-eta", "x+eta", "x+eta+ip"):
            table[key][1, :cut] = 0.0
        bad.__dict__["table"] = table  # the cached_property's slot
        values, report, errors = thm.t_from_q_pair(D3, bad)
        assert [str(e) if e else None for e in errors] == [
            None, "Q vanishes on the whole sampling grid"] + [None] * (
                D3.hilbert_dim - 2)
        assert isinstance(errors[1], NotEntire)
        rows = np.arange(D3.hilbert_dim) != 1
        assert np.array_equal(values[rows], clean[0][rows])
        assert np.array_equal(report[rows], clean[1][rows])

    def test_coincident_roots_raise(self, d3_solved):
        _, sol = d3_solved
        roots = sol.roots.copy()
        roots[:, 1] = roots[:, 0] + 2j * np.pi + 1e-10
        bad = thm.QFunctionHom(D3, roots, sol.epsilon, sol.winding)
        errors = thm.bethe_residuals_hom(D3, bad)[1]
        assert all(isinstance(e, CoincidentRoots) for e in errors)

    def test_admissibility_guard(self):
        # One site per row, or -1: the solve records NonAdmissible there.
        # Two spin-1/2 sites, top rungs 0 and 2; the scale is the largest
        # value on the row's rungs, 1.0 in both rows.
        site = thm._vanishing_site(
            np.array([[1e-14, 1.0, 1.0, 0.2], [1e-14, 0.3, 1.0, 0.2]]),
            np.array([[1e-13, 0.2, 0.5, 0.2], [0.5, 0.2, 0.5, 0.2]]),
            np.array([0, 2]),
        )
        assert site.tolist() == [0, -1]

    def test_admissibility_guard_on_one_site(self):
        # One spin-1 site: its top rung and translate are the only top
        # values, so the scale must come from the lower rungs.
        site = thm._vanishing_site(
            np.array([[1e-14, 1.0, 0.7], [1e-7, 1.0, 0.7]]),
            np.array([[1e-13, 0.4, 0.9], [1e-13, 0.4, 0.9]]),
            np.array([0]),
        )
        assert site.tolist() == [0, -1]
