import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.errors import (
    BothChoicesZero,
    CoincidentRoots,
    NoEpsilonFits,
    NotEntire,
)
from sovchain.qalgebra import ChainModel, xi_shifted
from sovchain import spectrum as sp
from sovchain import tq_hom as thm
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
    """Every eigenvalue with its solution, from one solve over the stack."""
    spec = sp.brute_force_spectrum(m, seed=3)
    sol, errors = thm.solve_q_hom(
        m, spec.rows, thm.draw_zeta0_hom(m, np.random.default_rng(3)))
    assert errors == [None] * m.hilbert_dim
    return [(f, sol.row(i)) for i, f in enumerate(spec.functions)]


def solve_one(m, f, **kwargs):
    """The solution for one eigenvalue function, from a stack of one."""
    sol, errors = thm.solve_q_hom(
        m, sp.EigenvalueFunction(m, [f.base_values]), **kwargs)
    assert errors == [None]
    return sol.row(0)


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
        seen = {}
        for f, sol in solved_spectrum(D1):
            assert len(sol.roots) == 1
            assert sol.winding == 0
            seen[sol.epsilon] = (f.base_values[0], sol.roots[0])
        t_plus, root_plus = seen[1]
        t_minus, root_minus = seen[-1]
        assert abs(t_plus - SINH_ETA) < 1e-12
        assert abs(t_minus + SINH_ETA) < 1e-12
        assert abs(root_plus - 0.4) < 1e-9
        assert abs(root_minus - (0.4 + 1j * np.pi)) < 1e-9

    def test_inner_rung_product_is_constant(self):
        # One spin-1/2 site has no inner rungs, so the Wronskian target is
        # the bare constant 2*eps*(i/2).
        for lam in [0.3 + 0.2j, -1.1 + 0.8j]:
            assert_allclose(thm.w_eps(D1, 1, lam), 1j, rtol=1e-14)
            assert_allclose(thm.w_eps(D1, -1, lam), -1j, rtol=1e-14)

    def test_single_root_wronskian_literal(self):
        _, sol = solved_spectrum(D1)[0]
        root = sol.roots[0]
        for lam in np.linspace(-0.8, 1.2, 5):
            expected = 1j * np.sinh(lam - root - ETA / 2.0)
            assert_allclose(thm.wronskian(D1, sol, lam), expected, rtol=1e-11)

    def test_anchor_bethe_residuals(self):
        for _, sol in solved_spectrum(D1):
            assert thm.bethe_residuals_hom(D1, sol)[0].max() < 1e-12

    def test_untwisted_plus_state_is_uniform(self):
        d1_plain = model([1], [0.4], kappa=1.0)
        spec = sp.brute_force_spectrum(d1_plain, seed=3)
        basis = build_basis(d1_plain)
        f = next(
            f for f in spec.functions
            if abs(f.base_values[0] - SINH_ETA) < 1e-10
        )
        sol = solve_one(d1_plain, f, zeta0=thm.draw_zeta0_hom(
            d1_plain, np.random.default_rng(3)))
        states = thm.eigenstates_from_q_hom(d1_plain, sol, basis)
        assert len(states) == 2
        for _, _, right in states:
            assert abs(right[0] - right[1]) < 1e-9 * abs(right[0])


class TestClosureSystem:
    def test_shape_and_conditioning(self, d3_solved):
        f, _ = d3_solved[0]
        zeta0 = thm.draw_zeta0_hom(D3, np.random.default_rng(3))
        mat = thm.half_system_matrix(D3, f, zeta0)
        assert mat.shape == (2, 3)
        sing = np.linalg.svd(mat, compute_uv=False)
        assert sing[-1] > 1e-6 * sing[0]

    def test_solution_matches_ladder_on_all_rungs(self, d3_solved):
        f, sol = d3_solved[1]
        qs = f.ladder[0]
        for n in range(1, D3.n_sites + 1):
            top = sol.value(xi_shifted(D3, n, 0))
            for h in range(D3.two_s[n - 1] + 1):
                got = sol.value(xi_shifted(D3, n, h))
                want = qs[n - 1][h] * top
                assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    def test_zeta0_independence(self, d3_solved):
        f, sol = d3_solved[2]
        other = solve_one(D3, f, zeta0=0.37 - 0.52j)
        assert root_multiset_distance(
            sol.roots, other.roots, period=2j * np.pi
        ) < 1e-9

    def test_root_count_follows_total_spin(self, d5_solved):
        for _, sol in d5_solved:
            assert len(sol.roots) == D5.n_s
            assert all(0.0 <= r.imag < 2.0 * np.pi for r in sol.roots)


class TestSolvedPipelines:
    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_grid_residual(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for f, sol in request.getfixturevalue(f"{name}_solved"):
            assert thm.hom_grid_residual(m, f, sol) < 1e-8

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_wronskian_identity_and_sign(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for _, sol in request.getfixturevalue(f"{name}_solved"):
            eps, res, errors = thm.verify_wronskian_identity(m, sol)
            assert errors == [None]
            assert eps == sol.epsilon
            assert res < 1e-9

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_sum_rule(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for _, sol in request.getfixturevalue(f"{name}_solved"):
            eps, winding, residual = thm.sum_rule_check(m, sol.roots)
            assert eps == sol.epsilon
            assert winding == sol.winding
            assert residual < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_bethe_residuals(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for _, sol in request.getfixturevalue(f"{name}_solved"):
            residuals, errors = thm.bethe_residuals_hom(m, sol)
            assert errors == [None]
            assert residuals.max() < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_translate_spans_same_line(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for _, sol in request.getfixturevalue(f"{name}_solved"):
            angles, both_zero = thm.q_vector_proportionality(m, sol)
            assert not both_zero.any()
            assert angles.max() < 1e-7

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_rebuild_matches_spectrum(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        for f, sol in request.getfixturevalue(f"{name}_solved"):
            rebuilt, report, errors = thm.t_from_q_pair(m, sol)
            assert errors == [None]
            diff = np.max(np.abs(rebuilt - f.base_values))
            assert diff < 1e-8
            if report.size:
                assert report.max() < 1e-8

    @pytest.mark.parametrize("name", ["d2", "d3", "d5"])
    def test_root_map_injective_and_total(self, name, request):
        m = {"d2": D2, "d3": D3, "d5": D5}[name]
        solved = request.getfixturevalue(f"{name}_solved")
        assert len(solved) == m.hilbert_dim
        for i in range(len(solved)):
            for j in range(i + 1, len(solved)):
                assert root_multiset_distance(
                    solved[i][1].roots, solved[j][1].roots,
                    period=2j * np.pi,
                ) > 1e-4

    def test_wronskian_closed_form_matches_definition(self, d3_solved):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, 10) + 1j * rng.uniform(-1, 1, 10)
        for _, sol in d3_solved[:3]:
            got = thm.wronskian(D3, sol, pts)
            want = thm.wronskian_closed_form(D3, sol, pts)
            assert_allclose(got, want, rtol=1e-11)

    def test_wronskian_half_period_parity(self, d3_solved):
        _, sol = d3_solved[0]
        sign = (-1.0) ** D3.n_s
        for lam in [0.2 + 0.3j, -0.9 + 0.1j]:
            assert_allclose(
                thm.wronskian(D3, sol, lam + 1j * np.pi),
                sign * thm.wronskian(D3, sol, lam),
                rtol=1e-11,
            )

    def test_rebuilt_quasi_periodicity(self, d3_solved):
        f, sol = d3_solved[3]
        rebuilt = sp.EigenvalueFunction(D3, thm.t_from_q_pair(D3, sol)[0])
        lam = 0.17 - 0.42j
        assert_allclose(
            rebuilt(lam + 1j * np.pi),
            (-1.0) ** (D3.n_sites - 1) * rebuilt(lam),
            rtol=1e-12,
        )

    def test_round_trip_through_rebuilt_function(self, d3_solved):
        f, sol = d3_solved[4]
        rebuilt = sp.EigenvalueFunction(D3, thm.t_from_q_pair(D3, sol)[0])
        again = solve_one(D3, rebuilt, zeta0=0.53 + 0.21j)
        assert root_multiset_distance(
            sol.roots, again.roots, period=2j * np.pi
        ) < 1e-8

    def test_epsilon_flips_under_half_period_root_shift(self, d3_solved):
        _, sol = d3_solved[0]
        eps, winding, res = thm.sum_rule_check(D3, sol.roots)
        shifted = list(sol.roots)
        shifted[0] += 1j * np.pi
        eps2, _, res2 = thm.sum_rule_check(D3, shifted)
        assert eps2 == -eps
        assert res2 < res + 1e-12


class TestZeroEigenvalue:
    def test_paired_roots_carry_the_zero_eigenvalue(self, d5_solved):
        mags = [max(abs(v) for v in f.base_values) for f, _ in d5_solved]
        idx = int(np.argmin(mags))
        assert mags[idx] < 1e-10
        _, sol = d5_solved[idx]
        paired = [
            D5.xi[0], D5.xi[0] + 1j * np.pi,
            D5.xi[1], D5.xi[1] + 1j * np.pi,
        ]
        assert root_multiset_distance(
            sol.roots, paired, period=2j * np.pi
        ) < 1e-9
        rebuilt, report, errors = thm.t_from_q_pair(D5, sol)
        assert errors == [None]
        assert np.max(np.abs(rebuilt)) < 1e-10
        assert report.max() < 1e-10


class TestEigenstates:
    def test_both_choices_reproduce_brute_force(self):
        spec = sp.brute_force_spectrum(D3, seed=3)
        basis = build_basis(D3)
        for idx in (0, 2, 5):
            f = spec.functions[idx]
            sol = solve_one(D3, f, zeta0=thm.draw_zeta0_hom(
                D3, np.random.default_rng(3)))
            states = thm.eigenstates_from_q_hom(D3, sol, basis)
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
        _, sol = d3_solved[1]
        roots = list(sol.roots)
        roots[0] += 1e-3
        bad = thm.QFunctionHom(D3, tuple(roots), sol.epsilon, sol.winding)
        _, res, errors = thm.verify_wronskian_identity(D3, bad)
        assert isinstance(errors[0], NoEpsilonFits) or res > 1e-5

    def test_perturbed_root_breaks_bethe(self, d3_solved):
        _, sol = d3_solved[1]
        roots = list(sol.roots)
        roots[1] += 1e-3
        bad = thm.QFunctionHom(D3, tuple(roots), sol.epsilon, sol.winding)
        assert thm.bethe_residuals_hom(D3, bad)[0].max() > 1e-5

    def test_perturbed_eigenvalue_breaks_grid(self, d3_solved):
        f, sol = d3_solved[1]
        off = sp.EigenvalueFunction(
            D3, tuple(v + 1e-3 for v in f.base_values)
        )
        assert thm.hom_grid_residual(D3, off, sol) > 1e-5

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
        _, sol = d3_solved[2]
        roots = list(sol.roots)
        roots[0] += 1e-2
        bad = thm.QFunctionHom(D3, tuple(roots), sol.epsilon, sol.winding)
        assert isinstance(thm.t_from_q_pair(D3, bad)[2][0], NotEntire)

    def test_coincident_roots_raise(self, d3_solved):
        _, sol = d3_solved[0]
        roots = list(sol.roots)
        roots[1] = roots[0] + 2j * np.pi + 1e-10
        bad = thm.QFunctionHom(D3, tuple(roots), sol.epsilon, sol.winding)
        errors = thm.bethe_residuals_hom(D3, bad)[1]
        assert isinstance(errors[0], CoincidentRoots)

    def test_admissibility_guard(self):
        # One site per row, or -1: the solve records NonAdmissible there.
        site = thm._vanishing_site(
            np.array([[1e-14, 1.0], [1e-14, 1.0]]),
            np.array([[1e-13, 0.5], [0.5, 0.5]]),
            np.array([1.0, 1.0]),
        )
        assert site.tolist() == [0, -1]
