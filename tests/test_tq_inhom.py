import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.cli import generate_model
from sovchain.errors import ExceptionalAlpha, PoleAtXi
from sovchain.qalgebra import ChainModel, xi_shifted
from sovchain.trigpoly import horner, interpolate
from sovchain import sovbasis as sb
from sovchain import spectrum as sp
from sovchain import tq_inhom as ti

ETA = 0.31 + 0.07j


def model(two_s, xi, kappa=1.0):
    return ChainModel(two_s=tuple(two_s), xi=tuple(xi), eta=ETA, kappa=kappa)


D1 = model([1], [0.0])
D2 = model([1, 1], [0.0, 0.7])
D3 = model([1, 2], [0.0, 0.7])

ZETA0 = ti.draw_zeta0(D3, np.random.default_rng(42))


def dft_nodes(m):
    """The N + N_s + 2 nodes i pi k / (N + N_s + 2) of the degree-drop
    check."""
    count = m.n_sites + m.n_s + 2
    return 1j * np.pi * np.arange(count) / count


def solved(m):
    """Every eigenvalue with its solution, from one solve over the stack."""
    spec = sp.brute_force_spectrum(m, seed=3)
    sol, retries, errors = ti.solve_q_inhom(m, spec.rows, zeta0=ZETA0)
    assert errors == [None] * m.hilbert_dim
    return [(f, sol.row(i)) for i, f in enumerate(spec.functions)], retries


def solve_one(m, f, **kwargs):
    """(solution, retries, error) for one eigenvalue, from a stack of one."""
    sol, retries, errors = ti.solve_q_inhom(
        m, sp.EigenvalueFunction(m, [f.base_values]), **kwargs)
    return sol.row(0), int(retries[0]), errors[0]


@pytest.fixture(scope="module")
def d2_solutions():
    out, retries = solved(D2)
    assert not retries.any()
    return out


@pytest.fixture(scope="module")
def d3_solutions():
    return solved(D3)[0]


class TestCorrectionTerm:
    def test_vanishes_at_every_rung(self):
        for n in range(1, D3.n_sites + 1):
            for h in range(D3.two_s[n - 1] + 1):
                val = ti.f_inhom(D3, 0.4 + 0.2j, xi_shifted(D3, n, h))
                assert abs(val) < 1e-13

    def test_single_site_explicit_form(self):
        # One spin-1/2 site: prefactor 2*exp(-eta), the free root shifted by
        # the lone lower rung, and two rung factors.
        xi0 = xi_shifted(D1, 1, 0)
        xi1 = xi_shifted(D1, 1, 1)
        x = 0.9 - 0.3j
        for lam in [0.2 + 0.1j, -0.6 + 0.8j]:
            expected = (
                2.0
                * np.exp(-ETA)
                * np.sinh(lam - x + xi1 + ETA)
                * np.sinh(lam - xi0)
                * np.sinh(lam - xi1)
            )
            assert_allclose(ti.f_inhom(D1, x, lam), expected, rtol=1e-12)

    def test_pointwise_matches_coefficient_route(self):
        # The correction term lies in the balanced class of degree
        # N + N_s + 1, the class the degree-drop check interpolates in.
        x = 0.3 + 0.5j
        nodes = dft_nodes(D3)
        m1 = nodes.size - 1
        coeffs = interpolate(nodes, ti.f_inhom(D3, x, nodes), 0)
        rng = np.random.default_rng(0)
        for lam in rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4):
            assert_allclose(
                horner(coeffs, m1, complex(lam)), ti.f_inhom(D3, x, complex(lam)),
                rtol=1e-11,
            )


class TestSolve:
    def test_equation_holds_on_grid(self, d2_solutions):
        for f, sol in d2_solutions:
            assert ti.inhom_grid_residual(D2, f, sol) < 1e-8

    def test_equation_holds_on_grid_mixed_spins(self, d3_solutions):
        for f, sol in d3_solutions:
            assert ti.inhom_grid_residual(D3, f, sol) < 1e-8

    def test_zeta0_independence(self, d3_solutions):
        other = ti.draw_zeta0(D3, np.random.default_rng(7))
        for f, sol in d3_solutions:
            sol2, _, error = solve_one(D3, f, zeta0=other, max_retries=0)
            assert error is None
            assert ti.root_multiset_distance(sol.roots, sol2.roots) < 1e-7

    def test_root_multisets_distinguish_eigenvalues(self, d3_solutions):
        roots = [sol.roots for _, sol in d3_solutions]
        assert len(roots) == D3.hilbert_dim
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert ti.root_multiset_distance(roots[i], roots[j]) > 1e-4

    def test_exceptional_alpha_detected_and_retried(self, d2_solutions):
        f, _ = d2_solutions[0]
        coeffs = ti.det_m_polynomial(D2, f, ZETA0)
        bad_alpha = np.log(np.roots(coeffs[::-1])[0])
        _, _, error = solve_one(D2, f, zeta0=ZETA0, alpha=bad_alpha,
                                max_retries=0)
        assert isinstance(error, ExceptionalAlpha)
        sol, retries, error = solve_one(D2, f, zeta0=ZETA0, alpha=bad_alpha)
        assert error is None
        assert 1 <= retries <= 3
        assert ti.inhom_grid_residual(D2, f, sol) < 1e-8

    def test_admissibility_guard(self):
        # One flag per row: the solve records NonAdmissible for flagged rows.
        flagged = ti._inadmissible(np.array([[1.0, 0.0, 2.0], [1.0, 0.5, 2.0]]))
        assert flagged.tolist() == [True, False]


class TestDeterminantIdentities:
    def test_beta_zero_closed_form(self, d2_solutions):
        f, _ = d2_solutions[0]
        coeffs = ti.det_m_polynomial(D2, f, ZETA0)
        closed = ti.det_m_zero_closed_form(D2, ZETA0)
        assert_allclose(coeffs[0], closed, rtol=1e-8)

    def test_beta_zero_closed_form_mixed_spins(self, d3_solutions):
        f, _ = d3_solutions[0]
        coeffs = ti.det_m_polynomial(D3, f, ZETA0)
        closed = ti.det_m_zero_closed_form(D3, ZETA0)
        assert_allclose(coeffs[0], closed, rtol=1e-8)

    def test_leading_coefficient(self, d3_solutions):
        for f, _ in d3_solutions:
            coeffs = ti.det_m_polynomial(D3, f, ZETA0)
            assert_allclose(
                coeffs[-1], ti.leading_det_coefficient(D3, f), rtol=1e-8
            )

    def test_constant_term_is_eigenvalue_independent(self, d2_solutions):
        dets = [
            ti.det_m_polynomial(D2, f, ZETA0)[0] for f, _ in d2_solutions
        ]
        assert np.max(np.abs(np.diff(dets))) < 1e-10 * abs(dets[0])


class TestReconstruction:
    def test_round_trip_base_values(self, d3_solutions):
        for f, sol in d3_solutions:
            rebuilt, _, errors = ti.t_from_q_inhom(D3, sol)
            assert errors == [None]
            diff = np.abs(rebuilt - np.array(f.base_values))
            assert np.max(diff) < 1e-8

    def test_bethe_residuals_small(self, d3_solutions):
        for _, sol in d3_solutions:
            assert np.max(ti.bethe_residuals_inhom(D3, sol)) < 1e-7

    def test_perturbed_root_fails_bethe(self, d3_solutions):
        _, sol = d3_solutions[0]
        bumped = ti.QFunctionInhom(
            model=sol.model,
            alpha=sol.alpha,
            zeta0=sol.zeta0,
            roots=(sol.roots[0] + 1e-3,) + sol.roots[1:],
            lambda_bar=sol.lambda_bar + 1e-3,
        )
        assert np.max(ti.bethe_residuals_inhom(D3, bumped)) > 1e-5

    def test_pole_at_base_point(self):
        roots = (D2.xi[0], 0.5 + 0.3j)
        sol = ti.QFunctionInhom(
            model=D2,
            alpha=0.0,
            zeta0=ZETA0,
            roots=roots,
            lambda_bar=complex(np.sum(roots)),
        )
        assert isinstance(ti.t_from_q_inhom(D2, sol)[2][0], PoleAtXi)


class TestEigenstateCoordinates:
    def test_gaussian_prefactor_is_one_at_zero(self):
        lam = 0.0
        assert np.exp(-lam * (lam + ETA - 2.0 * 0.37) / (2.0 * ETA)) == 1.0

    def test_dressed_ratios_equal_null_vector(self, d3_solutions):
        for f, sol in d3_solutions:
            qs = f.ladder[0]
            for site, arr in enumerate(ti.q_coordinates_inhom(D3, sol)):
                assert np.max(np.abs(arr / arr[0] - qs[site])) < 1e-9

    def test_assembled_states_are_eigenstates(self, d3_solutions):
        basis = sb.build_basis(D3)
        spec = sp.brute_force_spectrum(D3, seed=3)
        for (f, sol), column in zip(d3_solutions, spec.right.T):
            left, right, errors = ti.eigenstates_from_q_inhom(D3, sol, basis)
            assert errors == [None]
            for lam in [0.25 + 0.4j, -0.7 - 0.2j]:
                assert sp.eigen_residual(D3, f, right, lam, "right") < 1e-8
                assert sp.eigen_residual(D3, f, left, lam, "left") < 1e-8
            cos = abs(np.vdot(right, column))
            cos /= np.linalg.norm(right) * np.linalg.norm(column)
            assert 1.0 - cos < 1e-8


class TestStructure:
    def test_degree_drop_of_combined_side(self, d3_solutions):
        for _, sol in d3_solutions:
            assert ti.degree_drop_residual(D3, sol) < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("two_s", [(2, 2), (4,), (2, 2, 2)])
    def test_degree_drop_on_integer_spin_chains(self, two_s, seed):
        # These chains have the exact zero eigenvalue, where the combined
        # side vanishes identically and only the terms set the scale.
        m = generate_model(seed, len(two_s), list(two_s), 0.05, eta=ETA,
                           kappa=np.exp(0.3j))
        spec = sp.brute_force_spectrum(m, seed=3)
        zeta0 = ti.draw_zeta0(m, np.random.default_rng(42))
        sol, _, errors = ti.solve_q_inhom(m, spec.rows, zeta0=zeta0)
        assert errors == [None] * m.hilbert_dim
        for i in range(m.hilbert_dim):
            assert ti.degree_drop_residual(m, sol.row(i)) < 1e-9, i

    def test_shifted_lambda_bar_breaks_degree_drop(self, d3_solutions):
        for _, sol in d3_solutions:
            wrong = dataclasses.replace(sol, lambda_bar=sol.lambda_bar + 1e-4)
            assert ti.degree_drop_residual(D3, wrong) > 1e-7

    def test_combined_side_equals_eigenvalue_times_q(self, d3_solutions):
        # At the nodes of the coefficient check, the three right-hand terms
        # sum to t * Q with t built from its base values.
        nodes = dft_nodes(D3)
        for f, sol in d3_solutions:
            terms = ti._rhs_terms(D3, sol, nodes)
            tq = f(nodes) * sol.value(nodes)
            assert np.max(np.abs(sum(terms) - tq)) < 1e-9 * np.max(np.abs(terms))

    def test_correction_free_system_has_only_zero_solution(self, d2_solutions):
        for f, _ in d2_solutions:
            assert ti.homogeneous_rank_check(D2, f, 0.0, ZETA0) > 1e-4


def test_root_multiset_distance_handles_period():
    a = [0.3 + 0.1j, -0.2 + 3.0j]
    b = [-0.2 + 3.0j - 1j * np.pi, 0.3 + 0.1j]
    assert ti.root_multiset_distance(a, b) < 1e-14
    assert ti.root_multiset_distance(a, [0.3 + 0.1j]) == np.inf
