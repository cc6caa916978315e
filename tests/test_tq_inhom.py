import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.cli import generate_model
from sovchain.errors import ExceptionalAlpha, PoleAtXi, RecursionBlowup
from sovchain.qalgebra import ChainModel, a_of, d_of, xi_shifted
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
    """The N + N_s + 2 nodes i pi k / (N + N_s + 2): exp(2 lam) runs over
    the roots of unity, where the Vandermonde matrix of the balanced class
    of degree N + N_s + 1 is a scaled DFT."""
    count = m.n_sites + m.n_s + 2
    return 1j * np.pi * np.arange(count) / count


def rhs_terms(m, sol, nodes):
    """The three right-hand terms at the nodes, from a and d there and Q
    at the nodes shifted by -eta and +eta."""
    return sol.rhs(nodes, a_of(m, nodes), d_of(m, nodes),
                   sol.value(nodes - m.eta), sol.value(nodes + m.eta))


def combined_side_defect(m, rows, sol):
    """Per row, the largest gap between the sum of the three right-hand
    terms and t * Q on the DFT nodes, relative to the largest term.  The
    gap bounds every coefficient of the difference, the extreme ones
    included, so a small one certifies that the combined side drops to the
    degree of t * Q."""
    nodes = dft_nodes(m)
    terms = rhs_terms(m, sol, nodes)
    gap = np.abs(sum(terms) - rows(nodes) * sol.value(nodes))
    return gap.max(axis=-1) / np.abs(terms).max(axis=(0, -1))


def solved(m):
    """The spectrum, the solution of every eigenvalue and its retries,
    from one solve over the stack."""
    spec = sp.brute_force_spectrum(m)
    sol, retries, errors = ti.solve_q_inhom(m, spec.rows, zeta0=ZETA0)
    assert errors == [None] * m.hilbert_dim
    return spec, sol, retries


@pytest.fixture(scope="module")
def d2_solutions():
    spec, sol, retries = solved(D2)
    assert not retries.any()
    return spec, sol


@pytest.fixture(scope="module")
def d3_solutions():
    return solved(D3)[:2]


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
        # N + N_s + 1, the class the combined-side check samples.
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
        spec, sol = d2_solutions
        assert ti.inhom_grid_residual(D2, spec.rows, sol).max() < 1e-8

    def test_equation_holds_on_grid_mixed_spins(self, d3_solutions):
        spec, sol = d3_solutions
        assert ti.inhom_grid_residual(D3, spec.rows, sol).max() < 1e-8

    def test_zeta0_independence(self, d3_solutions):
        spec, sol = d3_solutions
        other = ti.draw_zeta0(D3, np.random.default_rng(7))
        sol2, _, errors = ti.solve_q_inhom(D3, spec.rows, zeta0=other,
                                           max_retries=0)
        assert errors == [None] * D3.hilbert_dim
        for mine, theirs in zip(sol.roots, sol2.roots):
            assert ti.root_multiset_distance(mine, theirs) < 1e-7

    def test_root_multisets_distinguish_eigenvalues(self, d3_solutions):
        roots = d3_solutions[1].roots
        assert len(roots) == D3.hilbert_dim
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                assert ti.root_multiset_distance(roots[i], roots[j]) > 1e-4

    def test_exceptional_alpha_detected_and_retried(self, d2_solutions):
        spec, _ = d2_solutions
        f = sp.EigenvalueFunction(D2, spec.rows.base_values[0])
        coeffs = ti.det_m_polynomial(D2, f, ZETA0)
        bad_alpha = np.log(np.roots(coeffs[::-1])[0])
        _, _, errors = ti.solve_q_inhom(D2, spec.rows, zeta0=ZETA0,
                                        alpha=bad_alpha, max_retries=0)
        assert isinstance(errors[0], ExceptionalAlpha)
        sol, retries, errors = ti.solve_q_inhom(D2, spec.rows, zeta0=ZETA0,
                                                alpha=bad_alpha)
        assert errors == [None] * D2.hilbert_dim
        assert 1 <= retries[0] <= 3
        assert ti.inhom_grid_residual(D2, spec.rows, sol).max() < 1e-8

    def test_redraws_come_from_a_generator_built_at_the_first(
            self, d2_solutions, monkeypatch):
        # A solve that needs no redraw builds no generator; one that does
        # draws its alphas from default_rng(0), as when the generator was
        # built on every call.
        spec, _ = d2_solutions
        f = sp.EigenvalueFunction(D2, spec.rows.base_values[0])
        coeffs = ti.det_m_polynomial(D2, f, ZETA0)
        bad_alpha = np.log(np.roots(coeffs[::-1])[0])
        build = np.random.default_rng
        rng = build(0)
        draws = [complex(rng.uniform(-np.log(2.0), np.log(2.0)),
                         rng.uniform(0.0, 2.0 * np.pi)) for _ in range(3)]

        def no_generator(*args, **kwargs):
            raise AssertionError("a solve without redraws built a generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        _, retries, errors = ti.solve_q_inhom(D2, spec.rows, zeta0=ZETA0)
        assert errors == [None] * D2.hilbert_dim and not retries.any()
        monkeypatch.setattr(np.random, "default_rng", build)
        sol, retries, _ = ti.solve_q_inhom(D2, spec.rows, zeta0=ZETA0,
                                           alpha=bad_alpha)
        assert sol.alpha[0] == draws[retries[0] - 1]

    def test_admissibility_guard(self):
        # One flag per row: the solve records NonAdmissible for flagged rows.
        flagged = ti._inadmissible(np.array([[1.0, 0.0, 2.0], [1.0, 0.5, 2.0]]))
        assert flagged.tolist() == [True, False]


class TestDeterminantIdentities:
    def test_beta_zero_closed_form(self, d2_solutions):
        f = sp.EigenvalueFunction(D2, d2_solutions[0].rows.base_values[0])
        coeffs = ti.det_m_polynomial(D2, f, ZETA0)
        closed = ti.det_m_zero_closed_form(D2, ZETA0)
        assert_allclose(coeffs[0], closed, rtol=1e-8)

    def test_beta_zero_closed_form_mixed_spins(self, d3_solutions):
        f = sp.EigenvalueFunction(D3, d3_solutions[0].rows.base_values[0])
        coeffs = ti.det_m_polynomial(D3, f, ZETA0)
        closed = ti.det_m_zero_closed_form(D3, ZETA0)
        assert_allclose(coeffs[0], closed, rtol=1e-8)

    def test_leading_coefficient(self, d3_solutions):
        for values in d3_solutions[0].rows.base_values:
            f = sp.EigenvalueFunction(D3, values)
            coeffs = ti.det_m_polynomial(D3, f, ZETA0)
            assert_allclose(
                coeffs[-1], ti.leading_det_coefficient(D3, f), rtol=1e-8
            )

    def test_blown_up_row_raises_its_blowup(self):
        # One eigenvalue's routes raise the error its ladder row recorded.
        absurd = sp.EigenvalueFunction(D2, (1e20 + 0j, 1e20 + 0j))
        with pytest.raises(RecursionBlowup, match="rung recursion overflow"):
            ti.det_m_polynomial(D2, absurd, ZETA0)

    def test_constant_term_is_eigenvalue_independent(self, d2_solutions):
        dets = [
            ti.det_m_polynomial(D2, sp.EigenvalueFunction(D2, values),
                                ZETA0)[0]
            for values in d2_solutions[0].rows.base_values
        ]
        assert np.max(np.abs(np.diff(dets))) < 1e-10 * abs(dets[0])


class TestReconstruction:
    def test_round_trip_base_values(self, d3_solutions):
        spec, sol = d3_solutions
        rebuilt, _, errors = ti.t_from_q_inhom(D3, sol)
        assert errors == [None] * D3.hilbert_dim
        assert np.max(np.abs(rebuilt - spec.rows.base_values)) < 1e-8

    def test_bethe_residuals_small(self, d3_solutions):
        assert np.max(ti.bethe_residuals_inhom(D3, d3_solutions[1])) < 1e-7

    def test_perturbed_root_fails_bethe(self, d3_solutions):
        _, sol = d3_solutions
        roots = sol.roots.copy()
        roots[:, 0] += 1e-3
        bumped = ti.QFunctionInhom(model=sol.model, alpha=sol.alpha,
                                   roots=roots)
        residuals = ti.bethe_residuals_inhom(D3, bumped)
        assert np.all(residuals.max(axis=-1) > 1e-5)

    def test_pole_at_base_point(self):
        roots = (D2.xi[0], 0.5 + 0.3j)
        sol = ti.QFunctionInhom(model=D2, alpha=0.0, roots=roots)
        assert isinstance(ti.t_from_q_inhom(D2, sol)[2][0], PoleAtXi)


class TestEigenstateCoordinates:
    def test_gaussian_prefactor_is_one_at_zero(self):
        lam = 0.0
        assert np.exp(-lam * (lam + ETA - 2.0 * 0.37) / (2.0 * ETA)) == 1.0

    def test_dressed_ratios_equal_null_vector(self, d3_solutions):
        spec, sol = d3_solutions
        qs = spec.rows.ladder[0]
        coords = ti.q_coordinates_inhom(D3, sol)
        for site in range(D3.n_sites):
            cols = D3.rung_table.site == site
            arr = coords[:, cols]
            assert np.max(np.abs(arr / arr[:, :1] - qs[:, cols])) < 1e-9

    def test_assembled_states_are_eigenstates(self, d3_solutions):
        spec, sol = d3_solutions
        basis = sb.build_basis(D3)
        left, right, errors = ti.eigenstates_from_q_inhom(D3, sol, basis)
        assert errors == [None] * D3.hilbert_dim
        for lam in [0.25 + 0.4j, -0.7 - 0.2j]:
            assert sp.eigen_residual(D3, spec.rows, right, lam,
                                     "right").max() < 1e-8
            assert sp.eigen_residual(D3, spec.rows, left, lam,
                                     "left").max() < 1e-8
        cos = np.abs(np.sum(right.conj() * spec.right.T, axis=-1))
        cos /= np.linalg.norm(right, axis=-1) * np.linalg.norm(spec.right,
                                                               axis=0)
        assert np.all(1.0 - cos < 1e-8)


# The census shapes up to dim 81.  On n_s = 8 and 9 the check reads under
# its bound even with unit-norm rows, on the closure rows alone as well
# (ROADMAP item 12); where it does, the test is expected to fail.
RANK_SHAPES = [(1, 1, 1), (1, 2), (2, 3), (1, 2, 2), (2,), (2, 2), (4,),
               (1, 4), (1,) * 6, (3, 3), (2, 1, 3), (2, 2, 2), (2, 2, 2, 2),
               (3, 3, 3)]
# Lowest ratio on the shapes and seeds that read under the bound.
RANK_SHORT = {((2, 2, 2, 2), 0): 3.5e-6, ((2, 2, 2, 2), 1): 4.7e-5,
              ((2, 2, 2, 2), 2): 5.2e-6, ((3, 3, 3), 0): 3.6e-5,
              ((3, 3, 3), 2): 1.2e-5}


class TestStructure:
    def test_degree_drop_of_combined_side(self, d3_solutions):
        # Without t: the three right-hand terms lie in the balanced class of
        # degree N + N_s + 1, and the extreme exponential coefficients of
        # their sum cancel, relative to the largest coefficient of a term.
        _, sol = d3_solutions
        nodes = dft_nodes(D3)
        coeffs = interpolate(nodes, np.stack(rhs_terms(D3, sol, nodes)), 0)
        ends = np.abs(coeffs.sum(axis=0)[..., [0, -1]]).max(axis=-1)
        assert np.all(ends < 1e-9 * np.abs(coeffs).max(axis=(0, -1)))

    def test_combined_side_equals_eigenvalue_times_q(self, d3_solutions):
        # At the DFT nodes, the three right-hand terms sum to t * Q with t
        # built from its base values.
        spec, sol = d3_solutions
        assert combined_side_defect(D3, spec.rows, sol).max() < 1e-9

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("two_s", [(2, 2), (4,), (2, 2, 2)])
    def test_degree_drop_on_integer_spin_chains(self, two_s, seed):
        # The combined-side check of the test above, on chains with the
        # exact zero eigenvalue, where the combined side vanishes
        # identically and only the terms set the scale.
        m = generate_model(seed, len(two_s), list(two_s), 0.05, eta=ETA,
                           kappa=np.exp(0.3j))
        spec = sp.brute_force_spectrum(m)
        zeta0 = ti.draw_zeta0(m, np.random.default_rng(42))
        sol, _, errors = ti.solve_q_inhom(m, spec.rows, zeta0=zeta0)
        assert errors == [None] * m.hilbert_dim
        assert combined_side_defect(m, spec.rows, sol).max() < 1e-9

    def test_shifted_lambda_bar_breaks_degree_drop(self, d3_solutions,
                                                   monkeypatch):
        # Negative control of the combined-side check: the shift alpha plus
        # the root sum (lambda_bar) off by 1e-4 in the correction term moves
        # its free root.
        spec, sol = d3_solutions
        f_inhom = ti.f_inhom
        monkeypatch.setattr(ti, "f_inhom", lambda model, x, *args: f_inhom(
            model, x + 1e-4, *args))
        assert np.all(combined_side_defect(D3, spec.rows, sol) > 1e-7)

    def test_correction_free_system_has_only_zero_solution(self, d2_solutions):
        for values in d2_solutions[0].rows.base_values:
            f = sp.EigenvalueFunction(D2, values)
            assert ti.homogeneous_rank_check(D2, f, 0.0, ZETA0) > 1e-4

    @pytest.mark.parametrize("two_s, seed", [
        pytest.param(two_s, seed, marks=pytest.mark.xfail(
            strict=True, reason=f"reads {RANK_SHORT[two_s, seed]:.1e}")
            if (two_s, seed) in RANK_SHORT else ())
        for two_s in RANK_SHAPES for seed in (0, 1, 2)],
        ids=lambda x: "".join(map(str, x)) if isinstance(x, tuple) else x)
    def test_correction_free_system_on_census_shapes(self, two_s, seed):
        # The check of the test above on every eigenvalue of each census
        # shape up to dim 81, at the same bound: with unit-norm rows it
        # reads at least 5.5e-4 through n_s = 6 ((2, 1, 3) seed 1).
        m = generate_model(seed, len(two_s), list(two_s), 0.05, eta=ETA,
                           kappa=np.exp(0.3j))
        spec = sp.brute_force_spectrum(m)
        zeta0 = ti.draw_zeta0(m, np.random.default_rng(42))
        for values in spec.rows.base_values:
            f = sp.EigenvalueFunction(m, values)
            assert ti.homogeneous_rank_check(m, f, 0.0, zeta0) > 1e-4



def test_root_multiset_distance_handles_period():
    a = [0.3 + 0.1j, -0.2 + 3.0j]
    b = [-0.2 + 3.0j - 1j * np.pi, 0.3 + 0.1j]
    assert ti.root_multiset_distance(a, b) < 1e-14
    assert ti.root_multiset_distance(a, [0.3 + 0.1j]) == np.inf
