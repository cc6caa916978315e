"""End-to-end gate: every advertised guarantee at its stated tolerance.

Each test below is one pass/fail line for one guarantee, checked on the
reference chains from conftest.  The three characterizations of the
spectrum (discrete system, inhomogeneous two-term equation, homogeneous
two-term equation) are each run against the brute-force oracle; nothing
here loosens a tolerance to make a line pass.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from numpy.random import default_rng

import sovchain.qalgebra as qa
import sovchain.sovbasis as sb
import sovchain.spectrum as sp
import sovchain.tq_hom as th
import sovchain.tq_inhom as ti
from sovchain.errors import NoEpsilonFits

SINH_ETA = 0.31421767077936635556 + 0.073330601551639318257j

ALL_SHAPES = [
    "one-spin-half",
    "two-spin-half",
    "spin-half-plus-spin-one",
    "three-spin-half",
    "two-spin-one",
]

PROBE_PAIRS = [(0.23 + 0.11j, -0.4 + 0.6j), (0.57 - 0.31j, 0.12 + 0.45j)]


class TestAlgebra:
    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_exchange_relations_and_commutation(self, name, chains):
        model = chains[name]
        worst = 0.0
        for lam, mu in PROBE_PAIRS:
            for site in range(1, model.n_sites + 1):
                worst = max(worst, qa.rll_residual(model, site, lam, mu))
            worst = max(worst, qa.rtt_residual(model, lam, mu))
            worst = max(worst, qa.quantum_determinant_residual(model, lam))
            t1 = qa.transfer_antiperiodic(model, lam)
            t2 = qa.transfer_antiperiodic(model, mu)
            comm = np.linalg.norm(t1 @ t2 - t2 @ t1)
            worst = max(
                worst, comm / (np.linalg.norm(t1) * np.linalg.norm(t2))
            )
        assert worst < 1e-10


class TestAdjointSymmetry:
    def test_imaginary_anisotropy_real_shifts(self):
        m = qa.ChainModel(
            two_s=(1, 1),
            xi=(0.0, 0.7),
            eta=0.31j,
            kappa=np.exp(0.3j),
            delta_min=0.05,
        )
        report = qa.normality_check(m)
        assert report.case == "imaginary-eta"
        assert report.max_residual < 1e-12

    def test_real_anisotropy_imaginary_shifts(self):
        m = qa.ChainModel(
            two_s=(1, 1),
            xi=(0.1j, 0.9j),
            eta=0.31,
            kappa=np.exp(0.3j),
            delta_min=0.05,
        )
        report = qa.normality_check(m)
        assert report.case == "real-eta"
        assert report.max_residual < 1e-12


class TestSeparatedBasis:
    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_operator_actions(self, name, chains, chain_bases):
        model = chains[name]
        basis = chain_bases[name]
        res = sb.action_residuals(basis, 0.23 + 0.11j)
        for side in ("right", "left"):
            for op in "DCB":
                assert res[op, side].shape == (model.hilbert_dim,)
                assert res[op, side].max() < 1e-9

    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_overlaps_match_closed_form(self, name, chain_bases):
        assert sb.overlap_residual(chain_bases[name]) < 1e-9

    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_identity_resolution(self, name, chain_bases):
        assert sb.identity_resolution(chain_bases[name]) < 1e-8


class TestSpectrumOracle:
    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_count_distinctness_and_discrete_system(
        self, name, chains, chain_spectra
    ):
        model = chains[name]
        spec = chain_spectra[name]
        base = spec.rows.base_values
        assert len(base) == model.hilbert_dim
        for i in range(len(base)):
            for j in range(i + 1, len(base)):
                assert np.max(np.abs(base[i] - base[j])) > 1e-6
        assert sp.discrete_residual(model, spec.rows).max() < 1e-8

    @pytest.mark.parametrize("name", ALL_SHAPES + ["normal-regime"])
    def test_twist_family_is_isospectral(self, name, chains):
        """Each twist's rows match the kappa = 1 rows one to one, every row
        with its nearest reference row.  Lone calls sort their rows by
        Re t(xi_1), which on a normal-regime chain (eta imaginary, xi
        real) is rounding noise, so rows are matched, not compared in
        order."""
        model = chains.get(name) or qa.ChainModel(
            two_s=(1, 2), xi=(0.1, 0.6), eta=0.31j, kappa=1.0)
        reference = None
        for kappa in (1.0, np.exp(0.3j), 2.0):
            variant = dataclasses.replace(model, kappa=kappa)
            got = sp.brute_force_spectrum(variant).rows.base_values
            if reference is None:
                reference = got
                continue
            dist = np.max(np.abs(got[:, None] - reference[None]), axis=-1)
            nearest = np.argmin(dist, axis=1)
            assert sorted(nearest) == list(range(len(reference)))
            assert np.max(dist[np.arange(len(got)), nearest]) < 1e-9

    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_separated_eigenstates_and_biorthogonality(
        self, name, chains, chain_spectra, chain_bases
    ):
        model = chains[name]
        spec = chain_spectra[name]
        basis = chain_bases[name]
        rng = default_rng(23)
        probes = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
        lefts, rights, errors = sp.eigenstates(
            model, basis, spec.rows.ladder[0])
        assert errors == [None] * model.hilbert_dim
        for lam in probes:
            assert sp.eigen_residual(
                model, spec.rows, rights, lam, "right").max() < 1e-8
            assert sp.eigen_residual(
                model, spec.rows, lefts, lam, "left").max() < 1e-8
        for i, left in enumerate(lefts):
            for j, right in enumerate(rights):
                if i == j:
                    continue
                cross = abs(np.dot(left, right))
                cross /= np.linalg.norm(left) * np.linalg.norm(right)
                assert cross < 1e-9


class TestInhomogeneousEquation:
    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_every_eigenvalue_solves_and_round_trips(
        self, name, chains, chain_spectra
    ):
        model = chains[name]
        spec = chain_spectra[name]
        zeta0 = ti.draw_zeta0(model, default_rng(42))
        zeta0_b = ti.draw_zeta0(model, default_rng(43))
        sols, attempts, errors = ti.solve_q_inhom(
            model, spec.rows, zeta0=zeta0)
        others, _, errors_b = ti.solve_q_inhom(model, spec.rows, zeta0=zeta0_b)
        assert errors == errors_b == [None] * model.hilbert_dim
        assert attempts.max() <= 3
        assert ti.inhom_grid_residual(model, spec.rows, sols).max() < 1e-8
        assert ti.bethe_residuals_inhom(model, sols).max() < 1e-7
        rebuilt, _, pole = ti.t_from_q_inhom(model, sols)
        assert pole == [None] * model.hilbert_dim
        base = spec.rows.base_values
        diff = np.max(np.abs(rebuilt - base), axis=1)
        scale = np.max(np.abs(base), axis=1)
        # Two-spin-one's exact zero eigenvalue has base values at rounding
        # level (2.7e-31), where an error relative to them says nothing;
        # that row alone is held to the run's absolute matching bound.
        zero = scale < 1e-12
        assert np.count_nonzero(zero) == (name == "two-spin-one")
        assert np.all(diff[~zero] / scale[~zero] < 1e-8)
        assert np.all(diff[zero] < 1e-8)
        for mine, theirs in zip(sols.roots, others.roots):
            assert ti.root_multiset_distance(mine, theirs) < 1e-7

    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_determinant_closed_forms(self, name, chains, chain_spectra):
        model = chains[name]
        spec = chain_spectra[name]
        zeta0 = ti.draw_zeta0(model, default_rng(42))
        closed = ti.det_m_zero_closed_form(model, zeta0)
        for values in spec.rows.base_values:
            f = sp.EigenvalueFunction(model, values)
            coeffs = ti.det_m_polynomial(model, f, zeta0)
            assert abs(coeffs[0] - closed) < 1e-8 * abs(closed)
            leading = ti.leading_det_coefficient(model, f)
            assert abs(coeffs[-1] - leading) < 1e-8 * abs(leading)


class TestHomogeneousEquation:
    @pytest.mark.parametrize("name", ALL_SHAPES)
    def test_every_eigenvalue_solves_with_certificates(
        self, name, chains, chain_spectra, chain_bases
    ):
        model = chains[name]
        spec = chain_spectra[name]
        basis = chain_bases[name]
        zeta0 = ti.draw_zeta0(model, default_rng(42))
        sols, errors = th.solve_q_hom(model, spec.rows, zeta0=zeta0)
        none = [None] * model.hilbert_dim
        assert errors == none
        assert th.hom_grid_residual(model, spec.rows, sols).max() < 1e-8
        # The Wronskian carries the root sum's sign, and not the other one.
        wres, fit_errors = th.verify_wronskian_identity(model, sols)
        assert fit_errors == none
        assert wres.max() < 1e-9
        flipped = dataclasses.replace(sols, epsilon=-sols.epsilon)
        _, flip_errors = th.verify_wronskian_identity(model, flipped)
        assert all(isinstance(e, NoEpsilonFits) for e in flip_errors)
        eps2, winding, sres = th.sum_rule_check(model, sols.roots)
        assert np.array_equal(eps2, sols.epsilon)
        assert np.array_equal(winding, sols.winding)
        assert sres.max() < 1e-7
        angles, both_zero = th.q_vector_proportionality(model, sols)
        assert np.max(angles) < 1e-7
        assert not both_zero.any()
        bethe, bethe_errors = th.bethe_residuals_hom(model, sols)
        assert bethe_errors == none
        assert bethe.max() < 1e-7
        oracle_left = np.linalg.inv(spec.right)
        for idx in range(model.hilbert_dim):
            q = th.QFunctionHom(model, sols.roots[idx], sols.epsilon[idx],
                                sols.winding[idx])
            states = th.eigenstates_from_q_hom(model, q, basis)
            assert states
            for _, left, right in states:
                oracle_r = spec.right[:, idx]
                overlap = abs(np.vdot(oracle_r, right))
                overlap /= np.linalg.norm(oracle_r) * np.linalg.norm(right)
                assert 1.0 - overlap < 1e-8
                oracle_l = oracle_left[idx]
                overlap = abs(np.vdot(oracle_l, left))
                overlap /= np.linalg.norm(oracle_l) * np.linalg.norm(left)
                assert 1.0 - overlap < 1e-8
        all_roots = sols.roots
        assert len(all_roots) == model.hilbert_dim
        for i in range(len(all_roots)):
            for j in range(i + 1, len(all_roots)):
                apart = ti.root_multiset_distance(
                    all_roots[i], all_roots[j], period=2j * np.pi
                )
                assert apart > 1e-4


class TestSingleSiteAnchor:
    def test_eigenvalues_are_plus_minus_sinh(self, chain_spectra):
        values = sorted(chain_spectra["one-spin-half"].rows(0.0),
                        key=lambda z: z.real)
        assert abs(values[0] + SINH_ETA) < 1e-12
        assert abs(values[1] - SINH_ETA) < 1e-12

    def test_roots_sit_on_the_shift_or_its_translate(
        self, chains, chain_spectra
    ):
        model = chains["one-spin-half"]
        xi1 = model.xi[0]
        spec = chain_spectra["one-spin-half"]
        zeta0 = ti.draw_zeta0(model, default_rng(0))
        sols, errors = th.solve_q_hom(model, spec.rows, zeta0)
        assert errors == [None, None]
        for i, value in enumerate(spec.rows(0.37 - 0.2j)):
            plus_branch = abs(value - SINH_ETA) < 1e-6
            assert sols.epsilon[i] == (1 if plus_branch else -1)
            target = xi1 if plus_branch else xi1 + 1j * np.pi
            apart = ti.root_multiset_distance(
                sols.roots[i], (target,), period=2j * np.pi
            )
            assert apart < 1e-9


class TestNegativeControls:
    def test_perturbed_eigenvalue_is_rejected_everywhere(
        self, chains, chain_spectra
    ):
        model = chains["two-spin-half"]
        spec = chain_spectra["two-spin-half"]
        off = sp.EigenvalueFunction(model, spec.rows.base_values + 1e-3)
        assert np.all(sp.discrete_residual(model, off) > 1e-5)
        zeta0 = ti.draw_zeta0(model, default_rng(0))
        sol = ti.solve_q_inhom(model, spec.rows, zeta0)[0]
        assert np.all(ti.inhom_grid_residual(model, off, sol) > 1e-5)
        zeta0 = ti.draw_zeta0(model, default_rng(0))
        q = th.solve_q_hom(model, spec.rows, zeta0)[0]
        assert np.all(th.hom_grid_residual(model, off, q) > 1e-5)

    def test_perturbed_roots_are_rejected(self, chains, chain_spectra):
        model = chains["two-spin-half"]
        rows = chain_spectra["two-spin-half"].rows
        zeta0 = ti.draw_zeta0(model, default_rng(0))
        sol = ti.solve_q_inhom(model, rows, zeta0)[0]
        for j in range(model.n_s):
            bad = sol.roots.copy()
            bad[:, j] += 1e-3
            bad_sol = dataclasses.replace(sol, roots=bad)
            residuals = ti.bethe_residuals_inhom(model, bad_sol)
            assert np.all(residuals.max(axis=-1) > 1e-5)
        zeta0 = ti.draw_zeta0(model, default_rng(0))
        q = th.solve_q_hom(model, rows, zeta0)[0]
        for j in range(model.n_s):
            bad = q.roots.copy()
            bad[:, j] += 1e-3
            bad_q = th.QFunctionHom(model, bad, q.epsilon, q.winding)
            residuals = th.bethe_residuals_hom(model, bad_q)[0]
            assert np.all(residuals.max(axis=-1) > 1e-5)
