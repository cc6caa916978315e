import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.errors import RecursionBlowup, ZeroState
from sovchain.qalgebra import ChainModel, xi_shifted
from sovchain import sovbasis as sb
from sovchain import spectrum as sp

ETA = 0.31 + 0.07j
SINH_ETA = 0.31421767077936635556 + 0.073330601551639318257j


def model(two_s, xi, kappa=1.0):
    return ChainModel(two_s=tuple(two_s), xi=tuple(xi), eta=ETA, kappa=kappa)


D1 = model([1], [0.0])
D2 = model([1, 1], [0.0, 0.7])
D3 = model([1, 2], [0.0, 0.7])
D4 = model([1, 1, 1], [0.1, 0.85, 1.7])


class TestEigenvalueFunctionEvaluation:
    F3 = sp.EigenvalueFunction(
        model([1, 2, 1], [0.1, 0.9 + 0.1j, 1.6]),
        (0.4 - 0.2j, -1.1 + 0.3j, 0.7 + 0.9j),
    )

    @staticmethod
    def cardinal_loop(f, lam):
        """Reference: the cardinal sum, one site and one factor at a time."""
        xi = f.model.xi
        total = 0j
        for n, value in enumerate(f.base_values):
            term = complex(value)
            for l in range(len(xi)):
                if l != n:
                    term *= np.sinh(lam - xi[l]) / np.sinh(xi[n] - xi[l])
            total += term
        return total

    def test_array_input_matches_scalar_loop(self):
        lam = np.array([[0.2 + 0.1j, -0.5 + 0.7j], [1.3 - 0.2j, 0.9 + 0.1j]])
        got = self.F3(lam)
        assert got.shape == lam.shape
        want = np.array(
            [[self.cardinal_loop(self.F3, z) for z in row] for row in lam]
        )
        assert_allclose(got, want, rtol=1e-12)
        for z in lam.ravel():
            assert_allclose(self.F3(complex(z)), self.cardinal_loop(self.F3, z),
                            rtol=1e-12)

    def test_interpolates_base_values(self):
        for n, xi in enumerate(self.F3.model.xi):
            assert_allclose(self.F3(xi), self.F3.base_values[n], rtol=1e-13)

    def test_finite_on_integer_spin_rung(self):
        # The middle rung of the spin-1 site is exactly its base point.
        m = self.F3.model
        rung = xi_shifted(m, 2, 1)
        assert rung == m.xi[1]
        value = self.F3(np.array([rung, rung + 1e-9]))
        assert np.all(np.isfinite(value))
        assert_allclose(value, self.F3.base_values[1], rtol=1e-7)


class TestSingleSiteAnchor:
    # One spin-1/2 site: the twisted transfer matrix is off-diagonal with
    # entries kappa*sinh(eta) and sinh(eta)/kappa, eigenvalues +-sinh(eta).

    def test_eigenvalues(self):
        spec = sp.brute_force_spectrum(D1)
        got = sorted((f.base_values[0] for f in spec.functions), key=lambda z: z.real)
        assert_allclose(got[0], -SINH_ETA, atol=1e-12)
        assert_allclose(got[1], SINH_ETA, atol=1e-12)

    def test_ladder_matrix_entries(self):
        plus = sp.EigenvalueFunction(D1, (SINH_ETA,))
        mat = sp.ladder_matrix(D1, plus, site=1)
        assert_allclose(mat, [[SINH_ETA, SINH_ETA], [SINH_ETA, SINH_ETA]], atol=1e-14)
        assert abs(np.linalg.det(mat)) < 1e-14

    def test_null_vector_components(self):
        plus = sp.EigenvalueFunction(D1, (SINH_ETA,))
        qs, ps, consistency = sp.ladder_nullspace(D1, plus)
        assert_allclose(qs[0], [1.0, -1.0], atol=1e-14)
        assert_allclose(ps[0], [1.0, -1.0], atol=1e-14)
        assert consistency < 1e-13

    def test_left_state_twist_dependence(self):
        kap = np.exp(0.3j)
        m = model([1], [0.0], kappa=kap)
        plus = sp.EigenvalueFunction(m, (SINH_ETA,))
        basis = sb.build_basis(m)
        qs, ps, _ = sp.ladder_nullspace(m, plus)
        left = sp.left_eigenstate(m, basis, qs)
        right = sp.right_eigenstate(m, basis, ps)
        assert_allclose(left / left[0], [1.0, kap], atol=1e-12)
        assert_allclose(right / right[0], [1.0, 1.0 / kap], atol=1e-12)


@pytest.mark.parametrize("m", [D1, D2, D3, D4], ids=["D1", "D2", "D3", "D4"])
def test_spectrum_is_simple(m):
    spec = sp.brute_force_spectrum(m, seed=3)
    assert len(spec.functions) == m.hilbert_dim
    vals = [f.base_values[0] for f in spec.functions]
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[j]) > 1e-8


@pytest.mark.parametrize("m", [D1, D2, D3, D4], ids=["D1", "D2", "D3", "D4"])
def test_discrete_characterization(m):
    spec = sp.brute_force_spectrum(m, seed=3)
    for f in spec.functions:
        assert sp.discrete_residual(m, f) < 1e-8
        assert sp.ladder_nullspace(m, f)[2] < 1e-8


def test_quasi_periodicity():
    # The interpolated eigenvalue flips sign under lam -> lam + i*pi when the
    # chain length is even and is invariant when odd.
    for m, sign in [(D2, -1.0), (D4, 1.0)]:
        f = sp.brute_force_spectrum(m, seed=3).functions[0]
        for lam in [0.3 + 0.1j, -0.4 + 0.55j]:
            assert_allclose(f(lam + 1j * np.pi), sign * f(lam), rtol=1e-10)


def test_kappa_isospectrality():
    ref = None
    for kap in [1.0, np.exp(0.3j), 2.0]:
        m = model([1, 2], [0.0, 0.7], kappa=kap)
        spec = sp.brute_force_spectrum(m, seed=3)
        vals = np.array([f.base_values for f in spec.functions])
        if ref is None:
            ref = vals
        else:
            assert np.max(np.abs(vals - ref)) < 1e-9


@pytest.mark.parametrize("m", [D2, D3], ids=["D2", "D3"])
def test_separated_eigenstates(m):
    spec = sp.brute_force_spectrum(m, seed=3)
    basis = sb.build_basis(m)
    rng = np.random.default_rng(5)
    lams = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    pairs = [sp.build_eigenstates(m, f, basis) for f in spec.functions]
    for f, (left, right) in zip(spec.functions, pairs):
        for lam in lams:
            assert sp.eigen_residual(m, f, right, complex(lam), "right") < 1e-8
            assert sp.eigen_residual(m, f, left, complex(lam), "left") < 1e-8
    for i, (left, _) in enumerate(pairs):
        for j, (_, right) in enumerate(pairs):
            if i != j:
                cross = abs(np.dot(left, right))
                cross /= np.linalg.norm(left) * np.linalg.norm(right)
                assert cross < 1e-9


def test_perturbed_value_is_rejected():
    spec = sp.brute_force_spectrum(D3, seed=3)
    f = spec.functions[0]
    bumped = sp.EigenvalueFunction(D3, (f.base_values[0] + 1e-3, f.base_values[1]))
    assert sp.discrete_residual(D3, bumped) > 1e-5


def test_refine_recovers_from_perturbation():
    spec = sp.brute_force_spectrum(D3, seed=3)
    f = spec.functions[2]
    bumped = sp.EigenvalueFunction(
        D3, tuple(v + 1e-6 for v in f.base_values)
    )
    polished = sp.refine(D3, bumped, steps=3)
    assert sp.discrete_residual(D3, polished) < 1e-12
    assert np.max(np.abs(np.array(polished.base_values) - f.base_values)) < 1e-10


def test_recursion_blowup_guard():
    absurd = sp.EigenvalueFunction(D1, (1e20 + 0j,))
    with pytest.raises(RecursionBlowup):
        sp.ladder_nullspace(D1, absurd)


def test_zero_coefficients_raise():
    basis = sb.build_basis(D1)
    with pytest.raises(ZeroState):
        sp.left_eigenstate(D1, basis, [np.zeros(2, dtype=complex)])


def test_base_value_count_is_checked():
    with pytest.raises(ValueError):
        sp.EigenvalueFunction(D2, (1.0 + 0j,))
