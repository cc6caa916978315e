import re
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain import sovbasis as sb
from sovchain import spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.cli import RunConfig
from sovchain.errors import (
    ConfigError, DegenerateSpectrum, RecursionBlowup, ZeroState,
)
from sovchain.qalgebra import (
    ChainModel, _h_grid, monodromy_entries, transfer_from_entries,
    twist_gauge, xi_shifted,
)

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
        got = sorted(spec.rows.base_values[:, 0], key=lambda z: z.real)
        assert_allclose(got[0], -SINH_ETA, atol=1e-12)
        assert_allclose(got[1], SINH_ETA, atol=1e-12)

    def test_ladder_matrix_entries(self):
        plus = sp.EigenvalueFunction(D1, (SINH_ETA,))
        mat = sp.ladder_matrix(D1, plus, site=1)
        assert_allclose(mat, [[SINH_ETA, SINH_ETA], [SINH_ETA, SINH_ETA]], atol=1e-14)
        assert abs(np.linalg.det(mat)) < 1e-14

    def test_null_vector_components(self):
        plus = sp.EigenvalueFunction(D1, (SINH_ETA,))
        qs, _ = plus.ladder
        ps = D1.rung_table.companion * qs
        assert_allclose(qs, [1.0, -1.0], atol=1e-14)
        assert_allclose(ps, [1.0, -1.0], atol=1e-14)

    def test_left_state_twist_dependence(self):
        kap = np.exp(0.3j)
        m = model([1], [0.0], kappa=kap)
        plus = sp.EigenvalueFunction(m, (SINH_ETA,))
        basis = sb.build_basis(m)
        left, right, _ = sp.eigenstates(m, basis, plus.ladder[0])
        assert_allclose(left / left[0], [1.0, kap], atol=1e-12)
        assert_allclose(right / right[0], [1.0, 1.0 / kap], atol=1e-12)


@pytest.mark.parametrize("m", [D1, D2, D3, D4], ids=["D1", "D2", "D3", "D4"])
def test_spectrum_is_simple(m):
    spec = sp.brute_force_spectrum(m)
    vals = spec.rows.base_values[:, 0]
    assert len(vals) == m.hilbert_dim
    for i in range(len(vals)):
        for j in range(i + 1, len(vals)):
            assert abs(vals[i] - vals[j]) > 1e-8


@pytest.mark.parametrize("m", [D1, D2, D3, D4], ids=["D1", "D2", "D3", "D4"])
def test_discrete_characterization(m):
    spec = sp.brute_force_spectrum(m)
    assert sp.discrete_residual(m, spec.rows).max() < 1e-8


def test_quasi_periodicity():
    # The interpolated eigenvalue flips sign under lam -> lam + i*pi when the
    # chain length is even and is invariant when odd.
    for m, sign in [(D2, -1.0), (D4, 1.0)]:
        rows = sp.brute_force_spectrum(m).rows
        for lam in [0.3 + 0.1j, -0.4 + 0.55j]:
            assert_allclose(rows(lam + 1j * np.pi), sign * rows(lam),
                            rtol=1e-10)


def test_kappa_isospectrality():
    ref = None
    # On (1, 2), N_s = 3: 1e20^-3 is still a normal double, so the gauge
    # holds; the twists whose powers are not come in the next test.
    for kap in [1.0, np.exp(0.3j), 2.0, 1e10, 1e20]:
        m = model([1, 2], [0.0, 0.7], kappa=kap)
        spec = sp.brute_force_spectrum(m)
        vals = spec.rows.base_values
        if ref is None:
            ref = vals
        else:
            assert np.max(np.abs(vals - ref)) < 1e-9


@pytest.mark.parametrize("kappa", [0.0, np.nan, np.inf, 1e200, 1e-300])
def test_twist_without_a_gauge_is_a_config_error(kappa):
    # On (1, 2), N_s = 3: kappa^-k for some k <= 3 is 0, NaN or overflows,
    # so no eigenbasis G V exists to check.  The twist is named, and no
    # RuntimeWarning comes first.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=re.escape(
                f"twist kappa={complex(kappa):.6g}: ")):
            sp.brute_force_spectrum(D3, twists=[kappa])


@pytest.mark.parametrize("m", [D2, D3], ids=["D2", "D3"])
def test_separated_eigenstates(m):
    spec = sp.brute_force_spectrum(m)
    basis = sb.build_basis(m)
    rng = np.random.default_rng(5)
    lams = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    lefts, rights, errors = sp.eigenstates(m, basis, spec.rows.ladder[0])
    assert errors == [None] * m.hilbert_dim
    pairs = list(zip(lefts, rights))
    for lam in lams:
        assert sp.eigen_residual(
            m, spec.rows, rights, complex(lam), "right").max() < 1e-8
        assert sp.eigen_residual(
            m, spec.rows, lefts, complex(lam), "left").max() < 1e-8
    for i, (left, _) in enumerate(pairs):
        for j, (_, right) in enumerate(pairs):
            if i != j:
                cross = abs(np.dot(left, right))
                cross /= np.linalg.norm(left) * np.linalg.norm(right)
                assert cross < 1e-9


def test_perturbed_value_is_rejected():
    base = sp.brute_force_spectrum(D3).rows.base_values.copy()
    base[:, 0] += 1e-3
    bumped = sp.EigenvalueFunction(D3, base)
    assert np.all(sp.discrete_residual(D3, bumped) > 1e-5)


def test_recursion_blowup_guard():
    absurd = sp.EigenvalueFunction(D1, (1e20 + 0j,))
    assert isinstance(absurd.ladder[1][0], RecursionBlowup)


def test_zero_coefficients_raise():
    basis = sb.build_basis(D1)
    errors = sp.eigenstates(D1, basis, [np.zeros(2, dtype=complex)])[2]
    assert isinstance(errors[0], ZeroState)


def test_base_value_count_is_checked():
    with pytest.raises(ValueError):
        sp.EigenvalueFunction(D2, (1.0 + 0j,))


# ----------------------------------------------------------------------
# spin-flip sectors of the oracle


def generated(two_s, seed=0):
    """The chain ``sovchain run`` draws for this shape and model seed, at
    kappa = 1."""
    doc = {"model": {"two_s": list(two_s), "seed": seed}}
    return RunConfig.from_dict(doc).build_model()


# B + C anticommutes with the parity P = (-1)^{|h|}, so t -> -t.  Odd N_s
# takes the mirrored sectors; of even N_s, (1,)*6 and a block of (2, 2, 2)
# take the quarter-size eig, and (3, 3), (2, 2), (4,) small blocks or
# unequal parity halves.
PARITY_SHAPES = [(1,) * 5, (1,) * 6, (1, 4), (2, 3), (3, 3), (2, 2), (4,),
                 (2, 2, 2)]
PARITY_TWISTS = (1.0, 0.6 + 0.8j, 3 - 1j)
shape_ids = pytest.mark.parametrize("two_s", PARITY_SHAPES,
                                    ids=lambda s: "".join(map(str, s)))


def parity(m):
    """(-1)^{|h|} of every state, in basis order."""
    return (-1) ** _h_grid(m.two_s).sum(axis=0)


def pair_distance(x, y):
    """Largest distance of a row of x to the row of y nearest to it, or inf
    if two rows of x share their nearest row of y."""
    dist = np.max(np.abs(x[:, None] - y[None]), axis=-1)
    nearest = np.argmin(dist, axis=1)
    if sorted(nearest) != list(range(len(y))):
        return np.inf
    return np.max(dist[np.arange(len(x)), nearest])


@shape_ids
def test_flip_sectors_split_the_spectrum(two_s):
    m = generated(two_s)
    dim = m.hilbert_dim
    # B + C, scattered as the oracle scatters it at its sample point.
    b, c = monodromy_entries(m, np.array([0.3 - 0.4j]), "BC")
    mat = transfer_from_entries(m, b[0], c[0])
    full = np.linalg.eig(mat)[0]
    scale = np.max(np.abs(full))
    blocks = sp._flip_split(mat.copy(), 1)
    assert [len(x) for x in blocks] == [(dim + 1) // 2, dim // 2]
    # B + C commutes with J exactly, so S - J S J, which ``_sector_defects``
    # forms for the part between the sectors, is exactly 0, and the blocks
    # are near +- far bit for bit, the middle row and column of an odd dim
    # sqrt 2 times B + C's.
    assert np.array_equal(mat, mat[::-1, ::-1])
    h = dim // 2
    near, far = mat[:h, :h], mat[:h, ::-1][:, :h]
    assert np.array_equal(blocks[0][:h, :h], near + far)
    assert np.array_equal(blocks[1], near - far)
    mid = slice(h, len(blocks[0]))  # empty for even dim
    assert np.array_equal(blocks[0][:h, mid], np.sqrt(2.0) * mat[:h, mid])
    assert np.array_equal(blocks[0][mid, :h], np.sqrt(2.0) * mat[mid, :h])
    assert np.array_equal(blocks[0][mid, mid], mat[mid, mid])
    halves = np.concatenate([np.linalg.eig(x)[0] for x in blocks])
    # Equal as multisets: each eigenvalue has its own nearest partner.
    assert pair_distance(full[:, None], halves[:, None]) <= 1e-12 * scale
    pairs = sp._eigenbasis(m)[-1]
    vectors, inverse, sector = sp._lifted(pairs, dim)
    assert np.max(np.abs(inverse @ vectors - np.eye(dim))) <= 1e-12
    assert np.sum(sector == 1) == (dim + 1) // 2
    assert np.sum(sector == -1) == dim // 2
    # The eigenbasis, drawn at another point, diagonalizes B + C here too,
    # with the full spectrum on its diagonal.
    vals = np.diagonal(inverse @ mat @ vectors)
    assert pair_distance(full[:, None], vals[:, None]) <= 1e-12 * scale


def row_fold_split(t_mat, gauge):
    """The former body of ``_flip_split``: rows folded into sums and
    differences first, then columns."""
    s = t_mat
    if np.any(gauge != 1):
        s *= gauge
        s /= gauge[:, None]
    h = len(s) // 2
    sums, diffs = s[:h] + s[:-h - 1:-1], s[:h] - s[:-h - 1:-1]
    plus = sums[:, :h] + sums[:, :-h - 1:-1]
    minus = diffs[:, :h] - diffs[:, :-h - 1:-1]
    plus /= 2
    minus /= 2
    if len(s) % 2:
        mid, root2 = s[h], np.sqrt(2.0)
        plus = np.block([[plus, root2 * (sums[:, h:h + 1] / 2)],
                         [root2 * ((mid[:h] + mid[:-h - 1:-1]) / 2),
                          mid[h:h + 1]]])
    return [plus, minus]


@pytest.mark.parametrize("two_s, kappa", [
    ((1, 1, 1, 1), 1.0), ((2, 2, 2), 1.0), ((1, 1, 1, 1), 0.6 + 0.8j),
    ((2, 2, 2), 1.7 - 0.4j), ((1, 2), 3 - 1j)],
    ids=["even", "odd-27", "even-gauged", "odd-27-gauged", "even-6-gauged"])
def test_flip_split_matches_the_row_fold(two_s, kappa):
    """The quadrant sums give the row fold's blocks bit for bit, on the
    twisted matrix and its gauge, which is neither J-symmetric nor 1."""
    m = generated(two_s)
    b, c = monodromy_entries(m, np.array([0.3 - 0.4j]), "BC")
    mat = transfer_from_entries(m, b[0], c[0], kappa)
    gauge = twist_gauge(m, kappa)
    assert kappa == 1 or not np.array_equal(mat, mat[::-1, ::-1])
    got = sp._flip_split(mat.copy(), gauge)
    want = row_fold_split(mat.copy(), gauge)
    assert [x.shape for x in got] == [x.shape for x in want]
    for x, y in zip(got, want):
        assert np.array_equal(x, y)


@shape_ids
def test_transfer_matrix_vanishes_between_states_of_equal_parity(two_s):
    m = generated(two_s)
    p = parity(m)
    b, c = monodromy_entries(m, np.array([0.3 - 0.4j, -0.7 + 0.2j]), "BC")
    t_mats = transfer_from_entries(m, b, c, np.array(PARITY_TWISTS)[:, None])
    assert t_mats.shape == (3, 2) + (m.hilbert_dim,) * 2
    assert np.all(t_mats[..., np.equal.outer(p, p)] == 0)
    assert np.all(np.any(t_mats != 0, axis=(-2, -1)))


@shape_ids
def test_oracle_base_values_pair_as_t_and_minus_t(two_s):
    spec, others = sp.brute_force_spectrum(generated(two_s),
                                           twists=PARITY_TWISTS[1:])
    for base in (spec.rows.base_values, *others):
        scale = np.max(np.abs(base))
        assert pair_distance(base, -base) <= 1e-12 * scale


def test_an_eigenvalue_shared_by_both_sectors_fails_the_gap_test(monkeypatch):
    # On spin 2 (dim 5, P = diag(1, -1, 1, -1, 1)), M = Q+ M+ Q+^T +
    # Q- M- Q-^T commutes with the index reversal and anticommutes with P,
    # as every scattered transfer matrix does.  M+ (three states, halves of
    # two and one) has the eigenvalues 0 and +-2, M- (halves of one each)
    # +-2; each block alone is separated, both together are not.
    dim, spin_two = 5, model([4], [0.0])
    rng = np.random.default_rng(7)
    p01, p10, p12, m01 = rng.standard_normal(4) + 0.5
    p21 = (4 - p01 * p10) / p12
    plus = np.array([[0, p01, 0], [p10, 0, p12], [0, p21, 0]])
    minus = np.array([[0, m01], [4 / m01, 0]])
    lifts = [sp._lift(np.eye(k), sign, dim) for k, sign in ((3, 1), (2, -1))]
    mat = sum(q @ x @ q.T for q, x in zip(lifts, (plus, minus)))
    assert np.allclose(mat, mat[::-1, ::-1], rtol=0, atol=1e-14)
    p = parity(spin_two)
    assert np.all(mat[np.equal.outer(p, p)] == 0)
    blocks = sp._flip_split(mat, 1)
    for got, want in zip(blocks, (plus, minus)):
        assert_allclose(got, want, atol=1e-13)
    vals = [np.linalg.eig(x)[0] for x in blocks]
    assert all(sp._separated(v) for v in vals)
    assert not sp._separated(np.concatenate(vals))
    monkeypatch.setattr(sp, "transfer_from_entries",
                        lambda model, b, c, kappa=1.0: mat)
    with pytest.raises(DegenerateSpectrum):
        sp._eigenbasis(spin_two)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("two_s", [(1, 2, 1), (1, 1, 1), (2, 2), (1, 4)],
                         ids=["121", "111", "22", "14"])
def test_sector_is_the_tq_hom_sign(two_s, seed):
    # At kappa = 1 the half-period Q's Wronskian sign epsilon is the
    # spin-flip parity of the eigenvector.
    m = generated(two_s, seed)
    spec = sp.brute_force_spectrum(m)
    assert not spec.sector.flags.writeable
    sol, _ = thm.solve_q_hom(m, spec.rows,
                             ti.draw_zeta0(m, np.random.default_rng(42)))
    assert np.array_equal(spec.sector, sol.epsilon)
