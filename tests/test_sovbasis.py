import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.cli import generate_model
from sovchain.errors import ConditioningFailure
from sovchain.qalgebra import (
    ChainModel, a_of, monodromy, monodromy_entries, xi_shifted,
)
from sovchain import qalgebra as qa
from sovchain import sovbasis as sb
from sovchain.trigpoly import sinh_product

ETA = 0.31 + 0.07j


def model(two_s, xi, kappa=1.0):
    return ChainModel(two_s=tuple(two_s), xi=tuple(xi), eta=ETA, kappa=kappa)


D1 = model([1], [0.0])
D2 = model([1, 1], [0.0, 0.7])
D3 = model([1, 2], [0.0, 0.7])
D4 = model([1, 1, 1], [0.1, 0.85, 1.7])
D5 = model([1, 2, 1], [0.1, 0.85, 1.7])

RNG = np.random.default_rng(11)
LAMBDAS = [complex(z) for z in RNG.uniform(-1, 1, 3) + 1j * RNG.uniform(-1, 1, 3)]


def test_h_tuple_enumeration():
    assert sb.all_h_tuples(D1) == [(0,), (1,)]
    assert sb.all_h_tuples(D3) == [
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2),
    ]


def reference_pairing(basis):
    return basis.left_covectors[0] @ basis.right_vectors[0]


def test_rung_points_follow_the_tuples():
    for m in (D1, D3, D5):
        want = [[xi_shifted(m, n + 1, k) for n, k in enumerate(h)]
                for h in sb.all_h_tuples(m)]
        assert np.array_equal(sb.rung_points(m), want)


def test_single_site_reference_overlap():
    # With one site there are no pair factors, so the reference pairing is 1.
    basis = sb.build_basis(D1)
    assert_allclose(reference_pairing(basis), 1.0, atol=1e-14)


def test_two_site_overlap_literal():
    # Real eta=0.3 keeps the expected value exactly 1/sinh(0.7).
    m = ChainModel(two_s=(1, 1), xi=(0.0, 0.7), eta=0.3, kappa=1.0)
    basis = sb.build_basis(m)
    got = reference_pairing(basis)
    assert_allclose(got, 1.3182460914662971917, rtol=1e-12)


@pytest.mark.parametrize("m", [D1, D2, D3, D5], ids=["D1", "D2", "D3", "D5"])
def test_overlaps_match_closed_form(m):
    assert sb.overlap_residual(sb.build_basis(m)) < 1e-9


@pytest.mark.parametrize("m", [D2, D3, D4], ids=["D2", "D3", "D4"])
def test_identity_resolution(m):
    basis = sb.build_basis(m)
    assert sb.identity_resolution(basis) < 1e-8


def test_d_action_diagonal():
    for m in (D3, D5):
        basis = sb.build_basis(m)
        for lam in LAMBDAS:
            res = sb.action_residuals(basis, lam)
            assert res["D", "right"].max() < 1e-10
            assert res["D", "left"].max() < 1e-10


def test_d_eigenvalues_separate_states():
    # The value vectors (d_h at each top rung) must be pairwise distinct,
    # otherwise D would not label the basis.
    probe = [xi_shifted(D3, n, 0) for n in (1, 2)]
    vals = np.round(sinh_product(probe, sb.rung_points(D3)), 10)
    assert vals.shape == (D3.hilbert_dim, 2)
    assert len({tuple(row) for row in vals}) == D3.hilbert_dim


@pytest.mark.parametrize("m", [D2, D3, D5], ids=["D2", "D3", "D5"])
def test_c_action_interpolation_sum(m):
    basis = sb.build_basis(m)
    for lam in LAMBDAS:
        res = sb.action_residuals(basis, lam)
        assert res["C", "right"].max() < 1e-9
        assert res["C", "left"].max() < 1e-9


@pytest.mark.parametrize("m", [D2, D3, D5], ids=["D2", "D3", "D5"])
def test_b_action_interpolation_sum(m):
    basis = sb.build_basis(m)
    for lam in LAMBDAS:
        res = sb.action_residuals(basis, lam)
        assert res["B", "right"].max() < 1e-9
        assert res["B", "left"].max() < 1e-9


def test_a_action_via_central_element():
    basis = sb.build_basis(D3)
    for lam in LAMBDAS:
        assert sb.action_residuals(basis, lam)["A", "right"].max() < 1e-9


def test_b_operators_commute_in_construction():
    # Build (1, 1) on D2 by incrementing the sites in both orders.
    m = D2
    norm = sb.build_basis(m).normalization
    dim = m.hilbert_dim
    ref = np.zeros(dim, dtype=complex)
    ref[0] = 1.0 / norm

    def step(v, site, k):
        lam = xi_shifted(m, site, k)
        _, b, _, _ = monodromy(m, lam)
        return -(b @ v) / a_of(m, lam)

    v12 = step(step(ref, 1, 0), 2, 0)
    v21 = step(step(ref, 2, 0), 1, 0)
    assert np.linalg.norm(v12 - v21) < 1e-12 * np.linalg.norm(v12)


def test_weight_is_reciprocal_of_overlap():
    basis = sb.build_basis(D3)
    for h, w in zip(sb.all_h_tuples(D3), sb.weights(D3)):
        pts = [xi_shifted(D3, n + 1, k) for n, k in enumerate(h)]
        assert_allclose(w, np.sinh(pts[1] - pts[0]), rtol=1e-15)
    gram = basis.left_covectors @ basis.right_vectors.T
    assert_allclose(basis.weights * np.diag(gram), 1.0, rtol=1e-9)


def test_collapsed_state_raises():
    states = np.array([[1.0 + 0j, 0.0], [1e-15 + 0j, 0.0]])
    with pytest.raises(ConditioningFailure, match=r"^basis state \(1,\) "
                       r"collapsed to relative norm 1\.00e-15$"):
        sb._check_norms(D1, states)


def test_collapsing_generation_step_raises(monkeypatch):
    # B at site 2's top rung builds every state with h_2 = 1 on D2; shrunk
    # to rounding level, the first of them, (0, 1), is the collapse named.
    top = xi_shifted(D2, 2, 0)

    def shrunk_b(m, lam, blocks="ABCD"):
        entries = monodromy_entries(m, lam, blocks)
        return tuple(x * 1e-14 if name == "B" and lam == top else x
                     for name, x in zip(blocks, entries))

    monkeypatch.setattr(qa, "monodromy_entries", shrunk_b)
    with pytest.raises(ConditioningFailure, match=r"\(0, 1\)"):
        sb.build_basis(D2)


@pytest.fixture(scope="module", params=[0, 1, 2])
def eight_spin_half_basis(request):
    """dim 256 at model seeds 0-2: |1/w| reaches 2e7 here."""
    m = generate_model(request.param, 8, [1] * 8, 0.05, eta=ETA,
                       kappa=np.exp(0.3j))
    return sb.build_basis(m)


def test_actions_on_eight_spin_half_sites(eight_spin_half_basis):
    basis = eight_spin_half_basis
    for key, res in sb.action_residuals(basis, 0.23 + 0.11j).items():
        assert res.shape == (256,)
        assert res.max() < 1e-9, key
    assert sb.identity_resolution(basis) < 1e-8


def test_overlaps_on_eight_spin_half_sites(eight_spin_half_basis):
    # Relative to the largest |1/w|; the absolute deviation reads up to
    # 7.6e-5 here on a correct basis.
    assert sb.overlap_residual(eight_spin_half_basis) < 1e-9


@pytest.mark.parametrize("two_s", [(1, 1), (1,) * 6], ids=["dim4", "dim64"])
def test_action_residuals_build_two_monodromies(two_s, monkeypatch):
    m = generate_model(3, len(two_s), list(two_s), 0.05, eta=ETA)
    basis = sb.build_basis(m)
    built = []

    def counting(model, lam):
        built.append(lam)
        return monodromy(model, lam)

    monkeypatch.setattr(sb, "monodromy", counting)
    res = sb.action_residuals(basis, 0.23 + 0.11j)
    assert len(built) == 2
    assert sorted(res) == sorted(
        [(op, side) for op in "DCB" for side in ("right", "left")]
        + [("A", "right")])
