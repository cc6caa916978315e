import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain.errors import ConditioningFailure
from sovchain.qalgebra import ChainModel, a_of, monodromy, xi_shifted
from sovchain import sovbasis as sb

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


def test_single_site_reference_overlap():
    # With one site there are no pair factors, so the reference pairing is 1.
    basis = sb.build_basis(D1)
    assert_allclose(sb.overlap(basis, (0,), (0,)), 1.0, atol=1e-14)


def test_two_site_overlap_literal():
    # Real eta=0.3 keeps the expected value exactly 1/sinh(0.7).
    m = ChainModel(two_s=(1, 1), xi=(0.0, 0.7), eta=0.3, kappa=1.0)
    basis = sb.build_basis(m)
    got = sb.overlap(basis, (0, 0), (0, 0))
    assert_allclose(got, 1.3182460914662971917, rtol=1e-12)


@pytest.mark.parametrize("m", [D1, D2, D3, D5], ids=["D1", "D2", "D3", "D5"])
def test_overlaps_match_closed_form(m):
    basis = sb.build_basis(m)
    hs = sb.all_h_tuples(m)
    for h in hs:
        for k in hs:
            got = sb.overlap(basis, h, k)
            want = sb.expected_overlap(m, h, k)
            assert abs(got - want) < 1e-9


@pytest.mark.parametrize("m", [D2, D3, D4], ids=["D2", "D3", "D4"])
def test_identity_resolution(m):
    basis = sb.build_basis(m)
    assert sb.identity_resolution(basis) < 1e-8


def test_d_action_diagonal():
    for m in (D3, D5):
        basis = sb.build_basis(m)
        for lam in LAMBDAS:
            for h in sb.all_h_tuples(m):
                assert sb.d_action_residual(basis, h, lam, "right") < 1e-10
                assert sb.d_action_residual(basis, h, lam, "left") < 1e-10


def test_d_eigenvalues_separate_states():
    # The value vectors (d_h at each top rung) must be pairwise distinct,
    # otherwise D would not label the basis.
    probe = [xi_shifted(D3, n, 0) for n in (1, 2)]
    seen = []
    for h in sb.all_h_tuples(D3):
        vals = tuple(np.round(sb.d_eigenvalue(D3, h, z), 10) for z in probe)
        assert vals not in seen
        seen.append(vals)


@pytest.mark.parametrize("m", [D2, D3, D5], ids=["D2", "D3", "D5"])
def test_c_action_interpolation_sum(m):
    basis = sb.build_basis(m)
    for lam in LAMBDAS:
        for h in sb.all_h_tuples(m):
            assert sb.c_action_residual(basis, h, lam, "right") < 1e-9
            assert sb.c_action_residual(basis, h, lam, "left") < 1e-9


@pytest.mark.parametrize("m", [D2, D3, D5], ids=["D2", "D3", "D5"])
def test_b_action_interpolation_sum(m):
    basis = sb.build_basis(m)
    for lam in LAMBDAS:
        for h in sb.all_h_tuples(m):
            assert sb.b_action_residual(basis, h, lam, "right") < 1e-9
            assert sb.b_action_residual(basis, h, lam, "left") < 1e-9


def test_a_action_via_central_element():
    basis = sb.build_basis(D3)
    for lam in LAMBDAS:
        for h in sb.all_h_tuples(D3):
            assert sb.a_action_residual(basis, h, lam) < 1e-9


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
    for h in sb.all_h_tuples(D3):
        w = sb.weight(D3, h)
        assert_allclose(w * sb.expected_overlap(D3, h, h), 1.0, rtol=1e-12)


def test_collapsed_state_raises():
    states = np.array([[1.0 + 0j, 0.0], [1e-15 + 0j, 0.0]])
    with pytest.raises(ConditioningFailure):
        sb._check_norms([(0,), (1,)], states)


def test_collapsing_generation_step_raises(monkeypatch):
    # B at site 2's top rung builds every state with h_2 = 1 on D2; shrunk
    # to rounding level, the first of them, (0, 1), is the collapse named.
    top = D2.rung_table[1].rungs[0]

    def shrunk_b(m, lam):
        a, b, c, d = monodromy(m, lam)
        return (a, b * 1e-14, c, d) if lam == top else (a, b, c, d)

    monkeypatch.setattr(sb, "monodromy", shrunk_b)
    with pytest.raises(ConditioningFailure, match=r"\(0, 1\)"):
        sb.build_basis(D2)
