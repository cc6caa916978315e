import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain import ConfigError, IndexOutOfRange, NotApplicable
from sovchain.qalgebra import (
    _NORMALITY_POINTS,
    ChainModel,
    _lax_parts,
    a_of,
    d_of,
    lax,
    monodromy,
    normality_check,
    q_integer,
    quantum_determinant_residual,
    r_matrix,
    rll_residual,
    rtt_residual,
    spin_matrices,
    transfer_antiperiodic,
    twist_gauge,
    xi_shifted,
)

ETA = 0.31 + 0.07j

# Frozen reference values (30-digit offline evaluation).
TWO_COSH_03 = 2.0906770282577209701
A_MIXED_01 = -0.076925576842785970838  # a(0.1), spins (1/2,1), xi=(0,0.7), eta=0.3
D_MIXED_01 = 0.051347224723907449783  # d(0.1), same model


def model(two_s, xi, eta=ETA, kappa=1.0, **kw):
    return ChainModel(two_s=tuple(two_s), xi=tuple(xi), eta=eta, kappa=kappa, **kw)


D1 = model([1], [0.0])
D3 = model([1, 2], [0.0, 0.7])
D4 = model([1, 1, 1], [0.1, 0.85, 1.7])


# ----------------------------------------------------------------------
# model validation


def test_colliding_ladders_rejected_with_pair_named():
    with pytest.raises(ConfigError, match="sites 1 and 2"):
        model([1, 1], [0.2, 0.2 + ETA])


def test_commensurate_eta_rejected():
    with pytest.raises(ConfigError, match="eta"):
        model([1], [0.0], eta=1j * np.pi / 2)


def test_zero_twist_rejected():
    with pytest.raises(ConfigError):
        model([1], [0.0], kappa=0.0)


def test_nonpositive_spin_rejected():
    with pytest.raises(ConfigError):
        model([0], [0.0])


@pytest.mark.parametrize("kw, message", [
    ({"eta": complex("nan")}, "finite"),
    ({"xi": [0.0, complex("nan")]}, "finite"),
    ({"kappa": np.inf}, "finite"),
    ({"delta_min": -1.0}, "delta_min"),
    ({"delta_min": np.nan}, "delta_min"),
    ({"two_s": [], "xi": []}, "at least one site"),
    ({"xi": [0.0]}, "1 inhomogeneities for 2 sites"),
], ids=["nan-eta", "nan-xi", "inf-kappa", "negative-delta_min",
        "nan-delta_min", "no-site", "xi-count"])
def test_non_finite_parameters_rejected(kw, message):
    # Not only a configuration: a model built in code gets the same rules.
    args = {"two_s": [1, 1], "xi": [0.0, 0.7], **kw}
    with pytest.raises(ConfigError, match=message):
        model(**args)


def test_dimension_bookkeeping():
    m = model([1, 2, 3], [0.0, 0.7, 1.5])
    assert m.hilbert_dim == 2 * 3 * 4
    assert m.n_s == 6
    assert min(gap for *_, gap in m._ladder_gaps()) > m.delta_min


# ----------------------------------------------------------------------
# spin representations


def test_q_integer_values():
    assert q_integer(1, 0.3) == pytest.approx(1.0)
    assert q_integer(0, 0.3) == pytest.approx(0.0)
    assert q_integer(2, 0.3) == pytest.approx(TWO_COSH_03, rel=1e-14)


def test_spin_half_matrices():
    sz, sp, sm = spin_matrices(1, ETA)
    assert_allclose(sz, np.diag([0.5, -0.5]))
    assert_allclose(sp, [[0, 1], [0, 0]], atol=1e-15)
    assert_allclose(sm, [[0, 0], [1, 0]], atol=1e-15)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4])
def test_deformed_commutation_relations(two_s):
    sz, sp, sm = spin_matrices(two_s, ETA)
    assert_allclose(sz @ sp - sp @ sz, sp, atol=1e-12)
    assert_allclose(sz @ sm - sm @ sz, -sm, atol=1e-12)
    target = np.diag(np.sinh(2 * ETA * np.diag(sz).real) / np.sinh(ETA))
    assert np.max(np.abs(sp @ sm - sm @ sp - target)) < 1e-12


# ----------------------------------------------------------------------
# local Lax structure


def test_lax_reduces_to_six_vertex_matrix():
    m = model([1], [0.0])
    lam = 0.73 - 0.2j
    a, b, c, d = lax(m, 1, lam)
    full = np.block([[a, b], [c, d]])
    assert_allclose(full, r_matrix(lam - ETA / 2, ETA), atol=1e-14)


def test_lax_top_entry():
    lam = 0.41 + 0.09j
    a, _, _, _ = lax(D3, 1, lam)
    assert_allclose(a[0, 0], np.sinh(lam - 0.0 + ETA / 2), rtol=1e-14)


def lax_from_spin_matrices(m, site, lam):
    """The Lax blocks with the spin matrices rebuilt on every call."""
    sz, splus, sminus = spin_matrices(m.two_s[site - 1], m.eta)
    u = complex(lam) - m.xi[site - 1]
    sz_diag = np.real(np.diag(sz))
    return (np.diag(np.sinh(u + m.eta * sz_diag)), sminus * np.sinh(m.eta),
            splus * np.sinh(m.eta), np.diag(np.sinh(u - m.eta * sz_diag)))


def test_lax_from_the_table_equals_a_fresh_build_bit_for_bit():
    m = model([2, 1, 2], [0.1, 0.85, 1.7])
    for site in (1, 2, 3):
        for lam in (0.41 + 0.09j, -0.3 + 1.2j):
            for got, want in zip(lax(m, site, lam),
                                 lax_from_spin_matrices(m, site, lam)):
                assert np.array_equal(got, want)
    # Built once per spin: sites 1 and 3 share their read-only blocks.
    first, third = (lax(m, site, 0.41 + 0.09j) for site in (1, 3))
    assert first[1] is third[1] and first[2] is third[2]
    assert not any(x.flags.writeable for x in _lax_parts(1, m.eta))


@pytest.mark.parametrize("two_s", [1, 2, 3])
def test_exchange_relation_local(two_s):
    m = model([two_s], [0.3])
    assert rll_residual(m, 1, 0.4 + 0.2j, -0.1 + 0.5j) < 1e-12


# ----------------------------------------------------------------------
# monodromy


def test_single_site_monodromy_is_lax():
    lam = 0.27 - 0.4j
    blocks_m = monodromy(D1, lam)
    blocks_l = lax(D1, 1, lam)
    for got, want in zip(blocks_m, blocks_l):
        assert_allclose(got, want, atol=1e-15)


def _embedded_monodromy(m, lam):
    """Reference monodromy by its definition.

    Every Lax block is embedded into the full space and multiplied onto the
    partial product from the left.
    """
    dims = [v + 1 for v in m.two_s]

    def embed(op, site):
        left = int(np.prod(dims[: site - 1]))
        right = int(np.prod(dims[site:]))
        return np.kron(np.kron(np.eye(left), op), np.eye(right))

    a, b, c, d = (embed(op, 1) for op in lax(m, 1, lam))
    for site in range(2, m.n_sites + 1):
        an, bn, cn, dn = (embed(op, site) for op in lax(m, site, lam))
        a, b, c, d = (
            an @ a + bn @ c, an @ b + bn @ d, cn @ a + dn @ c, cn @ b + dn @ d,
        )
    return a, b, c, d


@pytest.mark.parametrize(
    "two_s", [(1, 2), (2, 1, 3), (1, 1, 1, 1)], ids=["1-2", "2-1-3", "1-1-1-1"]
)
def test_monodromy_matches_embedded_product(two_s):
    m = model(two_s, [0.1 + 0.05j, 0.8, 1.45 - 0.1j, 2.1][: len(two_s)])
    for lam in (0.3 + 0.2j, -0.7 + 1.1j, 1.3 - 0.4j):
        for got, want in zip(monodromy(m, lam), _embedded_monodromy(m, lam)):
            scale = np.linalg.norm(want)
            assert np.linalg.norm(got - want) <= 1e-13 * scale


def test_exchange_relation_full_chain():
    rng = np.random.default_rng(3)
    m = model([1, 1], [0.0, 0.7])
    for _ in range(3):
        lam, mu = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert rtt_residual(m, lam, mu) < 1e-12


@pytest.mark.parametrize("m", [D1, D3, D4], ids=["single", "mixed", "three"])
def test_central_element_both_orderings(m):
    rng = np.random.default_rng(5)
    for _ in range(5):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        assert quantum_determinant_residual(m, lam) < 1e-10


# ----------------------------------------------------------------------
# scalar coefficient functions


def test_a_d_single_site():
    m = model([1], [0.2])
    lam = 0.9 - 0.3j
    assert_allclose(a_of(m, lam), np.sinh(lam - 0.2 + ETA / 2), rtol=1e-14)
    assert_allclose(d_of(m, lam), np.sinh(lam - 0.2 - ETA / 2), rtol=1e-14)


def test_d_vanishes_at_its_root():
    m = model([2], [0.4])
    assert abs(d_of(m, 0.4 + ETA)) < 1e-15
    assert abs(a_of(m, 0.4 - ETA)) < 1e-15


def test_a_d_mixed_spin_frozen_values():
    m = model([1, 2], [0.0, 0.7], eta=0.3)
    assert_allclose(a_of(m, 0.1), A_MIXED_01, rtol=1e-14)
    assert_allclose(d_of(m, 0.1), D_MIXED_01, rtol=1e-14)


# ----------------------------------------------------------------------
# shifted inhomogeneity ladder


def test_ladder_spin_half():
    m = model([1], [0.2])
    assert xi_shifted(m, 1, 0) == pytest.approx(0.2 + ETA / 2)
    assert xi_shifted(m, 1, 1) == pytest.approx(0.2 - ETA / 2)


def test_ladder_spin_one():
    assert xi_shifted(D3, 2, 0) == pytest.approx(0.7 + ETA)
    assert xi_shifted(D3, 2, 1) == pytest.approx(0.7 + 0j)
    assert xi_shifted(D3, 2, 2) == pytest.approx(0.7 - ETA)


def test_ladder_index_errors():
    with pytest.raises(IndexOutOfRange):
        xi_shifted(D3, 2, 3)
    with pytest.raises(IndexOutOfRange):
        xi_shifted(D3, 0, 0)
    with pytest.raises(IndexOutOfRange):
        xi_shifted(D3, 3, 0)
    with pytest.raises(IndexOutOfRange, match="site 3 outside 1..2"):
        lax(D3, 3, 0.1)


# ----------------------------------------------------------------------
# transfer matrix


def test_single_site_transfer_is_offdiagonal():
    t = transfer_antiperiodic(D1, 0.63)
    sh = np.sinh(ETA)
    assert_allclose(t, [[0, sh], [sh, 0]], atol=1e-15)
    eigs = np.sort_complex(np.linalg.eigvals(t))
    assert_allclose(eigs, np.sort_complex(np.array([sh, -sh])), rtol=1e-12)


def test_transfer_family_commutes():
    t1 = transfer_antiperiodic(D3, 0.2)
    t2 = transfer_antiperiodic(D3, 1.1 + 0.4j)
    comm = t1 @ t2 - t2 @ t1
    assert np.linalg.norm(comm) / np.linalg.norm(t1 @ t2) < 1e-10


def test_twist_leaves_spectrum_invariant():
    lam = 0.37 + 0.21j
    base = model([1, 2], [0.0, 0.7], kappa=1.0)
    twisted = model([1, 2], [0.0, 0.7], kappa=np.exp(0.3j))
    e1 = np.linalg.eigvals(transfer_antiperiodic(base, lam))
    e2 = np.linalg.eigvals(transfer_antiperiodic(twisted, lam))
    key = lambda v: (np.round(v.real, 9), np.round(v.imag, 9))
    assert_allclose(
        sorted(e1, key=key), sorted(e2, key=key), atol=1e-9
    )


@pytest.mark.parametrize("two_s", [(1, 2, 1), (2, 2), (1, 4), (1,) * 5],
                         ids=["121", "22", "14", "11111"])
@pytest.mark.parametrize("kappa", [0.6 + 0.8j, 2.0 - 0.5j])
def test_twist_is_a_diagonal_gauge(two_s, kappa):
    # kappa^{-1} B + kappa C = G (B + C) G^{-1} with G = diag(kappa^{-|h|}):
    # B lowers the total S^z by one and C raises it by one.
    xi = (0.1 + 0.05j, 0.8 - 0.1j, 1.5 + 0.02j, 2.3 - 0.07j, 3.05 + 0.1j)
    untwisted = model(two_s, xi[: len(two_s)])
    rng = np.random.default_rng(sum(two_s))
    lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    twisted = model(two_s, xi[: len(two_s)], kappa=kappa)
    gauge = twist_gauge(twisted)
    t1 = transfer_antiperiodic(untwisted, lam)
    assert_allclose(transfer_antiperiodic(twisted, lam),
                    gauge[:, None] * t1 / gauge, rtol=1e-14, atol=0)
    assert np.all(twist_gauge(untwisted) == 1)


# ----------------------------------------------------------------------
# normality regimes


def test_normality_imaginary_eta():
    m = model([1, 1], [0.0, 0.7], eta=0.3j, kappa=1.0)
    report = normality_check(m)
    assert report.case == "imaginary-eta"
    assert report.max_residual < 1e-12


def test_normality_real_eta():
    m = model([1, 1], [0.1j, 0.9j], eta=0.3, kappa=np.exp(0.2j))
    report = normality_check(m)
    assert report.case == "real-eta"
    assert report.max_residual < 1e-12


def test_normality_points_are_the_draws_of_seed_zero():
    rng = np.random.default_rng(0)
    want = rng.uniform(-1.0, 1.0, 5) + 1j * rng.uniform(-1.0, 1.0, 5)
    assert np.array_equal(_NORMALITY_POINTS, want)
    assert not _NORMALITY_POINTS.flags.writeable


def test_normality_not_applicable():
    with pytest.raises(NotApplicable):
        normality_check(model([1, 1], [0.0, 0.7], eta=0.3 + 0.1j))
    with pytest.raises(NotApplicable):
        normality_check(model([1, 1], [0.0, 0.7], eta=0.3j, kappa=2.0))
