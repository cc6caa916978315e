import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from sovchain import DegenerateNodes, NotFullDegree
from sovchain.trigpoly import factor, horner, interpolate

# Frozen reference values (30-digit offline evaluation, pasted as literals).
SINH_03 = 0.30452029344714261896
TWO_COSH_03 = 2.0906770282577209701

RNG = np.random.default_rng(20260822)


def random_points(n, spread=1.5):
    return RNG.uniform(-spread, spread, n) + 1j * RNG.uniform(-1.2, 1.2, n)


def coeffs_of(roots, angle_scale=1.0, prefactor=1.0):
    """Ascending coefficients of prefactor * prod sinh(s (lam - r)), whose
    left exponent m1 is the number of roots: each factor is
    exp(-u) exp(-s r)/2 (exp(2u) - exp(2 s r)) with u = s lam."""
    sr = angle_scale * np.asarray(roots, dtype=complex)
    return prefactor * np.prod(np.exp(-sr) / 2.0) * np.poly(np.exp(2 * sr))[::-1]


def dft_nodes(count):
    """Nodes i pi k / count: exp(2 lam) runs over the roots of unity."""
    return 1j * np.pi * np.arange(count) / count


# ----------------------------------------------------------------------
# evaluation


def test_eval_zero_polynomial():
    for lam in [0.0, 1.3, 0.2 + 0.7j]:
        assert horner([0.0, 0.0], 1, lam) == 0.0


def test_eval_constant():
    assert horner([1.0], 0, 1.3) == 1.0


def test_eval_matches_sinh():
    assert_allclose(horner([-0.5, 0.5], 1, 0.3), SINH_03, rtol=1e-14)


def test_eval_vectorized():
    pts = random_points(7)
    assert_allclose(horner(coeffs_of([0.4]), 1, pts), np.sinh(pts - 0.4),
                    rtol=1e-13)


@pytest.mark.parametrize("roots", [[0.3], [0.1, -0.4 + 0.2j], [0.5, 1.0j, -0.7]])
def test_parity_under_half_period_shift(roots):
    c, m1 = coeffs_of(roots), len(roots)
    pts = random_points(5)
    sign = (-1.0) ** m1
    assert_allclose(horner(c, m1, pts + 1j * np.pi), sign * horner(c, m1, pts),
                    rtol=1e-12)


def test_parity_under_full_period_shift_half_angle():
    c = coeffs_of([0.3, -0.2 + 0.4j, 0.9], angle_scale=0.5)
    pts = random_points(5)
    assert_allclose(horner(c, 3, pts + 2j * np.pi, 0.5),
                    -horner(c, 3, pts, 0.5), rtol=1e-12)


def test_exponential_factor():
    # One coefficient with m1 = -2 is the unbalanced element 0.7 exp(2 lam).
    pts = random_points(4)
    assert_allclose(horner([0.7], -2, pts), 0.7 * np.exp(2 * pts), rtol=1e-13)


# ----------------------------------------------------------------------
# interpolation


def test_from_values_all_zero_gives_zero_polynomial():
    assert np.max(np.abs(interpolate([0.0, 0.7], [0.0, 0.0], 0))) <= 1e-14


def test_from_values_reconstructs_shifted_sinh():
    c = interpolate([0.0, 0.7], [np.sinh(-0.2), np.sinh(0.5)], 0)
    pts = random_points(5)
    assert_allclose(horner(c, 1, pts), np.sinh(pts - 0.2), rtol=1e-12)


def test_from_values_distinct_imaginary_nodes_ok():
    nodes = [0.0, 1j * np.pi / 2]
    c = interpolate(nodes, [1.0, 1.0j], 0)
    assert_allclose(horner(c, 1, nodes), [1.0, 1.0j], rtol=1e-12)


def test_from_values_period_collision_raises():
    with pytest.raises(DegenerateNodes):
        interpolate([0.0, 1j * np.pi], [1.0, 2.0], 0)


def test_from_values_half_angle_period_collision():
    # 2i*pi is the collision period on the half-angle scale; i*pi is fine.
    interpolate([0.0, 1j * np.pi], [1.0, 2.0], 0, angle_scale=0.5)
    with pytest.raises(DegenerateNodes):
        interpolate([0.0, 2j * np.pi], [1.0, 2.0], 0, angle_scale=0.5)


@pytest.mark.parametrize("nodes, first", [
    ([0.1, 0.3, 0.1 + 1j * np.pi, 0.3 + 1j * np.pi], (0, 2)),
    ([0.3, 0.1, 0.1 + 1j * np.pi, 0.3 + 1j * np.pi], (0, 3)),
    ([0.5, 0.1, 0.3, 0.3 - 1j * np.pi, 0.1 + 2j * np.pi], (1, 4)),
])
def test_collision_message_names_the_first_pair(nodes, first):
    # With two colliding pairs, the error names the first pair in the
    # order (i, then j > i).
    with pytest.raises(DegenerateNodes) as info:
        interpolate(nodes, np.ones(len(nodes)), 0)
    assert str(info.value) == (f"nodes {first[0]} and {first[1]} coincide "
                               "modulo the period")


def test_collision_test_matches_the_pairwise_abs_rule():
    # The array test flags a pair exactly when Python's complex abs does:
    # |z_i - z_j| <= 1e-10 max(1, |z_i|, |z_j|), z = exp(2 node), on pairs
    # straddling the bound.
    seen = set()
    for _ in range(200):
        base = complex(*RNG.uniform(-2.0, 2.0, 2))
        z0 = np.exp(2.0 * base)
        step = 1e-10 * max(1.0, abs(z0)) * RNG.uniform(0.5, 1.5)
        other = np.log(z0 + step * np.exp(1j * RNG.uniform(0, 2 * np.pi)))
        nodes = np.array([base, 0.5 * other, 0.7 + 0.2j])
        z = np.exp(2.0 * nodes)
        want = abs(z[0] - z[1]) <= 1e-10 * max(1.0, abs(z[0]), abs(z[1]))
        seen.add(bool(want))
        try:
            interpolate(nodes, np.ones(3), 0)
        except DegenerateNodes:
            assert want
        else:
            assert not want
    assert seen == {True, False}


def test_vanishing_on_full_node_set_means_zero():
    # An element of the (m1, m2) family vanishing at m2+1 admissible nodes
    # has identically tiny coefficients.
    p = coeffs_of([0.2, 0.8 - 0.3j, 1.4 + 0.1j])
    nodes = np.array([0.1, 0.5 + 0.2j, 0.9, 1.3 - 0.4j])
    q = interpolate(nodes, horner(p, 3, nodes), 0)
    assert np.max(np.abs(q - p)) <= 1e-10 * np.max(np.abs(p))


def test_shift_by_half_period_negates_sinh():
    # lam -> sinh(lam + i pi), built from its values, is -sinh(lam).
    nodes = dft_nodes(2)
    c = interpolate(nodes, horner([-0.5, 0.5], 1, nodes + 1j * np.pi), 0)
    assert_allclose(c, (0.5, -0.5), atol=1e-15)


def test_shift_evaluates_at_offset_argument():
    p = coeffs_of([0.4, -0.1 + 0.3j])
    delta = 0.37 - 0.21j
    nodes = dft_nodes(3)
    shifted = interpolate(nodes, horner(p, 2, nodes + delta), 0)
    pts = random_points(5)
    assert_allclose(horner(shifted, 2, pts), horner(p, 2, pts + delta),
                    rtol=1e-12)


def test_add_sinh_pair_is_cosh_multiple():
    nodes = dft_nodes(2)
    c = interpolate(nodes, np.sinh(nodes + 0.3) + np.sinh(nodes - 0.3), 0)
    assert_allclose(c, TWO_COSH_03 * np.array([-0.5, 0.5]), rtol=1e-14)


def test_add_aligns_mixed_left_exponents():
    # exp(lam) sinh(lam - 0.2) has m1 = 0 and the two-root product m1 = 2;
    # three nodes put their sum in the balanced class (2, 2).
    def total(lam):
        return (np.exp(lam) * np.sinh(lam - 0.2)
                + np.sinh(lam - 0.5) * np.sinh(lam + 0.4))

    nodes = dft_nodes(3)
    c = interpolate(nodes, total(nodes), 0)
    pts = random_points(5)
    assert_allclose(horner(c, 2, pts), total(pts), rtol=1e-12)


# ----------------------------------------------------------------------
# factorization


class TestRoots:
    def test_single_factor(self):
        c_p, roots, errors = factor([coeffs_of([0.4])])
        assert errors == [None]
        assert_allclose(c_p[0], 1.0, rtol=1e-12)
        assert_allclose(roots[0], [0.4], atol=1e-12)

    def test_two_factors_with_strip_normalization(self):
        p = coeffs_of([0.4, 0.9 - 0.2j])
        c_p, roots, _ = factor([p])
        assert_allclose(
            roots[0], [0.4, 0.9 + 1j * (np.pi - 0.2)], atol=1e-10
        )
        # Re-multiplying the factored form reproduces p.
        pts = random_points(6)
        rebuilt = c_p[0] * np.prod(
            np.sinh(pts[:, None] - roots[0][None, :]), axis=1
        )
        assert_allclose(rebuilt, horner(p, 2, pts), rtol=1e-10)

    def test_trailing_coefficient_zero_raises(self):
        assert isinstance(factor([[0.0, 0.3, 0.7]])[2][0], NotFullDegree)

    def test_zero_polynomial_raises(self):
        assert isinstance(factor([[0.0, 0.0]])[2][0], NotFullDegree)

    def test_half_angle_strip(self):
        c_p, roots, errors = factor(
            [coeffs_of([0.2, 1.1 + 0.5j], angle_scale=0.5)], 0.5)
        assert errors == [None]
        assert_allclose(c_p[0], 1.0, rtol=1e-12)
        assert_allclose(roots[0], [0.2, 1.1 + 0.5j], atol=1e-12)


# ----------------------------------------------------------------------
# round-trip properties

complex_roots = st.builds(
    complex,
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.2, 1.2, allow_nan=False),
)


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_roots, min_size=1, max_size=6))
def test_interpolation_round_trip(roots):
    p, m1 = coeffs_of(roots), len(roots)
    rng = np.random.default_rng(7)
    # Keep nodes in a moderate band: the node matrix in the exponential
    # variable is Vandermonde, whose conditioning grows with node spread.
    nodes = rng.uniform(-0.7, 0.7, len(roots) + 1) + 1j * rng.uniform(
        -1.0, 1.0, len(roots) + 1
    )
    q = interpolate(nodes, horner(p, m1, nodes), 0)
    pts = rng.uniform(-1.5, 1.5, 20) + 1j * rng.uniform(-1.0, 1.0, 20)
    ref = horner(p, m1, pts)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(horner(q, m1, pts) - ref)) <= 1e-10 * max(scale, 1.0)


@settings(max_examples=40, deadline=None)
@given(st.lists(complex_roots, min_size=1, max_size=12, unique=True))
def test_roots_round_trip(roots):
    # Only well-separated root sets: companion conditioning degrades as
    # roots merge in the exponential variable.
    z = np.exp(2 * np.array(roots))
    sep = np.min(
        np.abs(z[:, None] - z[None, :]) + np.eye(len(roots)) * 1e9
    ) if len(roots) > 1 else 1.0
    if sep < 0.1:
        return
    p = coeffs_of(roots, prefactor=1.3 - 0.4j)
    c_p, found, errors = factor([p])
    assert errors == [None]
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.0, 1.0, 8)
    rebuilt = c_p[0] * np.prod(np.sinh(pts[:, None] - found[0][None, :]), axis=1)
    ref = horner(p, len(roots), pts)
    assert np.max(np.abs(rebuilt - ref)) <= 1e-8 * max(np.max(np.abs(ref)), 1.0)
