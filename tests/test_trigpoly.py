import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from sovchain import DegenerateNodes, NotFullDegree
from sovchain.errors import record
from sovchain.trigpoly import horner, interpolant_roots, interpolate

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
# roots from node values


def node_values(roots, angle_scale=1.0, prefactor=1.0):
    """(nodes, values): prefactor * prod sinh(s (lam - r)) at nodes where
    exp(2 s lam) runs over the roots of unity, by ``horner``."""
    nodes = dft_nodes(len(roots) + 1) / angle_scale
    return nodes, horner(coeffs_of(roots, angle_scale, prefactor), len(roots),
                         nodes, angle_scale)


def assert_factors(found, roots, angle_scale=1.0):
    """The found roots are the given ones modulo the period: their sinh
    products agree up to one constant at random points."""
    rng = np.random.default_rng(11)
    pts = rng.uniform(-1.5, 1.5, 8) + 1j * rng.uniform(-1.0, 1.0, 8)
    got, want = (np.prod(np.sinh(angle_scale * (pts[:, None] - np.asarray(
        r)[None, :])), axis=1) for r in (found, roots))
    k = np.argmax(np.abs(want))
    gap = got - got[k] / want[k] * want
    assert np.max(np.abs(gap)) <= 1e-8 * max(np.max(np.abs(got)), 1.0)


class TestRoots:
    def test_single_factor(self):
        nodes, values = node_values([0.4])
        roots, errors = interpolant_roots(nodes, [values])
        assert errors == [None]
        assert_allclose(roots[0], [0.4], atol=1e-12)

    def test_two_factors_with_strip_normalization(self):
        nodes, values = node_values([0.4, 0.9 - 0.2j])
        roots, _ = interpolant_roots(nodes, [values])
        assert_allclose(
            roots[0], [0.4, 0.9 + 1j * (np.pi - 0.2)], atol=1e-10
        )
        assert_factors(roots[0], [0.4, 0.9 - 0.2j])

    def test_trailing_coefficient_zero_raises(self):
        nodes = dft_nodes(3)
        values = horner([0.0, 0.3, 0.7], 2, nodes)
        assert isinstance(interpolant_roots(nodes, [values])[1][0],
                          NotFullDegree)

    def test_zero_polynomial_raises(self):
        errors = interpolant_roots(dft_nodes(2), [[0.0, 0.0]])[1]
        assert isinstance(errors[0], NotFullDegree)

    def test_non_finite_row_fails_alone(self):
        # A non-finite row is NotFullDegree and leaves the others as they
        # are solved alone.  Its inf meets a zero in ``interpolate``.
        nodes, good = node_values([0.4, 0.9 - 0.2j])
        with np.errstate(invalid="ignore"):
            roots, errors = interpolant_roots(
                nodes, [good, [np.inf, 1.0, 1.0], [1.0, np.nan, 1.0]])
        alone = interpolant_roots(nodes, [good])
        assert errors[0] is None
        assert all(isinstance(e, NotFullDegree)
                   and str(e) == "a coefficient is not finite"
                   for e in errors[1:])
        assert roots[0].tobytes() == alone[0][0].tobytes()

    def test_half_angle_strip(self):
        nodes, values = node_values([0.2, 1.1 + 0.5j], angle_scale=0.5)
        roots, errors = interpolant_roots(nodes, [values], 0.5)
        assert errors == [None]
        assert_allclose(roots[0], [0.2, 1.1 + 0.5j], atol=1e-12)

    def test_degenerate_nodes_fail_every_row(self):
        nodes = [0.0, 1j * np.pi]
        errors = interpolant_roots(nodes, np.ones((3, 2)))[1]
        assert [str(e) for e in errors] == [
            "nodes 0 and 1 coincide modulo the period"] * 3
        assert all(isinstance(e, DegenerateNodes) for e in errors)

    @pytest.mark.parametrize("angle_scale", [1.0, 0.5])
    def test_full_degree_rows_keep_their_roots_inside_cauchys_bound(
            self, angle_scale):
        # A row that passes the extremal-coefficient test has every root of
        # z = exp(2 s lam) within about [1e-10, 1e10] in magnitude
        # (Cauchy's bound), which is why no root window is tested.  Rows at
        # degrees 1-12 with coefficients spread over 1e+-3 and both ends
        # just above 1e-10 of the largest (at degree 1, one end of the
        # other) reach that bound from both sides.
        rng = np.random.default_rng(38)
        reach = []
        for degree in range(1, 13):
            c = 10.0 ** rng.uniform(-3, 3, (125, degree + 1)) * np.exp(
                2j * np.pi * rng.uniform(size=(125, degree + 1)))
            if degree == 1:
                c[::2, 0] = 1.001e-10 * np.abs(c[::2, 1])
                c[1::2, 1] = 1.001e-10 * np.abs(c[1::2, 0])
            else:
                c[:, [0, -1]] *= 1.001e-10 * np.abs(c[:, 1:-1]).max(
                    axis=1, keepdims=True) / np.abs(c[:, [0, -1]])
            nodes = dft_nodes(degree + 1) / angle_scale
            roots, errors = interpolant_roots(
                nodes, horner(c, degree, nodes, angle_scale), angle_scale)
            assert errors == [None] * len(c)
            reach.append(np.abs(np.exp(2.0 * angle_scale * roots)).ravel())
        reach = np.concatenate(reach)
        assert 1e-11 <= reach.min() < 1e-9 and 1e9 < reach.max() <= 1e11


def factor_reference(nodes, values, angle_scale=1.0):
    """The former root step: ``interpolate``, then the companion solve with
    per-row error lists and np.where passes.  The masked, in-place kernel
    must match it bit for bit."""
    c = interpolate(nodes, values, 0, angle_scale)
    rows, m2 = c.shape[0], c.shape[1] - 1
    errors = [None] * rows
    scale = np.max(np.abs(c), axis=1)
    record(errors, scale == 0.0, lambda k: NotFullDegree(
        "the zero polynomial has no factored form"))
    ends = np.minimum(np.abs(c[:, 0]), np.abs(c[:, -1]))
    record(errors, ends <= 1e-10 * scale, lambda k: NotFullDegree(
        "extremal coefficient vanishes: not in the full-degree class"))
    live = np.array([e is None for e in errors], dtype=bool)
    companion = np.zeros((rows, m2, m2), dtype=complex)
    companion[:, 1:, :-1] = np.eye(m2 - 1)
    companion[live, 0] = -c[live, -2::-1] / c[live, -1:]
    z = np.linalg.eigvals(companion)
    with np.errstate(all="ignore"):
        lam = np.log(z) / (2.0 * angle_scale)
        period = np.pi / angle_scale
        seam = 1e-13
        lam = np.where(lam.imag < -seam, lam + 1j * period, lam)
        lam = np.where(lam.imag >= period - seam, lam - 1j * period, lam)
        lam = np.where(np.abs(lam.imag) <= seam, lam.real.astype(complex),
                       lam)
        order = np.lexsort((lam.imag, lam.real), axis=1)
        lam = np.take_along_axis(lam, order, axis=1)
    return lam, errors


@pytest.mark.parametrize("angle_scale", [1.0, 0.5])
@pytest.mark.parametrize("degree", [1, 2, 5])
def test_factor_matches_the_reference_bit_for_bit(degree, angle_scale):
    """Good rows (one with real roots, on the branch seam), a zero row and
    a row whose trailing coefficient vanishes, as node values in one
    stack: roots and errors as the reference gives them, NaN and inf
    included."""
    rng = np.random.default_rng(degree)
    nodes = dft_nodes(degree + 1) / angle_scale
    good = [coeffs_of(rng.uniform(-1, 1, degree)
                      + 1j * rng.uniform(-1.2, 1.2, degree), angle_scale,
                      0.7 - 0.2j) for _ in range(3)]
    real = coeffs_of(rng.uniform(-1, 1, degree), angle_scale)
    thin = np.array(good[0])
    thin[0] = 1e-14 * np.max(np.abs(thin))
    stack = horner(np.array([good[0], np.zeros(degree + 1), good[1], thin,
                             real, good[2]]), degree, nodes, angle_scale)
    with np.errstate(all="raise"):
        roots, errors = interpolant_roots(nodes, stack, angle_scale)
    want_roots, want_errors = factor_reference(nodes, stack, angle_scale)
    assert roots.tobytes() == want_roots.tobytes()
    assert [type(e) for e in errors] == [type(e) for e in want_errors]
    assert [str(e) for e in errors] == [str(e) for e in want_errors]
    assert [e is None for e in errors] == [True, False, True, False, True,
                                           True]

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
    nodes, values = node_values(roots, prefactor=1.3 - 0.4j)
    found, errors = interpolant_roots(nodes, [values])
    assert errors == [None]
    assert_factors(found[0], roots)
