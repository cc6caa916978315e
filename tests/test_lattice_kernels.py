"""The lattice-distance and sinh-product kernels pinned to scalar loops.

Each reference below is the per-element loop a kernel replaced, kept here
so the array form can be compared against it.
"""

import dataclasses

import numpy as np
import pytest

from sovchain import spectrum as sp
from sovchain import trigpoly
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.cli import RunConfig, run_pipelines
from sovchain.errors import ConfigError, PoleAtXi
from sovchain.qalgebra import ChainModel, distance_to_ipi_lattice, xi_shifted
from sovchain.trigpoly import sinh_product
from test_reference_set import census_doc

ETA = 0.31 + 0.07j


def draw(rng, shape, spread=4.0):
    return rng.uniform(-spread, spread, shape) + 1j * rng.uniform(
        -3 * spread, 3 * spread, shape
    )


# ----------------------------------------------------------------------
# lattice distance


def distance_loop(z, period):
    k = round(z.imag / period)
    return abs(z - 1j * period * k)


@pytest.mark.parametrize("period", [np.pi, 2.0 * np.pi])
def test_distance_on_arrays_equals_scalar_abs_bit_for_bit(period):
    z = draw(np.random.default_rng(3), (40, 50))
    got = distance_to_ipi_lattice(z, period)
    want = np.array([[distance_loop(complex(v), period) for v in row]
                     for row in z])
    assert got.shape == z.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("period", [np.pi, 2.0 * np.pi])
def test_distance_of_a_scalar_is_a_float(period):
    z = 0.3 + 7.1j
    got = distance_to_ipi_lattice(z, period)
    assert type(got) is float
    assert got == distance_loop(z, period)


def test_distance_default_period_is_pi():
    assert distance_to_ipi_lattice(0.25 + 1j * np.pi) == 0.25
    assert distance_to_ipi_lattice(0.25 + 2j * np.pi, 2 * np.pi) == 0.25


# ----------------------------------------------------------------------
# sinh product


def sinh_loop(lam, roots, scale):
    out = np.ones(np.shape(lam), dtype=complex)
    for r in roots:
        out = out * np.sinh(scale * (np.asarray(lam) - r))
    return out


@pytest.mark.parametrize("scale", [1.0, 0.5])
@pytest.mark.parametrize("n_roots", [1, 4, 9])
def test_sinh_product_equals_factor_loop(scale, n_roots):
    rng = np.random.default_rng(n_roots)
    roots = draw(rng, n_roots, 1.0)
    lam = draw(rng, (3, 7), 1.0)
    got = sinh_product(lam, roots, scale)
    assert got.shape == lam.shape
    # The kernel multiplies the factors in the loop's order, but each factor
    # is in exponential form, which rounds differently from sinh: the loop
    # agrees to roundoff rather than bit for bit.
    np.testing.assert_allclose(got, sinh_loop(lam, roots, scale),
                               rtol=1e-14, atol=0)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_sinh_product_of_no_roots_is_exactly_one(scale):
    lam = draw(np.random.default_rng(5), (3, 7), 1.0)
    got = sinh_product(lam, [], scale)
    assert got.shape == lam.shape and np.all(got == 1)
    # Rows without roots, on per-row points and on shared points.
    for points in (lam, lam[0]):
        got = sinh_product(points, np.zeros((3, 0)), scale)
        assert got.shape == (3, 7) and np.all(got == 1)
    got = sinh_product(0.2 + 0.1j, [], scale)
    assert type(got) is complex and got == 1


def test_sinh_product_scalar_returns_complex():
    got = sinh_product(0.2 + 0.1j, [0.5, -0.3j], 0.5)
    assert type(got) is complex
    # The exponential form rounds differently from sinh: same bound as the
    # factor loop above.
    np.testing.assert_allclose(
        got, complex(sinh_loop(0.2 + 0.1j, [0.5, -0.3j], 0.5)),
        rtol=1e-14, atol=0)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_sinh_product_matches_mpmath_at_50_digits(scale):
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(17)
    roots = draw(rng, (5, 6), 1.0)
    lam = draw(rng, (5, 8), 1.0)
    # Three points per row sit 1e-6 from one of that row's roots.
    offsets = 1e-6 * np.exp(2j * np.pi * rng.uniform(size=(5, 3)))
    lam[:, :3] = roots[:, [0, 2, 5]] + offsets
    got = sinh_product(lam, roots, scale)
    assert got.shape == lam.shape
    with mpmath.workdps(50):
        s = mpmath.mpf(scale)
        want = np.array([[complex(mpmath.fprod(
            mpmath.sinh(s * (mpmath.mpc(z) - mpmath.mpc(r))) for r in row))
            for z in points] for row, points in zip(roots, lam)])
    # Factor j is exp(x)/2 - exp(-x)/2 with x = s (lam - r_j), each term
    # rounded to a few ulps: the product is good to eps times the sum of
    # the factor condition numbers (|e^x| + |e^-x|) / |e^x - e^-x|.  That
    # is about 10 on the free points and about 1/|x| beside a root.
    x = scale * (lam[..., None] - roots[:, None, :])
    cond = ((np.abs(np.exp(x)) + np.abs(np.exp(-x)))
            / np.abs(2.0 * np.sinh(x))).sum(axis=-1)
    error = np.abs(got - want) / np.abs(want)
    assert np.all(error <= 8 * np.finfo(float).eps * cond)
    assert error[:, 3:].max() < 1e-14


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_sinh_product_is_exactly_zero_on_a_root(scale):
    rng = np.random.default_rng(23)
    roots = draw(rng, (6, 7), 1.0)
    # Every point of a row is one of its roots, at every position, so each
    # lands on some vector lane and on the tail of some loop.
    picks = rng.integers(0, 7, (6, 37))
    lam = np.take_along_axis(roots, picks, axis=1)
    assert np.all(sinh_product(lam, roots, scale) == 0)
    # Points shared by every row: zero on the rows that own the root.
    shared = roots[2, [0, 3, 6]]
    got = sinh_product(shared, roots, scale)
    assert np.all(got[2] == 0) and np.all(got[np.arange(6) != 2] != 0)
    assert sinh_product(roots[0, 4], roots[0], scale) == 0


def test_sinh_product_half_angle_zero_on_roots_shifted_by_i_pi():
    # The half-period translate of a root is a root of its own, not a sign:
    # the translated choice of the homogeneous T-Q equation meets it.
    rungs = np.array([0.35 + 0.155j, 0.04 + 0.085j, 0.9 - 0.2j])
    roots = np.concatenate([rungs, rungs + 1j * np.pi])
    lam = rungs + 1j * np.pi
    assert np.all(sinh_product(lam, roots, 0.5) == 0)
    assert np.all(sinh_product(lam, rungs, 0.5) != 0)


def test_q_values_and_targets_use_the_kernel():
    model = ChainModel(two_s=(1, 2), xi=(0.1, 0.9 + 0.1j), eta=ETA,
                       kappa=1.0)
    roots = (0.2 + 0.1j, -0.4 + 0.3j, 0.7 - 0.2j)
    lam = np.array([0.3 - 0.2j, -0.1 + 0.5j])
    q_hom = thm.QFunctionHom(model, roots, 1, 0)
    assert np.array_equal(q_hom.value(lam), sinh_product(lam, roots, 0.5))
    inner = [xi_shifted(model, 2, 1)]  # site 1 (spin 1/2) has none
    target = thm.w_eps(model, -1, lam)
    np.testing.assert_allclose(
        target, -2.0 * (0.5j) ** 3 * sinh_loop(lam, np.array(inner), 1.0),
        rtol=1e-14)


def solve_path(monkeypatch, two_s, seed):
    """What one run solves, per row: both solutions' fields and the base
    values, bit for bit as bytes, and the run's residual maxima."""
    kept = {}
    for module, name in ((ti, "solve_q_inhom"), (thm, "solve_q_hom")):
        def keeping(*args, _solve=getattr(module, name), _name=name):
            kept[_name] = _solve(*args)
            return kept[_name]

        monkeypatch.setattr(module, name, keeping)
    report = run_pipelines(RunConfig.from_dict(census_doc(two_s, seed)))
    inhom, retries, _ = kept["solve_q_inhom"]
    hom, _ = kept["solve_q_hom"]
    fields = {"t_at_xi": [e["t_at_xi"] for e in report["eigenvalues"]],
              "retries": retries,
              **{f"inhom.{k}": getattr(inhom, k)
                 for k in ("roots", "alpha")},
              **{f"hom.{k}": getattr(hom, k) for k in (
                  "roots", "epsilon", "winding", "sum_rule_residual")}}
    return ({k: np.asarray(v).tobytes() for k, v in fields.items()},
            report["summary"]["max_residuals"])


@pytest.mark.parametrize("two_s, seed", [((1,) * 6, 0), ((2, 3), 2)])
def test_a_check_kernel_cannot_move_a_solution(monkeypatch, two_s, seed):
    # sinh_product only checks a solution: scaled by 1 + 2**-20 at every
    # binding site, it moves check values but no root, alpha,
    # retry count, sign, winding, sum-rule residual or base value.
    plain, plain_maxima = solve_path(monkeypatch, two_s, seed)
    for module in (trigpoly, ti, thm):
        def scaled(*args, _kernel=module.sinh_product):
            return _kernel(*args) * (1.0 + 2.0**-20)

        monkeypatch.setattr(module, "sinh_product", scaled)
    moved, moved_maxima = solve_path(monkeypatch, two_s, seed)
    assert moved == plain
    assert moved_maxima != plain_maxima  # the wrapped kernel did run


# ----------------------------------------------------------------------
# the array PoleAtXi check on a half-integer chain, sampled at its base
# points


def pole_message_loop(model, roots):
    for n, xi in enumerate(model.xi, start=1):
        for r in roots:
            if distance_loop(r - xi, np.pi) < 1e-8:
                return (f"root {r:.6g} sits on sample point {n} modulo the "
                        "period")
    return None


def test_pole_at_xi_names_the_same_base_point_and_root():
    config = RunConfig.from_dict({"model": {
        "two_s": [1, 3], "xi": "random", "seed": 11,
        "kappa": [[1.0, 0.0]]}})
    model = config.build_model()
    assert np.array_equal(ti._sample_points(model, []), model.xi)
    zeta0 = ti.draw_zeta0(model, np.random.default_rng(42))
    spec = sp.brute_force_spectrum(model)
    sols, _, errors = ti.solve_q_inhom(model, spec.rows, zeta0=zeta0)
    assert errors == [None] * model.hilbert_dim
    # Every third row gets a root on a base point, row 3 one period away.
    roots = sols.roots.copy()
    for k in range(0, len(roots), 3):
        roots[k, k % roots.shape[1]] = (model.xi[k % model.n_sites]
                                        + 1j * np.pi * (k == 3))
    moved = dataclasses.replace(sols, roots=roots)
    poles = 0
    for row, error in zip(roots, ti.t_from_q_inhom(model, moved)[2]):
        want = pole_message_loop(model, row)
        if want is None:
            assert error is None
            continue
        poles += 1
        assert isinstance(error, PoleAtXi)
        assert str(error) == want
    assert poles == len(range(0, len(roots), 3))


# ----------------------------------------------------------------------
# genericity scan


def margin_loop(model):
    best = np.inf
    for i in range(model.n_sites):
        for j in range(i + 1, model.n_sites):
            span = model.two_s[i] + model.two_s[j]
            for t in range(span + 1):
                d = t - span / 2.0
                best = min(best, distance_loop(
                    model.xi[i] - model.xi[j] + d * model.eta, np.pi))
    return float(best)


@pytest.mark.parametrize("two_s", [(1, 2), (2, 1, 3), (1, 1, 1, 1)])
def test_ladder_gap_minimum_equals_triple_loop(two_s):
    xi = (0.1, 0.9 + 0.1j, 1.7 - 0.05j, 2.4 + 0.08j)[: len(two_s)]
    model = ChainModel(two_s=two_s, xi=xi, eta=ETA, kappa=1.0)
    assert min(gap for *_, gap in model._ladder_gaps()) == margin_loop(model)


def test_single_site_margin_is_infinite():
    model = ChainModel(two_s=(2,), xi=(0.1,), eta=ETA, kappa=1.0)
    assert model._ladder_gaps() == [] and margin_loop(model) == np.inf


def test_collision_message_text_is_unchanged():
    xi = (0.1, 0.1 + ETA + 1j * np.pi + 1e-4)
    with pytest.raises(ConfigError) as err:
        ChainModel(two_s=(1, 1), xi=xi, eta=ETA, kappa=1.0, delta_min=1e-3)
    gap = distance_loop(xi[0] - xi[1] + 1.0 * ETA, np.pi)
    assert str(err.value) == (
        "inhomogeneity ladders of sites 1 and 2 collide: |xi_1 - xi_2 + "
        f"(1.0)*eta| = {gap:.3e} < delta_min=0.001"
    )


# ----------------------------------------------------------------------
# the sum rule carried on the solution


def test_solve_carries_the_sum_rule_residual():
    model = RunConfig.from_dict({"model": {
        "two_s": [1, 2], "xi": "random", "seed": 11,
        "kappa": [[1.0, 0.0]]}}).build_model()
    sol, errors = thm.solve_q_hom(
        model, sp.brute_force_spectrum(model).rows,
        ti.draw_zeta0(model, np.random.default_rng(0)))
    assert errors == [None] * model.hilbert_dim
    _, _, residual = thm.sum_rule_check(model, sol.roots)
    assert np.array_equal(sol.sum_rule_residual, residual)
