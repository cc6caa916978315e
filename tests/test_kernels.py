"""Array kernels of the T-Q layer pinned to their scalar definitions.

Each reference below is the plain loop the kernel replaces: one point, one
site, root or rung at a time.  The Q-functions are built from arbitrary
roots and the eigenvalue functions from arbitrary base values, so every
residual is of order one and a relative comparison is meaningful.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain import sovbasis as sb
from sovchain import spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.qalgebra import ChainModel, a_of, d_of, xi_shifted
from sovchain.trigpoly import cardinals

ETA = 0.31 + 0.07j
RTOL = 1e-13
XI = (0.1, 0.9 + 0.1j, 1.7 - 0.05j, 2.4 + 0.08j)
SHAPES = [(1, 2), (2, 1, 3), (1, 1, 1, 1)]


def chain(two_s):
    return ChainModel(two_s=two_s, xi=XI[: len(two_s)], eta=ETA, kappa=1.0)


@pytest.fixture(params=SHAPES, ids=lambda s: "".join(map(str, s)))
def case(request):
    """A chain with an arbitrary eigenvalue function and Q-functions."""
    model = chain(request.param)
    rng = np.random.default_rng(sum(request.param))

    def draw(k):
        return rng.uniform(-1, 1, k) + 1j * rng.uniform(-1, 1, k)
    eigfun = sp.EigenvalueFunction(model, tuple(draw(model.n_sites)))
    roots = tuple(draw(model.n_s))
    q_inhom = ti.QFunctionInhom(
        model=model, alpha=0.2 - 0.1j, roots=roots,
        lambda_bar=complex(sum(roots)),
    )
    q_hom = thm.QFunctionHom(model, roots, 1, 0)
    return model, eigfun, q_inhom, q_hom


def points():
    rng = np.random.default_rng(5)
    return rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)


# ----------------------------------------------------------------------
# scalar references


def a_loop(model, lam):
    out = 1.0 + 0.0j
    for two_s, xi in zip(model.two_s, model.xi):
        out *= np.sinh(lam - xi + two_s / 2.0 * model.eta)
    return out


def d_loop(model, lam):
    out = 1.0 + 0.0j
    for two_s, xi in zip(model.two_s, model.xi):
        out *= np.sinh(lam - xi - two_s / 2.0 * model.eta)
    return out


def q_loop(roots, lam, scale=1.0):
    out = 1.0 + 0.0j
    for r in roots:
        out *= np.sinh(scale * (lam - r))
    return out


def f_loop(model, x, lam):
    rungs = [
        xi_shifted(model, n, h)
        for n in range(1, model.n_sites + 1)
        for h in range(model.two_s[n - 1] + 1)
    ]
    lower = sum(
        xi_shifted(model, n, h)
        for n in range(1, model.n_sites + 1)
        for h in range(1, model.two_s[n - 1] + 1)
    )
    extra = x - lower - (model.n_s + 1) * model.eta / 2.0
    out = 2.0 * np.exp(-(model.n_s + 1) * model.eta / 2.0)
    return out * q_loop([extra] + rungs, lam)


def inhom_terms_loop(model, sol, lam):
    x = sol.alpha + sol.lambda_bar
    term_a = (-np.exp(lam - sol.alpha) * a_loop(model, lam)
              * q_loop(sol.roots, lam - model.eta))
    term_d = (np.exp(-lam - model.eta + sol.alpha) * d_loop(model, lam)
              * q_loop(sol.roots, lam + model.eta))
    return term_a, term_d, f_loop(model, x, lam)


def hom_terms_loop(model, q, lam):
    term_a = a_loop(model, lam) * q_loop(q.roots, lam - model.eta, 0.5)
    term_d = d_loop(model, lam) * q_loop(q.roots, lam + model.eta, 0.5)
    return term_a, term_d


def cardinal_loop(nodes, k, lam, scale):
    acc = 1.0 + 0.0j
    for l, node in enumerate(nodes):
        if l != k:
            acc *= (np.sinh(scale * (lam - node))
                    / np.sinh(scale * (nodes[k] - node)))
    return acc


# ----------------------------------------------------------------------


def test_grid_is_the_seed_17_draw():
    rng = np.random.default_rng(17)
    want = rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.2, 1.2, 40)
    assert np.array_equal(ti.GRID_POINTS, want)
    assert thm.GRID_POINTS is ti.GRID_POINTS


def test_site_rungs_equal_xi_shifted(case):
    model = case[0]
    want = [xi_shifted(model, n, h) for n in range(1, model.n_sites + 1)
            for h in range(model.two_s[n - 1] + 1)]
    assert np.array_equal(model.rung_table.rungs, want)


def test_a_and_d(case):
    model = case[0]
    lam = points().reshape(2, 3)
    for kernel, loop in ((a_of, a_loop), (d_of, d_loop)):
        got = kernel(model, lam)
        assert got.shape == lam.shape
        assert_allclose(got, np.vectorize(lambda z: loop(model, z))(lam),
                        rtol=RTOL)
        z = complex(lam[0, 0])
        assert kernel(model, z) == loop(model, z)


def test_values_and_correction(case):
    model, _, q_inhom, q_hom = case
    lam = points().reshape(3, 2)
    want = np.vectorize(lambda z: q_loop(q_inhom.roots, z))(lam)
    assert_allclose(q_inhom.value(lam), want, rtol=RTOL)
    want = np.vectorize(lambda z: q_loop(q_hom.roots, z, 0.5))(lam)
    assert_allclose(q_hom.value(lam), want, rtol=RTOL)
    x = 0.4 + 0.2j
    want = np.vectorize(lambda z: f_loop(model, x, z))(lam)
    assert_allclose(ti.f_inhom(model, x, lam), want, rtol=RTOL)


def test_grid_residuals(case):
    model, eigfun, q_inhom, q_hom = case
    worst_inhom = worst_hom = 0.0
    for lam in ti.GRID_POINTS:
        t = eigfun(complex(lam))
        lhs = t * q_loop(q_inhom.roots, lam)
        terms = inhom_terms_loop(model, q_inhom, lam)
        scale = max(abs(lhs), *map(abs, terms))
        worst_inhom = max(worst_inhom, abs(lhs - sum(terms)) / scale)
        lhs = t * q_loop(q_hom.roots, lam, 0.5)
        term_a, term_d = hom_terms_loop(model, q_hom, lam)
        scale = max(abs(lhs), abs(term_a), abs(term_d))
        worst_hom = max(worst_hom, abs(lhs + term_a - term_d) / scale)
    assert_allclose(ti.inhom_grid_residual(model, eigfun, q_inhom),
                    worst_inhom, rtol=RTOL)
    assert_allclose(thm.hom_grid_residual(model, eigfun, q_hom),
                    worst_hom, rtol=RTOL)


def test_bethe_residuals(case):
    model, _, q_inhom, q_hom = case
    want = []
    for lam in q_inhom.roots:
        terms = inhom_terms_loop(model, q_inhom, lam)
        want.append(abs(sum(terms)) / max(*map(abs, terms), 1e-300))
    assert_allclose(ti.bethe_residuals_inhom(model, q_inhom), want, rtol=RTOL)
    want = []
    for lam in q_hom.roots:
        term_a, term_d = hom_terms_loop(model, q_hom, lam)
        want.append(abs(term_d - term_a) / max(abs(term_a), abs(term_d)))
    assert_allclose(thm.bethe_residuals_hom(model, q_hom)[0], want, rtol=RTOL)


def test_ladder_nullspace_and_rescale(case):
    model, eigfun = case[:2]
    want_q, want_p = [], []
    for site in range(1, model.n_sites + 1):
        q = [1.0 + 0.0j]
        p = [1.0 + 0.0j]
        ratio = 1.0 + 0.0j
        for h in range(model.two_s[site - 1]):
            rung = xi_shifted(model, site, h)
            prev = q[h - 1] if h > 0 else 0.0
            q.append((d_loop(model, rung) * prev
                      - eigfun(rung) * q[h]) / a_loop(model, rung))
            ratio *= a_loop(model, rung) / d_loop(
                model, xi_shifted(model, site, h + 1)
            )
            p.append((-1) ** (h + 1) * ratio * q[h + 1])
        want_q.append(q)
        want_p.append(p)
    qs = eigfun.ladder[0]
    ps = model.rung_table.companion * qs
    rescaled = model.rung_table.companion * np.concatenate(want_q)
    assert_allclose(qs, np.concatenate(want_q), rtol=RTOL)
    assert_allclose(ps, np.concatenate(want_p), rtol=RTOL)
    assert_allclose(rescaled, np.concatenate(want_p), rtol=RTOL)


# The four zero-scale rules the shared defect replaced, one per residual.
def defect_inhom_grid(num, terms):
    return np.abs(num) / np.max(np.abs(terms), axis=0)


def defect_hom_grid(num, terms):
    scale = np.max(np.abs(terms), axis=0)
    live = scale != 0.0
    out = np.zeros(scale.shape)
    out[live] = np.abs(num)[live] / scale[live]
    return out


def defect_bethe_inhom(num, terms):
    return np.abs(num) / np.maximum(np.max(np.abs(terms), axis=0), 1e-300)


def defect_bethe_hom(num, terms):
    term_a, term_d = terms
    return np.abs(num) / np.maximum(np.abs(term_a), np.abs(term_d))


@pytest.mark.parametrize("reference, n_terms", [
    (defect_inhom_grid, 4), (defect_hom_grid, 3),
    (defect_bethe_inhom, 3), (defect_bethe_hom, 2),
])
def test_relative_defect_equals_each_old_rule(reference, n_terms):
    rng = np.random.default_rng(n_terms)
    terms = [rng.normal(size=7) + 1j * rng.normal(size=7)
             for _ in range(n_terms)]
    num = sum(terms)
    assert np.array_equal(ti._relative_defect(num, terms),
                          reference(num, terms))


def test_relative_defect_is_zero_where_every_term_vanishes():
    terms = [np.array([0.0, 2.0 + 0j]), np.array([0.0, -1.0j])]
    num = terms[0] + terms[1]
    got = ti._relative_defect(num, terms)
    assert got[0] == 0.0
    assert_allclose(got[1], np.sqrt(5.0) / 2.0, rtol=RTOL)
    with np.errstate(invalid="ignore"):
        assert np.isnan(defect_inhom_grid(num, terms)[0])


@pytest.mark.parametrize("two_s", [(1, 2), (2, 1, 3)], ids=["12", "213"])
def test_rung_values_equal_a_per_site_loop(two_s):
    # t on the table's rungs, one site and one rung at a time, for one
    # eigenvalue and for a stack of them.
    model = chain(two_s)
    base = 0.3 + np.arange(len(two_s))
    for eigfun in (sp.EigenvalueFunction(model, tuple(base)),
                   sp.EigenvalueFunction(model, np.array([base, 1j * base]))):
        want = np.stack([
            np.asarray(eigfun(xi_shifted(model, n, h)))
            for n in range(1, model.n_sites + 1)
            for h in range(model.two_s[n - 1] + 1)], axis=-1)
        assert np.array_equal(eigfun.rung_values, want)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_cardinals(scale):
    # Site 1 carries spin 1, so its middle rung, a node, is exactly xi_1.
    model = chain((2, 1, 3))
    nodes = ti._closure_nodes(model, 0.3 + 0.4j)[0]
    assert xi_shifted(model, 1, 1) == model.xi[0] == nodes[2]
    lam = np.concatenate([points(), [model.xi[0]]])
    got = cardinals(nodes, lam, scale)
    assert got.shape == (lam.size, nodes.size)
    want = [[cardinal_loop(nodes, k, z, scale) for k in range(nodes.size)]
            for z in lam]
    assert_allclose(got, want, rtol=RTOL, atol=0.0)
    assert_allclose(got[-1], np.eye(nodes.size)[2], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("scale", [1.0, 0.5])
def test_cardinals_on_rows_of_nodes(scale):
    # The separated basis reads one node set per state: its rung points.
    rows = sb.rung_points(chain((2, 1, 3)))
    lam = points()
    got = cardinals(rows, lam[:, None], scale)
    assert got.shape == (lam.size, *rows.shape)
    at_one = cardinals(rows, lam[0], scale)
    assert at_one.shape == rows.shape
    for r, nodes in enumerate(rows):
        assert np.array_equal(got[:, r], cardinals(nodes, lam, scale))
        assert np.array_equal(at_one[r], cardinals(nodes, lam[0], scale))
