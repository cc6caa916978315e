"""Per-model and per-eigenvalue tables computed once and shared.

The model's rung table, an eigenvalue function's rung values and ladder,
the Kronecker step, the oracle self-check and the auxiliary node draws are
pinned to the definitions they replace, kept here as plain references.
"""

import numpy as np
import pytest

from sovchain import spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.cli import RunConfig, run_pipelines
from sovchain.errors import (
    DegenerateSpectrum, ExceptionalAlpha, RecursionBlowup, SovChainError,
)
from sovchain.qalgebra import (
    ChainModel, _kron, a_of, d_of, lax, monodromy, xi_shifted,
)

ETA = 0.31 + 0.07j
XI = (0.1, 0.9 + 0.1j, 1.7 - 0.05j, 2.4 + 0.08j)
SHAPES = [(1, 2), (2, 1, 3), (1, 1, 1, 1)]


def chain(two_s, kappa=1.0):
    return ChainModel(two_s=two_s, xi=XI[: len(two_s)], eta=ETA, kappa=kappa)


def arbitrary_eigfun(model):
    rng = np.random.default_rng(model.n_s)
    values = rng.uniform(-1, 1, model.n_sites) + 1j * rng.uniform(
        -1, 1, model.n_sites
    )
    return sp.EigenvalueFunction(model, tuple(values))


# ----------------------------------------------------------------------
# one ladder per eigenvalue in a full run


def test_one_ladder_and_one_wronskian_fit_per_eigenvalue(monkeypatch):
    # One ladder recursion and one Wronskian fit per run, each over all 12
    # eigenvalues at once.
    ladders = []
    fits = []
    ladder = sp._ladder
    fit = thm.verify_wronskian_identity

    def counting_ladder(model, rung_values):
        ladders.append(np.shape(rung_values[0])[:-1])
        return ladder(model, rung_values)

    def counting_fit(model, q):
        fits.append(np.shape(q.roots)[:-1])
        return fit(model, q)

    monkeypatch.setattr(sp, "_ladder", counting_ladder)
    monkeypatch.setattr(thm, "verify_wronskian_identity", counting_fit)
    doc = {
        "model": {
            "two_s": [1, 2, 1], "xi": "random", "seed": 11,
            "delta_min": 0.05, "eta": [0.31, 0.07],
            "kappa": [[1.0, 0.0], [0.6, 0.8]],
        },
        "pipelines": "all",
    }
    report = run_pipelines(RunConfig.from_dict(doc))
    assert report["summary"]["count"] == 12
    assert ladders == [(12,)]
    assert fits == [(12,)]
    for entry in report["eigenvalues"]:
        assert "roots" in entry["hom"] and "eigenstate_residual" in entry


def test_solve_keeps_its_wronskian_fit():
    model = chain((1, 2))
    spec = sp.brute_force_spectrum(model)
    sol, errors = thm.solve_q_hom(model, spec.rows, seed=4)
    assert errors == [None] * model.hilbert_dim
    eps, res, _ = thm.verify_wronskian_identity(model, sol)
    assert np.array_equal(sol.epsilon, eps)
    assert np.array_equal(sol.wronskian_residual, res)
    assert thm.QFunctionHom(model, (), 1, 0).wronskian_residual is None


# ----------------------------------------------------------------------
# the model's rung table


@pytest.mark.parametrize("two_s", SHAPES, ids=lambda s: "".join(map(str, s)))
def test_rung_table_matches_definitions(two_s):
    model = chain(two_s)
    table = model.rung_table
    assert table is model.rung_table
    assert len(table) == model.n_sites
    for n, rung in enumerate(table, start=1):
        rungs = np.array(
            [xi_shifted(model, n, k) for k in range(two_s[n - 1] + 1)]
        )
        assert np.array_equal(rung.rungs, rungs)
        assert np.array_equal(rung.a, a_of(model, rungs))
        assert np.array_equal(rung.d, d_of(model, rungs))
        ratio = np.cumprod(a_of(model, rungs[:-1]) / d_of(model, rungs[1:]))
        signs = (-1.0) ** np.arange(1, rungs.size)
        assert np.array_equal(rung.companion, signs * ratio)


def test_rung_table_is_read_only():
    model = chain((2, 1, 3))
    rung = model.rung_table[0]
    for arr in rung:
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(AttributeError):
        rung.a = np.zeros(3)


def test_rung_table_leaves_equality_and_hash_alone():
    first = chain((1, 2))
    second = chain((1, 2))
    first.rung_table
    assert first == second and hash(first) == hash(second)
    assert first != chain((1, 2), kappa=0.6 + 0.8j)


# ----------------------------------------------------------------------
# the eigenvalue function's rung values and ladder


@pytest.mark.parametrize("two_s", SHAPES, ids=lambda s: "".join(map(str, s)))
def test_eigenvalue_tables_match_definitions(two_s):
    model = chain(two_s)
    eigfun = arbitrary_eigfun(model)
    for n, values in enumerate(eigfun.rung_values, start=1):
        assert np.array_equal(values, eigfun(model.rung_table[n - 1].rungs))
        assert not values.flags.writeable
    qs, consistency, errors = eigfun.ladder
    assert eigfun.ladder is eigfun.ladder
    assert errors == (None,)
    # A row of a stack gets the ladder it gets on its own.
    stack = sp.EigenvalueFunction(model, np.array([eigfun.base_values] * 2))
    want_q, want_c, _ = stack.ladder
    assert consistency == want_c[1]
    for got, want in zip(qs, want_q):
        assert np.array_equal(got, want[1])
        assert not got.flags.writeable


def test_failed_ladder_row_keeps_its_error():
    # An overflowing row records its RecursionBlowup with zero vectors; the
    # rows beside it keep the vectors they get on their own.
    model = chain((1, 2))
    good = np.array(arbitrary_eigfun(model).base_values)
    stack = sp.EigenvalueFunction(
        model, np.array([good, [1e20 + 0j, 1e20 + 0j], good])
    )
    qs, _, errors = stack.ladder
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], RecursionBlowup)
    alone = sp.EigenvalueFunction(model, tuple(good)).ladder[0]
    for q, want in zip(qs, alone):
        assert np.array_equal(q[0], want) and np.array_equal(q[2], want)
        assert not q[1].any()


# ----------------------------------------------------------------------
# the Kronecker step


@pytest.mark.parametrize("two_s", [(1, 2), (2, 1, 3)], ids=["12", "213"])
def test_kron_equals_numpy_kron(two_s):
    model = chain(two_s)
    lam = 0.37 - 0.21j
    left = monodromy(chain(two_s[:-1]), lam)
    right = lax(model, model.n_sites, lam)
    for x in left + lax(model, 1, lam):
        for y in right:
            assert np.array_equal(_kron(x, y), np.kron(x, y))
    vec_x, vec_y = np.diag(left[0]), np.diag(right[3])
    assert np.array_equal(_kron(vec_x, vec_y), np.kron(vec_x, vec_y))


# ----------------------------------------------------------------------
# the oracle self-check


def test_oracle_check_fires_on_a_wrong_transfer_matrix(monkeypatch):
    model = chain((1, 1, 1))
    transfer = sp.transfer_antiperiodic
    calls = []

    def skewed(model, lam):
        # The sample point and the base points are built first; every
        # later (check-point) matrix is perturbed.
        calls.append(lam)
        t = transfer(model, lam)
        if len(calls) > 1 + model.n_sites:
            t = t + 1e-3 * np.linalg.norm(t) * np.eye(t.shape[0])[::-1]
        return t

    sp.brute_force_spectrum(model)
    monkeypatch.setattr(sp, "transfer_antiperiodic", skewed)
    with pytest.raises(DegenerateSpectrum, match="eigenvector check failed"):
        sp.brute_force_spectrum(model)


# ----------------------------------------------------------------------
# the auxiliary node draws


def draw_loop(model, rng, period):
    rungs = [
        xi_shifted(model, n, k)
        for n in range(1, model.n_sites + 1)
        for k in range(model.two_s[n - 1] + 1)
    ]
    for _ in range(1000):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        gaps = []
        for r in rungs:
            w = z - r
            k = round(w.imag / period)
            gaps.append(abs(complex(w.real, w.imag - period * k)))
        if min(gaps) > 1e-2:
            return z
    raise AssertionError("no node")


@pytest.mark.parametrize("two_s", SHAPES, ids=lambda s: "".join(map(str, s)))
def test_node_draws_match_reference(two_s):
    model = chain(two_s)
    for seed in range(5):
        assert ti.draw_zeta0(model, np.random.default_rng(seed)) == (
            draw_loop(model, np.random.default_rng(seed), np.pi)
        )
        assert thm.draw_zeta0_hom(model, np.random.default_rng(seed)) == (
            draw_loop(model, np.random.default_rng(seed), 2.0 * np.pi)
        )


class Scripted:
    """A generator stub: each pair of draws gives the next listed point,
    and the last point repeats."""

    def __init__(self, *points):
        self.points = list(points)
        self.parts = []

    def uniform(self, low, high):
        if not self.parts:
            z = self.points.pop(0) if len(self.points) > 1 else self.points[0]
            self.parts = [z.real, z.imag]
        return self.parts.pop(0)


def test_node_draws_use_their_period():
    # A rung's image half a period down is on the rung modulo i*pi but
    # not modulo 2*i*pi.
    model = chain((1, 2))
    image = complex(model.rung_table[0].rungs[0]) - 1j * np.pi
    clear = 0.3 - 0.6j
    assert ti.draw_zeta0(model, Scripted(image, clear)) == clear
    assert thm.draw_zeta0_hom(model, Scripted(image, clear)) == image


def test_node_draws_give_up_with_their_error_class():
    model = chain((1, 2))
    rung = complex(model.rung_table[0].rungs[0])
    with pytest.raises(ExceptionalAlpha):
        ti.draw_zeta0(model, Scripted(rung))
    with pytest.raises(SovChainError) as info:
        thm.draw_zeta0_hom(model, Scripted(rung))
    assert type(info.value) is SovChainError
