"""Per-model and per-eigenvalue tables computed once and shared.

The model's rung table, an eigenvalue function's rung values and ladder,
the monodromy's nonzero plan, the oracle self-check and the auxiliary
node draws are pinned to the definitions they replace, kept here as plain
references.  The oracle's one pass over every twist, with one eigenbasis
for all of them and no matrix per further twist, is pinned to one call per
twist.
"""

import itertools
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from sovchain import cli
from sovchain import qalgebra as qa
from sovchain import spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.cli import RunConfig, run_pipelines
from sovchain.errors import (
    DegenerateSpectrum, ExceptionalAlpha, RecursionBlowup, record,
)
from sovchain.qalgebra import (
    ChainModel, a_of, d_of, lax, monodromy, monodromy_entries, xi_shifted,
)
from sovchain.trigpoly import cardinals
import test_reference_set as reference

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
        ladders.append(np.shape(rung_values)[:-1])
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


def test_solve_leaves_the_wronskian_fit_to_the_run(monkeypatch):
    # The solution holds the roots and what their sum fixed; the solve
    # never fits the Wronskian, which the run checks at the solved sign.
    model = chain((1, 2))
    spec = sp.brute_force_spectrum(model)
    monkeypatch.delattr(thm, "verify_wronskian_identity")
    sol, errors = thm.solve_q_hom(
        model, spec.rows, ti.draw_zeta0(model, np.random.default_rng(4)))
    assert errors == [None] * model.hilbert_dim
    assert [f.name for f in fields(sol)] == [
        "model", "roots", "epsilon", "winding", "sum_rule_residual"]


# ----------------------------------------------------------------------
# the model's rung table


@pytest.mark.parametrize("two_s", SHAPES + [(2, 1, 2, 1)],
                         ids=lambda s: "".join(map(str, s)))
def test_rung_table_matches_definitions(two_s):
    # Site-major, top rung first; a, d and the companion factors of each
    # site as one site's evaluation gives them.
    model = chain(two_s)
    table = model.rung_table
    assert table is model.rung_table
    site, level = np.array(
        [(n, k) for n, v in enumerate(two_s) for k in range(v + 1)]).T
    assert np.array_equal(table.site, site)
    assert np.array_equal(table.level, level)
    rungs = np.array([model.xi[n] + (two_s[n] - 2 * k) / 2.0 * model.eta
                      for n, k in zip(site, level)])
    assert np.array_equal(table.rungs, rungs)
    length = np.array(two_s)[site]
    for name, mask in (("top", level == 0), ("bottom", level == length),
                       ("upper", level < length),
                       ("inner", (level > 0) & (level < length))):
        assert np.array_equal(getattr(table, name), np.flatnonzero(mask))
    for n in range(model.n_sites):
        cols = np.flatnonzero(site == n)
        assert np.array_equal(table.position(n, np.arange(cols.size)), cols)
        assert xi_shifted(model, n + 1, cols.size - 1) == rungs[cols[-1]]
        ladder = rungs[cols]
        assert np.array_equal(table.a[cols], a_of(model, ladder))
        assert np.array_equal(table.d[cols], d_of(model, ladder))
        ratio = np.cumprod(a_of(model, ladder[:-1]) / d_of(model, ladder[1:]))
        signs = (-1.0) ** np.arange(1, ladder.size)
        assert table.companion[cols[0]] == 1.0
        assert np.array_equal(table.companion[cols[1:]], signs * ratio)
    # Per ladder length, in order of first appearance: its sites and their
    # rungs' positions, one row per site.
    lengths = list(dict.fromkeys(two_s))
    assert len(table.groups) == len(lengths)
    for v, (sites, cols) in zip(lengths, table.groups):
        assert list(sites) == [n for n, w in enumerate(two_s) if w == v]
        assert np.array_equal(cols, [np.flatnonzero(site == n) for n in sites])


def test_rung_table_is_one_evaluation_over_every_rung(monkeypatch):
    # One a and one d call over all rungs, not one per site.
    calls = []
    for name in ("a_of", "d_of"):
        kernel = getattr(qa, name)
        monkeypatch.setattr(qa, name, lambda model, lam, kernel=kernel,
                            name=name: (calls.append((name, np.shape(lam))),
                                        kernel(model, lam))[1])
    model = chain((2, 1, 3))
    model.rung_table
    assert calls == [("a_of", (9,)), ("d_of", (9,))]


def test_rung_table_is_read_only():
    model = chain((2, 1, 3))
    table = model.rung_table
    for arr in (*table[:-1], *(x for group in table.groups for x in group)):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(AttributeError):
        table.a = np.zeros(3)


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
    values = eigfun.rung_values
    assert np.array_equal(values, eigfun(model.rung_table.rungs))
    assert not values.flags.writeable
    qs, errors = eigfun.ladder
    assert eigfun.ladder is eigfun.ladder
    assert errors == (None,)
    # A row of a stack gets the ladder it gets on its own.
    stack = sp.EigenvalueFunction(model, np.array([eigfun.base_values] * 2))
    want_q, _ = stack.ladder
    assert np.array_equal(qs, want_q[1])
    assert not qs.flags.writeable


def test_failed_ladder_row_keeps_its_error():
    # An overflowing row records its RecursionBlowup with zero vectors; the
    # rows beside it keep the vectors they get on their own.
    model = chain((1, 2))
    good = np.array(arbitrary_eigfun(model).base_values)
    stack = sp.EigenvalueFunction(
        model, np.array([good, [1e20 + 0j, 1e20 + 0j], good])
    )
    qs, errors = stack.ladder
    assert errors[0] is None and errors[2] is None
    assert isinstance(errors[1], RecursionBlowup)
    alone = sp.EigenvalueFunction(model, tuple(good)).ladder[0]
    assert np.array_equal(qs[0], alone) and np.array_equal(qs[2], alone)
    assert not qs[1].any()


# ----------------------------------------------------------------------
# the rung checks, one pass per ladder length, against site loops

STACKED_SHAPES = SHAPES + [(1,) * 6, (3, 3), (1, 4)]


def site_loop_residual(model, eigfun):
    """The Hadamard-scaled rung determinant, one site at a time."""
    worst = np.zeros(np.shape(eigfun.base_values)[:-1])
    for site in range(1, model.n_sites + 1):
        mat = sp.ladder_matrix(model, eigfun, site)
        scale = np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
        worst = np.maximum(worst, np.abs(np.linalg.det(mat)) / scale)
    return worst


def site_cols(model):
    """Each site's rungs in the table, top rung first, as a slice."""
    table = model.rung_table
    return [slice(top, bottom + 1)
            for top, bottom in zip(table.top, table.bottom)]


def site_loop_ladder(model, rung_values):
    """The downward rung recursion, one site and one rung at a time; a row
    keeps the first blowup it meets, site-major."""
    lead = np.shape(rung_values)[:-1]
    errors = [None] * int(np.prod(lead, dtype=int))
    qs = []
    table = model.rung_table
    with np.errstate(all="ignore"):
        for site, cols in enumerate(site_cols(model), start=1):
            t, a, d = rung_values[..., cols], table.a[cols], table.d[cols]
            q = np.zeros(t.shape, dtype=complex)
            q[..., 0] = 1.0
            for h in range(t.shape[-1] - 1):
                prev = q[..., h - 1] if h > 0 else np.zeros(lead, complex)
                nxt = (d[h] * prev - t[..., h] * q[..., h]) / a[h]
                peak = np.maximum(1.0, np.max(np.abs(q[..., :h + 1]), -1))
                record(errors, np.abs(nxt) > 1e12 * peak,
                       lambda k: RecursionBlowup(
                           f"rung recursion overflow at site {site}, "
                           f"rung {h + 1}"))
                q[..., h + 1] = nxt
            qs.append(q)
    qs = np.concatenate(qs, axis=-1)
    qs[np.reshape([e is not None for e in errors], lead)] = 0.0
    return qs, errors


def site_loop_proportionality(model, q):
    """The angle between Q's rung vector and its translate's, per site."""
    pairs = [(v, (-1.0) ** np.arange(v.shape[-1]) * w)
             for v, w in ((q.table[key][..., cols] for key in ("rungs", "rungs+ip"))
                          for cols in site_cols(model))]
    scale = np.max([np.max(np.abs(np.concatenate(p, axis=-1)), axis=-1)
                    for p in pairs], axis=0)
    tiny = 1e-12 * np.maximum(scale, 1e-300)
    angles = np.zeros(scale.shape + (model.n_sites,))
    both_zero = np.zeros(angles.shape, dtype=bool)
    for n, (v, w) in enumerate(pairs):
        nv, nw = np.linalg.norm(v, axis=-1), np.linalg.norm(w, axis=-1)
        zero_v, zero_w = nv <= tiny, nw <= tiny
        both_zero[..., n] = zero_v & zero_w
        with np.errstate(all="ignore"):
            coeff = np.sum(v.conj() * w, axis=-1) / (nv * nv)
            perp = w - coeff[..., None] * v
            angle = np.arcsin(np.minimum(
                1.0, np.linalg.norm(perp, axis=-1) / nw))
        angles[..., n] = np.where(zero_v | zero_w,
                                  np.where(both_zero[..., n], 0.0, 0.5 * np.pi),
                                  angle)
    return angles, both_zero


def assert_same_ladder(got, want):
    qs, errors = got
    assert np.array_equal(qs, want[0]) and not qs.flags.writeable
    assert [None if e is None else (type(e), str(e)) for e in errors] == [
        None if e is None else (type(e), str(e)) for e in want[1]]


@pytest.mark.parametrize("two_s", STACKED_SHAPES,
                         ids=lambda s: "".join(map(str, s)))
def test_stacked_rung_checks_equal_the_site_loops(two_s):
    # Bit for bit, for the whole spectrum and for one row alone.
    model = long_chain(two_s)
    rows = sp.brute_force_spectrum(model).rows
    for eigfun in (rows, sp.EigenvalueFunction(model, rows.base_values[1])):
        assert np.array_equal(sp.discrete_residual(model, eigfun),
                              site_loop_residual(model, eigfun))
        assert_same_ladder(eigfun.ladder,
                           site_loop_ladder(model, eigfun.rung_values))
    hom = thm.solve_q_hom(
        model, rows, ti.draw_zeta0(model, np.random.default_rng(42)))[0]
    for got, want in zip(thm.q_vector_proportionality(model, hom),
                         site_loop_proportionality(model, hom)):
        assert np.array_equal(got, want)


def test_stacked_ladder_names_the_first_blowup_site_major():
    # (1, 2, 1) runs sites 1 and 3 in one pass, site 2 in the next.  Row 1
    # blows up at site 2, rung 2 and at site 3, rung 1: its error names
    # site 2, the first one the site loop meets.
    model = chain((1, 2, 1))
    rng = np.random.default_rng(3)
    values = np.concatenate(
        [rng.uniform(-1, 1, (2, v + 1)) + 0j for v in model.two_s], axis=-1)
    at = model.rung_table.position
    values[1, at(1, 1)] = values[1, at(2, 0)] = 1e20
    got = sp._ladder(model, values)
    assert_same_ladder(got, site_loop_ladder(model, values))
    assert got[1][0] is None
    assert str(got[1][1]) == "rung recursion overflow at site 2, rung 2"
    assert not got[0][1].any()


def test_nan_rung_values_fail_the_determinant_check():
    # A NaN row reads NaN, which no tolerance passes; the rows beside it
    # keep their own residuals.
    model = chain((1, 1, 1))
    good = np.array(arbitrary_eigfun(model).base_values)
    stack = sp.EigenvalueFunction(model, np.array([good, [np.nan] * 3, good]))
    worst = sp.discrete_residual(model, stack)
    assert np.isnan(worst[1])
    alone = sp.discrete_residual(model, sp.EigenvalueFunction(model, good))
    assert worst[0] == worst[2] == alone


# ----------------------------------------------------------------------
# the T-Q check tables: Q once per solution, model-only factors once per
# model


def tq_solutions(two_s):
    """The model, its spectrum, and the tq-inhom and tq-hom solutions of
    every eigenvalue.  (2, 2) has inner rungs on its base points, so it
    samples t at an offset copy of them."""
    model = chain(two_s)
    rows = sp.brute_force_spectrum(model).rows
    rng = np.random.default_rng
    inhom = ti.solve_q_inhom(model, rows, ti.draw_zeta0(model, rng(42)))[0]
    hom = thm.solve_q_hom(model, rows, ti.draw_zeta0(model, rng(42)))[0]
    return model, rows, inhom, hom


TABLE_SHAPES = [(1, 2), (2, 2), (2, 1, 3)]


@pytest.mark.parametrize("two_s", TABLE_SHAPES,
                         ids=lambda s: "".join(map(str, s)))
def test_table_slices_equal_q_at_their_points(two_s):
    model, rows, inhom, hom = tq_solutions(two_s)
    # The one model context of both equations is built once per model.
    assert ti._check_points(model) is ti._check_points(model)
    # The tq-hom point sets by their definitions, X being the grid, the
    # inner rungs and the sample points.
    eta, ip, grid = model.eta, 1j * np.pi, ti.GRID_POINTS
    ladders = [[xi_shifted(model, n, k) for k in range(v + 1)]
               for n, v in enumerate(two_s, start=1)]
    x = np.concatenate([grid, [r for ladder in ladders for r in ladder[1:-1]],
                        ti._sample_points(model, [])])
    rungs = np.concatenate(ladders)
    sets = {"grid": grid, "grid+ip": grid + ip, "x-eta": x - eta,
            "x+ip-eta": x + ip - eta, "x+eta": x + eta,
            "x+eta+ip": x + eta + ip, "rungs": rungs, "rungs+ip": rungs + ip}
    assert list(hom.table) == list(sets)
    for name, lam in sets.items():
        assert np.array_equal(hom.table[name], hom.value(lam)), name
    # A table belongs to its solution: a copy builds its own, equal one.
    copy = replace(hom, epsilon=hom.epsilon)
    assert copy.table is not hom.table
    assert all(np.array_equal(copy.table[k], v) for k, v in hom.table.items())
    if two_s == (2, 2):
        assert not np.array_equal(ti._sample_points(model, []), model.xi)

    alpha = inhom.alpha[:, None]
    lam = ti._check_points(model).points
    assert np.array_equal(lam, np.concatenate(
        [ti.GRID_POINTS, ti._sample_points(model, [])]))
    want = (inhom.value(lam),
            -np.exp(lam - alpha) * a_of(model, lam) * inhom.value(lam - eta),
            np.exp(-lam - eta + alpha) * d_of(model, lam)
            * inhom.value(lam + eta),
            ti.f_inhom(model, inhom.alpha + inhom.roots.sum(axis=-1), lam))
    for got, ref in zip(inhom.table, want, strict=True):
        assert np.array_equal(got, ref)
    shared = (*hom.table.values(), *inhom.table,
              *ti._check_points(model)._asdict().values())
    assert not any(np.ndim(v) and v.flags.writeable for v in shared)


@pytest.mark.parametrize("two_s", TABLE_SHAPES,
                         ids=lambda s: "".join(map(str, s)))
def test_wronskian_fit_reads_the_definition_route(two_s):
    model, rows, _, hom = tq_solutions(two_s)
    # The fit at each row's own sign, on the definition route's values.
    grid = ti.GRID_POINTS
    w_vals = thm.wronskian(model, hom, grid)
    target = d_of(model, grid) * thm.w_eps(model, hom.epsilon, grid)
    scale = np.maximum(np.max(np.abs(w_vals), axis=-1),
                       np.max(np.abs(target), axis=-1))
    fit = np.max(np.abs(w_vals - target), axis=-1) / scale
    assert np.array_equal(thm.verify_wronskian_identity(model, hom)[0], fit)
    # t rebuilt from the pair, against its definition at the samples with
    # each row's own sign in w_eps; w_eps(-1) is exactly -w_eps(1).
    samples, eta, ip = ti._sample_points(model, []), model.eta, 1j * np.pi
    w_one = thm.w_eps(model, 1, samples)
    for eps in (1, -1):
        assert np.array_equal(np.where(np.array([eps]) == 1, w_one, -w_one),
                              thm.w_eps(model, eps, samples))
    cross = (hom.value(samples + eta) * hom.value(samples + ip - eta)
             - hom.value(samples + eta + ip) * hom.value(samples - eta))
    want = ti._at_base_points(
        model, cross / thm.w_eps(model, hom.epsilon, samples))
    assert np.array_equal(thm.t_from_q_pair(model, hom)[0], want)
    # The grid residual against its terms evaluated point set by point set.
    lhs = rows(grid) * hom.value(grid)
    term_a = -a_of(model, grid) * hom.value(grid - model.eta)
    term_d = d_of(model, grid) * hom.value(grid + model.eta)
    want = np.max(ti._relative_defect(lhs - term_a - term_d,
                                      [lhs, term_a, term_d]), axis=-1)
    assert np.array_equal(thm.hom_grid_residual(model, rows, hom), want)
    assert np.array_equal(rows.grid_values, rows(grid))
    assert rows.grid_values is rows.grid_values


def test_model_factors_leave_equality_and_hash_alone():
    first, second = chain((2, 2)), chain((2, 2))
    ti._check_points(first)
    assert first == second and hash(first) == hash(second)
    assert ti._check_points(first) is ti._check_points(first)


def tq_calls(monkeypatch, two_s):
    """The sinh_product calls of both T-Q layers in one full run, by layer
    and kind: 'table' for points shared by every row, 'roots' for one row
    of points per row, 'model' for a product over model-only roots; and
    the evaluations of t on the grid.  The check points are built afresh,
    so their model-only products count."""
    calls = []
    ti._check_points.cache_clear()
    for module in (ti, thm):
        def counting(lam, roots, *args, _name=module.__name__.split(".")[-1],
                     _original=module.sinh_product):
            kind = ("model" if np.ndim(roots) == 1
                    else "roots" if np.ndim(lam) > 1 else "table")
            calls.append((_name, kind))
            return _original(lam, roots, *args)

        monkeypatch.setattr(module, "sinh_product", counting)
    call = sp.EigenvalueFunction.__call__

    def counting_call(self, lam):
        if np.array_equal(lam, ti.GRID_POINTS):
            calls.append(("spectrum", "grid"))
        return call(self, lam)

    monkeypatch.setattr(sp.EigenvalueFunction, "__call__", counting_call)
    doc = {"model": {"two_s": list(two_s), "seed": 11,
                     "kappa": [[1.0, 0.0], [0.6, 0.8]]}, "pipelines": "all"}
    report = run_pipelines(RunConfig.from_dict(doc))
    monkeypatch.undo()
    assert report["summary"]["count"] == 2 ** len(two_s)
    return {key: calls.count(key) for key in set(calls)}


def test_each_solution_evaluates_q_once_plus_once_at_its_roots(monkeypatch):
    # tq-inhom: Q over its table's points, the correction term's extra root
    # over them, and each once at the roots; tq-hom: Q over its table's
    # points and at the roots.  What depends on the model alone is made
    # once: the products over every rung and over the inner rungs at the
    # check points (``_check_points``, per model; the Wronskian target
    # reads the second) and the rung product at the Bethe points.  t on
    # the grid once for both.  Dimension 8 and 32 make as many calls.
    small = tq_calls(monkeypatch, (1,) * 3)
    large = tq_calls(monkeypatch, (1,) * 5)
    assert small == large == {
        ("tq_inhom", "table"): 2, ("tq_inhom", "roots"): 2,
        ("tq_inhom", "model"): 3, ("tq_hom", "table"): 1,
        ("tq_hom", "roots"): 1, ("spectrum", "grid"): 1,
    }


# ----------------------------------------------------------------------
# the monodromy from its nonzero plan


def _kron_monodromy(model, lam):
    """The monodromy by the plain Kronecker recursion of its definition."""
    a, b, c, d = lax(model, 1, lam)
    for site in range(2, model.n_sites + 1):
        an, bn, cn, dn = lax(model, site, lam)
        a, b, c, d = (
            np.kron(a, an) + np.kron(c, bn), np.kron(b, an) + np.kron(d, bn),
            np.kron(a, cn) + np.kron(c, dn), np.kron(b, cn) + np.kron(d, dn),
        )
    return a, b, c, d


MONODROMY_SHAPES = [(1, 2), (2, 1, 3), (3, 3), (1,) * 6, (1,) * 8, (4,), (1,)]
MONODROMY_IDS = ["12", "213", "33", "111111", "11111111", "4", "1"]


def long_chain(two_s):
    xi = XI + (3.1 - 0.03j, 3.8 + 0.06j, 4.6 - 0.07j, 5.3 + 0.02j)
    return ChainModel(two_s=two_s, xi=xi[: len(two_s)], eta=ETA, kappa=1.0)


@pytest.mark.parametrize("two_s", MONODROMY_SHAPES, ids=MONODROMY_IDS)
def test_monodromy_equals_the_kronecker_recursion(two_s):
    model = long_chain(two_s)
    for lam in (0.37 - 0.21j, -0.8 + 1.3j):
        got = monodromy(model, lam)
        for block, want in zip(got, _kron_monodromy(model, lam)):
            assert np.array_equal(block, want)
        assert not any(np.shares_memory(x, y)
                       for i, x in enumerate(got) for y in got[:i])
        # Disjoint views of one buffer share no memory either: keeping B
        # and C must not keep the memory of A and D alive.
        owners = [weakref.ref(x if x.base is None else x.base) for x in got]
        kept = got[1:3]
        del got, block
        assert owners[0]() is None and owners[3]() is None
        assert all(owner() is not None for owner in owners[1:3])


@pytest.mark.parametrize("two_s", MONODROMY_SHAPES, ids=MONODROMY_IDS)
def test_monodromy_plan_is_the_nonzero_pattern(two_s):
    model = long_chain(two_s)
    plan = qa._monodromy_plan(model.two_s)
    blocks = _kron_monodromy(model, 0.37 - 0.21j)
    for positions, block in zip(plan.positions, blocks):
        assert np.array_equal(np.sort(positions), np.flatnonzero(block))
    assert plan.factors.shape == (model.n_sites, sum(
        p.size for p in plan.positions))
    assert plan.factors.itemsize == 1
    assert not plan.factors.flags.writeable
    assert not any(p.flags.writeable for p in plan.positions)
    if set(two_s) == {1}:
        n = model.n_sites
        assert [p.size for p in plan.positions] == [
            (3**n + 1) // 2, (3**n - 1) // 2, (3**n - 1) // 2, (3**n + 1) // 2]


def test_monodromy_plan_is_built_once_per_model():
    qa._monodromy_plan.cache_clear()
    model = long_chain((1,) * 6)
    # Built on first use, not with the model.
    assert qa._monodromy_plan.cache_info().misses == 0
    monodromy(model, 0.37 - 0.21j)
    plan = qa._monodromy_plan(model.two_s)
    monodromy(model, -0.8 + 1.3j)
    assert qa._monodromy_plan.cache_info().misses == 1
    assert qa._monodromy_plan(model.two_s) is plan
    assert [p.size for p in plan.positions] == [365, 364, 364, 365]


# ----------------------------------------------------------------------
# the oracle self-check


def test_oracle_check_fires_on_a_wrong_transfer_matrix(monkeypatch):
    model = chain((1, 1, 1))

    def skewed(model, lam, blocks="ABCD"):
        # The sample point, the base points and the check points are
        # evaluated in one call: B's entries at every check point are
        # scaled by 1 + 1e-3.
        b, c = monodromy_entries(model, lam, blocks)
        b = b.copy()
        b[1 + model.n_sites:] *= 1 + 1e-3
        return b, c

    sp.brute_force_spectrum(model)
    monkeypatch.setattr(sp, "monodromy_entries", skewed)
    with pytest.raises(DegenerateSpectrum, match="eigenvector check failed"):
        sp.brute_force_spectrum(model)


def test_oracle_check_fails_on_a_nan_residual(monkeypatch):
    # NaN B entries at every check point make every check residual NaN,
    # which fails like any value over the bound.
    model = chain((1, 1, 1))

    def poisoned(model, lam, blocks="ABCD"):
        b, c = monodromy_entries(model, lam, blocks)
        b = b.copy()
        b[1 + model.n_sites:] = np.nan
        return b, c

    monkeypatch.setattr(sp, "monodromy_entries", poisoned)
    with pytest.raises(DegenerateSpectrum, match=r"\(residual nan\)"):
        sp.brute_force_spectrum(model)


# ----------------------------------------------------------------------
# one oracle pass for every twist

TWISTS = tuple(np.exp(1j * np.linspace(0.0, 2.5, 8)))


def twist_doc(two_s, kappas, pipelines="all"):
    return {
        "model": {"two_s": list(two_s), "xi": "random", "seed": 11,
                  "kappa": [[k.real, k.imag] for k in map(complex, kappas)]},
        "pipelines": pipelines,
    }


def counting_builds(monkeypatch):
    """Every spectral point evaluated through monodromy_entries, at every
    binding (monodromy and transfer_antiperiodic reach it in qalgebra)."""
    builds = []

    def counting(model, lam, blocks="ABCD"):
        builds.extend(np.ravel(lam).tolist())
        return monodromy_entries(model, lam, blocks)

    for module in (qa, sp, cli):
        monkeypatch.setattr(module, "monodromy_entries", counting)
    return builds


def test_oracle_builds_each_point_once_for_every_twist(monkeypatch):
    # tq-hom: the N + 4 points of the oracle are the only points evaluated,
    # whatever the number of twists; the chain is drawn once, and each
    # oracle call makes no per-eigenvalue function.  (1,)*5 (N_s odd) takes
    # one eig and one inv of the even spin-flip sector, dim/2, for both
    # sectors; (1,)*6 (N_s even) one eig of size dim/4 per sector and two
    # invs of that size.
    builds = counting_builds(monkeypatch)
    draws, singles, in_oracle = [], [], []
    solvers = {"eig": [], "inv": []}
    draw = cli.generate_model
    oracle, init = sp.brute_force_spectrum, sp.EigenvalueFunction.__post_init__

    def counting_oracle(*args, **kwargs):
        in_oracle.append(True)
        try:
            return oracle(*args, **kwargs)
        finally:
            in_oracle.pop()

    def counting_init(self):
        if in_oracle and np.ndim(self.base_values) == 1:
            singles.append(self)
        init(self)

    def counting_solver(name):
        solver = getattr(np.linalg, name)

        def counting(*args, **kwargs):
            if in_oracle:
                solvers[name].append(len(args[0]))
            return solver(*args, **kwargs)
        return counting

    monkeypatch.setattr(cli, "generate_model",
                        lambda *a, **k: draws.append(a) or draw(*a, **k))
    monkeypatch.setattr(sp, "brute_force_spectrum", counting_oracle)
    monkeypatch.setattr(sp.EigenvalueFunction, "__post_init__",
                        counting_init)
    for name in solvers:
        monkeypatch.setattr(np.linalg, name, counting_solver(name))
    # (1,)*6 at this seed fails checks that sit at their 1e-7 bound
    # (ROADMAP item 4), at every twist count; the oracle's do not fail.
    cases = [((1,) * 5, {"eig": [16], "inv": [16]}, set()),
             ((1,) * 6, {"eig": [16, 16], "inv": [16] * 4},
              {"hom_bethe", "hom_proportionality"})]
    for (two_s, expected, known), count in itertools.product(cases, (1, 2, 8)):
        builds.clear()
        draws.clear()
        for calls in solvers.values():
            calls.clear()
        report = run_pipelines(RunConfig.from_dict(
            twist_doc(two_s, TWISTS[:count], ["tq-hom"])))
        failures = report["summary"]["failures"]
        assert {line.split(":")[0] for line in failures} <= known, failures
        assert len(builds) == len(set(builds)) == len(two_s) + 4
        assert len(draws) == 1
        assert singles == []
        assert solvers == expected


def rejecting(monkeypatch, *rejected):
    """Make the gap test of the oracle fail on the listed calls (0-based)."""
    calls = []
    separated = sp._separated

    def gap_test(vals):
        calls.append(None)
        return len(calls) - 1 not in rejected and separated(vals)

    monkeypatch.setattr(sp, "_separated", gap_test)


@pytest.mark.parametrize("two_s", [(1, 2, 1), (2, 2), (1,) * 5, (1,) * 6],
                         ids=["121", "22", "11111", "111111"])
@pytest.mark.parametrize("retry", [False, True], ids=["", "retry"])
def test_twists_in_one_call_match_lone_calls(monkeypatch, two_s, retry):
    # With a retry, the first sample point is rejected: the next one
    # serves every twist, so the one kernel call is made twice, and each
    # lone call makes the same retry.
    # 1.7-0.4i is off the unit circle.  (1,)*5 takes the mirrored flip
    # sectors, (1,)*6 the quarter-size parity halves.  The model's twist,
    # its eigenbasis and sectors are bit for bit a lone call's; a further
    # twist reads its base values from the B and C entries through its
    # gauge, which a lone call on it does not, in the model's row order,
    # and agrees, sorted by its own key as the lone call is, to
    # COVECTOR_MATCH of the largest |t|.
    model = cli.generate_model(11, len(two_s), two_s, 0.05, eta=ETA)
    twists = TWISTS[1:3] + (1.7 - 0.4j,)
    builds = counting_builds(monkeypatch)
    if retry:
        rejecting(monkeypatch, 0)
    spec, others = sp.brute_force_spectrum(model, twists=twists)
    assert len(builds) == (model.n_sites + 4) * (2 if retry else 1)
    assert others.shape == (len(twists), model.hilbert_dim, model.n_sites)

    def alone(kappa):
        if retry:
            rejecting(monkeypatch, 0)
        return sp.brute_force_spectrum(replace(model, kappa=kappa))

    first = alone(model.kappa)
    assert spec.model == first.model == model
    assert np.array_equal(spec.rows.base_values, first.rows.base_values)
    assert np.array_equal(spec.right, first.right)
    assert np.array_equal(spec.sector, first.sector)
    for kappa, values in zip(twists, others):
        lone = alone(kappa).rows.base_values
        assert np.max(np.abs(in_own_order(values) - lone)) <= (
            COVECTOR_MATCH * np.max(np.abs(lone)))


def in_own_order(values):
    """One twist's base values in the order a lone call on that twist
    gives them: by its own lexsort on t(xi_1), a real part at or below
    1e-12 of the largest |t(xi_1)| taken as 0."""
    key = values[:, 0]
    noise = np.abs(key.real) <= 1e-12 * np.abs(key).max()
    return values[np.lexsort((key.imag, np.where(noise, 0.0, key.real)))]


# Largest gap between a further twist's base values (through its gauge;
# the names date from the covector that read them before) and the
# two-sided ones of a lone call on it, relative to the largest |t|: at most
# 7.7e-14 on the shapes above ((1,)*5 after the retry; 1.7e-14 without),
# and 4.3e-13 on the reference set's census shapes (all up to dim 256) at
# seeds 0-2 ((1,)*8 seed 2; 4.9e-14 up to dim 81).
COVECTOR_MATCH = 2e-13
COVECTOR_MATCH_256 = 1e-12


@pytest.mark.parametrize("two_s", reference.SHAPES,
                         ids=lambda s: "".join(map(str, s)))
def test_covector_base_values_match_two_sided_ones(two_s):
    # The model's twist is 1; the twists 1, 0.6+0.8i and 1.7-0.4i read
    # theirs through their gauges, and each is matched row for row
    # against the two-sided diagonal: the model's own rows for 1, a lone
    # call, sorted by its own key, for the others.  From dim 256 on, the
    # two-sided diagonal is taken in the flip sectors.
    for seed in (0, 1, 2):
        model = cli.RunConfig.from_dict(
            {"model": {"two_s": list(two_s), "seed": seed}}).build_model()
        twists = (1.0, 0.6 + 0.8j, 1.7 - 0.4j)
        spec, others = sp.brute_force_spectrum(model, twists=twists)
        lone = [spec.rows.base_values] + [
            sp.brute_force_spectrum(replace(model, kappa=k)).rows.base_values
            for k in twists[1:]]
        for values, want in zip([others[0], *map(in_own_order, others[1:])],
                                lone):
            assert np.max(np.abs(values - want)) <= (
                COVECTOR_MATCH_256 * np.max(np.abs(want)))


class Watched(np.ndarray):
    """A transfer matrix, or any array computed from one, that records the
    (rows, inner, columns) of every matrix product it enters."""

    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:  # a vector operand counts as one row
            a, b = ((1,) * (2 - np.ndim(x)) + np.shape(x) for x in inputs)
            Watched.products.append((a[-2], a[-1], b[-1]))
        plain = [x.view(np.ndarray) if isinstance(x, Watched) else x
                 for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0]
        return result.view(Watched) if isinstance(result, np.ndarray) \
            else result


@pytest.mark.parametrize("two_s, full", [
    ((1,) * 6, True), ((1,) * 8, False), ((1,) * 9, False)],
    ids=["111111", "11111111", "111111111"])
def test_oracle_makes_full_size_products_only_below_the_sector_cut(
        monkeypatch, two_s, full):
    # Every transfer matrix the oracle scatters is watched, and so is all
    # it computes from one (the eigenbasis, its sectors, every product).
    # Below SECTOR_PRODUCTS_FROM (dim 64) the model's base values and the
    # check take dim x dim x dim products; from it on ((1,)*8 even and
    # (1,)*9 odd N_s) no product is that large, and every eig and inv is
    # of a sector, at most dim / 2.  A call with 8 twists scatters no more
    # matrices and makes no more dim^3 products than one with 1 twist.
    transfer = sp.transfer_from_entries
    scattered = []

    def watched(*args):
        t_mat = transfer(*args)
        scattered.append(t_mat.size // t_mat.shape[-1] ** 2)
        return t_mat.view(Watched)

    monkeypatch.setattr(sp, "transfer_from_entries", watched)
    solvers = []
    for name in ("eig", "inv"):
        monkeypatch.setattr(np.linalg, name, lambda x, _f=getattr(
            np.linalg, name): solvers.append(len(x)) or _f(x))
    monkeypatch.setattr(Watched, "products", [])
    model = cli.RunConfig.from_dict(
        {"model": {"two_s": list(two_s), "seed": 0}}).build_model()
    dim = model.hilbert_dim
    assert (dim >= sp.SECTOR_PRODUCTS_FROM) is not full
    spec, others = sp.brute_force_spectrum(model, twists=[0.6 + 0.8j])
    assert np.max(np.abs(others[0] - spec.rows.base_values)) < 1e-8
    assert Watched.products
    assert ((dim,) * 3 in Watched.products) is full
    assert solvers and max(solvers) <= dim // 2
    work = []
    for twists in (None, TWISTS[1:]):
        scattered.clear()
        Watched.products = []
        sp.brute_force_spectrum(model, twists=twists)
        work.append((sum(scattered), Watched.products.count((dim,) * 3)))
    assert work[1] <= work[0] and work[0][0] == 1 + model.n_sites + 3


# Further twists of the bound test: on and off the unit circle, from 1e-3
# to |20+5i|.
BOUND_TWISTS = (0.6 + 0.8j, 1.7 - 0.4j, 3.0, 0.1, 1j, 1e-3, 20 + 5j)


@pytest.mark.parametrize("forced", [False, True], ids=["dense", "sector"])
def test_further_twist_bound_covers_its_dense_residual(monkeypatch, forced):
    # Every further twist's bound, per eigen-pair and check point, is at
    # least the dense residual of that twist's own transfer matrix on G_k
    # V with its own t, less one machine epsilon: the dense residual
    # carries its own rounding, and where the model's defect is exactly 0
    # (the one-site (2,)) it reads up to 4.1e-17 over the bound.  Census
    # shapes up to dim 81 at seeds 0-2, the model at twist 1, on the dense
    # route and with the sector route forced.
    calls = []
    residuals = sp._residuals
    monkeypatch.setattr(sp, "_residuals", lambda *args: (
        calls.append((args, residuals(*args))) or calls[-1][1]))
    if forced:
        sector_forced(monkeypatch)
    for two_s in [s for s in reference.SHAPES if np.prod(np.add(s, 1)) <= 81]:
        for seed in (0, 1, 2):
            model = cli.RunConfig.from_dict(
                {"model": {"two_s": list(two_s), "seed": seed}}
            ).build_model()
            sp.brute_force_spectrum(model, twists=BOUND_TWISTS)
            (_, kappas, gauge, right, base, b, c, _), bounds = calls.pop()
            values = base @ cardinals(model.xi, sp.CHECK_POINTS).T
            for k in range(1, len(kappas)):
                vectors = (gauge[k] / gauge[0])[:, None] * right
                for p, (b_p, c_p) in enumerate(zip(b, c)):
                    t_mat = qa.transfer_from_entries(model, b_p, c_p,
                                                     kappas[k])
                    dense = np.linalg.norm(
                        t_mat @ vectors - vectors * values[k, :, p], axis=0
                    ) / (np.linalg.norm(t_mat)
                         * np.linalg.norm(vectors, axis=0))
                    assert np.all(bounds[k, :, p]
                                  >= dense - np.finfo(float).eps)


def sector_forced(monkeypatch):
    """Take the model's base values and the check in the flip sectors at
    every dimension."""
    monkeypatch.setattr(sp, "SECTOR_PRODUCTS_FROM", 0)


@pytest.mark.parametrize("two_s", [(1, 2, 1), (2, 2, 2), (1,) * 5, (1,) * 6],
                         ids=["121", "222", "11111", "111111"])
def test_sector_products_match_the_full_size_ones(monkeypatch, two_s):
    # Forced on small chains (odd dim 27 has a middle state), the sector
    # route gives the model's twist the base values of the full-size
    # products to rounding, at a twist on and one off the unit circle, and
    # the further twists' values bit for bit; its check passes.
    model = cli.RunConfig.from_dict(
        {"model": {"two_s": list(two_s), "seed": 1}}).build_model()
    for kappa in (1.0, 1.7 - 0.4j):
        twisted = replace(model, kappa=kappa)
        dense, dense_others = sp.brute_force_spectrum(twisted, twists=[0.6j])
        with monkeypatch.context() as patch:
            sector_forced(patch)
            spec, others = sp.brute_force_spectrum(twisted, twists=[0.6j])
        want = dense.rows.base_values
        assert np.max(np.abs(spec.rows.base_values - want)) <= (
            1e-14 * np.max(np.abs(want)))
        assert np.array_equal(others, dense_others)
        assert np.array_equal(spec.right, dense.right)


@pytest.mark.parametrize("two_s", [(1, 2, 1), (2, 2, 2)], ids=["121", "222"])
def test_sector_defects_bound_the_full_defect(two_s):
    # T + E at a twist off the unit circle, E random and of relative size
    # 1e-6: the sector bound is at least the full defect of every column,
    # and, when G^{-1} E G commutes with J (symmetrized), equals it to
    # rounding.
    model = cli.RunConfig.from_dict(
        {"model": {"two_s": list(two_s), "seed": 0}}).build_model()
    dim, kappa = model.hilbert_dim, 1.7 - 0.4j
    *_, pairs = sp._eigenbasis(model)
    vectors, inverse, _ = sp._lifted(pairs, dim)
    gauge = qa.twist_gauge(model, kappa)
    t_mat = qa.transfer_from_entries(
        model, *monodromy_entries(model, 0.2 - 0.3j, "BC"), kappa)
    rng = np.random.default_rng(5)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal(
        (dim, dim))
    symmetric = (noise + noise[::-1, ::-1]) / 2
    for e, exact in ((noise, False), (symmetric, True)):
        e = gauge[:, None] * e / gauge * 1e-6 * np.linalg.norm(t_mat)
        mat = t_mat + e
        right = gauge[:, None] * vectors
        values = np.diagonal(inverse / gauge @ t_mat @ right)
        full = np.linalg.norm(mat @ right - right * values, axis=0)
        bound = sp._sector_defects(mat.copy(), gauge, pairs, values)
        assert np.all(bound >= full * (1 - 1e-9))
        if exact:
            assert_allclose(bound, full, rtol=1e-6)


@pytest.mark.parametrize("skew", ["antidiagonal", "between"])
def test_sector_check_names_the_one_wrong_twist(monkeypatch, skew):
    # The sector route, forced on (1,)*5.  A further twist forms no
    # transfer matrix, so the fault enters its gauge: the 0.6+0.8i gauge
    # scaled by 1 + 1e-6 d, d diagonal, moves G^{-1} T G off B + C by about
    # 1e-6 [B + C, d].  With d even under the flip J (d_i = d_{dim-1-i})
    # that part commutes with J and moves the flip blocks, as an
    # antidiagonal skew of T did; with d odd it anticommutes with J and
    # moves only the part between them.  Either fails the gauge
    # certificate of that twist alone.  A 1e-6 shift of its base values,
    # made before the check, fails the bound on the sector route too.
    model = long_chain((1,) * 5)
    kappa = 0.6 + 0.8j
    sector_forced(monkeypatch)
    sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])
    d = np.zeros(model.hilbert_dim)
    d[1], d[-2] = 1.0, (1.0 if skew == "antidiagonal" else -1.0)
    with monkeypatch.context() as patch:
        skew_gauge(patch, kappa, 1 + 1e-6 * d)
        sp.brute_force_spectrum(model, twists=[1.7 - 0.4j])
        with pytest.raises(DegenerateSpectrum, match=(
                r"^gauge check failed at twist kappa=0\.6\+0\.8j ")):
            sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])
    shift_values(monkeypatch, kappa, 1e-6)
    with pytest.raises(DegenerateSpectrum, match=(
            r"eigenvector check failed .* at twist kappa=0\.6\+0\.8j ")):
        sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])


def test_a_rejected_sample_point_moves_to_the_next_constant(monkeypatch):
    # Each kernel call takes a candidate sample point, the base points and
    # the check points: a rejected candidate moves to the next of
    # SAMPLE_POINTS, and the check points never move.  Four rejections
    # exhaust the candidates.
    model = chain((1, 2, 1))
    calls = []
    kernel = sp.monodromy_entries
    monkeypatch.setattr(sp, "monodromy_entries", lambda model, lam, blocks: (
        calls.append(np.array(lam)) or kernel(model, lam, blocks)))
    want = [np.concatenate([[lam], model.xi, sp.CHECK_POINTS])
            for lam in sp.SAMPLE_POINTS]
    for rejected in ((), (0,), (0, 1, 2), (0, 1, 2, 3)):
        calls.clear()
        with monkeypatch.context() as patch:
            rejecting(patch, *rejected)
            if len(rejected) < 4:
                sp.brute_force_spectrum(model)
            else:
                with pytest.raises(DegenerateSpectrum,
                                   match="no sampled point"):
                    sp.brute_force_spectrum(model)
        assert len(calls) == min(len(rejected) + 1, 4)
        for got, points in zip(calls, want):
            assert np.array_equal(got, points)


def test_oracle_points_are_the_former_scalar_draws():
    # The constants keep every report bit for bit: each oracle call drew
    # its sample point as complex(u, v) from default_rng(0), then its
    # check points, and redrew a rejected sample point from the state
    # right after it.
    rng = np.random.default_rng(0)
    samples = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
               for _ in range(4)]
    rng = np.random.default_rng(0)
    rng.uniform(-1, 1), rng.uniform(-1, 1)
    checks = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    assert np.array_equal(sp.SAMPLE_POINTS, samples)
    assert np.array_equal(sp.CHECK_POINTS, checks)
    for points in (sp.SAMPLE_POINTS, sp.CHECK_POINTS):
        assert points.dtype == complex and not points.flags.writeable


def test_the_oracle_builds_no_generator(monkeypatch):
    def no_generator(*args, **kwargs):
        raise AssertionError("the oracle built a generator")

    model = chain((1, 2, 1))
    monkeypatch.setattr(np.random, "default_rng", no_generator)
    sp.brute_force_spectrum(model)
    sp.brute_force_spectrum(model, twists=[0.6 + 0.8j, 1.7 - 0.4j])
    rejecting(monkeypatch, 0)
    sp.brute_force_spectrum(model, twists=[0.6 + 0.8j])


def skew_gauge(monkeypatch, kappa, factor):
    """Multiply the oracle's gauge of twist kappa by factor, one entry per
    state, and leave every other twist's as it is."""
    gauge = sp.twist_gauge

    def skewed(model, kappas=None):
        out = gauge(model, kappas).copy()
        out[np.ravel(kappas) == kappa] *= factor
        return out

    monkeypatch.setattr(sp, "twist_gauge", skewed)


def shift_values(monkeypatch, kappa, size):
    """Move t(xi_1) of further twist kappa by size times the largest
    |t(xi_1)| where the oracle computes it, before its check."""
    further = sp._further_values

    def shifted(model, kappas, *args):
        out = further(model, kappas, *args)
        out[kappas[1:] == kappa, :, 0] += size * np.abs(out[..., 0]).max()
        return out

    monkeypatch.setattr(sp, "_further_values", shifted)


def test_isospectrality_check_fires_on_one_wrong_twist(monkeypatch):
    # Twist 0.6+0.8i (not 1) has its t(xi_1) moved by 1e-6 of the largest
    # |t(xi_1)| in the values the oracle returns, on the dense route and on
    # the forced sector route: only kappa_isospectrality sees it, and the
    # eigenvalues stay.  The same shift made before the oracle's check
    # fails its bound (the |t_0 - t_k| term) and ends the run, which
    # test_oracle_check_names_the_one_wrong_twist shows.
    doc = twist_doc((1, 2, 1), (1.0, 0.6 + 0.8j))
    oracle = sp.brute_force_spectrum

    def shifted(model, twists=None):
        spec, others = oracle(model, twists=twists)
        others[0, :, 0] += 1e-6 * np.abs(others[0, :, 0]).max()
        return spec, others

    for forced in (False, True):
        with monkeypatch.context() as patch:
            if forced:
                sector_forced(patch)
            clean = run_pipelines(RunConfig.from_dict(doc))
            assert clean["summary"]["pass"]
            patch.setattr(sp, "brute_force_spectrum", shifted)
            report = run_pipelines(RunConfig.from_dict(doc))
        scale = max(abs(complex(*e["t_at_xi"][0]))
                    for e in clean["eigenvalues"])
        summary = report["summary"]
        assert not summary["pass"]
        assert summary["failures"][0].startswith("kappa_isospectrality")
        iso = summary["max_residuals"]["kappa_isospectrality"]
        assert iso == pytest.approx(1e-6 * scale, rel=1e-3)
        assert report["eigenvalues"] == clean["eigenvalues"]


def test_oracle_check_names_the_one_wrong_twist(monkeypatch):
    # A further twist forms no transfer matrix, so a fault enters where
    # its data does, here in 0.6+0.8i, the second of two further twists,
    # on the dense route.  One entry of its gauge scaled by 1 + 1e-6 is
    # not kappa^{-|h|}: the gauge certificate names it.  Its t(xi_1) moved
    # by 1e-6 of the largest |t(xi_1)| before the check: the bound's
    # |t_0 - t_k| term names it.  The other twists pass either way.
    model = chain((1, 1, 1))
    kappa = 0.6 + 0.8j
    sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])
    factor = np.ones(model.hilbert_dim)
    factor[3] += 1e-6
    with monkeypatch.context() as patch:
        skew_gauge(patch, kappa, factor)
        sp.brute_force_spectrum(model, twists=[1.7 - 0.4j])
        with pytest.raises(DegenerateSpectrum, match=(
                r"^gauge check failed at twist kappa=0\.6\+0\.8j ")):
            sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])
    shift_values(monkeypatch, kappa, 1e-6)
    sp.brute_force_spectrum(model, twists=[1.7 - 0.4j])
    with pytest.raises(DegenerateSpectrum, match=(
            r"eigenvector check failed .* at twist kappa=0\.6\+0\.8j ")):
        sp.brute_force_spectrum(model, twists=[1.7 - 0.4j, kappa])


# ----------------------------------------------------------------------
# the auxiliary node draw


def draw_loop(model, rng):
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
            k = round(w.imag / np.pi)
            gaps.append(abs(complex(w.real, w.imag - np.pi * k)))
        if min(gaps) > 1e-2:
            return z
    raise AssertionError("no node")


@pytest.mark.parametrize("two_s", SHAPES, ids=lambda s: "".join(map(str, s)))
def test_node_draws_match_reference(two_s):
    model = chain(two_s)
    for seed in range(5):
        assert ti.draw_zeta0(model, np.random.default_rng(seed)) == (
            draw_loop(model, np.random.default_rng(seed))
        )


@pytest.mark.parametrize("pipeline, other", [
    ("sov", (ti, "draw_zeta0")), ("sov", (thm, "solve_q_hom")),
], ids=["sov-other2", "sov-other3"])
def test_a_run_draws_only_the_nodes_of_its_pipelines(monkeypatch, pipeline,
                                                     other):
    # A sov run neither draws the node nor reaches a T-Q closure.
    monkeypatch.setattr(*other, lambda *args: pytest.fail("node drawn"))
    doc = {"model": {"two_s": [1, 2], "seed": 3}, "pipelines": [pipeline]}
    assert run_pipelines(RunConfig.from_dict(doc))["summary"]["count"] == 6


@pytest.mark.parametrize("pipelines, draws", [
    (["tq-inhom"], 1), (["tq-hom"], 1), (["tq-inhom", "tq-hom"], 1),
], ids=["tq-inhom", "tq-hom", "both"])
def test_a_run_draws_one_node_for_both_tq_closures(monkeypatch, pipelines,
                                                   draws):
    # A node clear of every rung modulo i*pi is also clear modulo 2*i*pi,
    # so both closures take the one node.
    nodes = []
    draw = ti.draw_zeta0

    def counted(*args):
        nodes.append(draw(*args))
        return nodes[-1]

    monkeypatch.setattr(ti, "draw_zeta0", counted)
    doc = {"model": {"two_s": [1, 2], "seed": 3}, "pipelines": pipelines}
    assert run_pipelines(RunConfig.from_dict(doc))["summary"]["count"] == 6
    assert len(nodes) == draws


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


def test_node_draws_give_up_with_their_error_class():
    model = chain((1, 2))
    # A rung's image half a period down is on the rung modulo i*pi.
    image = xi_shifted(model, 1, 0) - 1j * np.pi
    clear = 0.3 - 0.6j
    assert ti.draw_zeta0(model, Scripted(image, clear)) == clear
    with pytest.raises(ExceptionalAlpha):
        ti.draw_zeta0(model, Scripted(image))
