"""The eigenvalue-batched pipelines: a stack of E rows against E stacks of one.

Every pipeline runs once over the whole spectrum.  A row's numbers must not
depend on the rows beside it: roots, every T-Q and ladder residual and every
recorded error are compared bit for bit between the full stack and stacks
of one row.  The separated-basis states are one matrix product over all
rows, which rounds differently from a one-row product, so the sov residuals
are held to the golden rule instead (rtol 1e-12, atol 1e-14).
"""

import dataclasses
import json
import logging
import re

import numpy as np
import pytest

from sovchain import qalgebra, sovbasis as sb, spectrum as sp
from sovchain import tq_hom as thm
from sovchain import tq_inhom as ti
from sovchain.cli import PROBE_POINTS, RunConfig, run_pipelines
from sovchain.errors import ExceptionalAlpha, PoleAtXi, RankDeficient

TWISTS = [[1.0, 0.0], [0.6, 0.8]]


def doc(two_s, pipelines="all"):
    return {"model": {"two_s": list(two_s), "xi": "random", "seed": 11,
                      "kappa": TWISTS}, "pipelines": pipelines}


def model_at(two_s, kappa):
    return RunConfig.from_dict(doc(two_s)).build_model(complex(*kappa))


def outputs(model, rows, basis):
    """Everything the pipelines compute for a stack of eigenvalues: arrays
    with one leading entry per row, and errors as (class, message)."""
    def named(errors):
        return [None if e is None else (type(e).__name__, str(e))
                for e in errors]

    rng = np.random.default_rng
    qs, ladder_errors = rows.ladder
    out = {"discrete": sp.discrete_residual(model, rows),
           "q": qs, "ladder_errors": named(ladder_errors)}

    sol, retries, errors = ti.solve_q_inhom(
        model, rows, zeta0=ti.draw_zeta0(model, rng(42)))
    base, bethe, pole_errors = ti.t_from_q_inhom(model, sol)
    out.update(inhom_roots=sol.roots, alpha=sol.alpha, retries=retries,
               inhom_grid=ti.inhom_grid_residual(model, rows, sol),
               inhom_base=base, inhom_bethe=bethe,
               inhom_errors=named(errors), pole_errors=named(pole_errors))

    hom, errors = thm.solve_q_hom(model, rows,
                                  thm.draw_zeta0_hom(model, rng(42)))
    bethe, bethe_errors = thm.bethe_residuals_hom(model, hom)
    values, report, pair_errors = thm.t_from_q_pair(model, hom)
    out.update(hom_roots=hom.roots, epsilon=hom.epsilon, winding=hom.winding,
               wronskian=hom.wronskian_residual,
               sum_rule=hom.sum_rule_residual,
               hom_grid=thm.hom_grid_residual(model, rows, hom),
               hom_bethe=bethe,
               angles=thm.q_vector_proportionality(model, hom)[0],
               hom_base=values, report=report, hom_errors=named(errors),
               bethe_errors=named(bethe_errors),
               pair_errors=named(pair_errors))

    left, right, state_errors = sp.eigenstates(model, basis, qs)
    out["state_errors"] = named(state_errors)
    out["sov"] = np.array([
        sp.eigen_residual(model, rows, states, lam, side)
        for lam in PROBE_POINTS
        for states, side in ((right, "right"), (left, "left"))
    ]).T
    return out


@pytest.mark.parametrize("kappa", TWISTS, ids=["kappa1", "kappa2"])
@pytest.mark.parametrize("two_s", [(1, 2, 1), (1, 4), (3, 3), (2, 2)],
                         ids=lambda s: "".join(map(str, s)))
def test_a_stack_equals_stacks_of_one(two_s, kappa):
    model = model_at(two_s, kappa)
    rows = sp.brute_force_spectrum(model).rows
    basis = sb.build_basis(model)
    whole = outputs(model, rows, basis)
    singles = [outputs(model, sp.EigenvalueFunction(model, rows.base_values[
        i : i + 1]), basis) for i in range(model.hilbert_dim)]
    for key, got in whole.items():
        if isinstance(got, list):
            assert got == [s[key][0] for s in singles], key
            continue
        want = np.concatenate([s[key] for s in singles])
        if key == "sov":
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)
        else:
            assert np.array_equal(got, want), key
    if two_s == (2, 2):
        # The zero eigenvalue (row 4) has a tq-inhom root on a base point,
        # an inner rung here, so t is sampled at an offset copy of the base
        # points and row 4 rebuilds like the others.  A root moved onto a
        # sample point records PoleAtXi on its row alone, in the stack as
        # in a stack of one.
        assert whole["pole_errors"] == [None] * model.hilbert_dim
        sol = ti.solve_q_inhom(model, rows, zeta0=ti.draw_zeta0(
            model, np.random.default_rng(42)))[0]
        gaps = qalgebra.distance_to_ipi_lattice(
            sol.roots[4][:, None] - np.asarray(model.xi))
        assert gaps.min() < 1e-8
        samples = ti._sample_points(model, [])
        assert not np.array_equal(samples, model.xi)
        roots = sol.roots.copy()
        roots[4, 0] = samples[1]
        moved = dataclasses.replace(sol, roots=roots)
        errors = ti.t_from_q_inhom(model, moved)[2]
        alone = ti.t_from_q_inhom(model, ti.QFunctionInhom(
            model, sol.alpha[4:5], roots[4:5], sol.lambda_bar[4:5]))[2]
        assert [e is None for e in errors] == [
            i != 4 for i in range(model.hilbert_dim)]
        assert isinstance(errors[4], PoleAtXi)
        assert str(errors[4]) == str(alone[0])
        assert str(errors[4]).endswith("sits on sample point 2 modulo the "
                                       "period")


def test_only_the_exceptional_row_is_solved_again(monkeypatch):
    model = model_at((1, 2, 1), TWISTS[0])
    rows = sp.brute_force_spectrum(model).rows
    zeta0 = ti.draw_zeta0(model, np.random.default_rng(42))
    row = 5
    # A deformation at which row 5's closure system is exactly singular.
    one = sp.EigenvalueFunction(model, rows.base_values[row : row + 1])
    coeffs = ti.det_m_polynomial(
        model, sp.EigenvalueFunction(model, rows.base_values[row]), zeta0)
    bad_alpha = complex(np.log(np.roots(coeffs[::-1])[0]))

    solved = []
    solve = ti._solve

    def counting(model, xs, alpha, zeta0, errors):
        solved.append(len(xs))
        return solve(model, xs, alpha, zeta0, errors)

    monkeypatch.setattr(ti, "_solve", counting)
    sol, retries, errors = ti.solve_q_inhom(model, rows, zeta0=zeta0,
                                            alpha=bad_alpha)
    assert solved == [model.hilbert_dim, 1]
    assert errors == [None] * model.hilbert_dim
    assert retries.tolist() == [int(i == row) for i in range(len(retries))]
    assert sol.alpha[row] != bad_alpha
    assert np.all(np.delete(sol.alpha, row) == bad_alpha)

    alone, alone_retries, alone_errors = ti.solve_q_inhom(
        model, one, zeta0=zeta0, alpha=bad_alpha)
    assert alone_errors == [None] and alone_retries.tolist() == [1]
    assert np.array_equal(alone.roots[0], sol.roots[row])
    assert alone.alpha[0] == sol.alpha[row]
    _, _, errors = ti.solve_q_inhom(model, one, zeta0=zeta0, alpha=bad_alpha,
                                    max_retries=0)
    assert isinstance(errors[0], ExceptionalAlpha)


def test_a_retried_row_is_checked_at_its_retried_roots():
    # Row 5's closure system is singular at the first deformation, so the
    # solve writes its redrawn alpha and roots into the stack.  The checks
    # build their table of Q after the solve and read the retried roots: the
    # row's grid residual and round trip equal those of a solution holding
    # only its final alpha and roots.
    model = model_at((1, 2, 1), TWISTS[0])
    rows = sp.brute_force_spectrum(model).rows
    zeta0 = ti.draw_zeta0(model, np.random.default_rng(42))
    row = 5
    coeffs = ti.det_m_polynomial(
        model, sp.EigenvalueFunction(model, rows.base_values[row]), zeta0)
    bad_alpha = complex(np.log(np.roots(coeffs[::-1])[0]))
    sol, retries, errors = ti.solve_q_inhom(model, rows, zeta0=zeta0,
                                            alpha=bad_alpha)
    assert retries[row] == 1 and errors == [None] * model.hilbert_dim
    assert "table" not in vars(sol)  # not built during the solve
    grid = ti.inhom_grid_residual(model, rows, sol)
    base = ti.t_from_q_inhom(model, sol)[0]

    pick = slice(row, row + 1)
    alone = ti.QFunctionInhom(model, sol.alpha[pick].copy(),
                              sol.roots[pick].copy(),
                              sol.lambda_bar[pick].copy())
    one = sp.EigenvalueFunction(model, rows.base_values[pick])
    assert grid[row] == ti.inhom_grid_residual(model, one, alone)[0]
    assert np.array_equal(base[row], ti.t_from_q_inhom(model, alone)[0][0])
    assert grid[row] < 1e-8
    assert np.max(np.abs(base[row] - rows.base_values[row])) < 1e-8


def counted_run(monkeypatch, module, names, two_s, keep=lambda *a: True):
    """Calls of module.<name> for each name during one full run."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            if keep(*args):
                counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    report = run_pipelines(RunConfig.from_dict(doc(two_s)))
    monkeypatch.undo()
    assert report["summary"]["count"] == 2 ** len(two_s)
    return counts


def test_dense_solves_do_not_grow_with_the_spectrum(monkeypatch):
    # Every svd and eigvals of a run belongs to the T-Q solves; one stacked
    # call serves every eigenvalue, so dimension 8 and 32 make as many.
    small = counted_run(monkeypatch, np.linalg, ("svd", "eigvals"), (1,) * 3)
    large = counted_run(monkeypatch, np.linalg, ("svd", "eigvals"), (1,) * 5)
    assert small == large
    assert 0 < small["svd"] <= 2 and 0 < small["eigvals"] <= 2


def test_grid_a_and_d_do_not_grow_with_the_spectrum(monkeypatch):
    # a and d are evaluated on a union of points that starts with the grid
    # (the grid, then the sample points), once each per model.
    def on_grid(model, lam, sign):
        return np.ndim(lam) == 1 and np.array_equal(
            lam[: ti.GRID_POINTS.size], ti.GRID_POINTS)

    ti._check_points.cache_clear()  # earlier runs may hold these models
    small = counted_run(monkeypatch, qalgebra, ("_edge_product",), (1,) * 3,
                        on_grid)
    large = counted_run(monkeypatch, qalgebra, ("_edge_product",), (1,) * 5,
                        on_grid)
    assert small == large == {"_edge_product": 2}


STAGE = re.compile(r"stage (\S+): \d+\.\d+ s, (\d+) rows, (\d+) failed$")


def test_each_stage_logs_its_time_rows_and_failures(caplog,
                                                    rank_deficient_hom_row):
    caplog.set_level(logging.INFO, logger="sovchain")
    rank_deficient_hom_row(4)
    report = run_pipelines(RunConfig.from_dict(doc((2, 2))))
    stages = [STAGE.match(r.getMessage()) for r in caplog.records
              if r.name == "sovchain"]
    assert all(stages)
    got = [(m.group(1), int(m.group(2)), int(m.group(3))) for m in stages]
    assert got == [("model", 9, 0), ("oracle", 9, 0), ("basis", 9, 0),
                   ("ladder", 9, 0), ("sov", 9, 0), ("tq-inhom", 9, 0),
                   ("tq-hom", 9, 1)]
    assert "stage" not in json.dumps(report)
    failed = [e for e in report["eigenvalues"] if "class" in e["hom"]]
    assert [e["index"] for e in failed] == [4]
    assert failed[0]["hom"]["class"] == RankDeficient.__name__
