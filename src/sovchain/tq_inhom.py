"""Finite-difference functional equation with a degree-closing correction term.

For each transfer eigenvalue there is a product function Q with one root per
half unit of spin, satisfying

    t(lam) Q(lam) = -exp(lam - alpha) a(lam) Q(lam - eta)
                    + exp(-lam - eta + alpha) d(lam) Q(lam + eta)
                    + correction(lam),

where the correction vanishes at every site rung, so that evaluated on the
rungs the equation collapses to the same three-term ladder recursion that
characterizes the spectrum.  The correction's remaining free root is pinned
by the requirement that the extreme exponential coefficients of the right
hand side cancel; it ends up depending only on alpha plus the root sum of Q.

The solver runs the logic backwards: the ladder null vectors determine Q at
every rung up to one unknown per site, interpolation closure at the bottom
rungs gives a square linear system, and the solved values interpolate to a
trigonometric polynomial; Q keeps only its roots.

The layer works on the whole spectrum at once: a Q, like an
``EigenvalueFunction``, is one solution or a stack of them, one row per
eigenvalue (roots E x N_s).  ``solve_q_inhom`` builds every row's
closure system (E x N x (N + 1)) from the ladder null vectors the
eigenvalue stack owns and one cardinal kernel (``trigpoly.cardinals``),
takes one stacked SVD and solve, and gets every row's roots from its
node values in one call (``trigpoly.interpolant_roots``); a row whose
system is singular is solved again, alone, at the next deformation redraw.

Each solution class writes its equation's right-hand side once, as
``rhs(lam, a, d, down, up)`` with Q one step down and up.  What both
equations share lives here: the table builder ``_q_values`` (one
evaluation of Q over the union of a solution's point sets; this table
holds Q and the ``rhs`` terms on the grid and the sample points), the
grid and Bethe bodies ``_grid_residual`` and ``_bethe_residuals``, their
zero-scale rule ``_relative_defect``, and the model-only factors cached
per model (``_check_points``).  A row that fails a step keeps its
first ``SovChainError`` in the errors the function returns (None for a
row that passed), and the other rows go on.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import sub

import numpy as np

from .errors import (
    ExceptionalAlpha, NonAdmissible, PoleAtXi, SovChainError, merge, record,
)
from .qalgebra import (
    ChainModel, _read_only, a_of, d_of, distance_to_ipi_lattice,
)
from .sovbasis import SOVBasis
from .spectrum import GRID_POINTS, eigenstates
from .trigpoly import cardinals, interpolant_roots, interpolate, sinh_product

__all__ = [
    "QFunctionInhom",
    "f_inhom",
    "solve_q_inhom",
    "draw_zeta0",
    "det_m_polynomial",
    "det_m_zero_closed_form",
    "leading_det_coefficient",
    "inhom_grid_residual",
    "t_from_q_inhom",
    "bethe_residuals_inhom",
    "q_coordinates_inhom",
    "eigenstates_from_q_inhom",
    "homogeneous_rank_check",
    "root_multiset_distance",
    "GRID_POINTS",
]

@dataclass(frozen=True)
class QFunctionInhom:
    """Monic product function sinh(lam - root_1)...sinh(lam - root_Ns),
    held by its roots; or a stack of them, with one row of roots and one
    alpha per eigenvalue (``rhs`` forms the root sum it needs)."""

    model: ChainModel
    alpha: complex
    roots: tuple

    def value(self, lam):
        """Evaluate the product over the stored roots directly; lam holds
        points shared by every row, or one row of points per row."""
        return sinh_product(lam, self.roots)

    def rhs(self, lam, a, d, down, up, rungs=None) -> tuple:
        """The right-hand terms of the equation at lam for every row, from
        a and d at lam and Q at lam - eta (down) and lam + eta (up): the a
        term, the d term and the correction term (``f_inhom``, with the
        rung product rungs at lam when the caller holds it)."""
        alpha = np.asarray(self.alpha)[..., None]
        return (-np.exp(lam) * a * np.exp(-alpha) * down,
                np.exp(-lam - self.model.eta) * d * np.exp(alpha) * up,
                f_inhom(self.model, self.alpha + np.sum(self.roots, axis=-1),
                        lam, rungs))

    @cached_property
    def table(self) -> tuple:
        """(Q, term_a, term_d, term_f) at the check points P for every row,
        from Q over P, P - eta and P + eta in one call, on first use;
        read-only."""
        pts, eta = _check_points(self.model), self.model.eta
        plain, down, up = _q_values(
            self, (pts.points, pts.points - eta, pts.points + eta))
        return (plain, *map(_read_only, self.rhs(
            pts.points, pts.a, pts.d, down, up, pts.rungs)))


def _q_values(sol, point_sets) -> list:
    """Q at each point set for every row, from one evaluation over their
    union: read-only views, in order.  Both solutions build their
    ``table`` with it."""
    values = _read_only(sol.value(np.concatenate(point_sets)))
    cuts = np.cumsum([0] + [np.size(p) for p in point_sets]).tolist()
    return [values[..., i:j] for i, j in zip(cuts, cuts[1:])]


# ----------------------------------------------------------------------
# the correction term


def f_inhom(model: ChainModel, x: complex, lam, rungs=None):
    """Pointwise value of the correction term with shift parameter x.

    The product over every rung kills the value at each of them, and the
    extra root is placed so that the extreme exponential coefficients of
    the functional equation cancel.  Accepts any shape; x may hold one
    value per row.  The rung product depends on the model alone: rungs is
    its value at lam when the caller holds it (``_check_points`` does).
    """
    table, shift = model.rung_table, (model.n_s + 1) * model.eta / 2.0
    if rungs is None:
        rungs = sinh_product(lam, table.rungs)
    extra = np.asarray(x - sum(table.rungs[table.level > 0]) - shift)
    return sinh_product(lam, extra[..., None]) * (2.0 * np.exp(-shift) * rungs)


# ----------------------------------------------------------------------
# the discretized linear system


def _dressed_null_vectors(model: ChainModel, qs):
    """Ladder null vectors divided by the running exponential prefactors
    prod_{k < h} exp(rung_k) along each ladder (1 on the top rungs)."""
    table = model.rung_table
    dress = np.ones(table.rungs.shape, dtype=complex)
    for _, cols in table.groups:
        dress[cols[:, 1:]] = np.cumprod(np.exp(table.rungs[cols[:, :-1]]), -1)
    return qs / dress


def _null_vectors(model: ChainModel, eigfun):
    """One eigenvalue's dressed null vectors; raises its RecursionBlowup."""
    qs, (error,) = eigfun.ladder
    if error is not None:
        raise error
    return _dressed_null_vectors(model, qs)


def _closure_nodes(model: ChainModel, zeta0: complex):
    """Interpolation nodes (zeta0, then the upper rungs) and the bottom
    rung of each site."""
    table = model.rung_table
    return (np.concatenate([[zeta0], table.rungs[table.upper]]),
            table.rungs[table.bottom])


def _closure(model: ChainModel, vectors, zeta0: complex, beta: complex = 1.0,
             angle_scale: float = 1.0):
    """Bottom-rung closure rows for rung vectors.

    Unknown 0 is the value of Q at zeta0 and unknown j the value at site
    j's top rung; at a rung of level h on site j the value is beta**h times
    the vector there times unknown j.  Returns (rows, nodes, spread):
    spread maps the unknowns to the values at the nodes, and row i demands
    that interpolation through the nodes reproduce the ladder value at site
    i's bottom rung, so rows is n_sites x (n_sites + 1).  Vectors with
    leading axes give a stack of systems, one per row, against one cardinal
    matrix.
    """
    table = model.rung_table
    nodes, bottoms = _closure_nodes(model, zeta0)
    # Row 0 maps the unknowns to Q at zeta0, row 1 + i to Q at rung i.
    held = np.zeros(np.shape(vectors)[:-1]
                    + (1 + table.rungs.size, model.n_sites + 1), dtype=complex)
    held[..., 0, 0] = 1.0
    held[..., 1 + np.arange(table.rungs.size), 1 + table.site] = (
        beta ** table.level * vectors)
    spread = held[..., np.concatenate([[0], 1 + table.upper]), :]
    rows = (held[..., 1 + table.bottom, :]
            - cardinals(nodes, bottoms, angle_scale) @ spread)
    return rows, nodes, spread


# Offsets tried, in order, when a base point sits on an inner rung.
_SAMPLE_OFFSETS = (0.13 + 0.09j, -0.17 + 0.11j, 0.21 - 0.15j, 0.29 + 0.23j,
                   -0.31 - 0.19j, 0.37 + 0.05j)


_CheckPoints = namedtuple("_CheckPoints",
                          "samples cleared to_base points a d rungs inner")


@lru_cache(maxsize=16)
def _check_points(model: ChainModel) -> _CheckPoints:
    """The model-only part of the checks of both T-Q equations, read-only
    and cached per model (equal models share it): the sample points
    where t is rebuilt from Q, whether they clear the inner rungs, their
    cardinals at the base points, and P (the grid, then the samples) with
    a and d at P and the products of sinh(P - rung) over every rung (the
    correction term's) and over the inner rungs (the Wronskian's).  The
    samples are the base points or, when one sits on an inner rung
    (integer-spin sites), the first offset copy clear of the inner
    rungs."""
    inner = model.rung_table.rungs[model.rung_table.inner]
    xi = np.asarray(model.xi, dtype=complex)

    def clearance(pts):
        """Smallest distance modulo i*pi from pts to the inner rungs."""
        gap = distance_to_ipi_lattice(pts[:, None] - inner)
        return float(np.min(gap, initial=np.inf))

    samples, cleared = xi, clearance(xi) > 1e-3
    for offset in () if cleared else _SAMPLE_OFFSETS:
        if clearance(xi + offset) > 5e-2:
            samples, cleared = xi + offset, True
            break
    points = np.concatenate([GRID_POINTS, samples])
    return _CheckPoints(_read_only(samples), cleared, *map(_read_only, (
        cardinals(samples, model.xi), points, a_of(model, points),
        d_of(model, points), sinh_product(points, model.rung_table.rungs),
        sinh_product(points, inner))))


def _sample_points(model: ChainModel, errors: list) -> np.ndarray:
    """Where both T-Q equations rebuild t from Q; if they do not clear the
    inner rungs, every row gets an error."""
    pts = _check_points(model)
    record(errors, np.full(len(errors), not pts.cleared), lambda k: (
        SovChainError("no offset clears the inner rungs")))
    return pts.samples


def _at_base_points(model: ChainModel, values) -> np.ndarray:
    """t at the base points from its values at the samples, one row each.

    t lies in the span of the cardinals of any N nodes, so
    t(xi) = sum_k t(s_k) C_k(xi) with C = cardinals(samples, xi) and no
    solve; the multiply-sum keeps each row independent of the others.
    """
    return np.sum(values[..., None, :] * _check_points(model).to_base, axis=-1)


def draw_zeta0(model: ChainModel, rng) -> complex:
    """Random auxiliary node kept away from every rung modulo i*pi, so also
    modulo 2*i*pi: both T-Q closures take it.  Raises ExceptionalAlpha
    after 1000 draws."""
    for _ in range(1000):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if np.all(distance_to_ipi_lattice(z - model.rung_table.rungs) > 1e-2):
            return z
    raise ExceptionalAlpha("could not place the auxiliary node modulo i*pi")


def det_m_polynomial(model: ChainModel, eigfun, zeta0: complex) -> np.ndarray:
    """Ascending coefficients of the system determinant in beta.

    The determinant is a polynomial of degree equal to the number of roots;
    it is sampled at the roots of unity of one degree more, so its
    coefficients are the discrete Fourier transform of the samples.
    """
    n_s = model.n_s
    betas = np.exp(2j * np.pi * np.arange(n_s + 1) / (n_s + 1))
    xs = _null_vectors(model, eigfun)
    dets = np.array(
        [np.linalg.det(_closure(model, xs, zeta0, b)[0][:, 1:]) for b in betas]
    )
    return np.fft.fft(dets) / (n_s + 1)


def leading_det_coefficient(model: ChainModel, eigfun) -> complex:
    """Product of the dressed null-vector components at the bottom rungs."""
    xs = _null_vectors(model, eigfun)
    return complex(np.prod(xs[model.rung_table.bottom]))


def det_m_zero_closed_form(model: ChainModel, zeta0: complex) -> complex:
    """The system determinant at beta = 0, as an explicit product.

    At beta = 0 only the top-rung cardinal survives in each entry, which
    turns the matrix into a scaled Cauchy matrix in the bottom and top rung
    positions; the determinant then factorizes completely.
    """
    table = model.rung_table
    nodes, bottoms = _closure_nodes(model, zeta0)
    tops = table.rungs[table.top]
    i, j = np.triu_indices(model.n_sites, 1)
    # Each top rung is a node too; its own factor sinh(0) is left out.
    from_tops = np.sinh(tops[:, None] - nodes)
    from_tops[np.arange(tops.size),
              1 + np.searchsorted(table.upper, table.top)] = 1.0
    pairs = np.sinh(bottoms[i] - bottoms[j]) * np.sinh(tops[j] - tops[i])
    return complex((-1.0) ** model.n_sites * np.prod(pairs)
                   * np.prod(np.sinh(bottoms[:, None] - nodes))
                   / np.prod(np.sinh(bottoms[:, None] - tops))
                   / np.prod(from_tops))


# ----------------------------------------------------------------------
# solving


def _inadmissible(tops) -> np.ndarray:
    """Per row: does a top-rung value of Q vanish?"""
    tops = np.abs(tops)
    return tops.min(axis=-1) < 1e-10 * np.maximum(1.0, tops.max(axis=-1))


def _solve(model: ChainModel, xs, alpha: complex, zeta0: complex, errors):
    """Solve every row's closure system at one deformation value and
    extract the roots; returns the roots (rows x N_s), with each row's
    failure added to errors."""
    with np.errstate(over="ignore", invalid="ignore"):  # flagged below
        beta = np.exp(complex(alpha))
        rows, nodes, spread = _closure(model, xs, zeta0, beta)
    mat, rhs = rows[..., 1:], -rows[..., 0]
    # A closure that is not finite at this alpha is redrawn as singular.
    mat[~np.isfinite(rows).all(axis=(-2, -1))] = 0.0
    sing = np.linalg.svd(mat, compute_uv=False)
    singular = sing[:, -1] <= 1e-10 * np.maximum(1.0, sing[:, 0])
    record(errors, singular, lambda k: ExceptionalAlpha(
        f"closure system singular at exp(alpha) = {beta:.6g}"))
    mat[singular] = np.eye(model.n_sites)  # keeps the stacked solve regular
    y = np.linalg.solve(mat, rhs[..., None])[..., 0]
    record(errors, _inadmissible(y), lambda k: NonAdmissible(
        "a top-rung value of Q vanished"))

    unknowns = np.concatenate([np.ones((len(y), 1)), y], axis=-1)
    values = (spread @ unknowns[..., None])[..., 0]
    roots, failed = interpolant_roots(nodes, values)
    merge(errors, failed)
    return roots


def solve_q_inhom(
    model: ChainModel,
    eigfun,
    zeta0: complex,
    alpha: complex = 0.0,
    max_retries: int = 3,
):
    """Solve every row of an eigenvalue stack at the auxiliary node zeta0.

    The rows whose closure system is singular at the deformation alpha
    (ExceptionalAlpha) are solved again, and only they, at the next
    redraw, up to max_retries times; the redraws come from a fixed seed,
    so every row sees the same sequence, and the generator is built at the
    first redraw.  The stack is built once, from each row's last alpha and
    roots.  Returns (solutions, retries per row, errors per row).
    """
    rng = None
    qs, errors = eigfun.ladder
    errors = list(errors)
    xs = _dressed_null_vectors(model, qs)
    alphas = np.full(len(errors), complex(alpha))
    roots = _solve(model, xs, alpha, zeta0, errors)
    retries = np.zeros(len(errors), dtype=int)
    for attempt in range(1, max_retries + 1):
        again = np.flatnonzero([isinstance(e, ExceptionalAlpha)
                                for e in errors])
        if not again.size:
            break
        rng = rng or np.random.default_rng(0)
        alpha = complex(
            rng.uniform(-np.log(2.0), np.log(2.0)),
            rng.uniform(0.0, 2.0 * np.pi),
        )
        part_errors = [None] * again.size
        roots[again] = _solve(model, xs[again], alpha, zeta0, part_errors)
        alphas[again] = alpha
        for row, exc in zip(again, part_errors):
            errors[row] = exc
        retries[again] = attempt
    sol = QFunctionInhom(model, _read_only(alphas), _read_only(roots))
    return sol, retries, errors


# ----------------------------------------------------------------------
# verification


def _relative_defect(numerator, terms) -> np.ndarray:
    """|numerator| over the largest |term| at each point, 0 where every
    term vanishes: the one zero-scale rule of every grid and Bethe
    residual of both functional equations."""
    scale = np.abs(terms[0])
    for term in terms[1:]:  # in place: no stack of every term
        np.maximum(scale, np.abs(term), out=scale)
    return np.divide(np.abs(numerator), scale, out=np.zeros(scale.shape),
                     where=scale != 0.0)


def _grid_residual(eigfun, q, terms) -> np.ndarray:
    """Worst relative defect of t Q = sum(terms) on the grid, per row: the
    one grid-residual body of both functional equations.  Q and the terms
    are products over roots and rungs evaluated pointwise, independently
    of the coefficient arithmetic of the solver."""
    lhs = eigfun.grid_values * q
    return _relative_defect(reduce(sub, terms, lhs), (lhs, *terms)).max(-1)


def _bethe_residuals(model: ChainModel, sol) -> np.ndarray:
    """Pole-cancellation defect at each root, scaled by the largest term:
    the one Bethe-residual body of both functional equations.  At a root
    of Q the left side vanishes, so the right-hand terms must cancel;
    their sum is the pole numerator."""
    roots = np.asarray(sol.roots, dtype=complex)
    shifted = sol.value(np.concatenate(
        [roots - model.eta, roots + model.eta], axis=-1))
    down, up = shifted[..., :roots.shape[-1]], shifted[..., roots.shape[-1]:]
    terms = sol.rhs(roots, a_of(model, roots), d_of(model, roots), down, up)
    return _relative_defect(sum(terms), terms)


def inhom_grid_residual(
    model: ChainModel, eigfun, sol: QFunctionInhom
) -> np.ndarray:
    """Worst relative defect of the functional equation on the grid, per
    row (``_grid_residual`` on the terms in ``table``)."""
    q, *terms = (v[..., :GRID_POINTS.size] for v in sol.table)
    return _grid_residual(eigfun, q, terms)


def t_from_q_inhom(model: ChainModel, sol: QFunctionInhom):
    """Reconstruct every row's eigenvalue from its Q alone.

    Evaluates the functional equation at the sample points
    (``_sample_points``), divides by the value of Q there and maps the
    quotients back to the base points.  Returns (base values, Bethe
    residuals, errors): the residuals certify the reconstructed function is
    pole-free, and a row with a root on a sample point modulo the period
    gets a PoleAtXi.
    """
    roots = np.asarray(sol.roots, dtype=complex)
    flat = roots.reshape(-1, roots.shape[-1])
    errors = [None] * len(flat)
    samples = _sample_points(model, errors)
    hits = distance_to_ipi_lattice(flat[:, None, :] - samples[:, None]) < 1e-8

    def pole(k):
        n, j = np.argwhere(hits[k])[0]
        return PoleAtXi(
            f"root {flat[k][j]:.6g} sits on sample point {n + 1} modulo the "
            "period"
        )

    record(errors, hits.any(axis=(1, 2)), pole)
    q, *terms = (v[..., GRID_POINTS.size :] for v in sol.table)
    with np.errstate(all="ignore"):  # a pole row divides by zero
        base = _at_base_points(model, sum(terms) / q)
    return base, bethe_residuals_inhom(model, sol), errors


def bethe_residuals_inhom(model: ChainModel, sol: QFunctionInhom) -> np.ndarray:
    """Pole-cancellation defect of the three right-hand terms at each
    root (``_bethe_residuals``)."""
    return _bethe_residuals(model, sol)


# ----------------------------------------------------------------------
# eigenstate coordinates


def q_coordinates_inhom(model: ChainModel, sol: QFunctionInhom):
    """Values of the Gaussian-dressed Q at every rung (rows x rungs).

    The Gaussian factor exp(-lam(lam + eta - 2 alpha)/(2 eta)) converts the
    deformation-dependent rung ratios of Q into the bare ladder null-vector
    components.  It is applied pointwise only; it is not periodic and has no
    place inside the trigonometric-polynomial type.
    """
    lam = model.rung_table.rungs
    alpha = np.asarray(sol.alpha)[..., None]
    gauss = np.exp(-lam * (lam + model.eta - 2.0 * alpha) / (2.0 * model.eta))
    return gauss * sol.value(lam)


def eigenstates_from_q_inhom(
    model: ChainModel, sol: QFunctionInhom, basis: SOVBasis
):
    """Left and right eigenstates assembled from the dressed Q values:
    (left, right, errors) as ``spectrum.eigenstates`` returns them."""
    return eigenstates(model, basis, q_coordinates_inhom(model, sol))


# ----------------------------------------------------------------------
# library checks that the run does not call


def homogeneous_rank_check(
    model: ChainModel, eigfun, alpha: complex, zeta0: complex
) -> float:
    """Smallest-to-largest singular value ratio of the homogeneous closure.

    Dropping the correction term forces the extreme coefficients of Q itself
    to vanish on top of the bottom-rung closure rows.  Stacking those
    functionals over the closure system gives a tall matrix whose full
    column rank certifies that the correction-free equation has only the
    zero solution.  Each stacked row is scaled to unit norm first, so that
    the ratio does not read the rows' scales, which differ by up to 1e9
    on chains up to dim 81.
    """
    xs = _null_vectors(model, eigfun)
    rows, nodes, spread = _closure(model, xs, zeta0, np.exp(complex(alpha)))
    n_sites = model.n_sites
    stacked = np.zeros((n_sites + 2, n_sites + 1), dtype=complex)
    stacked[:n_sites] = rows
    coeffs = interpolate(nodes, spread.T, 0)
    stacked[n_sites] = coeffs[:, 0]
    stacked[n_sites + 1] = coeffs[:, -1]
    stacked /= np.linalg.norm(stacked, axis=1)[:, None]
    sing = np.linalg.svd(stacked, compute_uv=False)
    return float(sing[-1] / sing[0])


def root_multiset_distance(first, second, period: complex = 1j * np.pi) -> float:
    """Greedy matching distance between two root multisets modulo a period."""
    first = list(first)
    second = list(second)
    if len(first) != len(second):
        return np.inf
    worst = 0.0
    for r in first:
        gaps = distance_to_ipi_lattice(r - np.asarray(second), period.imag)
        j = int(np.argmin(gaps))
        worst = max(worst, float(gaps[j]))
        second.pop(j)
    return worst
