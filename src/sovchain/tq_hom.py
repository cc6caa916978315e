"""Two-term functional equation at half the angular period.

Dropping the correction term from the finite-difference equation costs one
degree of freedom, and doubling the period buys it back: every transfer
eigenvalue admits a product function Q built from half-angle factors, one
root per half unit of spin modulo 2*i*pi, satisfying

    t(lam) Q(lam) = -a(lam) Q(lam - eta) + d(lam) Q(lam + eta)

with nothing added.  On the rungs this again collapses to the spectrum's
three-term ladder recursion, so the solver mirrors the corrected-equation
one: ladder null vectors pin Q at every rung up to one unknown per site,
and half-angle interpolation closure at the bottom rungs leaves a linear
system whose nullspace must be exactly one-dimensional.

Three independent cross-checks tie the solution back to the spectrum.  A
quadratic Wronskian combination of Q and its half-period translate must
collapse to d times an explicit inner-rung product carrying a sign
epsilon; the root sum must land on the half-period lattice and reproduces
the same epsilon; and the eigenvalue can be rebuilt from Q alone through a
quotient whose regularity at the inner rungs certifies membership in the
spectrum.

As in the corrected-equation solver, the layer works on the whole
spectrum at once, one row per eigenvalue: ``solve_q_hom`` builds every
row's closure system with the shared builder, half-angle cardinals and the
ladder null vectors the eigenvalue stack owns, takes one stacked SVD and
one root step from the node values (``trigpoly.interpolant_roots``), and
reads every row's sign and winding off the root sum in one call.  Q is
held by its roots and what their sum fixed; its ``rhs`` gives the two
right-hand terms, which the shared grid and Bethe bodies
(``tq_inhom._grid_residual``, ``tq_inhom._bethe_residuals``) read.  A
solution's ``table`` holds Q on every point set its checks read (the grid
and its shifts, the inner rungs, the sample points, every rung, each also
half a period up), from one evaluation at angle scale 1/2
(``tq_inhom._q_values``); the solve's admissibility check reads it at
every rung.  The checks read the one model context both equations share
(``tq_inhom._check_points``: the sample points, a and d on the grid, and
the inner-rung product of the Wronskian target), and the eigenstates use
the shared assembly (``spectrum.eigenstates``).  A row that fails keeps
its first ``SovChainError`` in the errors the function returns and the
other rows go on.  The Wronskian fit is a check the run calls, at each
row's own sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BothChoicesZero, CoincidentRoots, NoEpsilonFits, NonAdmissible, NotEntire,
    RankDeficient, merge, record,
)
from .qalgebra import ChainModel, distance_to_ipi_lattice
from .sovbasis import SOVBasis
from .spectrum import eigenstates
from .tq_inhom import (
    GRID_POINTS, _at_base_points, _bethe_residuals, _check_points, _closure,
    _grid_residual, _q_values, _sample_points,
)
from .trigpoly import interpolant_roots, sinh_product

__all__ = [
    "QFunctionHom",
    "solve_q_hom",
    "sum_rule_check",
    "wronskian",
    "w_eps",
    "verify_wronskian_identity",
    "hom_grid_residual",
    "t_from_q_pair",
    "q_vector_proportionality",
    "bethe_residuals_hom",
    "eigenstates_from_q_hom",
]


@dataclass(frozen=True)
class QFunctionHom:
    """Half-angle product solution of the two-term equation.

    roots holds one value per half unit of total spin, normalized to
    Im root in [0, 2*pi).  The root sum fixes the rest: epsilon is the
    sign its half-period lattice point carries, which the Wronskian image
    must carry too; winding is the integer part of that point; and
    sum_rule_residual is the root sum's distance to it (None for a Q built
    by hand).  A stack of solutions holds one row of roots and one entry
    of every other field per eigenvalue.
    """

    model: ChainModel
    roots: tuple
    epsilon: int
    winding: int
    sum_rule_residual: float | None = None

    def value(self, lam):
        """Evaluate the half-angle product over the roots; lam holds points
        shared by every row, or one row of points per row."""
        return sinh_product(lam, self.roots, 0.5)

    def rhs(self, lam, a, d, down, up) -> tuple:
        """The two right-hand terms of the equation at lam for every row,
        from a and d at lam and Q at lam - eta (down) and lam + eta (up)."""
        return -a * down, d * up

    @cached_property
    def table(self) -> dict:
        """Q at every point set its checks read, by name, for every row,
        from one evaluation over their union, on first use; read-only.
        X holds the grid, the inner rungs and the sample points."""
        model, ip, grid = self.model, 1j * np.pi, GRID_POINTS
        eta, rungs = model.eta, model.rung_table.rungs
        x = np.concatenate([grid, rungs[model.rung_table.inner],
                            _check_points(model).samples])
        sets = {"grid": grid, "grid+ip": grid + ip, "x-eta": x - eta,
                "x+ip-eta": x + ip - eta, "x+eta": x + eta,
                "x+eta+ip": x + eta + ip, "rungs": rungs,
                "rungs+ip": rungs + ip}
        return dict(zip(sets, _q_values(self, list(sets.values()))))


# ----------------------------------------------------------------------
# the closure system

def solve_q_hom(model: ChainModel, eigfun, zeta0: complex):
    """Solve the two-term equation for every row of an eigenvalue stack.

    The closure system's nullspace fixes Q at the auxiliary node and the
    top rungs; the ladder null vectors extend this to every upper rung,
    and half-angle interpolation through all of them produces the product
    form.  The root sum then determines the sign epsilon and the winding
    integer, and must land within 1e-6 of the half-period lattice;
    ``verify_wronskian_identity`` checks the Wronskian at that sign.  A
    row whose Q vanishes at a top rung and at its half-period translate
    is NonAdmissible.  Returns (solutions, errors per row).
    """
    qs, errors = eigfun.ladder
    errors = list(errors)
    mat, nodes, spread = _closure(model, qs, zeta0, angle_scale=0.5)
    _, sing, vh = np.linalg.svd(mat)
    ratio = sing[:, -1] / sing[:, 0]
    record(errors, sing[:, -1] <= 1e-8 * sing[:, 0], lambda k: RankDeficient(
        "closure system nullspace is not one-dimensional: "
        f"singular value ratio {ratio[k]:.3e}"))
    null = vh[:, -1].conj()

    values = (spread @ null[..., None])[..., 0]
    roots, failed = interpolant_roots(nodes, values, 0.5)
    merge(errors, failed)
    epsilon, winding, residual = sum_rule_check(model, roots)
    sol = QFunctionHom(model, roots, epsilon, winding, residual)
    site = _vanishing_site(sol.table["rungs"], sol.table["rungs+ip"],
                           model.rung_table.top)
    record(errors, site >= 0, lambda k: NonAdmissible(
        f"site {site[k] + 1}: Q vanishes at the top rung and at its "
        "half-period translate"))

    record(errors, residual > 1e-6, lambda k: NoEpsilonFits(
        f"root sum misses the half-period lattice by {residual[k]:.3e}"))
    return sol, errors


def _vanishing_site(rungs, shifted, top) -> np.ndarray:
    """Per row, the first site where Q vanishes both at the top rung and
    at its translate, to 1e-10 of the largest |Q| on the row's rungs and
    their translates, or -1.

    Such a pair would let an entire family of functions through the
    closure system without pinning the state at that site.
    """
    rungs, shifted = np.abs(rungs), np.abs(shifted)
    scale = np.maximum(rungs.max(axis=-1), shifted.max(axis=-1))
    floor = 1e-10 * np.maximum(scale, 1e-300)[..., None]
    both = (rungs[..., top] <= floor) & (shifted[..., top] <= floor)
    return np.where(both.any(axis=-1), both.argmax(axis=-1), -1)


def sum_rule_check(model: ChainModel, roots):
    """Locate the root sum on the half-period lattice, per row of roots.

    Returns (epsilon, winding, residual) where the sum of roots minus the
    sum of all upper rungs plus half the total degree times eta must equal
    i*pi*(winding doubled, plus one when epsilon is -1); residual is the
    distance to the nearest lattice point.
    """
    upper = sum(model.rung_table.rungs[model.rung_table.upper])
    s_val = np.asarray(roots, dtype=complex).sum(axis=-1)
    s_val = s_val - upper + 0.5 * model.n_s * model.eta
    with np.errstate(invalid="ignore"):  # a failed row may hold NaN
        r = np.round(s_val.imag / np.pi).astype(int)
    residual = np.hypot(s_val.real, s_val.imag - np.pi * r)
    epsilon = np.where(r % 2 == 0, 1, -1)
    winding = (r - (epsilon != 1)) // 2
    return epsilon, winding, residual


# ----------------------------------------------------------------------
# the Wronskian

def wronskian(model: ChainModel, q: QFunctionHom, lam):
    """Definition route: Q(lam+i*pi)Q(lam-eta) + Q(lam)Q(lam+i*pi-eta)."""
    eta = model.eta
    ip = 1j * np.pi
    lam = np.asarray(lam, dtype=complex)
    up, down = q.value(lam + ip), q.value(lam - eta)
    return up * down + q.value(lam) * q.value(lam + ip - eta)


def w_eps(model: ChainModel, epsilon, lam, inner=None):
    """Target of the Wronskian: 2*eps*(i/2)^deg times the inner-rung
    product, which inner holds at lam when the caller has it
    (``tq_inhom._check_points`` does at the check points).

    Accepts any shape; epsilon may hold one sign per row.
    """
    unit, table = (0.5j) ** model.n_s, model.rung_table
    sign = np.asarray(epsilon)[..., None]
    if inner is None:
        inner = sinh_product(lam, table.rungs[table.inner])
    return np.where(sign == 1, 2.0 * unit, -2.0 * unit) * inner


def verify_wronskian_identity(model: ChainModel, q: QFunctionHom):
    """Fit every row's Wronskian against d times w_eps at the sign epsilon
    its root sum fixed, on the verification grid.

    Returns (residual, errors): a row whose relative defect is not under
    1e-6 (NaN too) gets a NoEpsilonFits naming its sign.  The two signs'
    defects differ by 2*|target|/scale, so at most one of them can fit.
    """
    t, grid, pts = q.table, GRID_POINTS, _check_points(model)
    # ``wronskian`` on the grid, and its target from the cached product.
    w_vals = (t["grid+ip"] * t["x-eta"][..., :grid.size]
              + t["grid"] * t["x+ip-eta"][..., :grid.size])
    target = pts.d[:grid.size] * w_eps(model, q.epsilon, grid,
                                       pts.inner[:grid.size])
    scale = np.maximum(np.abs(w_vals), np.abs(target)).max(axis=-1)
    with np.errstate(all="ignore"):  # a zero scale reads NaN and fails
        residual = np.abs(w_vals - target).max(axis=-1) / scale
    errors = [None] * residual.size
    signs = np.broadcast_to(q.epsilon, residual.shape)
    record(errors, ~(residual <= 1e-6), lambda k: NoEpsilonFits(
        f"Wronskian misses the sign {signs.flat[k]} of the root sum: "
        f"defect {residual.flat[k]:.3e}"))
    return residual, errors


# ----------------------------------------------------------------------
# consequences of a solved Q

def hom_grid_residual(model: ChainModel, eigfun, q: QFunctionHom
                      ) -> np.ndarray:
    """Worst relative defect of the two-term equation on the grid, per row
    (``tq_inhom._grid_residual`` on ``rhs``), with Q from the solution's
    ``table`` and t from the stack's ``grid_values``."""
    t, cut = q.table, GRID_POINTS.size
    pts = _check_points(model)
    return _grid_residual(eigfun, t["grid"], q.rhs(
        GRID_POINTS, pts.a[:cut], pts.d[:cut], t["x-eta"][..., :cut],
        t["x+eta"][..., :cut]))


def t_from_q_pair(model: ChainModel, q: QFunctionHom):
    """Rebuild every row's eigenvalue from Q and its half-period translate.

    The quotient of the cross combination by the signed inner-rung product
    is an entire function exactly when Q belongs to the spectrum; its
    values at the sample points (``tq_inhom._sample_points``: the base
    points, or an offset copy clear of the inner rungs) map back to the
    eigenvalue's base values.  Returns (base values, report, errors) where
    the report holds the relative numerator size at every inner rung; a
    row gets a NotEntire when any entry exceeds 1e-8.
    """
    n_inner = model.rung_table.inner.size
    errors = [None] * math.prod(np.shape(q.roots)[:-1])
    samples = _sample_points(model, errors)  # an error per row if unusable
    # The table holds Q over the grid, the inner rungs and the samples.
    t = q.table
    term_down = t["x+eta"] * t["x+ip-eta"]
    term_up = t["x+eta+ip"] * t["x-eta"]
    cut = GRID_POINTS.size
    numerator = term_down[..., cut:] - term_up[..., cut:]
    # Normalize against the products being subtracted, not against their
    # difference: the zero transfer eigenvalue has an identically vanishing
    # cross combination, and dividing roundoff by roundoff would reject it.
    num_scale = np.maximum(np.abs(term_down[..., :cut]).max(axis=-1),
                           np.abs(term_up[..., :cut]).max(axis=-1))
    # w_eps(epsilon) at the samples; w_eps(-1) is exactly -w_eps(1), as
    # (-2u) P and -(2u P) round alike.
    w_one = w_eps(model, 1, samples, _check_points(model).inner[cut:])
    signed = np.where(np.asarray(q.epsilon)[..., None] == 1, w_one, -w_one)
    with np.errstate(all="ignore"):  # a vanishing row is rejected below
        report = np.abs(numerator[..., :n_inner]) / num_scale[..., None]
        values = _at_base_points(model, numerator[..., n_inner:] / signed)
    worst = report.max(axis=-1, initial=0.0).ravel()
    record(errors, num_scale == 0.0, lambda k: NotEntire(
        "Q vanishes on the whole sampling grid"))
    record(errors, worst > 1e-8, lambda k: NotEntire(
        "cross combination does not vanish at an inner rung: "
        f"worst relative size {worst[k]:.3e}"))
    return values, report, errors


def q_vector_proportionality(model: ChainModel, q: QFunctionHom):
    """Per-site angle between the rung vector of Q and of its translate.

    For each site, collect Q over the full rung ladder and the alternating
    sign copy of Q shifted by half a period; on the spectrum both span the
    same complex line.  Returns (angles, both_zero) with one entry per
    site (after the rows); a site where exactly one vector vanishes reports
    pi/2.
    """
    plain, shifted = q.table["rungs"], q.table["rungs+ip"]
    scale = np.abs(np.concatenate([plain, shifted], -1)).max(axis=-1)
    tiny = 1e-12 * np.maximum(scale, 1e-300)[..., None]
    angles = np.zeros(scale.shape + (model.n_sites,))
    both_zero = np.zeros(angles.shape, dtype=bool)
    for sites, cols in model.rung_table.groups:
        # np.take keeps rows outermost, so sums over rungs round as per site.
        v = np.take(plain, cols, axis=-1)
        w = (-1.0) ** np.arange(cols.shape[-1]) * np.take(shifted, cols, -1)
        nv, nw = np.linalg.norm(v, axis=-1), np.linalg.norm(w, axis=-1)
        zero_v, zero_w = nv <= tiny, nw <= tiny
        both_zero[..., sites] = zero_v & zero_w
        with np.errstate(all="ignore"):  # vanishing vectors are set below
            coeff = (v.conj() * w).sum(axis=-1) / (nv * nv)
            perp = w - coeff[..., None] * v
            angle = np.arcsin(np.minimum(
                1.0, np.linalg.norm(perp, axis=-1) / nw))
        angles[..., sites] = np.where(zero_v | zero_w, np.where(
            zero_v & zero_w, 0.0, 0.5 * np.pi), angle)
    return angles, both_zero


def bethe_residuals_hom(model: ChainModel, q: QFunctionHom):
    """Relative defect of the root system at every root of Q, per row.

    Entirety of the rebuilt eigenvalue demands that the two right-hand
    terms cancel at every root (``tq_inhom._bethe_residuals``), with the
    half-angle factors at the root itself included (they carry a relative
    sign).  Returns (residuals, errors): a row with two roots closer than
    1e-8 modulo 2*i*pi gets a CoincidentRoots, since a double root breaks
    the simple-pole argument.
    """
    roots = np.asarray(q.roots, dtype=complex)
    gaps = distance_to_ipi_lattice(
        roots[..., :, None] - roots[..., None, :], 2.0 * np.pi)
    order = np.arange(roots.shape[-1])
    close = ((gaps < 1e-8) & (order[:, None] < order)).reshape(
        (-1,) + gaps.shape[-2:])
    flat_gaps = gaps.reshape(close.shape)

    def collide(k):
        i, j = np.argwhere(close[k])[0]
        return CoincidentRoots(
            f"roots {i} and {j} collide modulo the period: "
            f"gap {flat_gaps[k][i, j]:.3e}"
        )

    errors = [None] * len(close)
    record(errors, close.any(axis=(1, 2)), collide)
    return _bethe_residuals(model, q), errors


def eigenstates_from_q_hom(model: ChainModel, q: QFunctionHom, basis: SOVBasis):
    """Assemble separated eigenstates directly from Q values on the rungs.

    Both sign choices for the half-period translate are tried: the plain Q
    and Q shifted by i*pi (with alternating rung signs) each provide a
    full set of ladder coefficients, and every nonzero outcome must be
    proportional to the same eigenstate pair.  Returns a list of
    (choice, left covector, right vector); raises BothChoicesZero when
    neither choice yields a state.
    """
    shifted = (-1.0) ** model.rung_table.level * q.table["rungs+ip"]
    out = []
    for choice, vectors in ((1, q.table["rungs"]), (-1, shifted)):
        left, right, errors = eigenstates(model, basis, vectors)
        if errors[0] is None:
            out.append((choice, left, right))
    if not out:
        raise BothChoicesZero(
            "neither half-period choice produced a nonzero state"
        )
    return out
