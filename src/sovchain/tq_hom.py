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

As in the corrected-equation solver, the layer is evaluated on arrays: the
closure rows come from the shared builder with half-angle cardinals and the
ladder null vectors the eigenvalue function owns (``eigfun.ladder``), and
every certificate evaluates Q on a whole point set (the grid, the roots,
the inner rungs, the base points, every rung) in one call, through the
shared sinh-product kernel at angle scale 1/2.  Q is held by its roots
alone.  The grid and Bethe residuals share the corrected equation's
zero-scale rule, and the eigenstates its assembly
(``spectrum.eigenstates``).  The solve keeps its Wronskian fit and its
sum-rule residual on the solution, so nothing recomputes them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    BothChoicesZero,
    CoincidentRoots,
    NoEpsilonFits,
    NonAdmissible,
    NotEntire,
    RankDeficient,
    SovChainError,
    ZeroState,
)
from .qalgebra import ChainModel, a_of, d_of, distance_to_ipi_lattice, on_rungs
from .sovbasis import SOVBasis
from .spectrum import EigenvalueFunction, eigenstates
from .tq_inhom import GRID_POINTS, _closure, _draw_node, _relative_defect
from .trigpoly import TrigPoly, cardinals, sinh_product

__all__ = [
    "QFunctionHom",
    "draw_zeta0_hom",
    "half_system_matrix",
    "solve_q_hom",
    "sum_rule_check",
    "wronskian",
    "wronskian_closed_form",
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
    Im root in [0, 2*pi).  epsilon is the sign carried by the Wronskian
    image and the root sum; winding is the integer part of the root sum
    on the half-period lattice.  Q is held by its roots alone.
    wronskian_residual is the defect of the Wronskian fit that
    ``solve_q_hom`` checked epsilon against, and sum_rule_residual the
    distance of the root sum to the half-period lattice it found (both None
    for a Q built by hand).
    """

    model: ChainModel
    roots: tuple
    epsilon: int
    winding: int
    wronskian_residual: float | None = None
    sum_rule_residual: float | None = None

    def value(self, lam):
        """Evaluate the half-angle product over the roots; any shape."""
        return sinh_product(lam, self.roots, 0.5)


# ----------------------------------------------------------------------
# node placement and the closure system

def draw_zeta0_hom(model: ChainModel, rng) -> complex:
    """Random auxiliary node kept away from every rung modulo 2*i*pi."""
    return _draw_node(model, rng, 2.0 * np.pi, SovChainError)


def half_system_matrix(model: ChainModel, eigfun, zeta0: complex):
    """Closure conditions at the bottom rungs in half-angle interpolation.

    Unknowns are (Q(zeta0), Q at each site's top rung); the value at every
    other upper rung is the top value times the ladder null component, and
    each row demands that interpolation through those nodes reproduces the
    ladder-prescribed value at one site's bottom rung.  Shape is
    n_sites x (n_sites + 1), so a trustworthy solution shows up as a
    one-dimensional nullspace.
    """
    return _closure(model, eigfun.ladder[0], zeta0, angle_scale=0.5)[0]


def solve_q_hom(
    model: ChainModel,
    eigfun,
    zeta0: complex | None = None,
    seed: int = 0,
) -> QFunctionHom:
    """Solve the two-term equation for one transfer eigenvalue.

    The closure system's nullspace fixes Q at the auxiliary node and the
    top rungs; the ladder null vectors extend this to every upper rung,
    and half-angle interpolation through all of them produces the product
    form.  The root sum then determines the sign epsilon and the winding
    integer, and a Wronskian fit over the verification grid must
    reproduce the same sign; its residual is kept on the solution.
    """
    if zeta0 is None:
        zeta0 = draw_zeta0_hom(model, np.random.default_rng(seed))
    mat, nodes, spread = _closure(
        model, eigfun.ladder[0], zeta0, angle_scale=0.5
    )
    _, sing, vh = np.linalg.svd(mat)
    if sing[-1] <= 1e-8 * sing[0]:
        raise RankDeficient(
            "closure system nullspace is not one-dimensional: "
            f"singular value ratio {sing[-1] / sing[0]:.3e}"
        )
    null = vh[-1].conj()

    values = spread @ null
    raw = TrigPoly.from_values(nodes, values, m=0, angle_scale=0.5)
    c_p, roots = raw.roots()

    top = null[1:] / c_p
    tops = np.array([rung.rungs[0] for rung in model.rung_table])
    shifted = raw.eval(tops + 1j * np.pi) / c_p
    scale = max(
        float(np.max(np.abs(top))),
        float(np.max(np.abs(shifted))),
        float(np.max(np.abs(values))) / abs(c_p),
    )
    _require_admissible(top, shifted, scale)

    epsilon, winding, residual = sum_rule_check(model, roots)
    if residual > 1e-6:
        raise NoEpsilonFits(
            f"root sum misses the half-period lattice by {residual:.3e}"
        )
    sol = QFunctionHom(model, tuple(roots), epsilon, winding,
                       sum_rule_residual=residual)
    eps_w, wron = verify_wronskian_identity(model, sol)
    if eps_w != epsilon:
        raise NoEpsilonFits(
            "root-sum sign and Wronskian sign disagree: "
            f"{epsilon} vs {eps_w}"
        )
    return replace(sol, wronskian_residual=wron)


def _require_admissible(top, shifted, scale) -> None:
    """Reject Q vanishing both at a top rung and at its translate.

    Such a pair would let an entire family of functions through the
    closure system without pinning the state at that site.
    """
    floor = 1e-10 * max(scale, 1e-300)
    for j in range(len(top)):
        if abs(top[j]) <= floor and abs(shifted[j]) <= floor:
            raise NonAdmissible(
                f"site {j + 1}: Q vanishes at the top rung and at its "
                "half-period translate"
            )


def sum_rule_check(model: ChainModel, roots):
    """Locate the root sum on the half-period lattice.

    Returns (epsilon, winding, residual) where the sum of roots minus the
    sum of all upper rungs plus half the total degree times eta must equal
    i*pi*(winding doubled, plus one when epsilon is -1); residual is the
    distance to the nearest lattice point.
    """
    upper = sum(np.concatenate([rung.rungs[:-1] for rung in model.rung_table]))
    s_val = complex(np.sum(np.asarray(roots, dtype=complex)))
    s_val = s_val - upper + 0.5 * model.n_s * model.eta
    r = int(round(s_val.imag / np.pi))
    residual = abs(s_val - 1j * np.pi * r)
    epsilon = 1 if r % 2 == 0 else -1
    winding = (r - (0 if epsilon == 1 else 1)) // 2
    return epsilon, winding, float(residual)


# ----------------------------------------------------------------------
# Wronskian routes

def wronskian(model: ChainModel, q: QFunctionHom, lam):
    """Definition route: Q(lam+i*pi)Q(lam-eta) + Q(lam)Q(lam+i*pi-eta)."""
    eta = model.eta
    ip = 1j * np.pi
    lam = np.asarray(lam, dtype=complex)
    up, down, here, both = q.value(
        np.array([lam + ip, lam - eta, lam, lam + ip - eta])
    )
    return up * down + here * both


def wronskian_closed_form(model: ChainModel, q: QFunctionHom, lam):
    """Product route obtained by pairing the half-angle factors."""
    lam = np.asarray(lam, dtype=complex)
    s = np.sinh(0.5 * model.eta)
    big = np.sinh(lam[..., None] - np.asarray(q.roots) - 0.5 * model.eta)
    out = (0.5j) ** model.n_s * (
        (big - s).prod(axis=-1) + (big + s).prod(axis=-1)
    )
    return out if lam.shape else complex(out)


def _inner_rungs(model: ChainModel) -> np.ndarray:
    return np.concatenate([rung.rungs[1:-1] for rung in model.rung_table])


def w_eps(model: ChainModel, epsilon: int, lam):
    """Target of the Wronskian: 2*eps*(i/2)^deg times the inner-rung product.

    Accepts any shape.
    """
    return 2.0 * epsilon * (0.5j) ** model.n_s * sinh_product(
        lam, _inner_rungs(model)
    )


def verify_wronskian_identity(model: ChainModel, q: QFunctionHom):
    """Fit the Wronskian against d times the signed inner-rung product.

    Tries both signs on the verification grid and returns (epsilon,
    residual) for the better one; raises NoEpsilonFits when neither sign
    brings the relative defect under 1e-6.
    """
    pts = GRID_POINTS
    w_vals = wronskian(model, q, pts)
    target = d_of(model, pts) * w_eps(model, 1, pts)
    best_eps = 0
    best_res = np.inf
    for eps in (1, -1):
        rhs = eps * target
        scale = max(float(np.max(np.abs(w_vals))), float(np.max(np.abs(rhs))))
        if scale == 0.0:
            continue
        res = float(np.max(np.abs(w_vals - rhs))) / scale
        if res < best_res:
            best_res = res
            best_eps = eps
    if best_eps == 0 or best_res > 1e-6:
        raise NoEpsilonFits(
            f"Wronskian matches neither sign: best defect {best_res:.3e}"
        )
    return best_eps, best_res


# ----------------------------------------------------------------------
# consequences of a solved Q

def hom_grid_residual(model: ChainModel, eigfun, q: QFunctionHom) -> float:
    """Worst relative defect of the two-term equation on the grid.

    All terms are evaluated pointwise from products over roots and sites,
    independently of the coefficient arithmetic used by the solver, each in
    one call over the whole grid.  Points where every term vanishes count
    as 0.
    """
    lam = GRID_POINTS
    here, down, up = q.value(
        np.array([lam, lam - model.eta, lam + model.eta])
    )
    lhs = eigfun(lam) * here
    term_a = -a_of(model, lam) * down
    term_d = d_of(model, lam) * up
    return float(np.max(_relative_defect(
        lhs - term_a - term_d, [lhs, term_a, term_d]
    )))


def _t_numerator_terms(model: ChainModel, q: QFunctionHom, lam):
    eta = model.eta
    ip = 1j * np.pi
    lam = np.asarray(lam, dtype=complex)
    a, b, c, d = q.value(
        np.array([lam + eta, lam + ip - eta, lam + eta + ip, lam - eta])
    )
    return a * b, c * d


# Offsets tried, in order, when a base point sits on an inner rung.
_SAMPLE_OFFSETS = (0.13 + 0.09j, -0.17 + 0.11j, 0.21 - 0.15j, 0.29 + 0.23j,
                   -0.31 - 0.19j, 0.37 + 0.05j)


def t_from_q_pair(model: ChainModel, q: QFunctionHom):
    """Rebuild the eigenvalue from Q and its half-period translate.

    The quotient of the cross combination by the signed inner-rung product
    is an entire function exactly when Q belongs to the spectrum; its
    values at the base points define the eigenvalue function.  Base points
    sitting on an inner rung (integer-spin sites) are recovered instead by
    sampling the quotient at an offset copy of the base points and solving
    the interpolation system.  Returns (eigenvalue function, report) where
    the report holds the relative numerator size at every inner rung;
    raises NotEntire when any entry exceeds 1e-8.
    """
    inner = _inner_rungs(model)
    xi = np.asarray(model.xi, dtype=complex)

    def clearance(pts):
        """Smallest distance modulo i*pi from pts to the inner rungs."""
        gap = distance_to_ipi_lattice(pts[:, None] - inner)
        return float(np.min(gap, initial=np.inf))

    offset = 0.0
    if clearance(xi) <= 1e-3:
        offset = next(
            (c for c in _SAMPLE_OFFSETS if clearance(xi + c) > 5e-2), None
        )
    samples = xi + (offset or 0.0)
    # One evaluation over the grid, the inner rungs and the sample points.
    term_down, term_up = _t_numerator_terms(
        model, q, np.concatenate([GRID_POINTS, inner, samples])
    )
    cut = GRID_POINTS.size
    numerator = term_down[cut:] - term_up[cut:]
    # Normalize against the products being subtracted, not against their
    # difference: the zero transfer eigenvalue has an identically vanishing
    # cross combination, and dividing roundoff by roundoff would reject it.
    num_scale = max(
        float(np.max(np.abs(term_down[:cut]))),
        float(np.max(np.abs(term_up[:cut]))),
    )
    if num_scale == 0.0:
        raise NotEntire("Q vanishes on the whole sampling grid")
    report = np.abs(numerator[: inner.size]) / num_scale
    if report.size and float(np.max(report)) > 1e-8:
        raise NotEntire(
            "cross combination does not vanish at an inner rung: "
            f"worst relative size {float(np.max(report)):.3e}"
        )
    if offset is None:
        raise SovChainError("no offset clears the inner rungs")
    values = numerator[inner.size :] / w_eps(model, q.epsilon, samples)
    if offset:
        # Convert the offset samples back to base values through the
        # interpolation kernel.
        values = np.linalg.solve(cardinals(xi, samples), values)
    return EigenvalueFunction(model, values), report


def _rung_values(model: ChainModel, q: QFunctionHom):
    """Per site: Q on the rungs, and the alternating-sign copy of Q shifted
    by half a period, from one value call."""
    per_site = on_rungs(
        model, lambda lam: q.value(np.array([lam, lam + 1j * np.pi]))
    )
    return [(plain, (-1.0) ** np.arange(plain.size) * shifted)
            for plain, shifted in per_site]


def q_vector_proportionality(model: ChainModel, q: QFunctionHom):
    """Per-site angle between the rung vector of Q and of its translate.

    For each site, collect Q over the full rung ladder and the alternating
    sign copy of Q shifted by half a period; on the spectrum both span the
    same complex line.  Returns (angles, both_zero) with one entry per
    site; a site where exactly one vector vanishes reports pi/2.
    """
    pairs = _rung_values(model, q)
    scale = max(float(np.max(np.abs(np.concatenate(p)))) for p in pairs)
    angles = np.zeros(model.n_sites)
    both_zero = np.zeros(model.n_sites, dtype=bool)
    for n, (v, w) in enumerate(pairs):
        nv = float(np.linalg.norm(v))
        nw = float(np.linalg.norm(w))
        tiny = 1e-12 * max(scale, 1e-300)
        if nv <= tiny and nw <= tiny:
            both_zero[n] = True
            angles[n] = 0.0
            continue
        if nv <= tiny or nw <= tiny:
            angles[n] = 0.5 * np.pi
            continue
        coeff = np.vdot(v, w) / (nv * nv)
        perp = w - coeff * v
        angles[n] = float(np.arcsin(
            min(1.0, float(np.linalg.norm(perp)) / nw)
        ))
    return angles, both_zero


def bethe_residuals_hom(model: ChainModel, q: QFunctionHom) -> np.ndarray:
    """Relative defect of the root system at every root of Q.

    Entirety of the rebuilt eigenvalue demands that a(root) times Q one
    step down equals d(root) times Q one step up at every root, with the
    half-angle factors at the root itself included (they carry a relative
    sign).  Roots closer than 1e-8 modulo 2*i*pi raise
    CoincidentRoots since a double root breaks the simple-pole argument.
    """
    roots = np.asarray(q.roots, dtype=complex)
    gaps = distance_to_ipi_lattice(roots[:, None] - roots, 2.0 * np.pi)
    close = np.argwhere(np.triu(gaps < 1e-8, k=1))
    if close.size:
        i, j = close[0]
        raise CoincidentRoots(
            f"roots {i} and {j} collide modulo the period: "
            f"gap {gaps[i, j]:.3e}"
        )
    down, up = q.value(np.array([roots - model.eta, roots + model.eta]))
    term_a = a_of(model, roots) * down
    term_d = d_of(model, roots) * up
    return _relative_defect(term_d - term_a, [term_a, term_d])


def eigenstates_from_q_hom(model: ChainModel, q: QFunctionHom, basis: SOVBasis):
    """Assemble separated eigenstates directly from Q values on the rungs.

    Both sign choices for the half-period translate are tried: the plain Q
    and Q shifted by i*pi (with alternating rung signs) each provide a
    full set of ladder coefficients, and every nonzero outcome must be
    proportional to the same eigenstate pair.  Returns a list of
    (choice, left covector, right vector); raises BothChoicesZero when
    neither choice yields a state.
    """
    pairs = _rung_values(model, q)
    out = []
    for choice, side in ((1, 0), (-1, 1)):
        try:
            left, right = eigenstates(model, basis,
                                      [pair[side] for pair in pairs])
        except ZeroState:
            continue
        out.append((choice, left, right))
    if not out:
        raise BothChoicesZero(
            "neither half-period choice produced a nonzero state"
        )
    return out
