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
rungs gives a square linear system, and the solved values interpolate to the
product function after a monic rescale.

The layer is evaluated on arrays.  Each solve reads the ladder null vectors
the eigenvalue function owns (``eigfun.ladder``, computed once per
eigenvalue and shared with the other pipelines) and builds its closure rows
from one cardinal kernel (``trigpoly.cardinals``), shared with the
half-period solver; each check evaluates Q, a, d, t and the correction term
in one call per point set (the verification grid, the roots, the base
points, a site's rungs) through ``trigpoly.sinh_product``; the pole check
at the base points is one array comparison against every root.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalAlpha, NonAdmissible, PoleAtXi
from .qalgebra import ChainModel, a_of, d_of, distance_to_ipi_lattice
from .sovbasis import SOVBasis
from .spectrum import (
    EigenvalueFunction,
    companion_rescale,
    left_eigenstate,
    right_eigenstate,
)
from .trigpoly import TrigPoly, cardinals, sinh_product

__all__ = [
    "QFunctionInhom",
    "f_inhom",
    "f_inhom_poly",
    "solve_q_inhom",
    "solve_q_inhom_with_retries",
    "draw_zeta0",
    "det_m_polynomial",
    "det_m_zero_closed_form",
    "leading_det_coefficient",
    "inhom_grid_residual",
    "t_from_q_inhom",
    "bethe_residuals_inhom",
    "q_coordinates_inhom",
    "eigenstates_from_q_inhom",
    "z_combination",
    "degree_drop_residual",
    "homogeneous_rank_check",
    "root_multiset_distance",
    "GRID_POINTS",
]

# Verification grid shared by both functional equations, drawn once.
_GRID_RNG = np.random.default_rng(17)
GRID_POINTS = (
    _GRID_RNG.uniform(-1.5, 1.5, 40) + 1j * _GRID_RNG.uniform(-1.2, 1.2, 40)
)
GRID_POINTS.flags.writeable = False
del _GRID_RNG


@dataclass(frozen=True)
class QFunctionInhom:
    """Monic product function sinh(lam - root_1)...sinh(lam - root_Ns)."""

    model: ChainModel
    alpha: complex
    zeta0: complex
    roots: tuple
    lambda_bar: complex
    poly: TrigPoly
    top_values: tuple

    def value(self, lam):
        """Evaluate the product over the stored roots directly; any shape."""
        return sinh_product(lam, self.roots)


# ----------------------------------------------------------------------
# the correction term


def _correction_roots(model: ChainModel, x: complex) -> np.ndarray:
    """The extra root pinned by x, followed by every rung, site-major."""
    ladders = [rung.rungs for rung in model.rung_table]
    lower = sum(np.concatenate([r[1:] for r in ladders]))
    extra = x - lower - (model.n_s + 1) * model.eta / 2.0
    return np.concatenate([[extra]] + ladders)


def _correction_scale(model: ChainModel) -> complex:
    return 2.0 * np.exp(-(model.n_s + 1) * model.eta / 2.0)


def f_inhom(model: ChainModel, x: complex, lam):
    """Pointwise value of the correction term with shift parameter x.

    The product factor kills the value at every rung, and the extra root is
    placed so that the extreme exponential coefficients of the functional
    equation cancel.  Accepts any shape.
    """
    return _correction_scale(model) * sinh_product(
        lam, _correction_roots(model, x)
    )


def f_inhom_poly(model: ChainModel, x: complex) -> TrigPoly:
    """The correction term as an element of the graded family."""
    return TrigPoly.from_roots(
        list(_correction_roots(model, x)), prefactor=_correction_scale(model)
    )


# ----------------------------------------------------------------------
# the discretized linear system


def _dressed_null_vectors(model: ChainModel, eigfun):
    """Ladder null vectors divided by the running exponential prefactors."""
    qs, _, _ = eigfun.ladder
    xs = []
    for rung, q in zip(model.rung_table, qs):
        running = np.cumprod(np.exp(rung.rungs[:-1]))
        xs.append(np.concatenate([q[:1], q[1:] / running]))
    return xs


def _closure_nodes(model: ChainModel, zeta0: complex):
    """Interpolation nodes (zeta0, then the upper rungs of every site,
    site-major) and the bottom rung of each site."""
    ladders = [rung.rungs for rung in model.rung_table]
    nodes = np.concatenate([[zeta0]] + [r[:-1] for r in ladders])
    return nodes, np.array([r[-1] for r in ladders])


def _closure(model: ChainModel, vectors, zeta0: complex, beta: complex = 1.0,
             angle_scale: float = 1.0):
    """Bottom-rung closure rows for per-site rung vectors.

    Unknown 0 is the value of Q at zeta0 and unknown j the value at site
    j's top rung; the value at rung h of site j is beta**h vectors[j][h]
    times unknown j.  Returns (rows, nodes, spread): spread maps the
    unknowns to the values at the nodes, and row i demands that
    interpolation through the nodes reproduce the ladder value at site i's
    bottom rung, so rows is n_sites x (n_sites + 1).
    """
    nodes, bottoms = _closure_nodes(model, zeta0)
    n_sites = model.n_sites
    spread = np.zeros((nodes.size, n_sites + 1), dtype=complex)
    spread[0, 0] = 1.0
    bottom = np.zeros((n_sites, n_sites + 1), dtype=complex)
    k = 1
    for j, (two_s, vec) in enumerate(zip(model.two_s, vectors), start=1):
        spread[k : k + two_s, j] = beta ** np.arange(two_s) * vec[:-1]
        bottom[j - 1, j] = beta**two_s * vec[-1]
        k += two_s
    rows = bottom - cardinals(nodes, bottoms, angle_scale) @ spread
    return rows, nodes, spread


def _draw_node(model: ChainModel, rng, period: float, error) -> complex:
    """Random auxiliary node kept away from every rung modulo i*period;
    raises ``error`` after 1000 draws."""
    rungs = np.concatenate([s.rungs for s in model.rung_table])
    for _ in range(1000):
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        if np.all(distance_to_ipi_lattice(z - rungs, period) > 1e-2):
            return z
    raise error(f"could not place the auxiliary node modulo {period:.4g}i")


def draw_zeta0(model: ChainModel, rng) -> complex:
    """Random auxiliary node kept away from every rung modulo i*pi."""
    return _draw_node(model, rng, np.pi, ExceptionalAlpha)


def det_m_polynomial(model: ChainModel, eigfun, zeta0: complex) -> np.ndarray:
    """Ascending coefficients of the system determinant in beta.

    The determinant is a polynomial of degree equal to the number of roots;
    it is sampled on the unit circle and fitted exactly.
    """
    n_s = model.n_s
    betas = np.exp(2j * np.pi * np.arange(n_s + 1) / (n_s + 1))
    xs = _dressed_null_vectors(model, eigfun)
    dets = np.array(
        [np.linalg.det(_closure(model, xs, zeta0, b)[0][:, 1:]) for b in betas]
    )
    vand = betas[:, None] ** np.arange(n_s + 1)[None, :]
    return np.linalg.solve(vand, dets)


def leading_det_coefficient(model: ChainModel, eigfun) -> complex:
    """Product of the dressed null-vector components at the bottom rungs."""
    xs = _dressed_null_vectors(model, eigfun)
    return complex(np.prod([x[-1] for x in xs]))


def det_m_zero_closed_form(model: ChainModel, zeta0: complex) -> complex:
    """The system determinant at beta = 0, as an explicit product.

    At beta = 0 only the top-rung cardinal survives in each entry, which
    turns the matrix into a scaled Cauchy matrix in the bottom and top rung
    positions; the determinant then factorizes completely.
    """
    nodes, bottoms = _closure_nodes(model, zeta0)
    n_sites = model.n_sites
    top_slots = 1 + np.cumsum((0,) + model.two_s[:-1])
    tops = nodes[top_slots]
    acc = (-1.0 + 0.0j) ** n_sites
    for a in range(n_sites):
        for b in range(a + 1, n_sites):
            acc *= np.sinh(bottoms[a] - bottoms[b]) * np.sinh(
                tops[b] - tops[a]
            )
        for b in range(n_sites):
            acc /= np.sinh(bottoms[a] - tops[b])
    for n in range(n_sites):
        for k, node in enumerate(nodes):
            acc *= np.sinh(bottoms[n] - node)
            if k != top_slots[n]:
                acc /= np.sinh(tops[n] - node)
    return complex(acc)


# ----------------------------------------------------------------------
# solving


def _require_admissible(top_values) -> None:
    top_values = np.asarray(top_values)
    if np.min(np.abs(top_values)) < 1e-10 * max(
        1.0, float(np.max(np.abs(top_values)))
    ):
        raise NonAdmissible("a top-rung value of Q vanished")


def solve_q_inhom(
    model: ChainModel, eigfun, alpha: complex, zeta0: complex
) -> QFunctionInhom:
    """Solve the closure system at one deformation value and extract roots."""
    beta = np.exp(complex(alpha))
    rows, nodes, spread = _closure(
        model, _dressed_null_vectors(model, eigfun), zeta0, beta
    )
    mat, rhs = rows[:, 1:], -rows[:, 0]
    sing = np.linalg.svd(mat, compute_uv=False)
    if sing[-1] <= 1e-10 * max(1.0, float(sing[0])):
        raise ExceptionalAlpha(
            f"closure system singular at exp(alpha) = {beta:.6g}"
        )
    y = np.linalg.solve(mat, rhs)
    _require_admissible(y)

    values = spread @ np.concatenate([[1.0], y])
    raw = TrigPoly.from_values(nodes, values, m=0)
    c_p, roots = raw.roots()
    poly = raw * (1.0 / c_p)
    return QFunctionInhom(
        model=model,
        alpha=complex(alpha),
        zeta0=complex(zeta0),
        roots=tuple(roots),
        lambda_bar=complex(np.sum(roots)),
        poly=poly,
        top_values=tuple(np.asarray(y) / c_p),
    )


def solve_q_inhom_with_retries(
    model: ChainModel,
    eigfun,
    zeta0: complex | None = None,
    alpha: complex = 0.0,
    seed: int = 0,
    max_retries: int = 3,
):
    """Solve with the default deformation, redrawing it when it lands on an
    exceptional value.  Returns (solution, number of retries used)."""
    rng = np.random.default_rng(seed)
    if zeta0 is None:
        zeta0 = draw_zeta0(model, rng)
    for attempt in range(max_retries + 1):
        try:
            return solve_q_inhom(model, eigfun, alpha, zeta0), attempt
        except ExceptionalAlpha:
            if attempt == max_retries:
                raise
            alpha = complex(
                rng.uniform(-np.log(2.0), np.log(2.0)),
                rng.uniform(0.0, 2.0 * np.pi),
            )
    raise AssertionError("unreachable")


# ----------------------------------------------------------------------
# verification


def _rhs_terms(model: ChainModel, sol: QFunctionInhom, lam):
    """The three right-hand terms of the functional equation at lam."""
    x = sol.alpha + sol.lambda_bar
    down, up = sol.value(np.array([lam - model.eta, lam + model.eta]))
    term_a = -np.exp(lam - sol.alpha) * a_of(model, lam) * down
    term_d = np.exp(-lam - model.eta + sol.alpha) * d_of(model, lam) * up
    return term_a, term_d, f_inhom(model, x, lam)


def inhom_grid_residual(
    model: ChainModel, eigfun, sol: QFunctionInhom
) -> float:
    """Worst relative defect of the functional equation on the grid.

    All four terms are evaluated pointwise from first principles (products
    over roots and rungs), independently of the coefficient arithmetic used
    by the solver, each in one call over the whole grid.
    """
    lam = GRID_POINTS
    lhs = eigfun(lam) * sol.value(lam)
    term_a, term_d, term_f = _rhs_terms(model, sol, lam)
    scale = np.max(np.abs([lhs, term_a, term_d, term_f]), axis=0)
    return float(np.max(np.abs(lhs - term_a - term_d - term_f) / scale))


def t_from_q_inhom(model: ChainModel, sol: QFunctionInhom):
    """Reconstruct the eigenvalue function from Q alone.

    Evaluates the functional equation at the base points and divides by the
    value of Q there; also returns the per-root residuals that certify the
    reconstructed function is pole-free.
    """
    xi = np.asarray(model.xi)
    roots = np.asarray(sol.roots, dtype=complex)
    hits = np.argwhere(distance_to_ipi_lattice(roots - xi[:, None]) < 1e-8)
    if hits.size:
        n, j = hits[0]
        raise PoleAtXi(
            f"root {sol.roots[j]:.6g} sits on base point {n + 1} modulo the "
            "period"
        )
    base = sum(_rhs_terms(model, sol, xi)) / sol.value(xi)
    return EigenvalueFunction(model, tuple(base)), bethe_residuals_inhom(
        model, sol
    )


def bethe_residuals_inhom(model: ChainModel, sol: QFunctionInhom) -> np.ndarray:
    """Pole-cancellation defect at each root, scaled by the largest term.

    At a root of Q the left side of the functional equation vanishes, so the
    three right-hand terms must cancel; their sum is the pole numerator.
    """
    terms = _rhs_terms(model, sol, np.asarray(sol.roots, dtype=complex))
    scale = np.maximum(np.max(np.abs(terms), axis=0), 1e-300)
    return np.abs(sum(terms)) / scale


# ----------------------------------------------------------------------
# eigenstate coordinates


def q_coordinates_inhom(model: ChainModel, sol: QFunctionInhom):
    """Values of the Gaussian-dressed Q at every rung, one array per site.

    The Gaussian factor exp(-lam(lam + eta - 2 alpha)/(2 eta)) converts the
    deformation-dependent rung ratios of Q into the bare ladder null-vector
    components.  It is applied pointwise only; it is not periodic and has no
    place inside the trigonometric-polynomial type.
    """
    coords = []
    for rung in model.rung_table:
        lam = rung.rungs
        gauss = np.exp(
            -lam * (lam + model.eta - 2.0 * sol.alpha) / (2.0 * model.eta)
        )
        coords.append(gauss * sol.value(lam))
    return coords


def eigenstates_from_q_inhom(
    model: ChainModel, sol: QFunctionInhom, basis: SOVBasis
):
    """Left and right eigenstates assembled from the dressed Q values."""
    coords = q_coordinates_inhom(model, sol)
    return (
        left_eigenstate(model, basis, coords),
        right_eigenstate(model, basis, companion_rescale(model, coords)),
    )


# ----------------------------------------------------------------------
# structural checks on the functional equation


def z_combination(model: ChainModel, sol: QFunctionInhom) -> TrigPoly:
    """Right-hand side of the functional equation as one graded element."""
    eta = model.eta
    alpha = sol.alpha
    # a and d vanish at the bottom and at the top rungs respectively.
    a_poly = TrigPoly.from_roots([r.rungs[-1] for r in model.rung_table])
    d_poly = TrigPoly.from_roots([r.rungs[0] for r in model.rung_table])
    term_a = (
        TrigPoly.exponential(1, coefficient=-np.exp(-alpha))
        * a_poly
        * sol.poly.shift(-eta)
    )
    term_d = (
        TrigPoly.exponential(-1, coefficient=np.exp(-eta + alpha))
        * d_poly
        * sol.poly.shift(eta)
    )
    term_f = f_inhom_poly(model, alpha + sol.lambda_bar)
    return term_a + term_d + term_f


def degree_drop_residual(model: ChainModel, sol: QFunctionInhom) -> float:
    """Relative size of the extreme exponential coefficients of the combined
    right-hand side, which must cancel for the equation to close."""
    z = z_combination(model, sol)
    expected_m1 = model.n_sites + model.n_s + 1
    if z.m1 != expected_m1 or z.m2 != expected_m1:
        raise AssertionError(
            f"combination landed in an unexpected class ({z.m1}, {z.m2})"
        )
    scale = z.max_abs_coeff()
    return max(abs(z.coeffs[0]), abs(z.coeffs[-1])) / scale


def homogeneous_rank_check(
    model: ChainModel, eigfun, alpha: complex, zeta0: complex
) -> float:
    """Smallest-to-largest singular value ratio of the homogeneous closure.

    Dropping the correction term forces the extreme coefficients of Q itself
    to vanish on top of the bottom-rung closure rows.  Stacking those
    functionals over the closure system gives a tall matrix whose full
    column rank certifies that the correction-free equation has only the
    zero solution.
    """
    xs = _dressed_null_vectors(model, eigfun)
    rows, nodes, spread = _closure(model, xs, zeta0, np.exp(complex(alpha)))
    n_sites = model.n_sites
    stacked = np.zeros((n_sites + 2, n_sites + 1), dtype=complex)
    stacked[:n_sites] = rows
    for col in range(n_sites + 1):
        coeffs = TrigPoly.from_values(nodes, spread[:, col], m=0).coeffs
        stacked[n_sites, col] = coeffs[0]
        stacked[n_sites + 1, col] = coeffs[-1]
    sing = np.linalg.svd(stacked, compute_uv=False)
    return float(sing[-1] / sing[0])


# ----------------------------------------------------------------------


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
