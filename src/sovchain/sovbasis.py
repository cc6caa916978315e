"""Construction of the separated basis and its closed-form operator actions.

The basis diagonalizes the lower-right monodromy block D: each state is
labeled by a tuple h = (h_1..h_N) with h_n in 0..2s_n picking one rung
xi_n^{(h_n)} of every site ladder.  Left covectors are generated from the
reference covector by C-operators, right vectors by B-operators; both pair
bilinearly (no complex conjugation anywhere).

The reference normalization constant uses the top rungs xi_n^{(0)}: the
pairing of the two reference states must equal the h = 0 case of the general
overlap formula, which fixes it to prod_{i<j} sinh(xi_j^{(0)} - xi_i^{(0)})
up to the (immaterial) branch of the square root.  Rungs, and a and d on
them, are read from the model's rung table, each state's by position
(``_rung_positions``).  Every per-state array lists the states in the one
enumeration of the rung tuples, ``qalgebra._h_grid`` (site 1 the slowest
index).  The closed forms are checked on the whole basis at once, from one
(dim x N) array of rung points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConditioningFailure
from .qalgebra import ChainModel, _h_grid, a_of, d_of, monodromy
from .trigpoly import cardinals, sinh_product

__all__ = [
    "SOVBasis",
    "rung_points",
    "weights",
    "build_basis",
    "identity_resolution",
    "overlap_residual",
    "action_residuals",
]


def _rung_positions(model: ChainModel) -> np.ndarray:
    """Row n: the position in the rung table of site n's rung h_n, for
    every state in ``_h_grid`` order (N x dim)."""
    return model.rung_table.position(np.arange(model.n_sites)[:, None],
                                     _h_grid(model.two_s))


def rung_points(model: ChainModel) -> np.ndarray:
    """Row i: the rung xi_n^{(h_n)} of every site for the i-th state of
    ``_h_grid`` (dim x N), read from the rung table."""
    return model.rung_table.rungs[_rung_positions(model)].T.copy()


def _pair_product(points: np.ndarray, factor=lambda z: z) -> np.ndarray:
    """prod_{i<j} factor(sinh(p_j - p_i)) over the trailing site axis, one
    product per row."""
    i, j = np.triu_indices(points.shape[-1], 1)
    return factor(np.sinh(points[..., j] - points[..., i])).prod(axis=-1)


def weights(model: ChainModel) -> np.ndarray:
    """The completeness weight prod_{i<j} sinh(xi_j^{(h_j)} - xi_i^{(h_i)})
    of every state, in ``_h_grid`` order."""
    return _pair_product(rung_points(model))


@dataclass(frozen=True)
class SOVBasis:
    """Both halves of the separated basis.

    Row i of ``right_vectors`` (``left_covectors``) is the state labeled by
    column i of ``_h_grid`` and entry i of ``right_norms``
    (``left_norms``) its norm; ``weights[i]`` is that tuple's completeness
    weight.
    """

    model: ChainModel
    normalization: complex
    weights: np.ndarray
    right_vectors: np.ndarray
    left_covectors: np.ndarray
    right_norms: np.ndarray
    left_norms: np.ndarray


def build_basis(model: ChainModel) -> SOVBasis:
    """Generate both halves of the basis in one pass over the sites.

    Last site first, the block of states of the later sites is the h_n = 0
    block of site n, and upper rung k maps block k to block k + 1: right
    vectors by -B(xi_n^{(k)}) / a(xi_n^{(k)}), left covectors by
    C(xi_n^{(k)}) / d(xi_n^{(k + 1)}) acting on the right.  Stacking the
    blocks by k gives ``_h_grid`` order (last site fastest).  B-operators
    at distinct arguments commute, so the site order does not matter.
    Each upper rung costs one build of B and C alone, dropped after its
    step.
    """
    table = model.rung_table
    tops = table.rungs[table.top]
    norm_const = complex(_pair_product(tops, lambda z: np.sqrt(z + 0.0j)))
    right = np.zeros((1, model.hilbert_dim), dtype=complex)
    right[0, 0] = 1.0 / norm_const
    left = right
    for n in reversed(range(model.n_sites)):
        ladder = np.flatnonzero(table.site == n)
        rights, lefts = [right], [left]
        for upper, lower in zip(ladder[:-1], ladder[1:]):
            b, c = monodromy(model, table.rungs[upper], "BC")
            rights.append(rights[-1] @ b.T / -table.a[upper])
            lefts.append(lefts[-1] @ c / table.d[lower])
            del b, c
        right, left = np.concatenate(rights), np.concatenate(lefts)
    return SOVBasis(model, norm_const, weights(model), right, left,
                    _check_norms(model, right), _check_norms(model, left))


def _check_norms(model: ChainModel, states: np.ndarray) -> np.ndarray:
    """Norms of the states, in ``_h_grid`` order; raise if any has
    collapsed, naming the first such state by its rung tuple."""
    norms = np.linalg.norm(states, axis=1)
    biggest = norms.max()
    collapsed = np.flatnonzero(norms < 1e-12 * biggest)
    if collapsed.size:
        i = collapsed[0]
        h = tuple(_h_grid(model.two_s)[:, i].tolist())
        raise ConditioningFailure(f"basis state {h} collapsed to relative "
                                  f"norm {norms[i] / biggest:.2e}")
    return norms


# ----------------------------------------------------------------------
# overlaps and completeness


def identity_resolution(basis: SOVBasis) -> float:
    """Relative defect of the weighted completeness sum against identity."""
    dim = basis.model.hilbert_dim
    acc = (basis.right_vectors.T * basis.weights) @ basis.left_covectors
    return float(np.linalg.norm(acc - np.eye(dim)) / np.sqrt(dim))


def overlap_residual(basis: SOVBasis) -> float:
    """Largest deviation of the bilinear pairing of every left covector
    with every right vector from its closed form, diagonal in h with
    inverse-weight value, relative to the largest |1/w|."""
    gram = basis.left_covectors @ basis.right_vectors.T
    expected = np.diag(1.0 / basis.weights)
    return float(np.max(np.abs(gram - expected)) / np.max(np.abs(expected)))


# ----------------------------------------------------------------------
# closed-form action residuals


def _scaled(defect: np.ndarray, op: np.ndarray, norms: np.ndarray):
    """Row norms of defect relative to ||op|| times each state's norm."""
    return (np.linalg.norm(defect, axis=1)
            / np.maximum(np.linalg.norm(op) * norms, 1e-300))


def _neighbour_sum(model: ChainModel, states: np.ndarray, interp: np.ndarray,
                   step: int, edge: np.ndarray, pick) -> np.ndarray:
    """Row i: the sum over sites a of state i's ladder neighbour with h_a
    moved to h_a + step, weighted by interp[i, a] times edge at site a's
    rung pick(h_a, h_a + step); a move off the ladder adds nothing.  Along
    site a the neighbours are the same rows shifted by step * stride_a."""
    sizes = [v + 1 for v in model.two_s]
    strides = model.hilbert_dim // np.cumprod(sizes)
    total = np.zeros_like(states)
    for a, h in enumerate(_h_grid(model.two_s)):
        moved = h + step
        rows = np.flatnonzero((moved >= 0) & (moved < sizes[a]))
        at = model.rung_table.position(a, pick(h, moved)[rows])
        coef = interp[rows, a] * edge[at]
        total[rows] += coef[:, None] * states[rows + step * strides[a]]
    return total


def action_residuals(basis: SOVBasis, lam: complex) -> dict:
    """Relative defects of the closed-form actions on every basis state.

    Keyed by (operator, side), entry i for row i of the basis:
    - ("D", side): D(lam) acts diagonally by prod_n sinh(lam - xi_n^{(h_n)});
    - ("C", side), ("B", side): interpolation sums over the ladder
      neighbours, weighted by h's cardinals at lam; C moves one h_n up a
      rung on right vectors (down on left covectors) with weight d at the
      lower rung of the move, B the reverse with -a at the upper rung;
    - ("A", "right"): the central element A(lam) D(lam - eta) -
      B(lam) C(lam - eta) = a(lam) d(lam - eta) on right vectors.

    One monodromy at lam and one at lam - eta serve every check.
    """
    model = basis.model
    a1, b1, c1, d1 = monodromy(model, lam)
    _, _, c0, d0 = monodromy(model, lam - model.eta)
    points = rung_points(model)
    interp = cardinals(points, lam)
    d_column = sinh_product(lam, points)  # one row per state
    table = model.rung_table
    sides = (
        ("right", basis.right_vectors, basis.right_norms, 1, np.transpose),
        ("left", basis.left_covectors, basis.left_norms, -1, lambda op: op),
    )
    out = {}
    for side, states, norms, step, act in sides:
        closed_forms = {
            "D": (d1, d_column * states),
            "C": (c1, _neighbour_sum(model, states, interp, -step, table.d,
                                     np.maximum)),
            "B": (b1, _neighbour_sum(model, states, interp, step, -table.a,
                                     np.minimum)),
        }
        for key, (op, want) in closed_forms.items():
            out[key, side] = _scaled(states @ act(op) - want, op, norms)
    right = basis.right_vectors
    target = a_of(model, lam) * d_of(model, lam - model.eta)
    out["A", "right"] = _scaled(
        right @ d0.T @ a1.T - right @ c0.T @ b1.T - target * right,
        a1, basis.right_norms)
    return out
