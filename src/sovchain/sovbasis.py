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
them, are read from the model's rung table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningFailure
from .qalgebra import ChainModel, a_of, d_of, monodromy
from .trigpoly import cardinals, sinh_product

__all__ = [
    "SOVBasis",
    "all_h_tuples",
    "build_basis",
    "overlap",
    "expected_overlap",
    "weight",
    "identity_resolution",
    "d_eigenvalue",
    "d_action_residual",
    "c_action_residual",
    "b_action_residual",
    "a_action_residual",
]


def all_h_tuples(model: ChainModel):
    """All rung tuples in lexicographic order (last site fastest)."""
    return list(
        itertools.product(*(range(v + 1) for v in model.two_s))
    )


def _normalization(model: ChainModel) -> complex:
    acc = 1.0 + 0.0j
    tops = _rung_points(model, (0,) * model.n_sites)
    for i in range(model.n_sites):
        for j in range(i + 1, model.n_sites):
            acc *= np.sqrt(np.sinh(tops[j] - tops[i]) + 0.0j)
    return complex(acc)


@dataclass(frozen=True)
class SOVBasis:
    """Both halves of the separated basis.

    Row i of ``right_vectors`` (``left_covectors``) is the state labeled by
    the i-th tuple of all_h_tuples and entry i of ``right_norms``
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


def _row(model: ChainModel, h) -> int:
    """Position of rung tuple h in all_h_tuples."""
    return int(np.ravel_multi_index(tuple(h), [v + 1 for v in model.two_s]))


def _rung_points(model: ChainModel, h) -> list:
    """The rung xi_n^{(h_n)} of every site, read from the rung table."""
    return [rung.rungs[k] for rung, k in zip(model.rung_table, h)]


def build_basis(model: ChainModel) -> SOVBasis:
    """Generate both halves of the basis in one pass over the sites.

    Last site first, the block of states of the later sites is the h_n = 0
    block of site n, and upper rung k maps block k to block k + 1: right
    vectors by -B(xi_n^{(k)}) / a(xi_n^{(k)}), left covectors by
    C(xi_n^{(k)}) / d(xi_n^{(k + 1)}) acting on the right.  Stacking the
    blocks by k gives all_h_tuples order (last site fastest).  B-operators
    at distinct arguments commute, so the site order does not matter.
    Each upper rung costs one monodromy build, dropped after its step.
    """
    norm_const = _normalization(model)
    right = np.zeros((1, model.hilbert_dim), dtype=complex)
    right[0, 0] = 1.0 / norm_const
    left = right
    for rung in reversed(model.rung_table):
        rights, lefts = [right], [left]
        for k, lam in enumerate(rung.rungs[:-1]):
            _, b, c, _ = monodromy(model, lam)
            rights.append(rights[-1] @ b.T / -rung.a[k])
            lefts.append(lefts[-1] @ c / rung.d[k + 1])
            del b, c
        right, left = np.concatenate(rights), np.concatenate(lefts)
    hs = all_h_tuples(model)
    right_norms = _check_norms(hs, right)
    left_norms = _check_norms(hs, left)
    weights = np.array([weight(model, h) for h in hs])
    return SOVBasis(model, norm_const, weights, right, left,
                    right_norms, left_norms)


def _check_norms(hs: list, states: np.ndarray) -> np.ndarray:
    """Norms of the states (row i labeled by hs[i]); raise if any has
    collapsed."""
    norms = np.linalg.norm(states, axis=1)
    biggest = norms.max()
    for h, n in zip(hs, norms):
        if n < 1e-12 * biggest:
            raise ConditioningFailure(
                f"basis state {h} collapsed to relative norm {n / biggest:.2e}"
            )
    return norms


# ----------------------------------------------------------------------
# overlaps and completeness


def weight(model: ChainModel, h) -> complex:
    """The completeness weight prod_{i<j} sinh(xi_j^{(h_j)} - xi_i^{(h_i)})."""
    pts = _rung_points(model, h)
    acc = 1.0 + 0.0j
    for i in range(model.n_sites):
        for j in range(i + 1, model.n_sites):
            acc *= np.sinh(pts[j] - pts[i])
    return complex(acc)


def expected_overlap(model: ChainModel, h, k) -> complex:
    """The closed-form pairing: diagonal in h with inverse-weight value."""
    if tuple(h) != tuple(k):
        return 0.0
    return 1.0 / weight(model, h)


def overlap(basis: SOVBasis, h, k) -> complex:
    """Bilinear pairing of left covector h with right vector k."""
    model = basis.model
    return complex(
        np.dot(
            basis.left_covectors[_row(model, h)],
            basis.right_vectors[_row(model, k)],
        )
    )


def identity_resolution(basis: SOVBasis) -> float:
    """Relative defect of the weighted completeness sum against identity."""
    dim = basis.model.hilbert_dim
    acc = (basis.right_vectors.T * basis.weights) @ basis.left_covectors
    return float(
        np.linalg.norm(acc - np.eye(dim)) / np.sqrt(dim)
    )


# ----------------------------------------------------------------------
# closed-form action residuals


def d_eigenvalue(model: ChainModel, h, lam) -> complex:
    """prod_n sinh(lam - xi_n^{(h_n)}); accepts arrays."""
    return sinh_product(lam, _rung_points(model, h))


def _relative(defect: np.ndarray, op: np.ndarray, state: np.ndarray) -> float:
    scale = np.linalg.norm(op) * np.linalg.norm(state)
    return float(np.linalg.norm(defect) / max(scale, 1e-300))


def d_action_residual(basis: SOVBasis, h, lam: complex, side: str = "right") -> float:
    """Defect of the diagonal action of D on one basis state."""
    model = basis.model
    _, _, _, d = monodromy(model, lam)
    val = d_eigenvalue(model, h, lam)
    if side == "right":
        v = basis.right_vectors[_row(model, h)]
        return _relative(d @ v - val * v, d, v)
    w = basis.left_covectors[_row(model, h)]
    return _relative(w @ d - val * w, d, w)


def _neighbour_residual(basis: SOVBasis, h, lam: complex, op, side: str,
                        step: int, edge) -> float:
    """Defect of op on state h against a sum over h's ladder neighbours:
    site a contributes the state with h_a moved to k = h_a + step (right
    vectors; h_a - step on left covectors), if that rung exists, weighted
    by edge(site a's SiteRungs, h_a, k) times h's cardinal at site a."""
    model = basis.model
    h = tuple(h)
    states = basis.right_vectors if side == "right" else basis.left_covectors
    state = states[_row(model, h)]
    step = step if side == "right" else -step
    interp = cardinals(_rung_points(model, h), lam)
    total = np.zeros_like(state)
    for a, rung in enumerate(model.rung_table):
        k = h[a] + step
        if 0 <= k < rung.rungs.size:
            moved = h[:a] + (k,) + h[a + 1 :]
            total += (interp[a] * edge(rung, h[a], k)
                      * states[_row(model, moved)])
    image = op @ state if side == "right" else state @ op
    return _relative(image - total, op, state)


def c_action_residual(basis: SOVBasis, h, lam: complex, side: str = "right") -> float:
    """Defect of the interpolation-sum action of C on one basis state."""
    _, _, c, _ = monodromy(basis.model, lam)
    return _neighbour_residual(
        basis, h, lam, c, side, -1, lambda rung, i, k: rung.d[max(i, k)]
    )


def b_action_residual(basis: SOVBasis, h, lam: complex, side: str = "right") -> float:
    """Defect of the interpolation-sum action of B on one basis state."""
    _, b, _, _ = monodromy(basis.model, lam)
    return _neighbour_residual(
        basis, h, lam, b, side, 1, lambda rung, i, k: -rung.a[min(i, k)]
    )


def a_action_residual(basis: SOVBasis, h, lam: complex) -> float:
    """Central-element consistency of the A-action on one right vector."""
    model = basis.model
    v = basis.right_vectors[_row(model, h)]
    a1, b1, _, _ = monodromy(model, lam)
    _, _, c0, d0 = monodromy(model, lam - model.eta)
    lhs = a1 @ (d0 @ v) - b1 @ (c0 @ v)
    rhs = a_of(model, lam) * d_of(model, lam - model.eta) * v
    return _relative(lhs - rhs, a1, v)
