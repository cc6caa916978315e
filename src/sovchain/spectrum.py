"""Transfer-matrix spectrum: dense diagonalization cross-checked against the
per-site rung determinant conditions.

An eigenvalue of the twisted transfer matrix is a trigonometric polynomial
determined by its values at the N base points xi_1..xi_N (the interpolation
kernel prod_{l != n} sinh(lam - xi_l) carries the required quasi-periodicity
automatically).  The spectrum is characterized site by site: the tridiagonal
matrix coupling adjacent rungs of each site ladder must be singular, and its
null vector supplies the expansion coefficients of the eigenstates in the
separated basis.  The rung layer is evaluated on arrays and computed once:
a, d and the companion factors come from the model's ``rung_table``, and
each ``EigenvalueFunction`` owns its values on every rung and its ladder
null vectors, both computed on first use and shared by every pipeline.
``eigenstates`` is the one assembly of a left and right state from
per-site rung vectors, for ladder and Q data alike.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .errors import DegenerateSpectrum, RecursionBlowup, ZeroState
from .qalgebra import (
    ChainModel, _kron, _read_only, on_rungs, transfer_antiperiodic,
)
from .sovbasis import SOVBasis

__all__ = [
    "EigenvalueFunction",
    "Spectrum",
    "brute_force_spectrum",
    "ladder_matrix",
    "discrete_residual",
    "ladder_nullspace",
    "companion_rescale",
    "eigenstates",
    "build_eigenstates",
    "eigen_residual",
]


@dataclass(frozen=True)
class EigenvalueFunction:
    """A transfer-matrix eigenvalue, stored as its values at the base points.

    t(lam) = sum_n w_n prod_{l != n} sinh(lam - xi_l), with cardinal weights
    w_n = t(xi_n) / prod_{l != n} sinh(xi_n - xi_l) fixed on construction.
    The leave-one-out product is masked, not divided out, so lam may sit on
    a base point (integer-spin rungs do).  ``rung_values`` and ``ladder``
    are computed on first use and kept read-only.
    """

    model: ChainModel
    base_values: tuple
    _weights: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.base_values) != self.model.n_sites:
            raise ValueError("need one value per base point")
        xi = np.asarray(self.model.xi)
        spread = np.sinh(xi[:, None] - xi[None, :])
        np.fill_diagonal(spread, 1.0)
        object.__setattr__(
            self, "_weights",
            np.asarray(self.base_values, dtype=complex) / spread.prod(axis=1),
        )

    def __call__(self, lam):
        lam = np.asarray(lam, dtype=complex)
        total = _leave_one_out(self.model, lam) @ self._weights
        return total if lam.shape else complex(total)

    @cached_property
    def rung_values(self) -> tuple:
        """t on each site's rungs, one array per site, from one call."""
        return tuple(map(_read_only, on_rungs(self.model, self)))

    @cached_property
    def ladder(self) -> tuple:
        """``ladder_nullspace(self.model, self)`` with read-only arrays:
        (q_vectors, consistency)."""
        qs, consistency = ladder_nullspace(self.model, self)
        return tuple(map(_read_only, qs)), consistency


def _leave_one_out(model: ChainModel, lam: np.ndarray) -> np.ndarray:
    """prod_{l != n} sinh(lam - xi_l) for every n, on a trailing axis."""
    factors = np.sinh(lam[..., None] - np.asarray(model.xi))
    return np.where(
        np.eye(model.n_sites, dtype=bool), 1.0, factors[..., None, :]
    ).prod(axis=-1)


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum with matched right eigenvectors and left covectors.

    Column i of ``right`` and row i of ``left`` belong to ``functions[i]``;
    the rows are the inverse of the column matrix, so left@right = identity.
    """

    model: ChainModel
    functions: tuple
    right: np.ndarray
    left: np.ndarray


def brute_force_spectrum(model: ChainModel, seed: int = 0) -> Spectrum:
    """Diagonalize the twisted transfer matrix at a random point.

    Commutativity of the family lets one random-point diagonalization fix a
    common eigenbasis; the eigenvalue functions are then read off at the base
    points and verified at extra points.  Draws are retried when the sampled
    spectrum is too close to degenerate.
    """
    rng = np.random.default_rng(seed)
    dim = model.hilbert_dim
    vals = v = None
    for _ in range(4):
        lam_star = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        t_star = transfer_antiperiodic(model, lam_star)
        vals, v = np.linalg.eig(t_star)
        gaps = np.abs(vals[:, None] - vals[None, :])[~np.eye(dim, dtype=bool)]
        gap = np.min(gaps, initial=np.inf)
        if gap >= 1e-8 * max(1.0, float(np.max(np.abs(vals)))):
            break
    else:
        raise DegenerateSpectrum(
            "no sampled point separated the transfer eigenvalues"
        )
    w = np.linalg.inv(v)

    base = np.zeros((dim, model.n_sites), dtype=complex)
    for n in range(model.n_sites):
        t_n = transfer_antiperiodic(model, model.xi[n])
        base[:, n] = np.einsum("ij,ji->i", w @ t_n, v)
    functions = [
        EigenvalueFunction(model, tuple(base[i])) for i in range(dim)
    ]

    # Every eigen-pair at once: the eigen_residual defect, column by column.
    weights = np.array([f._weights for f in functions])
    for lam in rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3):
        t_mat = transfer_antiperiodic(model, complex(lam))
        t_vals = weights @ _leave_one_out(model, np.asarray(lam))
        defect = np.linalg.norm(t_mat @ v - t_vals * v, axis=0)
        worst = float(np.max(
            defect / (np.linalg.norm(t_mat) * np.linalg.norm(v, axis=0))
        ))
        if worst > 1e-8:
            raise DegenerateSpectrum(
                f"eigenvector check failed away from the sample point "
                f"(residual {worst:.2e})"
            )

    order = np.lexsort((base[:, 0].imag, base[:, 0].real))
    return Spectrum(
        model=model,
        functions=tuple(functions[i] for i in order),
        right=v[:, order],
        left=w[order],
    )


def eigen_residual(
    model, eigfun, vec, lam, side: str = "right", t_mat=None
) -> float:
    """Relative defect of one eigen-pair at one spectral point.

    Pass ``t_mat``, the transfer matrix at ``lam``, if it is already built.
    """
    if t_mat is None:
        t_mat = transfer_antiperiodic(model, lam)
    t_val = eigfun(lam)
    if side == "right":
        defect = t_mat @ vec - t_val * vec
    else:
        defect = vec @ t_mat - t_val * vec
    return float(
        np.linalg.norm(defect)
        / (np.linalg.norm(t_mat) * np.linalg.norm(vec))
    )


# ----------------------------------------------------------------------
# per-site rung conditions


def _rung_data(model: ChainModel, eigfun, site: int):
    """t, a and d on every rung of one site, read from the cached tables."""
    rung = model.rung_table[site - 1]
    return eigfun.rung_values[site - 1], rung.a, rung.d


def ladder_matrix(model: ChainModel, eigfun, site: int) -> np.ndarray:
    """Tridiagonal matrix coupling adjacent rungs of one site ladder.

    Singularity of this matrix for every site is equivalent to membership in
    the spectrum.  Row h reads
    -d(xi^{(h)}) v_{h-1} + t(xi^{(h)}) v_h + a(xi^{(h)}) v_{h+1} = 0.
    """
    t, a, d = _rung_data(model, eigfun, site)
    return np.diag(t) + np.diag(a[:-1], 1) - np.diag(d[1:], -1)


def discrete_residual(model: ChainModel, eigfun) -> float:
    """Worst Hadamard-scaled rung determinant over the sites."""
    worst = 0.0
    for site in range(1, model.n_sites + 1):
        mat = ladder_matrix(model, eigfun, site)
        scale = np.prod(np.linalg.norm(mat, axis=1))
        worst = max(worst, abs(np.linalg.det(mat)) / float(scale))
    return worst


def ladder_nullspace(model: ChainModel, eigfun):
    """Null vectors of every rung matrix by downward recursion.

    Returns (q_vectors, consistency): for each site the recursion solution
    with q_0 = 1, and the worst relative defect of the final (unused) row,
    which vanishes exactly on the spectrum.  t, a and d on the rungs are
    read from the eigenvalue's and the model's cached tables; the recursion
    itself is sequential.  Pipelines read the result through ``eigfun.ladder``, which
    calls this once per eigenvalue.
    """
    qs = []
    consistency = 0.0
    for site in range(1, model.n_sites + 1):
        t, a, d = _rung_data(model, eigfun, site)
        two_s = len(t) - 1
        q = np.zeros(two_s + 1, dtype=complex)
        q[0] = 1.0
        for h in range(two_s):
            nxt = (d[h] * (q[h - 1] if h > 0 else 0.0) - t[h] * q[h]) / a[h]
            if abs(nxt) > 1e12 * max(1.0, float(np.max(np.abs(q[: h + 1])))):
                raise RecursionBlowup(
                    f"rung recursion overflow at site {site}, rung {h + 1}"
                )
            q[h + 1] = nxt
        last = -d[-1] * q[-2] + t[-1] * q[-1]
        row_scale = max(
            abs(d[-1]) * abs(q[-2]), abs(t[-1]) * abs(q[-1]), 1e-300
        )
        consistency = max(consistency, abs(last) / row_scale)
        qs.append(q)
    return qs, consistency


def companion_rescale(model: ChainModel, vectors):
    """Regauge per-site rung vectors from left-state to right-state form.

    Component h picks up (-1)^h times the running ratio of the expected
    diagonal products along the ladder (``SiteRungs.companion``).
    """
    return [
        np.concatenate([arr[:1], rung.companion * arr[1:]])
        for rung, arr in zip(model.rung_table, vectors)
    ]


# ----------------------------------------------------------------------
# eigenstates in the separated basis


def eigenstates(model: ChainModel, basis: SOVBasis, vectors):
    """Left covector and right vector from per-site rung vectors v.

    left = sum_h [prod_n kappa^{h_n} v^{(n)}_{h_n}] w_h <h| and
    right = sum_h [prod_n kappa^{-h_n} p^{(n)}_{h_n}] w_h |h>, where
    p = companion_rescale(model, v).  Raises ZeroState when either state
    has negligible norm.
    """
    left = _assemble(model, basis.left_covectors, basis.left_norms,
                     basis.weights, vectors, 1)
    right = _assemble(model, basis.right_vectors, basis.right_norms,
                      basis.weights, companion_rescale(model, vectors), -1)
    return left, right


def _assemble(model, states, norms, weights, vectors, sign):
    """One product of the weighted coefficients with the state matrix.

    The coefficient of tuple h is prod_n kappa^{sign h_n} vectors[n][h_n];
    over all_h_tuples (last site fastest) that is a Kronecker product.
    """
    coeffs = reduce(_kron, [
        model.kappa ** (sign * np.arange(len(v))) * v for v in vectors
    ]) * weights
    total = coeffs @ states
    scale = float(np.max(np.abs(coeffs) * norms))
    if scale == 0.0 or np.linalg.norm(total) < 1e-12 * scale:
        raise ZeroState("assembled eigenstate has negligible norm")
    return total


def build_eigenstates(model: ChainModel, eigfun, basis: SOVBasis):
    """Left covector and right vector for one eigenvalue function."""
    return eigenstates(model, basis, eigfun.ladder[0])

