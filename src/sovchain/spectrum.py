"""Transfer-matrix spectrum: dense diagonalization cross-checked against the
per-site rung determinant conditions.

An eigenvalue of the twisted transfer matrix is a trigonometric polynomial
determined by its values at the N base points xi_1..xi_N (the interpolation
kernel prod_{l != n} sinh(lam - xi_l) carries the required quasi-periodicity
automatically).  The spectrum is characterized site by site: the tridiagonal
matrix coupling adjacent rungs of each site ladder must be singular, and its
null vector supplies the expansion coefficients of the eigenstates in the
separated basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .errors import DegenerateSpectrum, RecursionBlowup, ZeroState
from .qalgebra import ChainModel, a_of, d_of, transfer_antiperiodic, xi_shifted
from .sovbasis import SOVBasis

__all__ = [
    "EigenvalueFunction",
    "Spectrum",
    "brute_force_spectrum",
    "ladder_matrix",
    "discrete_residual",
    "ladder_nullspace",
    "companion_rescale",
    "left_eigenstate",
    "right_eigenstate",
    "build_eigenstates",
    "eigen_residual",
    "refine",
]


@dataclass(frozen=True)
class EigenvalueFunction:
    """A transfer-matrix eigenvalue, stored as its values at the base points.

    t(lam) = sum_n w_n prod_{l != n} sinh(lam - xi_l), with cardinal weights
    w_n = t(xi_n) / prod_{l != n} sinh(xi_n - xi_l) fixed on construction.
    The leave-one-out product is masked, not divided out, so lam may sit on
    a base point (integer-spin rungs do).
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
        n_sites = self.model.n_sites
        factors = np.sinh(lam[..., None] - np.asarray(self.model.xi))
        loo = np.where(
            np.eye(n_sites, dtype=bool), 1.0, factors[..., None, :]
        ).prod(axis=-1)
        total = loo @ self._weights
        return total if lam.shape else complex(total)


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

    for lam in rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3):
        lam = complex(lam)
        t_mat = transfer_antiperiodic(model, lam)
        worst = max(
            eigen_residual(model, functions[i], v[:, i], lam, t_mat=t_mat)
            for i in range(dim)
        )
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


def ladder_matrix(model: ChainModel, eigfun, site: int) -> np.ndarray:
    """Tridiagonal matrix coupling adjacent rungs of one site ladder.

    Singularity of this matrix for every site is equivalent to membership in
    the spectrum.  Row h reads
    -d(xi^{(h)}) v_{h-1} + t(xi^{(h)}) v_h + a(xi^{(h)}) v_{h+1} = 0.
    """
    two_s = model.two_s[site - 1]
    size = two_s + 1
    mat = np.zeros((size, size), dtype=complex)
    for h in range(size):
        rung = xi_shifted(model, site, h)
        mat[h, h] = eigfun(rung)
        if h < two_s:
            mat[h, h + 1] = a_of(model, rung)
        if h > 0:
            mat[h, h - 1] = -d_of(model, rung)
    return mat


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

    Returns (q_vectors, p_vectors, consistency): for each site the recursion
    solution with q_0 = 1, the rescaled companion p used for right states,
    and the worst relative defect of the final (unused) row, which vanishes
    exactly on the spectrum.
    """
    qs, ps = [], []
    consistency = 0.0
    for site in range(1, model.n_sites + 1):
        two_s = model.two_s[site - 1]
        q = np.zeros(two_s + 1, dtype=complex)
        q[0] = 1.0
        for h in range(two_s):
            rung = xi_shifted(model, site, h)
            nxt = (d_of(model, rung) * (q[h - 1] if h > 0 else 0.0)
                   - eigfun(rung) * q[h]) / a_of(model, rung)
            if abs(nxt) > 1e12 * max(1.0, float(np.max(np.abs(q[: h + 1])))):
                raise RecursionBlowup(
                    f"rung recursion overflow at site {site}, rung {h + 1}"
                )
            q[h + 1] = nxt
        top = xi_shifted(model, site, two_s)
        last = -d_of(model, top) * q[two_s - 1] + eigfun(top) * q[two_s]
        row_scale = max(
            abs(d_of(model, top)) * abs(q[two_s - 1]),
            abs(eigfun(top)) * abs(q[two_s]),
            1e-300,
        )
        consistency = max(consistency, abs(last) / row_scale)
        qs.append(q)
    return qs, companion_rescale(model, qs), consistency


def companion_rescale(model: ChainModel, vectors):
    """Regauge per-site rung vectors from left-state to right-state form.

    Component h picks up (-1)^h times the running ratio of the expected
    diagonal products along the ladder.
    """
    out = []
    for site, arr in enumerate(vectors, start=1):
        p = np.zeros(len(arr), dtype=complex)
        ratio = 1.0 + 0.0j
        p[0] = arr[0]
        for h in range(1, len(arr)):
            ratio *= a_of(model, xi_shifted(model, site, h - 1)) / d_of(
                model, xi_shifted(model, site, h)
            )
            p[h] = (-1) ** h * ratio * arr[h]
        out.append(p)
    return out


# ----------------------------------------------------------------------
# eigenstates in the separated basis


def left_eigenstate(model: ChainModel, basis: SOVBasis, qs) -> np.ndarray:
    """Covector sum_h [prod_n kappa^{h_n} q^{(n)}_{h_n}] w_h <h|."""
    return _assemble(
        model, basis.left_covectors, basis.left_norms, basis.weights, qs, 1
    )


def right_eigenstate(model: ChainModel, basis: SOVBasis, ps) -> np.ndarray:
    """Vector sum_h [prod_n kappa^{-h_n} p^{(n)}_{h_n}] w_h |h>."""
    return _assemble(
        model, basis.right_vectors, basis.right_norms, basis.weights, ps, -1
    )


def _assemble(model, states, norms, weights, vectors, sign):
    """One product of the weighted coefficients with the state matrix.

    The coefficient of tuple h is prod_n kappa^{sign h_n} vectors[n][h_n];
    over all_h_tuples (last site fastest) that is a Kronecker product.
    """
    coeffs = reduce(np.kron, [
        model.kappa ** (sign * np.arange(len(v))) * v for v in vectors
    ]) * weights
    total = coeffs @ states
    scale = float(np.max(np.abs(coeffs) * norms))
    if scale == 0.0 or np.linalg.norm(total) < 1e-12 * scale:
        raise ZeroState("assembled eigenstate has negligible norm")
    return total


def build_eigenstates(model: ChainModel, eigfun, basis: SOVBasis):
    """Left covector and right vector for one eigenvalue function."""
    qs, ps, _ = ladder_nullspace(model, eigfun)
    return left_eigenstate(model, basis, qs), right_eigenstate(model, basis, ps)


# ----------------------------------------------------------------------


def refine(model: ChainModel, eigfun, steps: int = 2):
    """Newton polish of the base values against the rung determinants."""
    x = np.array(eigfun.base_values, dtype=complex)
    n = model.n_sites

    def residual_vec(vals):
        fn = EigenvalueFunction(model, tuple(vals))
        return np.array(
            [
                np.linalg.det(ladder_matrix(model, fn, site))
                for site in range(1, n + 1)
            ]
        )

    for _ in range(steps):
        f0 = residual_vec(x)
        jac = np.zeros((n, n), dtype=complex)
        for j in range(n):
            h = 1e-7 * max(1.0, abs(x[j]))
            bump = np.zeros(n, dtype=complex)
            bump[j] = h
            jac[:, j] = (residual_vec(x + bump) - residual_vec(x - bump)) / (
                2 * h
            )
        try:
            delta = np.linalg.solve(jac, -f0)
        except np.linalg.LinAlgError:
            break
        x = x + delta
    return EigenvalueFunction(model, tuple(x))
