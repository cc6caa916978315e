"""Transfer-matrix spectrum: dense diagonalization cross-checked against the
per-site rung determinant conditions.

The dense oracle diagonalizes every twist of one chain in a single pass.
The twist is a diagonal similarity of the untwisted transfer matrix, so
one eigenbasis serves every twist, gauged by kappa^{-|h|}.  The global
spin flip J (the reversal of the state index) commutes with the untwisted
B + C, so that eigenbasis takes one half-size eigendecomposition and one
inverse per flip sector, and each eigenvalue carries its sector (+1 or
-1).  The monodromy does not depend on the twist, so B and C are built
once per sample point; each twist forms its own transfer matrix from them
for its base values and its check residuals.

An eigenvalue of the twisted transfer matrix is a trigonometric polynomial
determined by its values at the N base points xi_1..xi_N (the interpolation
kernel prod_{l != n} sinh(lam - xi_l) carries the required quasi-periodicity
automatically).  The spectrum is characterized site by site: the tridiagonal
matrix coupling adjacent rungs of each site ladder must be singular, and its
null vector supplies the expansion coefficients of the eigenstates in the
separated basis.

Every eigenvalue has the same rungs, so the layer works on the whole
spectrum at once.  An ``EigenvalueFunction`` holds one eigenvalue or a
stack of them, one row each (base values E x N).  Its values on every rung
(one E x (2s_n + 1) array per site) and its ladder null vectors (a
recursion sequential in the rung and vectorized over the rows) are
computed on first use for every row and shared by every pipeline; a row
whose recursion overflows keeps its ``RecursionBlowup`` and the other rows
go on.  The rung determinants take one stacked ``det`` per site, and
``eigenstates`` assembles the left and right states of every row with one
product per side, for ladder and Q data alike.  a, d and the companion
factors come from the model's ``rung_table``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import DegenerateSpectrum, RecursionBlowup, ZeroState, record
from .qalgebra import (
    ChainModel, _read_only, monodromy, on_rungs, transfer_antiperiodic,
    twist_gauge,
)
from .sovbasis import SOVBasis
from .trigpoly import cardinals

__all__ = [
    "EigenvalueFunction",
    "Spectrum",
    "brute_force_spectrum",
    "ladder_matrix",
    "discrete_residual",
    "companion_rescale",
    "eigenstates",
    "eigen_residual",
]


@dataclass(frozen=True)
class EigenvalueFunction:
    """A transfer-matrix eigenvalue, stored as its values at the base points,
    or a stack of eigenvalues with one row of base values each.

    t(lam) = sum_n t(xi_n) C_n(lam), with C_n the cardinal function of base
    point n (``trigpoly.cardinals``).  The cardinals are masked, not divided
    out, so lam may sit on a base point (integer-spin rungs do).
    ``rung_values`` and ``ladder`` are computed on first use, for every row
    at once, and kept read-only.
    """

    model: ChainModel
    base_values: tuple

    def __post_init__(self):
        if np.shape(self.base_values)[-1:] != (self.model.n_sites,):
            raise ValueError("need one value per base point")

    def __call__(self, lam):
        """t at lam; a stack puts its rows first.  Each row is one
        multiply-sum with the cardinals at lam, so its values do not depend
        on the rows beside it."""
        lam = np.asarray(lam, dtype=complex)
        base = np.asarray(self.base_values, dtype=complex)
        base = base.reshape(base.shape[:-1] + (1,) * lam.ndim
                            + base.shape[-1:])
        total = np.sum(base * cardinals(self.model.xi, lam), axis=-1)
        return total if total.shape else complex(total)

    @cached_property
    def rung_values(self) -> tuple:
        """t on each site's rungs, one array per site, from one call."""
        return tuple(map(_read_only, on_rungs(self.model, self)))

    @cached_property
    def ladder(self) -> tuple:
        """Null vectors of every rung matrix by downward recursion, for
        every row: (q_vectors, consistency, errors), read-only.

        q_vectors holds per site the recursion solution with q_0 = 1;
        consistency the worst relative defect of the final (unused) ladder
        row, which vanishes exactly on the spectrum; errors per row None or
        the ``RecursionBlowup`` that stopped the recursion (the row's
        vectors are then zero).
        """
        return _ladder(self.model, self.rung_values)


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum with matched right eigenvectors and left covectors.

    Column i of ``right`` and row i of ``left`` belong to row i of the
    stack ``rows``; the rows of ``left`` are the inverse of the column
    matrix, so left@right = identity.  ``sector`` (read-only) holds row i's
    spin-flip sector, +1 or -1: the untwisted eigenvector is even or odd
    under the reversal of the state index.
    """

    model: ChainModel
    right: np.ndarray
    left: np.ndarray
    rows: EigenvalueFunction
    sector: np.ndarray


def brute_force_spectrum(models, seed: int = 0):
    """Diagonalize the twisted transfer matrix at a random point.

    Commutativity of the family lets one random-point diagonalization fix a
    common eigenbasis; the eigenvalue functions are then read off at the base
    points and verified at extra points.  Draws are retried when the sampled
    spectrum is too close to degenerate.

    ``models`` is one model, which gives its ``Spectrum``, or a sequence of
    models that differ only in the twist, which gives a tuple with one
    ``Spectrum`` each.  The twist is a diagonal similarity
    (``twist_gauge``), so one eigenbasis V of the untwisted B + C serves
    every twist: twist kappa gets the right vectors G V and the left
    covectors V^{-1} G^{-1}.  V and V^{-1} come from one eigendecomposition
    and one inverse per spin-flip sector (``_eigenbasis``), each half the
    size of B + C.  All twists share one ``default_rng(seed)``
    and so one sample point, one retry loop and the same check points; the
    monodromy is built once per point.  Base values and check residuals
    are each twist's own, from its kappa^{-1} B + kappa C, and a twist in
    a call with others gets the numbers of a call on it alone.
    """
    single = isinstance(models, ChainModel)
    twists = (models,) if single else tuple(models)
    first = twists[0]
    if any((m.two_s, m.xi, m.eta) != (first.two_s, first.xi, first.eta)
           for m in twists):
        raise ValueError("the models must differ only in the twist")
    rng = np.random.default_rng(seed)
    vectors, inverse, sector = _eigenbasis(first, rng)
    pairs = [(g[:, None] * vectors, inverse / g)
             for g in map(twist_gauge, twists)]
    # Only the gauged pairs live on: at dim 1024 each matrix is 16 MB.
    del vectors, inverse
    base = _base_values(twists, pairs)
    # Each twist's unsorted pair is dropped as its sorted copy is made.
    spectra = [_sorted(twist, values, *pairs.pop(0), sector)
               for twist, values in zip(twists, base)]
    _check(spectra, rng)
    return spectra[0] if single else tuple(spectra)


def _transfers(twists, lam):
    """The transfer matrix of every twist at lam, one at a time, from one
    monodromy."""
    b, c = monodromy(twists[0], lam)[1:3]
    for twist in twists:
        # transfer_antiperiodic's kappa^{-1} B + kappa C, bit for bit.
        yield b / twist.kappa + twist.kappa * c


def _eigenbasis(model, rng):
    """Eigenvectors, their inverse and their flip sectors (+1, -1) of the
    untwisted B + C at the first sample point whose eigenvalues are well
    separated.

    J, the reversal of the state index, is the global spin flip: it swaps
    B and C, so it commutes with B + C.  Each sector's block
    (``_flip_sectors``) takes one ``eig`` and one ``inv``; the gap test runs
    on the eigenvalues of both, and the vectors and inverse rows lift back
    to the full space (``_lift``).
    """
    dim = model.hilbert_dim
    for _ in range(4):
        lam = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        eigs = [np.linalg.eig(block) for block in
                _flip_sectors(np.add(*monodromy(model, lam)[1:3]))]
        if _separated(np.concatenate([vals for vals, _ in eigs])):
            break
    else:
        raise DegenerateSpectrum(
            "no sampled point separated the transfer eigenvalues"
        )
    signs = (1, -1)
    vectors = np.hstack([_lift(v, sign, dim)
                         for (_, v), sign in zip(eigs, signs)])
    inverse = np.vstack([_lift(np.linalg.inv(v).T, sign, dim).T
                         for (_, v), sign in zip(eigs, signs)])
    sector = np.repeat(signs, [len(vals) for vals, _ in eigs])
    return vectors, inverse, sector


def _flip_sectors(m):
    """The blocks of a J-symmetric M on the even and odd states, in O(dim^2).

    With h = dim // 2, M+ acts on (e_i + e_{dim-1-i}) / sqrt 2 and M- on
    (e_i - e_{dim-1-i}) / sqrt 2 for i < h; for odd dim, M+ also acts on
    the middle state e_h.  Only the first h rows of M (and row h) are read.
    """
    h = len(m) // 2
    near, far = m[:h, :h], m[:h, ::-1][:, :h]
    plus, minus = near + far, near - far
    if len(m) % 2:
        root2 = np.sqrt(2.0)
        plus = np.block([[plus, root2 * m[:h, h:h + 1]],
                         [root2 * m[h:h + 1, :h], m[h:h + 1, h:h + 1]]])
    return plus, minus


def _lift(x, sign, dim):
    """Full-space columns from sector coordinates: row i < h of x is the
    coefficient of (e_i + sign e_{dim-1-i}) / sqrt 2, and a row h (odd
    dim, even sector) that of the middle state."""
    h = dim // 2
    half = x[:h] / np.sqrt(2.0)
    out = np.zeros((dim, x.shape[1]), dtype=complex)
    out[:h] = half
    out[h:len(x)] = x[h:]
    out[dim - h:] = sign * half[::-1]
    return out


def _separated(vals) -> bool:
    """Whether the sampled eigenvalues are far enough apart to fix an
    eigenbasis."""
    gaps = np.abs(vals[:, None] - vals[None, :])
    gap = np.min(gaps[~np.eye(len(vals), dtype=bool)], initial=np.inf)
    return gap >= 1e-8 * max(1.0, float(np.max(np.abs(vals))))


def _base_values(twists, pairs) -> np.ndarray:
    """t(xi_n) for every twist, eigenvalue and base point (T x E x N)."""
    first = twists[0]
    base = np.zeros((len(twists), first.hilbert_dim, first.n_sites),
                    dtype=complex)
    for n, xi in enumerate(first.xi):
        for i, t_n in enumerate(_transfers(twists, xi)):
            right, left = pairs[i]
            base[i, :, n] = np.einsum("ij,ji->i", left @ t_n, right)
    return base


def _sorted(model, values, right, left, sector) -> Spectrum:
    """The spectrum in lexicographic order of t(xi_1)."""
    order = np.lexsort((values[:, 0].imag, values[:, 0].real))
    return Spectrum(model=model, right=right[:, order], left=left[order],
                    rows=EigenvalueFunction(model, values[order]),
                    sector=_read_only(sector[order]))


def _check(spectra, rng) -> None:
    """Every eigen-pair of every twist at three more points: the
    eigen_residual defect of its own transfer matrix, column by column."""
    twists = [spec.model for spec in spectra]
    checks = rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3)
    for lam in checks:
        for spec, t_mat in zip(spectra, _transfers(twists, lam)):
            worst = float(np.max(eigen_residual(
                spec.model, spec.rows, spec.right.T, lam, t_mat=t_mat)))
            if worst > 1e-8:
                raise DegenerateSpectrum(
                    f"eigenvector check failed away from the sample point "
                    f"at twist kappa={spec.model.kappa:.6g} "
                    f"(residual {worst:.2e})"
                )


def eigen_residual(
    model, eigfun, states, lam, side: str = "right", t_mat=None
):
    """Relative defect of eigen-pairs at one spectral point.

    states holds one right vector (or left covector) per row of eigfun;
    one product with the transfer matrix does every row.  Pass ``t_mat``,
    the transfer matrix at ``lam``, if it is already built.
    """
    if t_mat is None:
        t_mat = transfer_antiperiodic(model, lam)
    image = states @ t_mat.T if side == "right" else states @ t_mat
    defect = image - np.asarray(eigfun(lam))[..., None] * states
    return np.linalg.norm(defect, axis=-1) / (
        np.linalg.norm(t_mat) * np.linalg.norm(states, axis=-1))


# ----------------------------------------------------------------------
# per-site rung conditions


def ladder_matrix(model: ChainModel, eigfun, site: int) -> np.ndarray:
    """Tridiagonal matrix coupling adjacent rungs of one site ladder, one
    per row of eigfun.

    Singularity of this matrix for every site is equivalent to membership in
    the spectrum.  Row h reads
    -d(xi^{(h)}) v_{h-1} + t(xi^{(h)}) v_h + a(xi^{(h)}) v_{h+1} = 0.
    """
    t = eigfun.rung_values[site - 1]
    rung = model.rung_table[site - 1]
    i = np.arange(t.shape[-1])
    mat = np.zeros(t.shape + i.shape, dtype=complex)
    mat[..., i, i] = t
    mat[..., i[:-1], i[1:]] = rung.a[:-1]
    mat[..., i[1:], i[:-1]] = -rung.d[1:]
    return mat


def discrete_residual(model: ChainModel, eigfun):
    """Worst Hadamard-scaled rung determinant over the sites, per row: one
    stacked determinant per site."""
    worst = np.zeros(np.shape(eigfun.base_values)[:-1])
    for site in range(1, model.n_sites + 1):
        mat = ladder_matrix(model, eigfun, site)
        scale = np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
        value = np.abs(np.linalg.det(mat)) / scale
        worst = np.where(value > worst, value, worst)
    return worst if worst.shape else float(worst)


def _ladder(model: ChainModel, rung_values):
    """The downward recursion of every site ladder for every row at once."""
    lead = np.shape(rung_values[0])[:-1]
    errors = [None] * int(np.prod(lead, dtype=int))
    qs = []
    consistency = np.zeros(lead)
    # A row that overflows goes on in garbage until it is zeroed below.
    with np.errstate(all="ignore"):
        for site, (t, rung) in enumerate(zip(rung_values, model.rung_table),
                                         start=1):
            a, d = rung.a, rung.d
            q = np.zeros(t.shape, dtype=complex)
            q[..., 0] = 1.0
            for h in range(t.shape[-1] - 1):
                prev = q[..., h - 1] if h > 0 else np.zeros(lead, complex)
                nxt = (d[h] * prev - t[..., h] * q[..., h]) / a[h]
                peak = np.maximum(1.0, np.max(np.abs(q[..., : h + 1]), -1))
                record(errors, np.abs(nxt) > 1e12 * peak,
                       lambda k: RecursionBlowup(
                           f"rung recursion overflow at site {site}, "
                           f"rung {h + 1}"))
                q[..., h + 1] = nxt
            last = -d[-1] * q[..., -2] + t[..., -1] * q[..., -1]
            row_scale = np.maximum(np.maximum(
                np.abs(d[-1]) * np.abs(q[..., -2]),
                np.abs(t[..., -1]) * np.abs(q[..., -1])), 1e-300)
            consistency = np.maximum(consistency, np.abs(last) / row_scale)
            qs.append(q)
    blown = np.reshape([e is not None for e in errors], lead)
    for q in qs:
        q[blown] = 0.0
    return (tuple(map(_read_only, qs)), _read_only(np.asarray(consistency)),
            tuple(errors))


def companion_rescale(model: ChainModel, vectors):
    """Regauge per-site rung vectors from left-state to right-state form.

    Component h picks up (-1)^h times the running ratio of the expected
    diagonal products along the ladder (``SiteRungs.companion``).
    """
    return [
        np.concatenate([arr[..., :1], rung.companion * arr[..., 1:]], axis=-1)
        for rung, arr in zip(model.rung_table, vectors)
    ]


# ----------------------------------------------------------------------
# eigenstates in the separated basis


def eigenstates(model: ChainModel, basis: SOVBasis, vectors):
    """Left covectors and right vectors from per-site rung vectors v, one
    per row of v.

    left = sum_h [prod_n kappa^{h_n} v^{(n)}_{h_n}] w_h <h| and
    right = sum_h [prod_n kappa^{-h_n} p^{(n)}_{h_n}] w_h |h>, where
    p = companion_rescale(model, v).  Returns (left, right, errors), with a
    ZeroState for each row where either state has negligible norm.
    """
    left, left_zero = _assemble(model, basis.left_covectors, basis.left_norms,
                                basis.weights, vectors, 1)
    right, right_zero = _assemble(model, basis.right_vectors,
                                  basis.right_norms, basis.weights,
                                  companion_rescale(model, vectors), -1)
    zero = left_zero | right_zero
    errors = [None] * zero.size
    record(errors, zero, lambda k: ZeroState(
        "assembled eigenstate has negligible norm"))
    return left, right, errors


def _assemble(model, states, norms, weights, vectors, sign):
    """One product of the weighted coefficients with the state matrix.

    The coefficient of tuple h is prod_n kappa^{sign h_n} vectors[n][h_n];
    over all_h_tuples (last site fastest) that is a Kronecker product, taken
    row by row.  Returns the states and a mask of those with negligible norm.
    """
    coeffs = reduce(_outer, [
        model.kappa ** (sign * np.arange(v.shape[-1])) * v for v in vectors
    ]) * weights
    total = coeffs @ states
    scale = np.max(np.abs(coeffs) * norms, axis=-1)
    zero = (scale == 0.0) | (np.linalg.norm(total, axis=-1) < 1e-12 * scale)
    return total, zero


def _outer(x, y):
    """Kronecker product of the last axes, row by row."""
    return (x[..., :, None] * y[..., None, :]).reshape(x.shape[:-1] + (-1,))
