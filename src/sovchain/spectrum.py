"""Transfer-matrix spectrum: dense diagonalization cross-checked against the
per-site rung determinant conditions.

The dense oracle diagonalizes one chain at several twists in one pass.
The twist is a diagonal similarity of the untwisted transfer matrix, so
one eigenbasis serves every twist, gauged by kappa^{-|h|}.  The spin flip
J (the reversal of the state index) commutes with the untwisted B + C and
the parity (-1)^{|h|} anticommutes, so that eigenbasis takes half- or
quarter-size eigendecompositions.  The entries of B and C are evaluated
once, at the sample point and every base and check point in one call.
Only the model's twist scatters transfer matrices from them (its products
in the flip sectors from ``SECTOR_PRODUCTS_FROM`` states on); a further
twist works from the entries, its gauge and the model twist's check.

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
and its ladder null vectors (a recursion sequential in the rung,
vectorized over the rows and the sites of one ladder length) are computed
on first use and shared by every pipeline; a row whose recursion
overflows keeps its ``RecursionBlowup`` and the others go on.  Every value
on the rungs, here and in the T-Q layers, is one (rows x rungs) array in
the flat layout of the model's ``rung_table`` (``qalgebra.RungTable``),
which holds a, d and the companion factors too.  The rung determinants
take one ``det`` per length;
``eigenstates`` assembles the left and right states of every row with one
product per side, for ladder and Q data alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce

import numpy as np

from .errors import DegenerateSpectrum, RecursionBlowup, ZeroState, record
from .qalgebra import (
    ChainModel, _lowerings, _monodromy_plan, _read_only, monodromy_entries,
    transfer_antiperiodic, transfer_from_entries, twist_gauge,
)
from .sovbasis import SOVBasis, _rung_positions
from .trigpoly import cardinals

__all__ = [
    "EigenvalueFunction",
    "Spectrum",
    "brute_force_spectrum",
    "ladder_matrix",
    "discrete_residual",
    "eigenstates",
    "eigen_residual",
]

# Verification grid of both functional equations, drawn once.
_GRID_RNG = np.random.default_rng(17)
GRID_POINTS = _read_only(_GRID_RNG.uniform(-1.5, 1.5, 40)
                         + 1j * _GRID_RNG.uniform(-1.2, 1.2, 40))
del _GRID_RNG
# The dense oracle's candidate sample points, tried in order (point k takes
# uniforms 2k and 2k+1), and its three check points, drawn once.
_ORACLE_DRAWS = np.random.default_rng(0).uniform(-1, 1, 8)
SAMPLE_POINTS = _read_only(_ORACLE_DRAWS[::2] + 1j * _ORACLE_DRAWS[1::2])
CHECK_POINTS = _read_only(_ORACLE_DRAWS[2:5] + 1j * _ORACLE_DRAWS[5:])
del _ORACLE_DRAWS


@dataclass(frozen=True)
class EigenvalueFunction:
    """A transfer-matrix eigenvalue, stored as its values at the base points,
    or a stack of eigenvalues with one row of base values each.

    t(lam) = sum_n t(xi_n) C_n(lam), with C_n the cardinal function of base
    point n (``trigpoly.cardinals``).  The cardinals are masked, not divided
    out, so lam may sit on a base point (integer-spin rungs do).
    ``grid_values``, ``rung_values`` and ``ladder`` are computed on first
    use, for every row at once, and kept read-only.
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
    def grid_values(self) -> np.ndarray:
        """t on the verification grid ``GRID_POINTS``, from one call."""
        return _read_only(self(GRID_POINTS))

    @cached_property
    def rung_values(self) -> np.ndarray:
        """t on every rung (``ChainModel.rung_table``), from one call."""
        return _read_only(self(self.model.rung_table.rungs))

    @cached_property
    def ladder(self) -> tuple:
        """Null vectors of every rung matrix by downward recursion, for
        every row: (q_vectors, errors), read-only.

        q_vectors holds on every rung the recursion solution with q = 1 on
        the top rungs; errors per row None or the ``RecursionBlowup`` that
        stopped the recursion (the row's vectors are then zero).  Whether
        the unused last ladder rows close, ``discrete_residual`` checks.
        """
        return _ladder(self.model, self.rung_values)


@dataclass(frozen=True)
class Spectrum:
    """Full spectrum with matched right eigenvectors.

    Column i of ``right`` belongs to row i of the stack ``rows``; the left
    covectors are the rows of its inverse.  ``sector`` (read-only) holds
    row i's spin-flip sector, +1 or -1: the untwisted eigenvector is even
    or odd under the reversal of the state index.  Each row's -t is a row
    too.
    """

    model: ChainModel
    right: np.ndarray
    rows: EigenvalueFunction
    sector: np.ndarray


# Dimension from which the model's base values and the check take their
# products in the flip sectors; below it the full-size products are faster.
SECTOR_PRODUCTS_FROM = 256


def brute_force_spectrum(model: ChainModel, twists=None):
    """Diagonalize the twisted transfer matrix at a generic point.

    Commutativity of the family lets one diagonalization at a generic
    point fix a common eigenbasis; the eigenvalue functions are then read
    off at the base points and verified at ``CHECK_POINTS``.  The next of
    ``SAMPLE_POINTS`` is tried when the sampled spectrum is too close to
    degenerate.

    Returns the model's ``Spectrum``, or, given ``twists`` (further twists
    of the same chain, as numbers), the pair of it and their base values
    (len(twists) x E x N).  One eigenbasis V of the untwisted B + C
    (``_eigenbasis``) and its inverse serve every twist kappa, whose right
    vectors are G V (``twist_gauge``), so every twist takes the model's
    row order: a lexsort on t(xi_1), with a real part at or below 1e-12
    of the largest |t(xi_1)| taken as 0, so that rounding noise (the
    normal regimes' Re t(xi_1)) orders no rows.  The model's twist takes
    the diagonal of V^{-1} G^{-1} T(xi_n) G V, bit for bit a call on it
    alone: below ``SECTOR_PRODUCTS_FROM`` from the gauged inverse V^{-1}
    G^{-1}, formed there only, and from it on in the flip sectors.  A
    further twist (``_further_values``, ``_residuals``) matches a lone
    call to rounding, not bit for bit.
    """
    kappas = np.array([model.kappa, *(twists or ())], dtype=complex)
    n, dim = model.n_sites, model.hilbert_dim
    gauge = twist_gauge(model, kappas)
    b, c, pairs = _eigenbasis(model)
    vectors, inverse, sector = _lifted(pairs, dim)
    right = gauge[0, :, None] * vectors
    sums = inverse.sum(axis=0)
    sectors = pairs if dim >= SECTOR_PRODUCTS_FROM else None
    left = None if sectors else inverse / gauge[0]
    # Only the gauged matrices live on: at dim 1024 each is 16 MB.
    del vectors, inverse
    own = []
    # One point's transfer matrix and its products at a time.
    for b_n, c_n in zip(b[:n], c[:n]):
        t_mat = transfer_from_entries(model, b_n, c_n, kappas[0])
        own.append(_sector_values(t_mat, gauge[0], sectors) if sectors
                   else np.einsum("ij,ji->i", left @ t_mat, right))
    del t_mat, left
    base = np.stack(own, axis=-1)[None]
    if len(kappas) > 1:
        base = np.concatenate([base, _further_values(
            model, kappas, gauge, sums, right, b[:n], c[:n])])
    worst = _residuals(model, kappas, gauge, right, base, b[n:], c[n:],
                       sectors).max(axis=(1, 2))
    for kappa, residual in zip(kappas, worst):
        if not residual <= 1e-8:  # NaN fails too
            raise DegenerateSpectrum(
                f"eigenvector check failed away from the sample point "
                f"at twist kappa={complex(kappa):.6g} "
                f"(residual {residual:.2e})")
    key = base[0, :, 0]
    noise = np.abs(key.real) <= 1e-12 * np.abs(key).max()
    order = np.lexsort((key.imag, np.where(noise, 0.0, key.real)))
    base = base[:, order]
    spec = Spectrum(model=model, right=right[:, order],
                    rows=EigenvalueFunction(model, base[0]),
                    sector=_read_only(sector[order]))
    return spec if twists is None else (spec, base[1:])


def _eigenbasis(model):
    """(b, c, pairs): the B and C entries at the N base points and
    ``CHECK_POINTS``, and the eigenvectors and their inverse (x, y) of
    each flip sector (even, then odd) of the untwisted B + C at the first
    well separated point of ``SAMPLE_POINTS``, in sector coordinates
    (``_lift``).  One ``monodromy_entries`` call evaluates a candidate,
    the base points and the check points; a rejected candidate moves to
    the next, and the check points stay.

    J, the reversal of the state index, swaps B and C, so it commutes with
    B + C (blocks ``_flip_split``).  The parity P = (-1)^{|h|}
    anticommutes with it, swaps the blocks for odd N_s (``_mirrored``) and
    halves each for even N_s (``_parity_halves``).  The gap test runs on
    both blocks' eigenvalues.
    """
    dim = model.hilbert_dim
    parity = 1 - 2 * (_lowerings(model.two_s)[:(dim + 1) // 2] % 2)
    for lam in SAMPLE_POINTS:
        b, c = monodromy_entries(
            model, np.concatenate([[lam], model.xi, CHECK_POINTS]), "BC")
        blocks = _flip_split(transfer_from_entries(model, b[0], c[0]), 1)
        sectors = (_mirrored(blocks[0], parity) if model.n_s % 2 else
                   [_parity_halves(x, parity[:len(x)]) for x in blocks])
        if _separated(np.concatenate([vals for vals, *_ in sectors])):
            return b[1:], c[1:], [pair for _, *pair in sectors]
    raise DegenerateSpectrum(
        "no sampled point separated the transfer eigenvalues"
    )


def _lifted(pairs, dim):
    """The eigenvectors, their inverse and each column's sector (+1, -1) on
    the full space, from the sector pairs of ``_eigenbasis``."""
    signs = (1, -1)
    vectors = np.hstack([_lift(x, sign, dim)
                         for (x, _), sign in zip(pairs, signs)])
    inverse = np.vstack([_lift(y.T, sign, dim).T
                         for (_, y), sign in zip(pairs, signs)])
    return vectors, inverse, np.repeat(signs, [len(x) for x, _ in pairs])


def _mirrored(plus, parity):
    """Both sectors for odd N_s as (eigenvalues, vectors, inverse), from
    one ``eig`` and ``inv``: minus = -D plus D, D = diag(parity)."""
    vals, x = np.linalg.eig(plus)
    y = np.linalg.inv(x)
    return [(vals, x, y), (-vals, parity[:, None] * x, y * parity)]


def _parity_halves(block, parity):
    """One sector for even N_s, as ``_mirrored``: in parity halves it is
    [[0, X], [Y, 0]], and each eigenpair (mu, u) of X Y gives t = +-sqrt(mu)
    with vector [u; +-Y u / t].  Unequal halves (all spins integer) and a
    block under 12 states, where it is faster, take a plain ``eig``."""
    e, o = np.flatnonzero(parity > 0), np.flatnonzero(parity < 0)
    if len(block) < 12 or len(e) != len(o):
        vals, x = np.linalg.eig(block)
        return vals, x, np.linalg.inv(x)
    low = block[np.ix_(o, e)]
    mu, u = np.linalg.eig(block[np.ix_(e, o)] @ low)
    root = np.sqrt(mu)
    w = low @ u / root
    u_inv, w_inv = np.linalg.inv(u) / 2, np.linalg.inv(w) / 2
    x, y = np.empty((2,) + block.shape, dtype=complex)
    x[e], x[o] = np.hstack([u, u]), np.hstack([w, -w])
    y[:, e], y[:, o] = np.vstack([u_inv] * 2), np.vstack([w_inv, -w_inv])
    return np.concatenate([root, -root]), x, y


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


@lru_cache(maxsize=16)
def _cells(two_s: tuple) -> tuple:
    """The plan's B then C cells sorted by column, B's first: that order,
    their rows, columns and C mask, and the starts of the runs of one
    column and block, and of each column's runs among them."""
    plan = _monodromy_plan(two_s)
    rows, cols = np.divmod(np.concatenate(plan.positions[1:3]),
                           int(np.prod(np.add(two_s, 1))))
    is_c = np.arange(rows.size) >= plan.positions[1].size
    order = np.argsort(2 * cols + is_c, kind="stable")
    rows, cols, is_c = rows[order], cols[order], is_c[order]
    starts = np.flatnonzero(np.diff(2 * cols + is_c, prepend=-1))
    return (order, rows, cols, is_c, starts,
            np.flatnonzero(np.diff(cols[starts], prepend=-1)))


def _further_values(model, kappas, gauge, sums, right, b, c):
    """The further twists' base values ((u_k T_k) o g_k / g_0) @ (G_0 V =
    right), u_k = sums / g_k, from the B and C entries b, c.  A cell enters
    (u_k T_k) o g_k as sums[row] * entry * ratio, the ratio kappa_k^{-+1}
    g_k[col] / g_k[row] (B, C), which the gauge certificate G_k^-1 T_k G_k
    = B + C first checks is 1 to 1e-12; it is one number on each run of
    ``_cells``, so one sum per run serves every twist."""
    order, rows, cols, is_c, starts, heads = _cells(model.two_s)
    k, g = kappas[1:, None], gauge[1:]
    ratios = np.where(is_c, k, 1 / k) * g.take(cols, 1) / g.take(rows, 1)
    for kappa, miss in zip(kappas[1:], np.abs(ratios - 1).max(axis=1)):
        if not miss <= 1e-12:  # NaN fails too
            raise DegenerateSpectrum(
                f"gauge check failed at twist kappa={complex(kappa):.6g} "
                f"(residual {miss:.2e})")
    runs = np.add.reduceat(np.concatenate([b, c], axis=-1)[:, order]
                           * sums[rows], starts, axis=-1)
    out = np.add.reduceat(ratios[:, None, starts] * runs, heads, axis=-1)
    return np.swapaxes(((out / gauge[0]).reshape(-1, len(sums)) @ right)
                       .reshape(out.shape), 1, 2)


def _residuals(model, kappas, gauge, right, base, b, c, sectors):
    """|T G v - t G v| / (|T|_F |G v|) per twist, eigen-pair and point of
    ``CHECK_POINTS``: D_0 = T_0 G_0 v - t_0 G_0 v (G_0 v = right; the sector
    bound given the pairs), and for a further twist, as T_k G_k v - t_k G_k
    v = G_k G_0^-1 (D_0 + (t_0 - t_k) G_0 v), the bound max|g_k / g_0|
    (|D_0| + |t_0 - t_k| |G_0 v|) / (|T_k|_F |G_k v|)."""
    values = base @ cardinals(model.xi, CHECK_POINTS).T
    # Unlike np.linalg.norm, vecdot makes no temporary of its operand's size.
    norms = np.sqrt(np.vecdot(right, right, axis=0).real)
    defects, sizes = [], []
    for p, (b_p, c_p) in enumerate(zip(b, c)):
        t_mat = transfer_from_entries(model, b_p, c_p, kappas[0])
        sizes.append(np.sqrt(np.vecdot(t_mat.ravel(), t_mat.ravel()).real))
        if sectors:
            defect = _sector_defects(t_mat, gauge[0], sectors, values[0, :, p])
            del t_mat
        else:
            defect = t_mat @ right
            del t_mat
            # In place: a temporary of this size costs page faults.
            defect -= right * values[0, :, p]
            defect = np.sqrt(np.vecdot(defect, defect, axis=0).real)
        defects.append(defect)
    defects = np.stack(defects, axis=-1)
    own = (defects / (norms[:, None] * sizes))[None]
    if len(kappas) == 1:
        return own
    ratio, mag = np.abs(gauge[1:] / gauge[0]), np.abs(kappas[1:, None]) ** 2
    gauged = np.sqrt(ratio ** 2 @ np.abs(right) ** 2)[..., None]
    size = np.sqrt(np.vecdot(b, b).real / mag + mag * np.vecdot(c, c).real)
    return np.concatenate([own, ratio.max(axis=1)[:, None, None] * (
        defects + np.abs(values[1:] - values[0]) * norms[:, None]) / (
        size[:, None] * gauged)])


def _flip_split(t_mat, gauge):
    """S = G^{-1} T G, formed in place of T, split by the flip J: the
    blocks of its part (S + J S J) / 2 on the even and odd states.

    With h = dim // 2, the even block acts on (e_i + e_{dim-1-i}) / sqrt 2
    and the odd one on (e_i - e_{dim-1-i}) / sqrt 2 for i < h; for odd dim
    the even block also acts on the middle state e_h.  The blocks are
    ((A + C) + (B + D)) / 2 and ((A - C) - (B - D)) / 2 in the quadrants
    of S, far rows and columns reversed.  On a J-symmetric S, such as
    B + C at gauge 1 (no gauge pass), they are bit for bit near +- far,
    the middle row and column sqrt 2 times S's.  The part between the
    sectors is left to ``_sector_defects``."""
    s = t_mat
    if np.any(gauge != 1):  # G is exactly the identity at kappa = 1
        s *= gauge
        s /= gauge[:, None]
    h = len(s) // 2
    near, far = s[:h], s[:-h - 1:-1]
    a, b = near[:, :h], near[:, :-h - 1:-1]
    c, d = far[:, :h], far[:, :-h - 1:-1]
    plus, minus, spare = a + c, a - c, b + d
    plus += spare
    minus -= np.subtract(b, d, out=spare)
    plus /= 2
    minus /= 2
    if len(s) % 2:
        mid, root2 = s[h], np.sqrt(2.0)
        col = (near[:, h:h + 1] + far[:, h:h + 1]) / 2
        plus = np.block([[plus, root2 * col],
                         [root2 * ((mid[:h] + mid[:-h - 1:-1]) / 2),
                          mid[h:h + 1]]])
    return [plus, minus]


def _sector_values(t_mat, gauge, pairs):
    """The diagonal of V^{-1} S V, one product per flip sector: the part
    of S that couples the sectors has none.  Overwrites t_mat."""
    blocks = _flip_split(t_mat, gauge)
    return np.concatenate([np.einsum("ij,ji->i", y @ block, x)
                           for (x, y), block in zip(pairs, blocks)])


def _sector_defects(t_mat, gauge, pairs, values):
    """A bound of |T G v - t G v| per eigenvector v = lift(x): the lifted
    |G (S+ x - x t)| plus max|g| |S-|_F |x|, S+ and S- the parts of S
    that commute and anticommute with J.  Overwrites t_mat."""
    blocks = _flip_split(t_mat, gauge)
    h, g2 = len(gauge) // 2, np.abs(gauge) ** 2
    # S - J S J = 2 S-: its rows i < h, then an odd dim's middle row.  Row
    # dim-1-i is row i reversed and negated, so rows i < h count twice.
    odd = t_mat[:len(g2) - h] - t_mat[::-1, ::-1][:len(g2) - h]
    # Unlike np.linalg.norm, vecdot makes no temporary of its operand's size.
    rows = np.vecdot(odd, odd).real
    rest = np.sqrt(2 * rows[:h].sum() + rows[h:].sum()) / 2
    # A sector row i < h lifts to rows i and dim-1-i; the odd middle stays.
    weights = np.concatenate([(g2[:h] + g2[::-1][:h]) / 2, g2[h:len(g2) - h]])
    spill = rest * np.sqrt(np.max(g2))
    out = []
    for (x, _), block, t in zip(pairs, blocks,
                                np.split(values, [len(pairs[0][0])])):
        r = block @ x - x * t
        out.append(np.sqrt(weights[:len(x)] @ (r.real ** 2 + r.imag ** 2))
                   + spill * np.sqrt(np.vecdot(x, x, axis=0).real))
    return np.concatenate(out)


def eigen_residual(
    model, eigfun, states, lam, side: str = "right", t_mat=None
):
    """Relative defect of eigen-pairs at one spectral point.

    states holds one right vector (or left covector) per row of eigfun;
    one product with the transfer matrix does every row.  Side "both"
    takes the pair (right, left) and gives each row its larger defect,
    with t(lam) and |T(lam)| formed once.  Pass ``t_mat``, the transfer
    matrix at ``lam``, if it is already built.
    """
    if t_mat is None:
        t_mat = transfer_antiperiodic(model, lam)
    value, size = np.asarray(eigfun(lam))[..., None], np.linalg.norm(t_mat)
    sides = (zip(states, ("right", "left")) if side == "both"
             else [(states, side)])
    return reduce(np.maximum, [np.linalg.norm(
        (s @ t_mat.T if on == "right" else s @ t_mat) - value * s, axis=-1)
        / (size * np.linalg.norm(s, axis=-1)) for s, on in sides])


# ----------------------------------------------------------------------
# per-site rung conditions


def ladder_matrix(model: ChainModel, eigfun, site: int) -> np.ndarray:
    """Tridiagonal matrix coupling adjacent rungs of one site ladder, one
    per row of eigfun.

    Singularity of this matrix for every site is equivalent to membership in
    the spectrum.  Row h reads
    -d(xi^{(h)}) v_{h-1} + t(xi^{(h)}) v_h + a(xi^{(h)}) v_{h+1} = 0.
    """
    table = model.rung_table
    cols = table.site == site - 1
    return _tridiagonal(eigfun.rung_values[..., cols], table.a[cols],
                        table.d[cols])


def _tridiagonal(t, a, d) -> np.ndarray:
    """The ladder matrices of t's leading axes, a and d broadcast to them."""
    i = np.arange(t.shape[-1])
    mat = np.zeros(t.shape + i.shape, dtype=complex)
    mat[..., i, i] = t
    mat[..., i[:-1], i[1:]] = a[..., :-1]
    mat[..., i[1:], i[:-1]] = -d[..., 1:]
    return mat


def _rung_groups(model: ChainModel, t):
    """Per ladder length (``RungTable.groups``): its rungs' positions, then
    t, a and d there, with t's axes and (sites, rungs) last.  Equal ndim
    matters: numpy rounds a one-element complex product of unequal ndim
    on another path, and a row's bits would then depend on the row count."""
    table = model.rung_table
    a, d = (x.reshape((1,) * (t.ndim - 1) + (-1,)) for x in (table.a, table.d))
    return [(cols, *(np.take(x, cols, -1) for x in (t, a, d)))
            for _, cols in table.groups]


def discrete_residual(model: ChainModel, eigfun):
    """Worst Hadamard-scaled rung determinant over the sites, per row: one
    stacked determinant per ladder length.  NaN propagates to the row."""
    worst = np.zeros(np.shape(eigfun.base_values)[:-1])
    with np.errstate(invalid="ignore"):  # det warns on NaN; the check fails it
        for _, t, a, d in _rung_groups(model, eigfun.rung_values):
            mat = _tridiagonal(t, a, d)
            scale = np.prod(np.linalg.norm(mat, axis=-1), axis=-1)
            worst = np.maximum(worst, np.max(
                np.abs(np.linalg.det(mat)) / scale, axis=-1))
    return worst if worst.shape else float(worst)


def _ladder(model: ChainModel, rung_values):
    """The downward recursion of every site ladder for every row at once,
    one pass per ladder length; each row keeps its first blowup in the
    rung order."""
    blown, qs = (np.zeros(rung_values.shape, dtype=t) for t in (bool, complex))
    # A row that overflows goes on in garbage until it is zeroed below.
    with np.errstate(all="ignore"):
        for cols, t, a, d in _rung_groups(model, rung_values):
            q = np.zeros(t.shape, dtype=complex)
            q[..., 0], peak = 1.0, 1.0
            for h in range(t.shape[-1] - 1):
                prev = q[..., h - 1] if h else np.zeros_like(q[..., 0])
                nxt = (d[..., h] * prev - t[..., h] * q[..., h]) / a[..., h]
                peak = np.maximum(peak, np.abs(q[..., h]))
                blown[..., cols[:, h]] = np.abs(nxt) > 1e12 * peak
                q[..., h + 1] = nxt
            qs[..., cols] = q
    table = model.rung_table
    flat = blown.reshape(-1, blown.shape[-1])
    first, rows = flat.argmax(axis=-1), flat.any(axis=-1)
    errors = [None] * len(flat)
    record(errors, rows, lambda k: RecursionBlowup(
        f"rung recursion overflow at site {table.site[first[k]] + 1}, "
        f"rung {table.level[first[k]] + 1}"))
    qs[rows.reshape(qs.shape[:-1])] = 0.0
    return _read_only(qs), tuple(errors)


# ----------------------------------------------------------------------
# eigenstates in the separated basis


def eigenstates(model: ChainModel, basis: SOVBasis, vectors):
    """Left covectors and right vectors from rung vectors v (rows x
    rungs), one per row of v.

    left = sum_h [prod_n kappa^{h_n} v^{(n)}_{h_n}] w_h <h| and
    right = sum_h [prod_n kappa^{-h_n} p^{(n)}_{h_n}] w_h |h>, where
    p = ``RungTable.companion`` * v.  Returns (left, right, errors), with a
    ZeroState for each row where either state has negligible norm.
    """
    left, left_zero = _assemble(model, basis.left_covectors, basis.left_norms,
                                basis.weights, vectors, 1)
    right, right_zero = _assemble(model, basis.right_vectors,
                                  basis.right_norms, basis.weights,
                                  model.rung_table.companion * vectors, -1)
    zero = left_zero | right_zero
    errors = [None] * zero.size
    record(errors, zero, lambda k: ZeroState(
        "assembled eigenstate has negligible norm"))
    return left, right, errors


def _assemble(model, states, norms, weights, vectors, sign):
    """One product of the weighted coefficients with the state matrix.

    The coefficient of tuple h is prod_n kappa^{sign h_n} v^{(n)}_{h_n},
    one gather per site, multiplied in site order.  Returns the states and
    a mask of those with negligible norm.
    """
    scaled = model.kappa ** (sign * model.rung_table.level) * vectors
    coeffs = reduce(np.multiply, (
        scaled[..., cols] for cols in _rung_positions(model))) * weights
    total = coeffs @ states
    scale = np.max(np.abs(coeffs) * norms, axis=-1)
    zero = (scale == 0.0) | (np.linalg.norm(total, axis=-1) < 1e-12 * scale)
    return total, zero
