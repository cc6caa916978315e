"""Operator content of the twisted antiperiodic chain.

Builds the per-site spin representations, the local Lax matrices, the chain
monodromy blocks A, B, C, D, the scalar products a and d, and the twisted
antidiagonal transfer matrix kappa^{-1} B(lam) + kappa C(lam), which the
diagonal ``twist_gauge`` conjugates into the untwisted B + C.  Everything is
dense.  In the monodromy, a and d are diagonal and b and c have one
off-diagonal each, so every nonzero entry of a block is one product of a
local Lax entry per site; the read-only ``_monodromy_plan``, cached per
shape, says where those entries sit and which local entries they multiply.
``monodromy_entries`` evaluates them at a whole array of points, O(nnz)
per site (365 of the 4096 entries of a block at dim 64); a caller that
reads only B and C scatters them from there with ``transfer_from_entries``,
one transfer matrix per twist of an array of twists.  Everything on the
rungs that does not depend on an eigenvalue (the rungs, a and d there, the
companion factors and the layout itself) is built once per model, on first
use, in the read-only ``ChainModel.rung_table`` (``RungTable``), the one
place that knows the rung layout: one flat, site-major array of every
rung, in whose order every value on the rungs, in any layer, lies along
its last axis.  Likewise ``_lax_parts``, cached per spin and eta, holds a
site's Sz diagonal and sinh(eta) S+-, so a Lax build computes only its two
diagonal blocks.
``distance_to_ipi_lattice`` works on arrays of any shape.

Conventions fixed here and relied on everywhere else:

* spins are stored as the integers 2s, so index arithmetic is exact;
* site indices in the public API are 1-based, matching the physical chain;
* the monodromy product has site N leftmost (applied last to states);
* the shifted inhomogeneity ladder is xi_n + (s_n - k) * eta for k = 0..2s_n,
  so k = 0 sits at the top (+s_n eta) and k = 2s_n at the bottom.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError, IndexOutOfRange, LadderCollision, NotApplicable,
)

__all__ = [
    "ChainModel",
    "NormalityReport",
    "q_integer",
    "spin_matrices",
    "r_matrix",
    "lax",
    "monodromy",
    "a_of",
    "d_of",
    "xi_shifted",
    "transfer_antiperiodic",
    "twist_gauge",
    "normality_check",
    "rll_residual",
    "rtt_residual",
    "quantum_determinant_residual",
    "distance_to_ipi_lattice",
]

_ETA_DEGENERACY_TOL = 1e-8


def distance_to_ipi_lattice(z, period: float = np.pi):
    """Distance from z to the nearest integer multiple of i*period.

    Any shape; a scalar gives a float.  ``np.hypot`` matches Python's
    complex ``abs`` bit for bit, ``np.abs`` on arrays does not.
    """
    z = np.asarray(z, dtype=complex)
    w = z - 1j * period * np.round(z.imag / period)
    out = np.hypot(w.real, w.imag)
    return out if z.shape else float(out)


@dataclass(frozen=True)
class ChainModel:
    """Immutable chain definition, validated on construction.

    Parameters
    ----------
    two_s : sequence of int
        Twice the spin of each site (1 for spin 1/2, 2 for spin 1, ...).
    xi : sequence of complex
        Inhomogeneity parameter per site.
    eta : complex
        Anisotropy parameter; must stay clear of the i*pi-commensurate set.
    kappa : complex
        Nonzero twist of the antidiagonal transfer matrix.
    delta_min : float
        Genericity margin: the pairwise shifted-inhomogeneity ladders must
        stay at least this far apart modulo i*pi.
    """

    two_s: tuple
    xi: tuple
    eta: complex
    kappa: complex
    delta_min: float = 1e-3

    def __post_init__(self) -> None:
        two_s = tuple(int(v) for v in self.two_s)
        xi = tuple(complex(v) for v in self.xi)
        object.__setattr__(self, "two_s", two_s)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "eta", complex(self.eta))
        object.__setattr__(self, "kappa", complex(self.kappa))
        if len(two_s) == 0:
            raise ConfigError("chain needs at least one site")
        if len(xi) != len(two_s):
            raise ConfigError(
                f"got {len(xi)} inhomogeneities for {len(two_s)} sites"
            )
        if any(v < 1 for v in two_s):
            raise ConfigError("every 2s value must be a positive integer")
        if self.kappa == 0:
            raise ConfigError("twist kappa must be nonzero")
        if not np.isfinite(xi + (self.eta, self.kappa)).all():
            raise ConfigError("eta, xi and kappa must be finite")
        if not 0.0 < self.delta_min < np.inf:
            raise ConfigError("delta_min must be a finite positive number")
        for k in range(1, max(two_s) + 2):
            with np.errstate(over="ignore"):  # an infinite sinh is far from 0
                near = abs(np.sinh(k * self.eta)) <= _ETA_DEGENERACY_TOL
            if near:
                raise ConfigError(
                    f"eta={self.eta} is too close to the i*pi-commensurate "
                    f"set: |sinh({k}*eta)| <= {_ETA_DEGENERACY_TOL}"
                )
        for i, j, d, gap in self._ladder_gaps():
            if gap < self.delta_min:
                raise LadderCollision(
                    f"inhomogeneity ladders of sites {i + 1} and {j + 1} "
                    f"collide: |xi_{i + 1} - xi_{j + 1} + ({d})*eta| = "
                    f"{gap:.3e} < delta_min={self.delta_min}"
                )

    def _ladder_gaps(self):
        """(i, j, d, gap) for every site pair i < j (0-based) and relative
        ladder shift d: gap is |xi_i - xi_j + d*eta| modulo i*pi, with all
        gaps from one array call."""
        shifts = [
            (i, j, t - (self.two_s[i] + self.two_s[j]) / 2.0)
            for i in range(self.n_sites) for j in range(i + 1, self.n_sites)
            for t in range(self.two_s[i] + self.two_s[j] + 1)
        ]
        gaps = distance_to_ipi_lattice(np.array(
            [self.xi[i] - self.xi[j] + d * self.eta for i, j, d in shifts],
            dtype=complex,
        ))
        return [(*shift, float(gap)) for shift, gap in zip(shifts, gaps)]

    @property
    def n_sites(self) -> int:
        return len(self.two_s)

    @property
    def hilbert_dim(self) -> int:
        dim = 1
        for v in self.two_s:
            dim *= v + 1
        return dim

    @property
    def n_s(self) -> int:
        """Total twist-sector degree: twice the sum of all spins."""
        return sum(self.two_s)

    @cached_property
    def rung_table(self) -> "RungTable":
        """The read-only ``RungTable``, built on first use."""
        return _rung_table(self)


class RungTable(NamedTuple):
    """Eigenvalue-independent data on every rung, in one flat layout:
    site-major, each site's ladder top rung first (k = 0..2s_n).

    rungs, a, d: the rungs xi_n + (s_n - k)*eta, and a and d there;
    companion: (-1)^h prod_{k < h} a(rung_k) / d(rung_{k+1}) at level h of
    its ladder (1 on the top rungs), the left- to right-state regauge;
    level, site: each rung's k and 0-based site; top, upper, inner,
    bottom: the positions of the rungs with k = 0 (each site's start
    offset), k < 2s_n, 0 < k < 2s_n and k = 2s_n; groups: per ladder
    length, in order of first appearance, its 0-based sites and their
    rungs' positions (sites x rungs).
    """

    rungs: np.ndarray
    a: np.ndarray
    d: np.ndarray
    companion: np.ndarray
    level: np.ndarray
    site: np.ndarray
    top: np.ndarray
    upper: np.ndarray
    inner: np.ndarray
    bottom: np.ndarray
    groups: tuple

    def position(self, site, level):
        """The position of rung ``level`` of 0-based ``site``; broadcasts."""
        return self.top[site] + level


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _rung_table(model: ChainModel) -> RungTable:
    """The one evaluation of the rung formula xi + (s - k)*eta, and one of
    a and one of d, over every rung."""
    two_s = np.asarray(model.two_s)
    site = np.repeat(np.arange(model.n_sites), two_s + 1)
    top = np.cumsum(two_s + 1) - (two_s + 1)
    level = np.arange(site.size) - top[site]
    length = two_s[site]
    rungs = np.asarray(model.xi)[site] + (length - 2 * level) / 2.0 * model.eta
    a, d = a_of(model, rungs), d_of(model, rungs)
    groups = tuple((_read_only(n), _read_only(top[n, None] + np.arange(v + 1)))
                   for v in dict.fromkeys(model.two_s)
                   for n in [np.flatnonzero(two_s == v)])
    companion = np.ones(site.size, dtype=complex)
    for _, cols in groups:
        companion[cols[:, 1:]] = (-1.0) ** np.arange(1, cols.shape[1]) * (
            np.cumprod(a[cols[:, :-1]] / d[cols[:, 1:]], axis=-1))
    return RungTable(*map(_read_only, (
        rungs, a, d, companion, level, site, top,
        np.flatnonzero(level < length),
        np.flatnonzero((level > 0) & (level < length)), top + two_s)), groups)


@lru_cache(maxsize=64)
def _lax_parts(two_s: int, eta: complex) -> tuple:
    sz, splus, sminus = spin_matrices(two_s, eta)
    return tuple(map(_read_only, (np.real(np.diag(sz)), sminus * np.sinh(eta),
                                  splus * np.sinh(eta))))


def xi_shifted(model: ChainModel, site: int, k: int) -> complex:
    """The k-th rung xi_site + (s_site - k)*eta; site is 1-based, k in 0..2s.

    Read from the model's ``rung_table``.
    """
    if not 1 <= site <= model.n_sites:
        raise IndexOutOfRange(f"site {site} outside 1..{model.n_sites}")
    two_s = model.two_s[site - 1]
    if not 0 <= k <= two_s:
        raise IndexOutOfRange(f"shift index {k} outside 0..{two_s}")
    table = model.rung_table
    return complex(table.rungs[table.position(site - 1, k)])


def q_integer(j: int, eta: complex) -> complex:
    """The deformed integer sinh(j*eta)/sinh(eta)."""
    return complex(np.sinh(j * eta) / np.sinh(eta))


def spin_matrices(two_s: int, eta: complex):
    """Deformed spin matrices (Sz, Splus, Sminus) in dimension 2s+1.

    Basis vector k (k = 0..2s) carries Sz eigenvalue s - k; the ladder
    amplitudes are x(k) = sqrt([k] [2s - k + 1]) in deformed integers, using
    the principal square root.  The triple satisfies [Sz, S+-] = +-S+- and
    [S+, S-] = sinh(2*eta*Sz)/sinh(eta).
    """
    dim = two_s + 1
    sz_diag = np.array([(two_s - 2 * k) / 2.0 for k in range(dim)])
    sz = np.diag(sz_diag.astype(complex))
    x = np.array([np.sqrt(complex(q_integer(k, eta)
                                  * q_integer(two_s - k + 1, eta)))
                  for k in range(1, dim)])
    return sz, np.diag(x, 1), np.diag(x, -1)


def r_matrix(lam: complex, eta: complex) -> np.ndarray:
    """The 4x4 six-vertex matrix acting on two auxiliary spaces."""
    sp = np.sinh(lam + eta)
    s = np.sinh(lam)
    e = np.sinh(eta)
    return np.array(
        [
            [sp, 0, 0, 0],
            [0, s, e, 0],
            [0, e, s, 0],
            [0, 0, 0, sp],
        ],
        dtype=complex,
    )


def lax(model: ChainModel, site: int, lam):
    """The four local blocks of the site Lax matrix at spectral point lam.

    Returns (a, b, c, d) with a = sinh(u + eta*Sz), b = Sminus*sinh(eta),
    c = Splus*sinh(eta), d = sinh(u - eta*Sz), where u = lam - xi_site; a
    and d stack one matrix per point of an array lam.  b and c are the
    read-only ``_lax_parts`` of the site's spin, shared by equal spins.
    """
    if not 1 <= site <= model.n_sites:
        raise IndexOutOfRange(f"site {site} outside 1..{model.n_sites}")
    u = np.asarray(lam, dtype=complex)[..., None] - model.xi[site - 1]
    sz_diag, b, c = _lax_parts(model.two_s[site - 1], model.eta)
    eye = np.eye(sz_diag.size)
    a = np.sinh(u + model.eta * sz_diag)[..., None] * eye
    d = np.sinh(u - model.eta * sz_diag)[..., None] * eye
    return a, b, c, d


# Kept out of __all__, so that the bench tracer puts each ``lax`` call
# under the ``monodromy`` or oracle span that asked for it.
def monodromy_entries(model: ChainModel, lam, blocks: str = "ABCD") -> tuple:
    """The nonzero entries of the named blocks (a run of "ABCD", such as
    "BC") at every point of lam: one array per block, lam's shape then the
    block's entries in plan order.  One ``lax`` call per site covers every
    point; the factors multiply in site order, partial product first, as
    the Kronecker recursion does, so the blocks equal it bit for bit.
    """
    first = "ABCD".index(blocks)  # a substring: "AD" raises ValueError
    plan = _monodromy_plan(model.two_s)
    cuts = plan.bounds[first:first + len(blocks) + 1]
    values = reduce(np.multiply, (
        _local_entries(*lax(model, site, lam))[..., row]
        for site, row in enumerate(plan.factors[:, cuts[0]:cuts[-1]], 1)))
    return tuple(values[..., i - cuts[0]:j - cuts[0]]
                 for i, j in zip(cuts, cuts[1:]))


def _scatter(model: ChainModel, pieces) -> np.ndarray:
    """One dense matrix per leading index of the (block k, entries) pieces,
    which share their leading axes: each piece at block k's nonzero
    positions, zeros elsewhere."""
    lead = np.shape(pieces[0][1])[:-1]
    dim = model.hilbert_dim
    out = np.zeros(lead + (dim * dim,), dtype=complex)
    for k, values in pieces:
        out[..., _monodromy_plan(model.two_s).positions[k]] = values
    return out.reshape(lead + (dim, dim))


def monodromy(model: ChainModel, lam, blocks: str = "ABCD") -> tuple:
    """The monodromy blocks named in ``blocks`` (all four by default) on
    the full quantum space, scattered from ``monodromy_entries`` (lam as
    there), each into its own zeros, so that they share no memory."""
    return tuple(_scatter(model, [("ABCD".index(name), values)])
                 for name, values in zip(blocks, monodromy_entries(
                     model, lam, blocks)))


def transfer_from_entries(model: ChainModel, b, c, kappa=1.0) -> np.ndarray:
    """kappa^{-1} B + kappa C (B + C by default) from the entries of B and
    C: one matrix per point of their leading axes, broadcast against the
    twists of an array kappa.  B and C share no position, so the entries,
    not dense blocks, are divided and multiplied, then scattered together."""
    kappa = np.asarray(kappa, dtype=complex)[..., None]
    return _scatter(model, [(1, b / kappa), (2, kappa * c)])


def _local_entries(a, b, c, d) -> np.ndarray:
    """A site's nonzero Lax entries, with the leading axes of a and d:
    [a diagonal, d diagonal, b subdiagonal, c superdiagonal]."""
    off = np.concatenate((b.diagonal(-1), c.diagonal(1)))
    return np.concatenate((a.diagonal(0, -2, -1), d.diagonal(0, -2, -1),
                           np.broadcast_to(off, a.shape[:-2] + off.shape)),
                          axis=-1)


class MonodromyPlan(NamedTuple):
    """Where the monodromy blocks A, B, C, D are nonzero, and which local
    Lax entry each site contributes to each such entry.

    positions[k] holds block k's nonzero flat positions, in the order the
    site recursion makes them.
    factors is (n_sites, nnz), the blocks' entries side by side in the
    order A, B, C, D, block k in columns bounds[k]:bounds[k + 1]; row n - 1
    indexes site n's ``_local_entries``.
    """

    positions: tuple
    factors: np.ndarray
    bounds: tuple


@lru_cache(maxsize=16)
def _monodromy_plan(two_s: tuple) -> MonodromyPlan:
    """The site recursion T' = L_n T on the nonzero entries only.

    An entry of the partial product carries its auxiliary row alpha and
    column beta (block 2 alpha + beta).  Site n multiplies it by a local
    entry of L_n[gamma, alpha]: from alpha = 0 by one of a (gamma 0) or c
    (gamma 1), from alpha = 1 by one of b (gamma 0) or d (gamma 1).  Both
    choices offer 2n - 1 local entries, so every entry extends to 2n - 1
    new ones, and the recursion starts from the identity on dimension 1.
    """
    dtype = np.min_scalar_type(4 * max(two_s) + 1)
    alpha = beta = np.arange(2)
    rows = cols = np.zeros(2, dtype=np.intp)
    table = np.zeros((0, 2), dtype=dtype)
    for v in two_s:
        local = _local_steps(v)[alpha]
        rows = (rows[:, None] * (v + 1) + local[:, 0]).ravel()
        cols = (cols[:, None] * (v + 1) + local[:, 1]).ravel()
        table = np.vstack((np.repeat(table, 2 * v + 1, axis=1),
                           local[:, 2].ravel().astype(dtype)))
        beta = np.repeat(beta, 2 * v + 1)
        alpha = local[:, 3].ravel()
    flat = rows * int(np.prod([v + 1 for v in two_s])) + cols
    # Grouped by block with masks, not sorted: np.argsort would page in
    # numpy's SIMD sort code, which shows in the peak RSS of a small run.
    block = 2 * alpha + beta
    masks = [block == k for k in range(4)]
    positions = tuple(_read_only(flat[mask]) for mask in masks)
    return MonodromyPlan(
        positions,
        _read_only(np.hstack([table[:, mask] for mask in masks])),
        tuple(np.cumsum([0] + [p.size for p in positions]).tolist()))


def _local_steps(two_s: int) -> np.ndarray:
    """Per incoming alpha, the (row, col, factor index, gamma) of the 2n - 1
    local entries it may take, n = two_s + 1: a then c from 0, b then d
    from 1, indexed as in ``_local_entries``."""
    n = two_s + 1
    k, j = np.arange(n), np.arange(n - 1)
    a = (k, k, k, np.zeros_like(k))
    d = (k, k, n + k, np.ones_like(k))
    b = (j + 1, j, 2 * n + j, np.zeros_like(j))
    c = (j, j + 1, 3 * n - 1 + j, np.ones_like(j))
    return np.array([np.concatenate(pair, axis=1) for pair in ((a, c), (b, d))])


def _edge_product(model: ChainModel, lam, sign: float):
    """prod_n sinh(lam - xi_n + sign*s_n*eta): one sinh over a trailing
    site axis, then a product; accepts any shape."""
    lam = np.asarray(lam, dtype=complex)
    half = sign * np.asarray(model.two_s) / 2.0 * model.eta
    out = np.sinh(lam[..., None] - np.asarray(model.xi) + half).prod(axis=-1)
    return out if lam.shape else complex(out)


def a_of(model: ChainModel, lam) -> complex:
    """Product of sinh(lam - xi_n + s_n*eta) over sites; accepts arrays."""
    return _edge_product(model, lam, 1.0)


def d_of(model: ChainModel, lam) -> complex:
    """Product of sinh(lam - xi_n - s_n*eta) over sites; accepts arrays."""
    return _edge_product(model, lam, -1.0)


def transfer_antiperiodic(model: ChainModel, lam: complex) -> np.ndarray:
    """The twisted antidiagonal transfer matrix kappa^{-1} B + kappa C."""
    b, c = monodromy(model, lam, "BC")
    return b / model.kappa + model.kappa * c


def twist_gauge(model: ChainModel, kappa=None) -> np.ndarray:
    """The diagonal kappa^{-|h|} of G, with kappa^{-1} B + kappa C =
    G (B + C) G^{-1}; kappa is the model's, or an array of twists with one
    diagonal each, in its shape.

    B lowers the total S^z by one and C raises it by one, so conjugating
    the untwisted B + C by G gives every B entry kappa^{-1} and every C
    entry kappa.  |h| = sum_n h_n counts the lowerings of basis state h
    from the top (``_h_grid``: rung index h_n at site n, site 1 the slowest
    index).  At kappa = 1 every entry is exactly 1.  A
    twist with a power kappa^{-k}, k <= N_s, 0 or not finite is a ConfigError.
    """
    kappa = np.asarray(model.kappa if kappa is None else kappa)[..., None]
    with np.errstate(all="ignore"):  # a bad power is named below
        powers = kappa ** -np.arange(model.n_s + 1)
    bad = kappa[~np.all(np.isfinite(powers) & (powers != 0), axis=-1)]
    if bad.size:
        raise ConfigError(f"twist kappa={complex(bad.flat[0]):.6g}: some "
                          f"kappa^-k, k <= {model.n_s}, is 0 or not finite")
    return powers[..., _lowerings(model.two_s)]


@lru_cache(maxsize=16)
def _h_grid(two_s: tuple) -> np.ndarray:
    """Row n: the rung index h_n of every basis state, read-only (N x dim).
    The states are in ``itertools.product`` order (site 1 the slowest)."""
    return _read_only(np.indices([v + 1 for v in two_s]).reshape(
        len(two_s), -1))


@lru_cache(maxsize=16)
def _lowerings(two_s: tuple) -> np.ndarray:
    """|h| of every basis state, read-only; P = (-1)^{|h|} is its parity."""
    return _read_only(_h_grid(two_s).sum(axis=0))


# ----------------------------------------------------------------------
# structural residuals (consumed by tests and the acceptance harness)


def _exchange_residual(first, second, dim_q, lam, mu, eta) -> float:
    """Relative defect of R12(lam - mu) L1 L2 = L2 L1 R12(lam - mu), where
    L1 lifts the 2x2-block operator ``first`` (at lam) and L2 ``second``
    (at mu) into aux1 (x) aux2 (x) quantum, quantum of dimension dim_q."""
    eye2 = np.eye(2)
    l1 = np.block([[np.kron(eye2, x) for x in first[:2]],
                   [np.kron(eye2, x) for x in first[2:]]])
    l2 = np.kron(eye2, np.block([list(second[:2]), list(second[2:])]))
    r12 = np.kron(r_matrix(lam - mu, eta), np.eye(dim_q))
    lhs = r12 @ l1 @ l2
    rhs = l2 @ l1 @ r12
    scale = max(np.linalg.norm(lhs), np.linalg.norm(rhs), 1e-300)
    return float(np.linalg.norm(lhs - rhs) / scale)


def rll_residual(model: ChainModel, site: int, lam: complex, mu: complex) -> float:
    """Relative defect of the exchange relation for one local Lax matrix."""
    return _exchange_residual(lax(model, site, lam), lax(model, site, mu),
                              model.two_s[site - 1] + 1, lam, mu, model.eta)


def rtt_residual(model: ChainModel, lam: complex, mu: complex) -> float:
    """Relative defect of the exchange relation for the full monodromy."""
    return _exchange_residual(monodromy(model, lam), monodromy(model, mu),
                              model.hilbert_dim, lam, mu, model.eta)


def quantum_determinant_residual(model: ChainModel, lam: complex) -> float:
    """Relative defect of both central-element orderings at one point."""
    a1, b1, c1, d1 = monodromy(model, lam)
    a0, b0, c0, d0 = monodromy(model, lam - model.eta)
    target = a_of(model, lam) * d_of(model, lam - model.eta)
    eye = np.eye(model.hilbert_dim)
    first = a1 @ d0 - b1 @ c0 - target * eye
    second = d1 @ a0 - c1 @ b0 - target * eye
    scale = max(abs(target), 1e-300)
    return float(
        max(np.linalg.norm(first), np.linalg.norm(second))
        / (scale * np.sqrt(model.hilbert_dim))
    )


# ----------------------------------------------------------------------
# normality


# The regimes' tolerance on |kappa| - 1 and on the parts of eta and xi that
# must vanish, and the five probe points (uniforms k and k + 5), drawn once.
_NORMALITY_TOL = 1e-12
_NORMALITY_DRAWS = np.random.default_rng(0).uniform(-1.0, 1.0, (2, 5))
_NORMALITY_POINTS = _read_only(_NORMALITY_DRAWS[0] + 1j * _NORMALITY_DRAWS[1])
del _NORMALITY_DRAWS


@dataclass(frozen=True)
class NormalityReport:
    case: str
    max_residual: float


def normality_check(model: ChainModel):
    """Check the adjoint symmetry of the transfer matrix at 5 fixed points.

    Two parameter regimes admit the symmetry: purely imaginary eta with real
    inhomogeneities (case "imaginary-eta"), where T(lam)^dag = -T(conj lam),
    and real eta with purely imaginary inhomogeneities (case "real-eta"),
    where T(lam)^dag = (-1)^(N-1) T(-conj lam).  Both need |kappa| = 1.
    Parameters fitting neither regime raise NotApplicable.
    """
    if abs(abs(model.kappa) - 1.0) > _NORMALITY_TOL:
        raise NotApplicable("normality needs |kappa| = 1")
    xi, tol = np.asarray(model.xi), _NORMALITY_TOL
    case_one = abs(model.eta.real) <= tol and np.all(np.abs(xi.imag) <= tol)
    case_two = abs(model.eta.imag) <= tol and np.all(np.abs(xi.real) <= tol)
    if case_one:
        case = "imaginary-eta"
    elif case_two:
        case = "real-eta"
    else:
        raise NotApplicable(
            "parameters fit neither normality regime (eta in i*R with real "
            "xi, or real eta with imaginary xi)"
        )
    pts = _NORMALITY_POINTS
    mirror, sign = ((np.conj(pts), -1.0) if case == "imaginary-eta"
                    else (-np.conj(pts), (-1.0) ** (model.n_sites - 1)))
    t, other = (transfer_from_entries(
        model, *monodromy_entries(model, z, "BC"), model.kappa)
        for z in (pts, mirror))
    defect = np.linalg.norm(t.conj().swapaxes(1, 2) - sign * other,
                            axis=(1, 2))
    worst = float(np.max(
        defect / np.maximum(np.linalg.norm(t, axis=(1, 2)), 1e-300)))
    return NormalityReport(case=case, max_residual=worst)
