"""Operator content of the twisted antiperiodic chain.

Builds the per-site spin representations, the local Lax matrices, the chain
monodromy blocks A, B, C, D, the scalar products a and d, and the twisted
antidiagonal transfer matrix kappa^{-1} B(lam) + kappa C(lam), which the
diagonal ``twist_gauge`` conjugates into the untwisted B + C.  Everything is
dense.  The monodromy is built by Kronecker recursion (site n acts only on
tensor factor n), so each site step costs O(dim^2); callers still build
each operator once per (model, lam) and reuse it.  Everything on the rungs
that does not depend on an eigenvalue (the rungs, a and d there, and the
signed companion factors) is built once per model, on first use, in the
read-only ``ChainModel.rung_table``, the one place the rung formula is
evaluated; ``on_rungs`` evaluates a function on every rung in one call.
Likewise ``ChainModel.lax_table`` holds each site's Sz diagonal and
sinh(eta) S+-, so a Lax build computes only its two diagonal blocks.
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
from functools import cached_property, reduce
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, IndexOutOfRange, NotApplicable

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
        for k in range(1, max(two_s) + 2):
            if abs(np.sinh(k * self.eta)) <= _ETA_DEGENERACY_TOL:
                raise ConfigError(
                    f"eta={self.eta} is too close to the i*pi-commensurate "
                    f"set: |sinh({k}*eta)| <= {_ETA_DEGENERACY_TOL}"
                )
        for i, j, d, gap in self._ladder_gaps():
            if gap < self.delta_min:
                raise ConfigError(
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

    def genericity_margin(self) -> float:
        """Smallest shifted-ladder separation modulo i*pi over site pairs."""
        return float(min((gap for *_, gap in self._ladder_gaps()),
                         default=np.inf))

    @cached_property
    def rung_table(self) -> tuple:
        """One read-only ``SiteRungs`` per site, built on first use."""
        return tuple(_site_table(self, n) for n in range(1, self.n_sites + 1))

    @cached_property
    def lax_table(self) -> tuple:
        """Per site, the spectral-point-free parts of its Lax blocks: the Sz
        diagonal and sinh(eta) S-, sinh(eta) S+, read-only, built on first
        use and shared by sites of equal spin."""
        blocks = {v: _lax_parts(v, self.eta) for v in set(self.two_s)}
        return tuple(blocks[v] for v in self.two_s)


class SiteRungs(NamedTuple):
    """Eigenvalue-independent data on one site's ladder, top rung first.

    companion[h - 1] = (-1)^h prod_{k < h} a(rung_k) / d(rung_{k+1}) for
    h = 1..2s regauges rung vectors from left-state to right-state form.
    """

    rungs: np.ndarray
    a: np.ndarray
    d: np.ndarray
    companion: np.ndarray


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _site_table(model: ChainModel, site: int) -> SiteRungs:
    """The one evaluation of the rung formula xi + (s - k)*eta."""
    two_s = model.two_s[site - 1]
    xi = model.xi[site - 1]
    rungs = np.array(
        [xi + (two_s - 2 * k) / 2.0 * model.eta for k in range(two_s + 1)]
    )
    a, d = a_of(model, rungs), d_of(model, rungs)
    signs = (-1.0) ** np.arange(1, two_s + 1)
    companion = signs * np.cumprod(a[:-1] / d[1:])
    return SiteRungs(*map(_read_only, (rungs, a, d, companion)))


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
    return complex(model.rung_table[site - 1].rungs[k])


# Kept out of __all__ like ``trigpoly.sinh_product``: it runs on every
# eigenvalue, so the bench tracer must not wrap it.
def on_rungs(model: ChainModel, fn) -> tuple:
    """fn evaluated once on every rung, site-major, split per site along
    the last axis of its result."""
    rungs = [rung.rungs for rung in model.rung_table]
    values = fn(np.concatenate(rungs))
    return tuple(np.split(values, np.cumsum([r.size for r in rungs[:-1]]),
                          axis=-1))


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
    x = np.array(
        [
            np.sqrt(
                complex(q_integer(k, eta) * q_integer(two_s - k + 1, eta))
            )
            for k in range(1, dim)
        ]
    )
    sminus = np.zeros((dim, dim), dtype=complex)
    splus = np.zeros((dim, dim), dtype=complex)
    for k in range(dim - 1):
        sminus[k + 1, k] = x[k]
        splus[k, k + 1] = x[k]
    return sz, splus, sminus


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


def lax(model: ChainModel, site: int, lam: complex):
    """The four local blocks of the site Lax matrix at spectral point lam.

    Returns (a, b, c, d) with a = sinh(u + eta*Sz), b = Sminus*sinh(eta),
    c = Splus*sinh(eta), d = sinh(u - eta*Sz), where u = lam - xi_site.
    b and c are the model's read-only ``lax_table`` entries.
    """
    if not 1 <= site <= model.n_sites:
        raise IndexOutOfRange(f"site {site} outside 1..{model.n_sites}")
    u = complex(lam) - model.xi[site - 1]
    sz_diag, b, c = model.lax_table[site - 1]
    a = np.diag(np.sinh(u + model.eta * sz_diag))
    d = np.diag(np.sinh(u - model.eta * sz_diag))
    return a, b, c, d


def monodromy(model: ChainModel, lam: complex):
    """The four monodromy blocks (A, B, C, D) on the full quantum space.

    The product runs site N leftmost.  Site n acts only on tensor factor n
    (site 1 is the slowest index), so multiplying its Lax blocks onto the
    partial product of sites 1..n-1 is a Kronecker product:
    an @ a + bn @ c = kron(a, an) + kron(c, bn), and likewise for B, C, D.
    """
    a, b, c, d = lax(model, 1, lam)
    for site in range(2, model.n_sites + 1):
        an, bn, cn, dn = lax(model, site, lam)
        a, b, c, d = (
            _kron(a, an) + _kron(c, bn),
            _kron(b, an) + _kron(d, bn),
            _kron(a, cn) + _kron(c, dn),
            _kron(b, cn) + _kron(d, dn),
        )
    return a, b, c, d


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """np.kron of two arrays of equal ndim, bit for bit, without its
    overhead: one broadcast product laid out (x0, y0, x1, y1, ...) and a
    reshape."""
    xs = x.reshape([v for n in x.shape for v in (n, 1)])
    ys = y.reshape([v for n in y.shape for v in (1, n)])
    return (xs * ys).reshape([m * n for m, n in zip(x.shape, y.shape)])


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
    _, b, c, _ = monodromy(model, lam)
    return b / model.kappa + model.kappa * c


def twist_gauge(model: ChainModel) -> np.ndarray:
    """The diagonal kappa^{-|h|} of G, with kappa^{-1} B + kappa C =
    G (B + C) G^{-1}.

    B lowers the total S^z by one and C raises it by one, so conjugating
    the untwisted B + C by G gives every B entry kappa^{-1} and every C
    entry kappa.  |h| = sum_n h_n counts the lowerings of basis state h
    from the top (rung index h_n at site n, site 1 the slowest index, as in
    ``sovbasis.all_h_tuples``).  At kappa = 1 every entry is exactly 1.
    """
    lowerings = reduce(np.add.outer, [np.arange(v + 1) for v in model.two_s])
    return model.kappa ** -np.ravel(lowerings)


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


@dataclass(frozen=True)
class NormalityReport:
    case: str
    max_residual: float
    probe_points: tuple


def normality_check(model: ChainModel, seed: int = 0, tol_param: float = 1e-12):
    """Check the adjoint symmetry of the transfer matrix at 5 random points.

    Two parameter regimes admit the symmetry: purely imaginary eta with real
    inhomogeneities (case "imaginary-eta"), where T(lam)^dag = -T(conj lam),
    and real eta with purely imaginary inhomogeneities (case "real-eta"),
    where T(lam)^dag = (-1)^(N-1) T(-conj lam).  Both need |kappa| = 1.
    Parameters fitting neither regime raise NotApplicable.
    """
    if abs(abs(model.kappa) - 1.0) > tol_param:
        raise NotApplicable("normality needs |kappa| = 1")
    case_one = abs(model.eta.real) <= tol_param and all(
        abs(x.imag) <= tol_param for x in model.xi
    )
    case_two = abs(model.eta.imag) <= tol_param and all(
        abs(x.real) <= tol_param for x in model.xi
    )
    if case_one:
        case = "imaginary-eta"
    elif case_two:
        case = "real-eta"
    else:
        raise NotApplicable(
            "parameters fit neither normality regime (eta in i*R with real "
            "xi, or real eta with imaginary xi)"
        )
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-1.0, 1.0, 5) + 1j * rng.uniform(-1.0, 1.0, 5)
    sign = (-1.0) ** (model.n_sites - 1)
    worst = 0.0
    for lam in pts:
        t = transfer_antiperiodic(model, lam)
        if case == "imaginary-eta":
            other = -transfer_antiperiodic(model, np.conj(lam))
        else:
            other = sign * transfer_antiperiodic(model, -np.conj(lam))
        scale = max(np.linalg.norm(t), 1e-300)
        worst = max(
            worst, float(np.linalg.norm(t.conj().T - other) / scale)
        )
    return NormalityReport(
        case=case, max_residual=worst, probe_points=tuple(pts)
    )
