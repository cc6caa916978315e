"""Arithmetic for trigonometric polynomials on the exponential lattice.

A trigonometric polynomial is stored as

    P(lam) = exp(-m1*u) * sum_{j=0}^{m2} c_j exp(2*j*u),    u = angle_scale*lam,

graded by the extremal exponents (m1, m2) and the parity bit m1 mod 2, which
fixes the sign picked up under the half-period shift u -> u + i*pi.  With
angle_scale 1 this family contains the ordinary products of sinh(lam - r);
with angle_scale 1/2 it contains the double-period products sinh((lam - r)/2).

Coefficients are kept exactly as computed, with no automatic trimming, so a
degree drop is always visible to the caller.  All operations are pure and
return new instances; instances are immutable and safe to share.

The pointwise kernels ``sinh_product`` (prod of sinh(s (lam - r)) over
roots) and ``cardinals`` (the Lagrange kernel of both T-Q closures) take
arrays of any shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DegenerateNodes, NotFullDegree, ScaleMismatch

# sinh_product runs on every Q evaluation, so it stays out of __all__ and
# out of the bench tracer's reach (bench/tracing.py wraps __all__).
__all__ = ["TrigPoly", "DEFAULT_TOL", "cardinals"]

DEFAULT_TOL = 1e-10

_VALID_SCALES = (1.0, 0.5)


@dataclass(frozen=True)
class TrigPoly:
    """One element of the graded family described in the module docstring.

    Parameters
    ----------
    parity : int
        0 or 1; the sign under the half-period shift is (-1)**parity.
    m1 : int
        Left extremal exponent; must agree with ``parity`` modulo 2.
    coeffs : sequence of complex
        Coefficients c_0..c_{m2}.  An empty sequence is the zero polynomial.
    angle_scale : float
        1.0 for the full-angle family, 0.5 for the half-angle one.
    """

    parity: int
    m1: int
    coeffs: tuple
    angle_scale: float = 1.0

    def __post_init__(self) -> None:
        if self.angle_scale not in _VALID_SCALES:
            raise ScaleMismatch(
                f"angle_scale must be 1 or 1/2, got {self.angle_scale!r}"
            )
        if self.parity not in (0, 1):
            raise ValueError(f"parity must be 0 or 1, got {self.parity!r}")
        if self.m1 % 2 != self.parity:
            raise ValueError(
                f"m1={self.m1} and parity={self.parity} disagree modulo 2"
            )
        object.__setattr__(
            self, "coeffs", tuple(complex(c) for c in self.coeffs)
        )

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zero(cls, angle_scale: float = 1.0) -> "TrigPoly":
        return cls(0, 0, (), angle_scale)

    @classmethod
    def constant(cls, value: complex, angle_scale: float = 1.0) -> "TrigPoly":
        return cls(0, 0, (complex(value),), angle_scale)

    @classmethod
    def exponential(
        cls, k: int, angle_scale: float = 1.0, coefficient: complex = 1.0
    ) -> "TrigPoly":
        """The unbalanced element coefficient * exp(k * angle_scale * lam)."""
        return cls((-k) % 2, -k, (complex(coefficient),), angle_scale)

    @classmethod
    def sinh_factor(cls, root: complex, angle_scale: float = 1.0) -> "TrigPoly":
        """sinh(angle_scale * (lam - root))."""
        r = angle_scale * complex(root)
        return cls(1, 1, (-np.exp(r) / 2.0, np.exp(-r) / 2.0), angle_scale)

    @classmethod
    def from_roots(
        cls,
        roots: Sequence[complex],
        angle_scale: float = 1.0,
        prefactor: complex = 1.0,
    ) -> "TrigPoly":
        """prefactor * prod_j sinh(angle_scale * (lam - root_j))."""
        p = cls.constant(prefactor, angle_scale)
        for r in roots:
            p = p * cls.sinh_factor(r, angle_scale)
        return p

    @classmethod
    def from_values(
        cls,
        nodes: Sequence[complex],
        values: Sequence[complex],
        m: int,
        angle_scale: float = 1.0,
    ) -> "TrigPoly":
        """Interpolate through |nodes| point/value pairs.

        The result has m2 = len(nodes) - 1 and m1 = m2 - m, so m is the
        exponential unbalance of the target class (m = 0 gives the balanced
        sinh-product family).  Nodes must be pairwise distinct in the
        exponential variable exp(2*angle_scale*node); colliding nodes raise
        DegenerateNodes.
        """
        nodes_arr = np.asarray(nodes, dtype=complex)
        values_arr = np.asarray(values, dtype=complex)
        if nodes_arr.ndim != 1 or nodes_arr.shape != values_arr.shape:
            raise ValueError("nodes and values must be 1-d of equal length")
        if nodes_arr.size == 0:
            raise ValueError("need at least one node")
        m2 = nodes_arr.size - 1
        m1 = m2 - m
        u = angle_scale * nodes_arr
        z = np.exp(2.0 * u)
        for i in range(z.size):
            for j in range(i + 1, z.size):
                if abs(z[i] - z[j]) <= 1e-10 * max(1.0, abs(z[i]), abs(z[j])):
                    raise DegenerateNodes(
                        f"nodes {i} and {j} coincide modulo the period"
                    )
        vand = z[:, None] ** np.arange(m2 + 1)[None, :]
        rhs = values_arr * np.exp(m1 * u)
        coeffs = np.linalg.solve(vand, rhs)
        return cls(m1 % 2, m1, tuple(coeffs), angle_scale)

    # ------------------------------------------------------------------
    # basic queries

    @property
    def m2(self) -> int:
        return len(self.coeffs) - 1

    def max_abs_coeff(self) -> float:
        if not self.coeffs:
            return 0.0
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return self.max_abs_coeff() <= tol

    # ------------------------------------------------------------------
    # evaluation

    def eval(self, lam):
        """Evaluate at a complex scalar or ndarray of points."""
        lam_arr = np.asarray(lam, dtype=complex)
        if not self.coeffs:
            out = np.zeros(lam_arr.shape, dtype=complex)
            return out if lam_arr.shape else complex(out)
        u = self.angle_scale * lam_arr
        w = np.exp(2.0 * u)
        acc = np.full(lam_arr.shape, self.coeffs[-1], dtype=complex)
        for c in self.coeffs[-2::-1]:
            acc = acc * w + c
        acc = acc * np.exp(-self.m1 * u)
        return acc if lam_arr.shape else complex(acc)

    __call__ = eval

    # ------------------------------------------------------------------
    # algebra

    def __mul__(self, other):
        if isinstance(other, TrigPoly):
            if other.angle_scale != self.angle_scale:
                raise ScaleMismatch(
                    "cannot multiply polynomials on different angle scales"
                )
            if not self.coeffs or not other.coeffs:
                return TrigPoly.zero(self.angle_scale)
            c = np.convolve(
                np.asarray(self.coeffs, dtype=complex),
                np.asarray(other.coeffs, dtype=complex),
            )
            return TrigPoly(
                (self.parity + other.parity) % 2,
                self.m1 + other.m1,
                tuple(c),
                self.angle_scale,
            )
        if not self.coeffs:
            return self
        scaled = complex(other) * np.asarray(self.coeffs, dtype=complex)
        return TrigPoly(self.parity, self.m1, tuple(scaled), self.angle_scale)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self.__mul__(-1.0)

    def __add__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        if other.angle_scale != self.angle_scale:
            raise ScaleMismatch("cannot add polynomials on different angle scales")
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        if self.parity != other.parity:
            raise ScaleMismatch(
                "cannot add polynomials of opposite parity: the sum leaves "
                "the graded family"
            )
        m1 = max(self.m1, other.m1)
        sa = (m1 - self.m1) // 2
        sb = (m1 - other.m1) // 2
        n = max(sa + len(self.coeffs), sb + len(other.coeffs))
        c = np.zeros(n, dtype=complex)
        c[sa : sa + len(self.coeffs)] += self.coeffs
        c[sb : sb + len(other.coeffs)] += other.coeffs
        return TrigPoly(self.parity, m1, tuple(c), self.angle_scale)

    def __sub__(self, other):
        if not isinstance(other, TrigPoly):
            return NotImplemented
        return self.__add__(other.__neg__())

    def shift(self, delta: complex) -> "TrigPoly":
        """The polynomial lam -> P(lam + delta), computed on coefficients."""
        if not self.coeffs:
            return self
        j = np.arange(len(self.coeffs))
        fac = np.exp((2 * j - self.m1) * (self.angle_scale * complex(delta)))
        return TrigPoly(
            self.parity,
            self.m1,
            tuple(np.asarray(self.coeffs, dtype=complex) * fac),
            self.angle_scale,
        )

    # ------------------------------------------------------------------
    # factorization

    def roots(self, tol: float = DEFAULT_TOL):
        """Factor a full-degree element into (normalization, roots).

        Returns (c_P, roots) with

            P(lam) = c_P * exp((m2 - m1)*u) * prod_j sinh(u - angle_scale*root_j)

        where u = angle_scale*lam.  Roots are found as eigenvalues of the
        balanced companion matrix in z = exp(2u), mapped back through the
        logarithm, normalized to Im root in [0, pi) for angle_scale 1 and
        [0, 2*pi) for angle_scale 1/2, and sorted by (real, imaginary) part.
        Raises NotFullDegree when an extremal coefficient vanishes relative
        to the largest one, or when a z-root leaves the trusted magnitude
        window [1e-12, 1e12].
        """
        c = np.asarray(self.coeffs, dtype=complex)
        if c.size == 0:
            raise NotFullDegree("the zero polynomial has no factored form")
        scale = float(np.max(np.abs(c)))
        if scale == 0.0:
            raise NotFullDegree("the zero polynomial has no factored form")
        if abs(c[0]) <= tol * scale or abs(c[-1]) <= tol * scale:
            raise NotFullDegree(
                "extremal coefficient vanishes: not in the full-degree class"
            )
        if c.size == 1:
            return complex(c[0]), np.zeros(0, dtype=complex)
        z = np.roots(c[::-1])
        if z.size != self.m2:
            raise NotFullDegree("companion solve lost roots")
        mags = np.abs(z)
        if np.any(mags < 1e-12) or np.any(mags > 1e12):
            raise NotFullDegree("root magnitude outside the trusted window")
        lam = np.log(z) / (2.0 * self.angle_scale)
        period = np.pi / self.angle_scale
        # Map into the fundamental strip Im in [0, period), snapping roundoff
        # at the branch seam (z on the positive real axis) to Im = 0 so that
        # real roots come out real instead of jittering across the period.
        seam = 1e-13
        lam = np.where(lam.imag < -seam, lam + 1j * period, lam)
        lam = np.where(lam.imag >= period - seam, lam - 1j * period, lam)
        lam = np.where(np.abs(lam.imag) <= seam, lam.real.astype(complex), lam)
        order = np.lexsort((lam.imag, lam.real))
        lam = lam[order]
        c_p = complex(
            c[-1] * 2.0**self.m2 * np.exp(self.angle_scale * np.sum(lam))
        )
        return c_p, lam


def sinh_product(lam, roots, angle_scale: float = 1.0):
    """prod_j sinh(angle_scale * (lam - roots_j)) for lam of any shape.

    One sinh over a trailing root axis, then a product; a scalar lam gives
    a complex.
    """
    lam = np.asarray(lam, dtype=complex)
    roots = np.asarray(roots, dtype=complex)
    out = np.sinh(angle_scale * (lam[..., None] - roots)).prod(axis=-1)
    return out if lam.shape else complex(out)


def cardinals(nodes, lam, angle_scale: float = 1.0) -> np.ndarray:
    """Cardinal functions of every node at lam, on a new trailing axis.

    Entry k is prod_{l != k} sinh(s (lam - z_l)) / sinh(s (z_k - z_l)) with
    s = angle_scale (1 for the full period, 1/2 for the doubled one): the
    balanced interpolant through the nodes that is 1 at node k and 0 at
    the others.  The leave-one-out product is masked, not divided out, so
    lam may sit on a node.
    """
    nodes = np.asarray(nodes, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    diag = np.arange(nodes.size)
    spread = np.sinh(angle_scale * (nodes[:, None] - nodes))
    spread[diag, diag] = 1.0
    ratio = np.sinh(angle_scale * (lam[..., None, None] - nodes)) / spread
    ratio[..., diag, diag] = 1.0
    return ratio.prod(axis=-1)

