"""Stacked kernels for trigonometric polynomials on the exponential lattice.

A trigonometric polynomial is stored by its coefficients as

    P(lam) = exp(-m1*u) * sum_{j=0}^{m2} c_j exp(2*j*u),    u = angle_scale*lam,

graded by the extremal exponents (m1, m2) and the parity bit m1 mod 2, which
fixes the sign picked up under the half-period shift u -> u + i*pi.  With
angle_scale 1 this family contains the ordinary products of sinh(lam - r);
with angle_scale 1/2 it contains the double-period products sinh((lam - r)/2).

There is no polynomial arithmetic: a polynomial is built from its values at
m2 + 1 nodes, which fix its class, and the pointwise kernels compute those
values.  ``sinh_product`` (prod of sinh(s (lam - r)) over roots) and
``cardinals`` (the Lagrange kernel of both T-Q closures) take arrays of any
shape.  ``sinh_product`` is evaluated in exponential form, one exp per
point and per root and no complex sinh per factor; its two products
mirror each other operand for operand, so a point bit-equal to a root gives
an exact 0.  ``interpolate``, ``horner`` and ``factor`` turn values into
coefficients, coefficients into values, and coefficients into roots for a
whole stack of polynomials, one per row.  ``TrigPoly.from_values``
remains only as the traced bench's hook on ``interpolate``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNodes, NotFullDegree, record

# sinh_product runs on every Q evaluation, so it stays out of __all__ and
# out of the bench tracer's reach (bench/tracing.py wraps __all__).  It
# takes exp(+-s lam) once per point and exp(+-s r) once per root and runs no
# complex sinh; its exact 0 on a root rests on the mirrored operand order.
__all__ = ["TrigPoly", "cardinals", "interpolate", "factor"]


class TrigPoly:
    """Kept only as the traced bench's hook: ``bench/run.py --trace 1``
    wraps ``from_values`` and reads the condition number of the
    Vandermonde matrix of every call.  Nothing in the package calls it."""

    @classmethod
    def from_values(cls, nodes, values, m: int, angle_scale: float = 1.0):
        """``interpolate(nodes, values, m, angle_scale)``."""
        return interpolate(nodes, values, m, angle_scale)


# ----------------------------------------------------------------------
# batch kernels: one row per polynomial, on a leading axis


def interpolate(nodes, values, m: int, angle_scale: float = 1.0):
    """Coefficients through the nodes for every row of values.

    The result has m2 = len(nodes) - 1 and m1 = m2 - m, so m is the
    exponential unbalance of the target class (m = 0 gives the balanced
    sinh-product family).  values holds one row of node values per
    polynomial on its leading axes.  Each row is solved against its own
    copy of the Vandermonde matrix, so a row's coefficients do not depend
    on the rows beside it.  Raises DegenerateNodes when two nodes coincide
    modulo the period.
    """
    nodes = np.asarray(nodes, dtype=complex)
    values = np.asarray(values, dtype=complex)
    m2 = nodes.size - 1
    u = angle_scale * nodes
    z = np.exp(2.0 * u)
    # np.hypot matches Python's complex abs bit for bit; np.abs does not.
    diff, size = z[:, None] - z, np.hypot(z.real, z.imag)
    close = np.triu(np.hypot(diff.real, diff.imag) <= 1e-10 * np.maximum(
        1.0, np.maximum(size[:, None], size)), k=1)
    if close.any():
        i, j = np.argwhere(close)[0]
        raise DegenerateNodes(f"nodes {i} and {j} coincide modulo the period")
    vand = z[:, None] ** np.arange(m2 + 1)[None, :]
    rhs = values * np.exp((m2 - m) * u)
    stack = np.broadcast_to(vand, rhs.shape + (m2 + 1,))
    return np.linalg.solve(stack, rhs[..., None])[..., 0]


def horner(coeffs, m1: int, lam, angle_scale: float = 1.0):
    """Every row of coefficients (leading axes) evaluated at the points
    lam: the result has the rows' shape followed by lam's."""
    c = np.asarray(coeffs, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    c = c.reshape(c.shape[:-1] + (1,) * lam.ndim + c.shape[-1:])
    u = angle_scale * lam
    w = np.exp(2.0 * u)
    acc = np.broadcast_to(c[..., -1], np.broadcast_shapes(c.shape[:-1], w.shape))
    for k in range(c.shape[-1] - 2, -1, -1):
        acc = acc * w + c[..., k]
    return acc * np.exp(-m1 * u)


def factor(coeffs, angle_scale: float = 1.0):
    """Factor every row of an (E, m2 + 1) coefficient array, m2 >= 1, as

        P(lam) = c_P * exp((m2 - m1)*u) * prod_j sinh(u - angle_scale*root_j)

    with u = angle_scale*lam.  Returns (c_P, roots, errors): roots is
    (E, m2), normalized to Im root in [0, pi/angle_scale) and sorted by
    (real, imaginary) part, and errors holds per row None or a
    NotFullDegree: an extremal coefficient at most 1e-10 of the largest,
    or a root of z = exp(2u) outside [1e-12, 1e12] in magnitude.  The
    companion matrices are built exactly as ``np.roots`` builds them and
    go through one stacked ``np.linalg.eigvals``; a failed row's matrix is
    zeroed so it cannot stop the others.
    """
    c = np.asarray(coeffs, dtype=complex)
    rows, m2 = c.shape[0], c.shape[1] - 1
    errors = [None] * rows
    scale = np.max(np.abs(c), axis=1)
    record(errors, scale == 0.0, lambda k: NotFullDegree(
        "the zero polynomial has no factored form"))
    ends = np.minimum(np.abs(c[:, 0]), np.abs(c[:, -1]))
    record(errors, ends <= 1e-10 * scale, lambda k: NotFullDegree(
        "extremal coefficient vanishes: not in the full-degree class"))
    live = np.array([e is None for e in errors], dtype=bool)
    companion = np.zeros((rows, m2, m2), dtype=complex)
    companion[:, 1:, :-1] = np.eye(m2 - 1)
    companion[live, 0] = -c[live, -2::-1] / c[live, -1:]
    z = np.linalg.eigvals(companion)
    mags = np.abs(z)
    record(errors, np.any((mags < 1e-12) | (mags > 1e12), axis=1),
           lambda k: NotFullDegree("root magnitude outside the trusted window"))
    # A failed row's garbage may overflow; its error is already recorded.
    with np.errstate(all="ignore"):
        lam = np.log(z) / (2.0 * angle_scale)
        period = np.pi / angle_scale
        # Map into the fundamental strip Im in [0, period), snapping roundoff
        # at the branch seam (z on the positive real axis) to Im = 0 so that
        # real roots come out real instead of jittering across the period.
        seam = 1e-13
        lam = np.where(lam.imag < -seam, lam + 1j * period, lam)
        lam = np.where(lam.imag >= period - seam, lam - 1j * period, lam)
        lam = np.where(np.abs(lam.imag) <= seam, lam.real.astype(complex),
                       lam)
        order = np.lexsort((lam.imag, lam.real), axis=1)
        lam = np.take_along_axis(lam, order, axis=1)
        c_p = c[:, -1] * 2.0**m2 * np.exp(angle_scale * np.sum(lam, axis=1))
    return c_p, lam, errors


def sinh_product(lam, roots, angle_scale: float = 1.0):
    """prod_j sinh(angle_scale * (lam - roots_j)) for lam of any shape.

    Evaluated in exponential form, with no complex sinh: for s =
    angle_scale, exp(s lam) and exp(-s lam) are taken once per point and
    exp(s r) and exp(-s r) once per root, and factor j is

        (exp(s lam)/2) exp(-s r_j) - (exp(s r_j)/2) exp(-s lam),

    where halving is exact.  The second product mirrors the first operand
    for operand, so a point bit-equal to a root gives an exact 0: numpy's
    complex multiply may fuse a multiply and an add and is then not
    commutative in the last bit.  Each factor is good to a few ulps of
    |exp(s lam - s r)| + |exp(s r - s lam)|, so beside a root it is
    accurate in absolute, not relative, terms.  Each factor multiplies
    into a running product over the points, root by root in order, so no
    points-by-roots array is built; no roots give exactly 1.  A scalar lam
    gives a complex.  Roots with leading axes are rows, one product each:
    lam then holds either points shared by every row or one row of points
    per row (its second-to-last axis), and the rows lead in the result.
    """
    lam = np.asarray(lam, dtype=complex)
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim > 1:
        roots = roots[..., None, :]
    lam_pos = 0.5 * np.exp(angle_scale * lam)
    lam_neg = np.exp(-angle_scale * lam)
    at_root = angle_scale * roots
    root_pos = 0.5 * np.exp(at_root)
    root_neg = np.exp(-at_root)
    out = np.ones(np.broadcast_shapes(lam.shape, roots.shape[:-1]),
                  dtype=complex)
    factor, term = np.empty_like(out), np.empty_like(out)
    for j in range(roots.shape[-1]):
        np.multiply(lam_pos, root_neg[..., j], out=factor)
        factor -= np.multiply(root_pos[..., j], lam_neg, out=term)
        out *= factor
    return out if out.shape else complex(out)


def cardinals(nodes, lam, angle_scale: float = 1.0) -> np.ndarray:
    """Cardinal functions of every node at lam, on a new trailing axis.

    Entry k is prod_{l != k} sinh(s (lam - z_l)) / sinh(s (z_k - z_l)) with
    s = angle_scale (1 for the full period, 1/2 for the doubled one): the
    balanced interpolant through the nodes that is 1 at node k and 0 at
    the others.  The leave-one-out product is masked, not divided out, so
    lam may sit on a node.  Nodes with leading axes are rows, one node set
    each, and lam broadcasts against those axes.
    """
    nodes = np.asarray(nodes, dtype=complex)
    lam = np.asarray(lam, dtype=complex)
    diag = np.arange(nodes.shape[-1])
    spread = np.sinh(angle_scale * (nodes[..., :, None] - nodes[..., None, :]))
    spread[..., diag, diag] = 1.0
    ratio = (np.sinh(angle_scale * (lam[..., None, None] - nodes[..., None, :]))
             / spread)
    ratio[..., diag, diag] = 1.0
    return ratio.prod(axis=-1)

