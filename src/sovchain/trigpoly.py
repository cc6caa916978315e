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
shape.  ``sinh_product`` runs no complex sinh: it is a product of
differences z - zeta of exponentials taken once per point and once per
root, so a point bit-equal to a root gives an exact 0.  ``interpolate``
and ``horner`` turn values into coefficients and coefficients into values
for a whole stack of polynomials, one per row; ``interpolant_roots``, the
one root step of both T-Q solvers, turns node values into roots.
``TrigPoly.from_values`` remains only as the traced bench's hook on
``interpolate``.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateNodes, NotFullDegree, record

# sinh_product runs on every Q evaluation, so it stays out of __all__ and
# out of the bench tracer's reach (bench/tracing.py wraps __all__).
__all__ = ["TrigPoly", "cardinals", "interpolate", "interpolant_roots"]


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
    close = np.hypot(diff.real, diff.imag) <= 1e-10 * np.maximum(
        1.0, np.maximum(size[:, None], size))
    close &= np.arange(m2 + 1)[:, None] < np.arange(m2 + 1)
    if np.count_nonzero(close):
        i, j = np.argwhere(close)[0]
        raise DegenerateNodes(f"nodes {i} and {j} coincide modulo the period")
    vand = z[:, None] ** np.arange(m2 + 1)[None, :]
    rhs = values * np.exp((m2 - m) * u)
    return np.linalg.solve(vand, rhs[..., None])[..., 0]


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


def interpolant_roots(nodes, values, angle_scale: float = 1.0):
    """Roots of the balanced interpolant through the nodes, for every row
    of an (E, m2 + 1) array of node values, m2 >= 1.

    Each row is ``interpolate``d at m = 0 and its interpolant factored as

        P(lam) = c * prod_j sinh(angle_scale * (lam - root_j)),

    with the constant c not formed.  Returns (roots, errors): roots is
    (E, m2), normalized to Im root in [0, pi/angle_scale) and sorted by
    (real, imaginary) part, and errors holds per row None, the
    DegenerateNodes of the shared nodes, or a NotFullDegree: a coefficient
    not finite, or an extremal coefficient at most 1e-10 of the largest
    (past this test, Cauchy's bound keeps every root of z = exp(2u) within
    about [1e-10, 1e10] in magnitude).  The companion matrices are built
    exactly as ``np.roots`` builds them and go through one stacked
    ``np.linalg.eigvals``; a row not finite or with a vanishing extremal
    coefficient keeps a zero first row, so it cannot stop others.
    """
    values = np.asarray(values, dtype=complex)
    rows, m2 = values.shape[0], values.shape[1] - 1
    errors = [None] * rows
    try:
        c = interpolate(nodes, values, 0, angle_scale)
    except DegenerateNodes as exc:  # the nodes are shared by every row
        record(errors, np.ones(rows, dtype=bool), lambda k: exc)
        c = np.ones(values.shape, dtype=complex)
    mags = np.abs(c)
    scale = mags.max(axis=1)
    finite = np.isfinite(scale)
    thin = ~finite | (np.minimum(mags[:, 0], mags[:, -1]) <= 1e-10 * scale)
    companion = np.zeros((rows, m2, m2), dtype=complex)
    companion.reshape(rows, m2 * m2)[:, m2::m2 + 1] = 1.0  # subdiagonal
    np.divide(-c[:, -2::-1], c[:, -1:], out=companion[:, 0],
              where=~thin[:, None])
    z = np.linalg.eigvals(companion)
    # A failed row's garbage may overflow; its error is recorded below.
    with np.errstate(all="ignore"):
        lam = np.log(z) / (2.0 * angle_scale)
        period = np.pi / angle_scale
        # Map into the fundamental strip Im in [0, period), snapping roundoff
        # at the branch seam (z on the positive real axis) to Im = 0 so that
        # real roots come out real instead of jittering across the period.
        seam = 1e-13
        np.add(lam, 1j * period, out=lam, where=lam.imag < -seam)
        np.subtract(lam, 1j * period, out=lam, where=lam.imag >= period - seam)
        lam.imag[np.abs(lam.imag) <= seam] = 0.0
        order = np.lexsort((lam.imag, lam.real), axis=1)
        lam = lam[np.arange(rows)[:, None], order]
    record(errors, ~finite, lambda k: NotFullDegree(
        "a coefficient is not finite"))
    record(errors, scale == 0.0, lambda k: NotFullDegree(
        "the zero polynomial has no factored form"))
    record(errors, thin, lambda k: NotFullDegree(
        "extremal coefficient vanishes: not in the full-degree class"))
    return lam, errors


def sinh_product(lam, roots, angle_scale: float = 1.0):
    """prod_j sinh(angle_scale * (lam - roots_j)) for lam of any shape.

    Evaluated with no complex sinh: for s = angle_scale and m roots,

        prod_j sinh(s (lam - r_j))
            = [prod_j exp(-s r_j)/2] exp(-s lam)**m prod_j (z - zeta_j),

    with z = exp(2 s lam) taken once per point and zeta_j = exp(2 s r_j)
    and exp(-s r_j) once per root.  Each root then costs one subtraction
    and one multiply over the points.  A point bit-equal to a root gives an
    exact 0, as z and zeta_j are the same exp of the same argument.  Factor
    j is good to a few ulps of |z| + |zeta_j|, so beside a root it is
    accurate in absolute, not relative, terms.  The prefactor is a product
    of exps and a power, not the exp of a sum, which would round its
    argument; no roots give exactly 1.  A scalar lam gives a complex.
    Roots with leading axes are rows, one product each: lam then holds
    either points shared by every row or one row of points per row (its
    second-to-last axis), and the rows lead in the result.
    """
    lam = np.asarray(lam, dtype=complex)
    roots = np.asarray(roots, dtype=complex)
    if roots.ndim > 1:
        roots = roots[..., None, :]
    count = roots.shape[-1]
    zeta = np.exp(2.0 * angle_scale * roots)
    z = np.exp(2.0 * angle_scale * lam)
    out = np.multiply(np.prod(0.5 * np.exp(-angle_scale * roots), axis=-1),
                      np.exp(-angle_scale * lam) ** count)
    factor = np.empty_like(out)
    for j in range(count):
        out *= np.subtract(z, zeta[..., j], out=factor)
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

