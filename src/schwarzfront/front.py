"""The hyperbolic Schwarz map as a flat front.

Closed-form evaluation: with x(z) the inverse Schwarz map and ' = d/dz,

    U(z) = (i / sqrt(x')) [[z x', 1 + (z/2)(x''/x')],
                           [x',   (1/2)(x''/x')]],       det U = 1,

and H = U conj(U)^t, which is independent of the branch of sqrt(x').

Tiles by the chain rule: x is automorphic under the monodromy group,
x(g z) = x(z), so for g = [[a, b], [c, d]] of det 1 and j = c z + d,

    x'(g z) = j^2 x'(z),    x''(g z) = j^4 x''(z) + 2c j^3 x'(z),

and the front over every tile of a mesh follows from one evaluation of x
on the base triangle (eval_front_on_tiles).  In U these give
U(g z) = +-g U(z), so H(g z) = g H(z) conj(g)^t: the tile matrix is the
front's isometry.  Criterion 13 of selfcheck checks that identity by
evaluating x directly at g z.

Independent oracle: transport dU/dx = U [[0, q],[1, 0]] by power series
along a path in the x-plane from U = 1 at x0, using neither x(z) nor U(z).
Both solve that equation, so they differ by a constant left factor, the
closed-form P = U(z0) at z0 = z(x0); match_isometry measures the residual of
H -> P H conj(P)^t, in which the sign of sqrt(x') cancels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import clip, flat, unflat
from .equation import ExponentData, eval_q
from .h3 import HermitianForm
# unused here; kept because bench/spans.py wraps front.hermitian_to_ball
from .h3 import hermitian_to_ball  # noqa: F401

# evaluation is refused where |dx/dz| is below this (ramification points)
RAMIFICATION_TOL = 1e-12

# minimum distance of oracle paths from the equation's singular points
PATH_MARGIN = 1e-3

# an oracle step spans at most this share of the distance from its centre
# to {0, 1}; at this ratio _TERMS terms of the series put the tail bound in
# integrate_sl_form, (2N + 2) 2^-N, below eps (1.0e-16 at N = 60)
STEP_RATIO = 0.5
_TERMS = 60


class RamificationError(ValueError):
    """dx/dz = 0: z at a vertex of the tiling."""


class PathError(ValueError):
    """Integration path with a non-finite vertex, or too close to a
    singular point of the equation."""


@dataclass(frozen=True)
class FrontValue:
    H: HermitianForm
    z: complex
    x: complex


@np.errstate(invalid="ignore")    # NaN marks clipped points
def front_hermitian(z, xd, xdd) -> HermitianForm:
    """H of the front from z, x', x'' (branch-free closed form), scalars or
    arrays; where |x'| < RAMIFICATION_TOL, RamificationError or NaN."""
    shape, z, xd, xdd = np.shape(z), flat(z), flat(xd), flat(xdd)
    xd, = clip(abs(xd) < RAMIFICATION_TOL, shape, RamificationError,
               lambda: f"dx/dz vanishes at z={z[0]}", xd)
    r = xdd / xd
    ax = abs(xd)
    a = 1.0 + 0.5 * z * r
    h = (abs(z) ** 2 * ax ** 2 + abs(a) ** 2) / ax
    k = (ax ** 2 + 0.25 * abs(r) ** 2) / ax
    w = (z.conjugate() * ax ** 2
         + 0.5 * (1.0 + 0.5 * z.conjugate() * r.conjugate()) * r) / ax
    return HermitianForm(*unflat(shape, h, k, w))


def eval_front_closed_form(inv, z) -> FrontValue:
    """Front value at z (a point or an array) for an inverse-map evaluator
    `inv`; points where inv or the front fails are NaN in an array."""
    x, xd, xdd = inv.eval(z)
    return FrontValue(front_hermitian(z, xd, xdd), z, x)


def eval_inverse_on_tiles(inv, z0, matrices):
    """(z, x, x', x'') at z = g z0 for every tile matrix g (det 1) and
    base point z0, from one call inv.eval(z0) and the chain rule.

    z0: a point or an array; matrices: one (2, 2) matrix or an array of
    them, (..., 2, 2).  Results have shape matrices.shape[:-2] +
    z0.shape; a scalar call is one point and one matrix, and raises where
    inv raises.  x, the same at every tile, is a read-only view of the
    base grid's values.
    """
    shape = np.shape(matrices)[:-2] + np.shape(z0)
    m, n = np.reshape(matrices, (-1, 4)), np.size(z0)
    x, xd, xdd = inv.eval(z0 if shape == () else flat(z0))
    if shape != ():
        x = np.broadcast_to(np.reshape(x, np.shape(z0)), shape)
    # every operand is one contiguous value per point, tile by tile, so an
    # array call runs the loops a scalar call runs on one element (numpy
    # may round a product with a broadcast operand differently)
    z0, xd, xdd = (np.tile(flat(v), len(m)) for v in (z0, xd, xdd))
    a, b, c, d = (np.repeat(v, n) for v in m.T)
    j = c * z0 + d
    j2 = j * j
    z, xd, xdd = unflat(shape, (a * z0 + b) / j, j2 * xd,
                        j2 * (j2 * xdd + 2.0 * c * j * xd))
    return z, x, xd, xdd


def eval_front_on_tiles(inv, z0, matrices) -> FrontValue:
    """Front value at g z0 for every tile matrix g and base point z0 (see
    eval_inverse_on_tiles for the shapes); points where inv or the front
    fails are NaN in an array."""
    z, x, xd, xdd = eval_inverse_on_tiles(inv, z0, matrices)
    return FrontValue(front_hermitian(z, xd, xdd), z, x)


@np.errstate(invalid="ignore")    # NaN marks clipped points
def front_matrix(z, xd, xdd):
    """The matrix U from z, x', x'' (scalars or arrays), on the principal
    branch of sqrt(x').

    Returns (U, sqrt_xd), U of shape z.shape + (2, 2).  H = U conj(U)^t
    equals front_hermitian.  Where |x'| < RAMIFICATION_TOL,
    RamificationError or NaN (see arrays.clip).
    """
    shape, z, xd, xdd = np.shape(z), flat(z), flat(xd), flat(xdd)
    xd, = clip(abs(xd) < RAMIFICATION_TOL, shape, RamificationError,
               lambda: f"dx/dz vanishes at z={z[0]}", xd)
    s = np.sqrt(xd)
    r = xdd / xd
    U = (1j / s)[:, None, None] * np.stack(
        [np.stack([z * xd, 1.0 + 0.5 * z * r], axis=-1),
         np.stack([xd, 0.5 * r], axis=-1)], axis=-2)
    return unflat(shape, U, s)


def eval_front_matrix(inv, z):
    """front_matrix at z (a point or an array) for an inverse-map evaluator
    `inv`; where inv fails, its error or NaN."""
    _, xd, xdd = inv.eval(z)
    return front_matrix(z, xd, xdd)


def _segment_distance(p, d, c):
    """Distance from the point c to the segments p -> p + d (arrays)."""
    dd = (d * d.conjugate()).real
    t = ((c - p) * d.conjugate()).real / np.where(dd > 0.0, dd, 1.0)
    return abs(p + np.clip(t, 0.0, 1.0) * d - c)


def _step_matrix(e: ExponentData, c, h):
    """Rows (a, a')(c + h) of a'' = q a from (a, a')(c) = (1, 0), (0, 1)."""
    # with b_m = a_m h^m for a = sum a_m (x - c)^m, the (x - c)^(m - 2)
    # term of p a'' + Q a = 0 gives b_m from b_(m-k), k = 1..4: pk, qk are
    # the t^k terms of p(c + h t) / p(c) = (1 + al t + be t^2)^2 and of
    # Q(c + h t) h^2 t^2 / p(c), with p = 4 w^2, w = x (1 - x)
    w, v = c * (1.0 - c), eval_q(e, c)
    al, be, g = (1.0 - 2.0 * c) * h / w, -h * h / w, 0.25 * (h / w) ** 2
    pk = np.array([2.0 * al, al * al + 2.0 * be, 2.0 * al * be, be * be])
    qk = np.array([0.0 * h, g * v.Q, g * v.Qp * h, g * e.q_coeffs[0] * h * h])
    b = np.zeros((_TERMS + 2, len(c), 2), complex)    # b_-2 .. b_(N-1)
    b[2, :, 0], b[3, :, 1] = 1.0, h
    k, m = np.arange(1, 5)[:, None], np.arange(2, _TERMS)[:, None, None]
    # the factors of b_(m-k), k = 1..4, for every m at once: (m, k, path)
    f = (((m - k) * (m - k - 1) * pk + qk) / (m * (1 - m)))[..., None]
    for m in range(2, _TERMS):
        b[m + 2] = (f[m - 2] * b[m - 2:m + 2][::-1]).sum(axis=0)
    m = np.arange(-2, _TERMS)[:, None, None]
    return np.stack([b.sum(axis=0), (m * b).sum(axis=0) / h[:, None]], -1)


def integrate_sl_form(e: ExponentData, path) -> np.ndarray:
    """Transport dU/dx = U [[0, q],[1, 0]] along a polyline of x values,
    from U = 1 at the first vertex; returns U at the last.

    The vertices of `path` are points or arrays of one common shape (a
    point broadcasts); each element is its own polyline, and U has shape
    shape + (2, 2).  Every vertex must be finite, and every segment keep
    distance >= PATH_MARGIN from x = 0 and x = 1: PathError, naming the
    segment, before any step otherwise.

    Each row of U is (a, a') for a solution of a'' = q a.  All paths step
    together, each step h at most r = STEP_RATIO of the way from its centre
    c to {0, 1}, and U is multiplied by the step's fundamental matrix, from
    N = _TERMS terms of the series at c.  With M = max |a| on the disc about
    c out to {0, 1} (finite for |mu| <= 1), Cauchy's estimate bounds the
    tail of a by M r^N / (1 - r) and of h a' by M r^N (N + r / (1 - r)) /
    (1 - r), both below eps M.
    """
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    shape = np.broadcast_shapes(*(np.shape(p) for p in path))
    pts = [np.broadcast_to(np.asarray(p, complex), shape).ravel()
           for p in path]
    segments = list(zip(pts, pts[1:]))
    for i, (p, end) in enumerate(segments):
        # a NaN step never reaches its end, and infinity has no distance
        bad = ~(np.isfinite(p) & np.isfinite(end))
        if bad.any():
            j = np.flatnonzero(bad)[0]
            raise PathError(f"segment {i}, {p[j]} -> {end[j]}, has a "
                            f"non-finite vertex")
        for c in (0.0, 1.0):
            bad = _segment_distance(p, end - p, c) < PATH_MARGIN
            if bad.any():
                j = np.flatnonzero(bad)[0]
                raise PathError(f"segment {i}, {p[j]} -> {end[j]}, passes "
                                f"within {PATH_MARGIN} of x = {c:g}")
    U = np.tile(np.eye(2, dtype=complex), (pts[0].size, 1, 1))
    for p, end in segments:
        x, live = p.copy(), np.flatnonzero(p != end)
        while live.size:
            c, d = x[live], end[live] - x[live]
            reach = STEP_RATIO * np.minimum(abs(c), abs(c - 1.0))
            h = d * np.minimum(1.0, reach / abs(d))
            x[live] = np.where(h == d, end[live], c + h)
            # the step ends on the rounded x, where the next one starts; a
            # gap of one ulp there is a relative error of ulp / |x - 1|
            U[live] = U[live] @ _step_matrix(e, c, x[live] - c)
            live = live[x[live] != end[live]]
    return U.reshape(shape + (2, 2))


def hermitian_of_solution(U) -> HermitianForm:
    """H = U conj(U)^t for U of shape (..., 2, 2), one form per matrix."""
    U = np.asarray(U)
    m = U @ U.conj().swapaxes(-1, -2)
    return HermitianForm(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0])


# --- isometry residual -----------------------------------------------------

def _matrices(H: HermitianForm) -> np.ndarray:
    """The (n, 2, 2) matrices of an array HermitianForm."""
    _, h, k, w = H.flat()
    return np.stack([np.stack([h, w.conjugate()], axis=-1),
                     np.stack([w, k], axis=-1)], axis=-2)


def match_isometry(grid_a, grid_b, P) -> float:
    """Max relative Frobenius distance |H_a - P H_b conj(P)^t| / |H_a|
    over two matched H-grids.

    grid_a, grid_b: one array HermitianForm each, sampling the same
    parameter points; P: one (2, 2) matrix, or one per point, (n, 2, 2).
    """
    Ma, Mb = _matrices(grid_a), _matrices(grid_b)
    if len(Ma) != len(Mb):
        raise ValueError("need two grids of equal length")
    P = np.asarray(P)
    T = P @ Mb @ P.conj().swapaxes(-1, -2)
    return float(np.max(np.linalg.norm(Ma - T, axis=(1, 2))
                        / np.linalg.norm(Ma, axis=(1, 2))))
