"""The hyperbolic Schwarz map as a flat front.

Closed-form evaluation: with x(z) the inverse Schwarz map and ' = d/dz,

    U(z) = (i / sqrt(x')) [[z x', 1 + (z/2)(x''/x')],
                           [x',   (1/2)(x''/x')]],       det U = 1,

and H = U conj(U)^t, which is independent of the branch of sqrt(x').

Tiles by the chain rule: x is automorphic under the monodromy group,
x(g z) = x(z), so for g = [[a, b], [c, d]] of det 1 and j = c z + d,

    x'(g z) = j^2 x'(z),    x''(g z) = j^4 x''(z) + 2c j^3 x'(z),

and the front over every tile of a mesh follows from one evaluation of x
on the base triangle (eval_front_on_tiles).  Criterion 13 of selfcheck
checks the identity by evaluating x directly at g z.

Independent oracle: integrate dU/dx = U [[0, q],[1, 0]] along a path in the
x-plane from U = 1 at x0.  Both are solutions of that equation, so they
differ by a constant left factor: the closed-form U(z0) at z0 = z(x0).  The
H-grids then agree up to H -> P H conj(P)^t with P = U(z0), whose residual
match_isometry measures; the sign of sqrt(x') cancels in it.
"""

from __future__ import annotations

import math
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


class RamificationError(ValueError):
    """dx/dz = 0: z at a vertex of the tiling."""


class PathError(ValueError):
    """Integration path too close to a singular point of the equation."""


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
    inv raises.
    """
    shape = np.shape(matrices)[:-2] + np.shape(z0)
    m, n = np.reshape(matrices, (-1, 4)), np.size(z0)
    x, xd, xdd = inv.eval(z0 if shape == () else flat(z0))
    # every operand is one contiguous value per point, tile by tile, so an
    # array call runs the loops a scalar call runs on one element (numpy
    # may round a product with a broadcast operand differently)
    z0, x, xd, xdd = (np.tile(flat(v), len(m)) for v in (z0, x, xd, xdd))
    a, b, c, d = (np.repeat(v, n) for v in m.T)
    j = c * z0 + d
    j2 = j * j
    return unflat(shape, (a * z0 + b) / j, x, j2 * xd,
                  j2 * (j2 * xdd + 2.0 * c * j * xd))


def eval_front_on_tiles(inv, z0, matrices) -> FrontValue:
    """Front value at g z0 for every tile matrix g and base point z0 (see
    eval_inverse_on_tiles for the shapes); points where inv or the front
    fails are NaN in an array."""
    z, x, xd, xdd = eval_inverse_on_tiles(inv, z0, matrices)
    return FrontValue(front_hermitian(z, xd, xdd), z, x)


@np.errstate(invalid="ignore")    # NaN marks clipped points
def eval_front_matrix(inv, z, sqrt_prev=None):
    """The matrix U at z (a point or an array), with the sqrt branch chosen
    per point as the one nearer sqrt_prev.

    Returns (U, sqrt_xd), U of shape z.shape + (2, 2).  H = U conj(U)^t
    equals eval_front_closed_form.  Where inv fails or |x'| <
    RAMIFICATION_TOL, the error or NaN (see arrays.clip).
    """
    _, xd, xdd = inv.eval(z)
    shape, z, xd, xdd = np.shape(z), flat(z), flat(xd), flat(xdd)
    xd, = clip(abs(xd) < RAMIFICATION_TOL, shape, RamificationError,
               lambda: f"dx/dz vanishes at z={z[0]}", xd)
    s = np.sqrt(xd)
    if sqrt_prev is not None:
        prev = flat(sqrt_prev)
        s = np.where(abs(s - prev) > abs(-s - prev), -s, s)
    r = xdd / xd
    U = (1j / s)[:, None, None] * np.stack(
        [np.stack([z * xd, 1.0 + 0.5 * z * r], axis=-1),
         np.stack([xd, 0.5 * r], axis=-1)], axis=-2)
    if shape == ():
        return U[0], complex(s[0])
    return U.reshape(shape + (2, 2)), s.reshape(shape)


def _segment_distance(p, d, c):
    """Distance from the point c to the segments p -> p + d (arrays)."""
    dd = (d * d.conjugate()).real
    t = ((c - p) * d.conjugate()).real / np.where(dd > 0.0, dd, 1.0)
    return abs(p + np.clip(t, 0.0, 1.0) * d - c)


def integrate_sl_form(e: ExponentData, path) -> np.ndarray:
    """Integrate dU/dx = U [[0, q],[1, 0]] along a polyline of x values,
    from U = 1 at the first vertex; returns U at the last.

    The vertices of `path` are points or arrays of one common shape (a
    point broadcasts); each element is its own polyline, and U has shape
    shape + (2, 2).  Every segment must keep distance >= PATH_MARGIN
    from x = 0 and x = 1.

    Each segment is one solve_ivp in s in [0, 1] for all N paths at once,
    8 real components per path.  Its error norm is the RMS over all 8 N
    components, so rtol and atol are divided by sqrt(N): RMS <= 1 over the
    whole state then implies RMS <= 1 over each path's 8, the bound a
    solve of that path alone keeps at the undivided tolerances.  That
    needs rtol / sqrt(N) above solve_ivp's floor of 100 eps, so one call
    takes at most about 2e5 paths.
    """
    # imported here: scipy.integrate takes most of the package's import
    # time, and only this oracle needs it
    from scipy.integrate import solve_ivp

    if len(path) < 2:
        raise ValueError("path needs at least two points")
    shape = np.broadcast_shapes(*(np.shape(p) for p in path))
    pts = [np.broadcast_to(np.asarray(p, complex), shape).ravel()
           for p in path]
    n = pts[0].size
    for i, (p, q) in enumerate(zip(pts, pts[1:])):
        for c in (0.0, 1.0):
            bad = _segment_distance(p, q - p, c) < PATH_MARGIN
            if bad.any():
                j = np.flatnonzero(bad)[0]
                raise PathError(f"segment {i}, {p[j]} -> {q[j]}, passes "
                                f"within {PATH_MARGIN} of x = {c:g}")
    root_n = math.sqrt(max(n, 1))
    rtol, atol = 1e-11 / root_n, 1e-13 / root_n
    if rtol < 100 * np.finfo(float).eps:   # solve_ivp would raise rtol
        raise ValueError(f"{n} paths are too many for one solve")

    U = np.tile(np.eye(2, dtype=complex), (n, 1, 1))
    for i, (p, pq) in enumerate(zip(pts, pts[1:])):
        dx = pq - p
        A = np.zeros((n, 2, 2), complex)    # [[0, q], [1, 0]] dx
        A[:, 1, 0] = dx

        def rhs(s, y):
            A[:, 0, 1] = eval_q(e, p + s * dx).q * dx
            return (y.view(complex).reshape(n, 2, 2) @ A).view(float).ravel()

        sol = solve_ivp(rhs, (0.0, 1.0), U.view(float).ravel(),
                        method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise PathError(f"integration failed on segment {i}, "
                            f"{p[0]} -> {pq[0]} (first of {n} paths): "
                            f"{sol.message}")
        U = np.ascontiguousarray(sol.y[:, -1]).view(complex).reshape(n, 2, 2)
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
