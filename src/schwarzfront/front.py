"""The hyperbolic Schwarz map as a flat front.

Closed-form evaluation: with x(z) the inverse Schwarz map and ' = d/dz,

    U(z) = (i / sqrt(x')) [[z x', 1 + (z/2)(x''/x')],
                           [x',   (1/2)(x''/x')]],       det U = 1,

and H = U conj(U)^t, which is independent of the branch of sqrt(x').

Independent oracle: integrate dU/dx = U [[0, q],[1, 0]] along a path in the
x-plane; the two fundamental solutions differ by a constant left factor P,
recovered by match_isometry, so the H-grids agree up to one isometry.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import clip, flat, unflat
from .equation import ExponentData, eval_q
from .h3 import H3Point, HermitianForm, Isometry, hermitian_to_ball

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


@dataclass(frozen=True)
class FundamentalSolution:
    U: np.ndarray
    basepoint: complex
    endpoint: complex
    path: tuple


def _segment_distance(p, d, c):
    """Distance from the point c to the segments p -> p + d (arrays)."""
    dd = (d * d.conjugate()).real
    t = ((c - p) * d.conjugate()).real / np.where(dd > 0.0, dd, 1.0)
    return abs(p + np.clip(t, 0.0, 1.0) * d - c)


def integrate_sl_form(e: ExponentData, path, U0=None) -> FundamentalSolution:
    """Integrate dU/dx = U [[0, q],[1, 0]] along a polyline of x values.

    The vertices of `path` are points or arrays of one common shape (a
    point broadcasts); each element is its own polyline, and U has shape
    shape + (2, 2).  U0 (2x2, or one per path) defaults to the identity;
    det U0 must be 1.  Every segment must keep distance >= PATH_MARGIN
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
    U0 = np.eye(2) if U0 is None else U0
    U = np.ascontiguousarray(
        np.broadcast_to(np.asarray(U0, complex), shape + (2, 2)))
    if (abs(np.linalg.det(U) - 1.0) > 1e-9).any():
        raise ValueError("U0 must have determinant 1")
    root_n = math.sqrt(max(n, 1))
    rtol, atol = 1e-11 / root_n, 1e-13 / root_n
    if rtol < 100 * np.finfo(float).eps:   # solve_ivp would raise rtol
        raise ValueError(f"{n} paths are too many for one solve")

    U = U.reshape(n, 2, 2)
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
    if shape == ():
        return FundamentalSolution(U=U[0], basepoint=complex(pts[0][0]),
                                   endpoint=complex(pts[-1][0]),
                                   path=tuple(complex(p[0]) for p in pts))
    return FundamentalSolution(
        U=U.reshape(shape + (2, 2)), basepoint=pts[0].reshape(shape),
        endpoint=pts[-1].reshape(shape),
        path=tuple(p.reshape(shape) for p in pts))


def hermitian_of_solution(U) -> HermitianForm:
    """H = U conj(U)^t for U of shape (..., 2, 2), one form per matrix."""
    U = np.asarray(U)
    m = U @ U.conj().swapaxes(-1, -2)
    return HermitianForm(m[..., 0, 0].real, m[..., 1, 1].real, m[..., 1, 0])


# --- isometry matching ------------------------------------------------------

def _matrices(grid) -> np.ndarray:
    """The (n, 2, 2) matrices of a grid: one array HermitianForm, or a
    sequence of HermitianForm (or FrontValue)."""
    if isinstance(grid, HermitianForm):
        _, h, k, w = grid.flat()
    else:
        forms = [g.H if isinstance(g, FrontValue) else g for g in grid]
        h, k, w = (np.array([getattr(f, a) for f in forms], dtype=complex)
                   for a in "hkw")
    return np.stack([np.stack([h, w.conjugate()], axis=-1),
                     np.stack([w, k], axis=-1)], axis=-2)


def match_isometry(grid_a, grid_b):
    """Find P with H_a ~ P H_b conj(P)^t over two matched H-grids.

    grid_a, grid_b: one array HermitianForm each, or sequences of
    HermitianForm (or FrontValue), sampling the same parameter points.
    Returns (Isometry, residual) with residual the max relative Frobenius
    distance over the grid.
    """
    Ma, Mb = _matrices(grid_a), _matrices(grid_b)
    if len(Ma) != len(Mb) or len(Ma) < 3:
        raise ValueError("need two grids of equal length >= 3")
    n = len(Ma)

    def solve_triple(i, j, k):
        M1, M2 = Mb[i], Mb[j]
        N1, N2 = Ma[i], Ma[j]
        A = M1 @ np.linalg.inv(M2)
        B = N1 @ np.linalg.inv(N2)
        wa, va = np.linalg.eig(A)
        wb, vb = np.linalg.eig(B)
        if abs(wa[0] - wa[1]) < 1e-6 * (abs(wa[0]) + abs(wa[1])):
            return None  # eigenvalues too close to separate
        # align eigenvalue order
        if abs(wa[0] - wb[0]) + abs(wa[1] - wb[1]) > \
           abs(wa[0] - wb[1]) + abs(wa[1] - wb[0]):
            wb = wb[::-1]
            vb = vb[:, ::-1]
        va_inv = np.linalg.inv(va)
        vb_inv = np.linalg.inv(vb)
        # In the shared eigenbasis both anchor forms become diagonal, so the
        # congruence P = vb diag(c1, c2) va^{-1} fixes |c1|, |c2| but leaves
        # the relative phase free (rotation about the geodesic through the
        # two anchor points).  A third form pins it down.
        G = va_inv @ M1 @ va_inv.conj().T
        Gn = vb_inv @ N1 @ vb_inv.conj().T
        if min(G[0, 0].real, G[1, 1].real, Gn[0, 0].real, Gn[1, 1].real) <= 0:
            return None
        c1 = math.sqrt(Gn[0, 0].real / G[0, 0].real)
        c2m = math.sqrt(Gn[1, 1].real / G[1, 1].real)
        G3 = va_inv @ Mb[k] @ va_inv.conj().T
        Gn3 = vb_inv @ Ma[k] @ vb_inv.conj().T
        scale = abs(G3[0, 0]) + abs(G3[1, 1])
        if abs(G3[0, 1]) < 1e-9 * scale:
            return None  # third point on the same axis, phase still free
        phase = Gn3[0, 1] / (c1 * G3[0, 1])
        c2 = c2m * (phase / abs(phase)).conjugate()
        P = vb @ np.diag([c1, c2]) @ va_inv
        return P

    P = None
    anchors = [(0, n // 2, n - 1), (0, n - 1, n // 2), (1, n // 2, n - 1),
               (n // 4, 3 * n // 4, 0), (0, 1, 2)]
    for i, j, k in anchors:
        if len({i, j, k}) < 3 or max(i, j, k) >= n:
            continue
        try:
            P = solve_triple(i, j, k)
        except np.linalg.LinAlgError:
            P = None
        if P is not None:
            break
    if P is None:
        raise ValueError("could not solve for an isometry from the grids")
    T = P @ Mb @ P.conj().T
    resid = float(np.max(np.linalg.norm(Ma - T, axis=(1, 2))
                         / np.linalg.norm(Ma, axis=(1, 2))))
    return Isometry(P), resid


# --- end behavior -----------------------------------------------------------

@dataclass
class EndProbe:
    norms: np.ndarray      # of the ball-chart points along the ray
    monotone_tail: bool
    limit: np.ndarray | None   # Cauchy limit estimate, None if not converged


def end_behavior_probe(inv, zs, tail_fraction: float = 0.5,
                       cauchy_tol: float = 1e-6) -> EndProbe:
    """Evaluate the front along a ray of z approaching an end.

    zs must be ordered toward the end.  Checks that the ball-chart norms
    increase monotonically on the tail and that the boundary point
    converges (Cauchy within cauchy_tol).
    """
    H = eval_front_closed_form(inv, np.asarray(zs, dtype=complex)).H
    coords = np.stack(hermitian_to_ball(H).coords, axis=-1)
    norms = np.linalg.norm(coords, axis=1)
    k = max(2, int(len(zs) * tail_fraction))
    tail = norms[-k:]
    monotone = bool(np.all(np.diff(tail) > 0))
    # Cauchy test on the direction of approach
    dirs = coords[-k:] / norms[-k:, None]
    steps = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    limit = dirs[-1] if steps.size and steps[-1] < cauchy_tol else None
    return EndProbe(norms=norms, monotone_tail=monotone, limit=limit)
