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

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

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


def front_hermitian(z: complex, xd: complex, xdd: complex) -> HermitianForm:
    """H of the front from z, x' and x'' (branch-free closed form)."""
    if abs(xd) < RAMIFICATION_TOL:
        raise RamificationError(f"dx/dz vanishes at z={z}")
    r = xdd / xd
    ax = abs(xd)
    a = 1.0 + 0.5 * z * r
    h = (abs(z) ** 2 * ax ** 2 + abs(a) ** 2) / ax
    k = (ax ** 2 + 0.25 * abs(r) ** 2) / ax
    w = (z.conjugate() * ax ** 2
         + 0.5 * (1.0 + 0.5 * z.conjugate() * r.conjugate()) * r) / ax
    return HermitianForm(h, k, w)


def eval_front_closed_form(inv, z: complex) -> FrontValue:
    """Front value at z for an inverse-map evaluator `inv`."""
    z = complex(z)
    x, xd, xdd = inv.eval(z)
    return FrontValue(front_hermitian(z, xd, xdd), z, x)


def eval_front_matrix(inv, z: complex, sqrt_prev: complex | None = None):
    """The matrix U at z, with the sqrt branch continued from sqrt_prev.

    Returns (U, sqrt_xd).  H = U conj(U)^t equals eval_front_closed_form.
    """
    z = complex(z)
    x, xd, xdd = inv.eval(z)
    if abs(xd) < RAMIFICATION_TOL:
        raise RamificationError(f"dx/dz vanishes at z={z}")
    s = cmath.sqrt(xd)
    if sqrt_prev is not None and abs(s - sqrt_prev) > abs(-s - sqrt_prev):
        s = -s
    r = xdd / xd
    U = (1j / s) * np.array([[z * xd, 1.0 + 0.5 * z * r],
                             [xd, 0.5 * r]], dtype=complex)
    return U, s


@dataclass(frozen=True)
class FundamentalSolution:
    U: np.ndarray
    basepoint: complex
    endpoint: complex
    path: tuple


def integrate_sl_form(e: ExponentData, path, U0=None) -> FundamentalSolution:
    """Integrate dU/dx = U [[0, q],[1, 0]] along a polyline of x values.

    U0 defaults to the identity; det U0 must be 1.  The path must keep
    distance >= PATH_MARGIN from x = 0 and x = 1.
    """
    path = [complex(p) for p in path]
    if len(path) < 2:
        raise ValueError("path needs at least two points")
    for p, q in zip(path, path[1:]):
        for s in np.linspace(0.0, 1.0, 33):
            xt = p + s * (q - p)
            if abs(xt) < PATH_MARGIN or abs(xt - 1.0) < PATH_MARGIN:
                raise PathError(
                    f"path point {xt} within {PATH_MARGIN} of a singularity")
    if U0 is None:
        U0 = np.eye(2, dtype=complex)
    U0 = np.asarray(U0, dtype=complex)
    if abs(np.linalg.det(U0) - 1.0) > 1e-9:
        raise ValueError("U0 must have determinant 1")

    U = U0
    for p, pq in zip(path, path[1:]):
        dx = pq - p

        def rhs(s, y):
            x = p + s * dx
            qv = eval_q(e, x).q
            u = y[:4].reshape(2, 2) + 1j * y[4:].reshape(2, 2)
            du = (u @ np.array([[0.0, qv], [1.0, 0.0]])) * dx
            return np.concatenate([du.real.ravel(), du.imag.ravel()])

        y0 = np.concatenate([U.real.ravel(), U.imag.ravel()])
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                        rtol=1e-11, atol=1e-13, dense_output=False)
        if not sol.success:
            raise PathError(f"integration failed on segment {p} -> {pq}: "
                            f"{sol.message}")
        yf = sol.y[:, -1]
        U = yf[:4].reshape(2, 2) + 1j * yf[4:].reshape(2, 2)
    return FundamentalSolution(U=U, basepoint=path[0], endpoint=path[-1],
                               path=tuple(path))


def hermitian_of_solution(U: np.ndarray) -> HermitianForm:
    m = U @ U.conj().T
    return HermitianForm(m[0, 0].real, m[1, 1].real, m[1, 0])


# --- isometry matching ------------------------------------------------------

def match_isometry(grid_a, grid_b):
    """Find P with H_a ~ P H_b conj(P)^t over two matched H-grids.

    grid_a, grid_b: sequences of HermitianForm (or FrontValue) sampling the
    same parameter points.  Returns (Isometry, residual) with residual the
    max relative Frobenius distance over the grid.
    """
    Ha = [g.H if isinstance(g, FrontValue) else g for g in grid_a]
    Hb = [g.H if isinstance(g, FrontValue) else g for g in grid_b]
    if len(Ha) != len(Hb) or len(Ha) < 3:
        raise ValueError("need two grids of equal length >= 3")
    n = len(Ha)

    def solve_triple(i, j, k):
        M1, M2 = Hb[i].matrix(), Hb[j].matrix()
        N1, N2 = Ha[i].matrix(), Ha[j].matrix()
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
        G3 = va_inv @ Hb[k].matrix() @ va_inv.conj().T
        Gn3 = vb_inv @ Ha[k].matrix() @ vb_inv.conj().T
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
    iso = Isometry(P)
    resid = 0.0
    for a, b in zip(Ha, Hb):
        t = P @ b.matrix() @ P.conj().T
        resid = max(resid, float(np.linalg.norm(a.matrix() - t)
                                 / np.linalg.norm(a.matrix())))
    return iso, resid


# --- end behavior -----------------------------------------------------------

@dataclass
class EndProbe:
    points: list           # ball-chart H3Point along the ray
    norms: np.ndarray
    monotone_tail: bool
    limit: np.ndarray | None   # Cauchy limit estimate, None if not converged


def end_behavior_probe(inv, zs, tail_fraction: float = 0.5,
                       cauchy_tol: float = 1e-6) -> EndProbe:
    """Evaluate the front along a ray of z approaching an end.

    zs must be ordered toward the end.  Checks that the ball-chart norms
    increase monotonically on the tail and that the boundary point
    converges (Cauchy within cauchy_tol).
    """
    pts = []
    for z in zs:
        fv = eval_front_closed_form(inv, z)
        pts.append(hermitian_to_ball(fv.H))
    coords = np.array([p.coords for p in pts])
    norms = np.linalg.norm(coords, axis=1)
    k = max(2, int(len(zs) * tail_fraction))
    tail = norms[-k:]
    monotone = bool(np.all(np.diff(tail) > 0))
    # Cauchy test on the direction of approach
    dirs = coords[-k:] / norms[-k:, None]
    steps = np.linalg.norm(np.diff(dirs, axis=0), axis=1)
    limit = dirs[-1] if steps.size and steps[-1] < cauchy_tol else None
    return EndProbe(points=pts, norms=norms, monotone_tail=monotone,
                    limit=limit)
