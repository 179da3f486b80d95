"""Models of hyperbolic 3-space and conversions between them.

Three charts are supported: the upper half-space C x R+, the hyperboloid
L1 = {x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0} in Lorentz-Minkowski 4-space,
and the Poincare unit ball.  Points of H^3 are represented projectively by
positive-definite 2x2 Hermitian matrices; GL(2,C) acts by H -> P H P*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import clip, flat, unflat

# Determinant tolerance (relative to h*k) below which a form is rejected
# as degenerate rather than clamped.  det is computed as h*k - |w|^2, so
# cancellation noise is of order eps * h*k; forms from the front keep
# det = 1 while h*k grows near the ends, hence the small relative bound.
_PD_RTOL = 1e-14


class ChartError(ValueError):
    """Operation applied to a point in the wrong chart."""


class NotPositiveDefiniteError(ValueError):
    """Hermitian form is not (numerically) positive-definite."""


@dataclass(frozen=True)
class HermitianForm:
    """Positive-definite 2x2 Hermitian matrix [[h, conj(w)], [w, k]].

    h and k are the real diagonal entries, w the bottom-left entry; as
    arrays, one form per point, NaN where not positive-definite (see
    arrays.clip).
    """

    h: float
    k: float
    w: complex

    def __post_init__(self):
        shape, h, k, w = self.flat()
        det = h * k - abs(w) ** 2
        h, k, w = clip(~((h > 0.0) & (k > 0.0) & (det > _PD_RTOL * h * k)),
                       shape, NotPositiveDefiniteError, lambda: (
                           f"not positive-definite: h={h[0]}, k={k[0]}, "
                           f"det={det[0]} (tolerance {_PD_RTOL} h k)"),
                       h, k, w)
        h, k, w = unflat(shape, h, k, w)
        if shape == ():
            h, k, w = float(h), float(k), complex(w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)

    def flat(self):
        """(shape, h, k, w) with h, k, w as 1-D arrays (see arrays.flat)."""
        return (np.shape(self.h), flat(self.h, float), flat(self.k, float),
                flat(self.w))


@dataclass(frozen=True)
class H3Point:
    """A point of H^3 in exactly one chart.

    chart is one of "uhs" (z, t), "lorentz" (x0, x1, x2, x3) on L1,
    or "ball" (x1, x2, x3) with norm < 1; arrays of coordinates (NaN
    where clipped) when made from an array HermitianForm.
    """

    chart: str
    coords: tuple

    @classmethod
    def upper_half_space(cls, z: complex, t: float) -> "H3Point":
        z, t = clip(~(np.asarray(t) > 0), np.shape(t), ValueError,
                    lambda: f"height must be positive, got {t}", z, t)
        if np.ndim(t) == 0:
            z, t = complex(z), float(t)
        return cls("uhs", (z, t))

    @classmethod
    def lorentz(cls, x0: float, x1: float, x2: float, x3: float) -> "H3Point":
        q = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
        if x0 <= 0 or q <= 0:
            raise ValueError("not in the forward cone")
        r = 1.0 / math.sqrt(q)
        return cls("lorentz", (x0 * r, x1 * r, x2 * r, x3 * r))

    @classmethod
    def ball(cls, x1: float, x2: float, x3: float) -> "H3Point":
        x = clip(x1 * x1 + x2 * x2 + x3 * x3 >= 1.0, np.shape(x1),
                 ValueError, lambda: "ball point must have norm < 1",
                 x1, x2, x3)
        return cls("ball", tuple(map(float, x)) if np.ndim(x1) == 0 else x)


@np.errstate(invalid="ignore")    # NaN marks clipped points
def hermitian_to_upper_half_space(H: HermitianForm) -> H3Point:
    """(z, t) = (w/k, sqrt(h k - |w|^2)/k)."""
    shape, h, k, w = H.flat()
    return H3Point.upper_half_space(
        *unflat(shape, w / k, np.sqrt(h * k - abs(w) ** 2) / k))


def upper_half_space_to_hermitian(p: H3Point) -> HermitianForm:
    """Embedding (z, t) -> [[t^2 + |z|^2, conj(z)], [z, 1]]."""
    if p.chart != "uhs":
        raise ChartError(f"expected uhs chart, got {p.chart}")
    z, t = p.coords
    return HermitianForm(t * t + abs(z) ** 2, 1.0, z)


def hermitian_to_lorentz(H: HermitianForm) -> H3Point:
    """(h+k, 2 Re w, 2 Im w, h-k) / (2 sqrt(det H)).

    The Lorentz norm of the numerator is exactly 4 det(H), so the point
    is built pre-normalized; recomputing the quadratic form from the
    scaled coordinates would lose it to cancellation near the boundary.
    """
    shape, h, k, w = H.flat()
    r = 0.5 / np.sqrt(h * k - abs(w) ** 2)
    x = unflat(shape, r * (h + k), r * 2.0 * w.real, r * 2.0 * w.imag,
               r * (h - k))
    return H3Point("lorentz", tuple(map(float, x)) if shape == () else x)


def lorentz_to_hermitian(p: H3Point) -> HermitianForm:
    if p.chart != "lorentz":
        raise ChartError(f"expected lorentz chart, got {p.chart}")
    x0, x1, x2, x3 = p.coords
    return HermitianForm(x0 + x3, x0 - x3, complex(x1, x2))


def lorentz_to_ball(p: H3Point) -> H3Point:
    """(x1, x2, x3) / (1 + x0)."""
    if p.chart != "lorentz":
        raise ChartError(f"expected lorentz chart, got {p.chart}")
    x0, x1, x2, x3 = p.coords
    r = 1.0 / (1.0 + x0)
    return H3Point.ball(r * x1, r * x2, r * x3)


def ball_to_lorentz(p: H3Point) -> H3Point:
    if p.chart != "ball":
        raise ChartError(f"expected ball chart, got {p.chart}")
    x1, x2, x3 = p.coords
    n2 = x1 * x1 + x2 * x2 + x3 * x3
    r = 1.0 / (1.0 - n2)
    return H3Point.lorentz(r * (1.0 + n2), 2.0 * r * x1, 2.0 * r * x2,
                           2.0 * r * x3)


def hermitian_to_ball(H: HermitianForm) -> H3Point:
    return lorentz_to_ball(hermitian_to_lorentz(H))
