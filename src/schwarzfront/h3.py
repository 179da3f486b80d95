"""Models of hyperbolic 3-space and conversions between them.

Three charts are supported: the upper half-space C x R+, the hyperboloid
L1 = {x0^2 - x1^2 - x2^2 - x3^2 = 1, x0 > 0} in Lorentz-Minkowski 4-space,
and the Poincare unit ball.  A point of H^3 is a positive-definite 2x2
Hermitian form of det 1, as the front's H = U conj(U)^t with det U = 1;
SL(2,C) acts by H -> P H P*.  The chart maps read h, k and w with det 1
and never recompute det = h k - |w|^2: near the front's ends h k passes
1e15, and the difference would cancel to noise of order eps h k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import clip, flat, unflat

# Hyperbolic distance within which float64 places an accepted point.  For
# det H = 1, x0 = (h + k)/2 = cosh(distance from the point I), and one ulp
# of a coordinate in either chart moves the point by at most about
# eps x0, so a form with h + k >= _REACH is clipped.
RESOLUTION = 1e-6
_REACH = 2.0 * RESOLUTION / np.finfo(float).eps


class ChartError(ValueError):
    """Operation applied to a point in the wrong chart."""


class NotPositiveDefiniteError(ValueError):
    """Hermitian form is not positive-definite within float64 reach."""


@dataclass(frozen=True)
class HermitianForm:
    """A point of H^3: the Hermitian matrix [[h, conj(w)], [w, k]] with
    det 1, which the caller guarantees and nothing here recomputes.

    As arrays, one form per point.  With det 1, positive-definite means
    h, k > 0; a form is also clipped (NotPositiveDefiniteError, or NaN in
    an array, see arrays.clip) unless h + k < _REACH, in every chart.
    """

    h: float
    k: float
    w: complex

    def __post_init__(self):
        shape, h, k, w = self.flat()
        # h < _REACH - k is h + k < _REACH, and cannot overflow
        h, k, w = clip(~((h > 0.0) & (k > 0.0) & (h < _REACH - k)), shape,
                       NotPositiveDefiniteError, lambda: (
                           f"need h, k > 0 and h + k < {_REACH:.3g}, got "
                           f"h={h[0]}, k={k[0]}"), h, k, w)
        h, k, w = unflat(shape, h, k, w)
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
        shape, z, t = np.shape(t), flat(z), flat(t, float)
        z, t = clip(~(t > 0), shape, ValueError,
                    lambda: f"height must be positive, got {t[0]}", z, t)
        return cls("uhs", unflat(shape, z, t))

    @classmethod
    def lorentz(cls, x0: float, x1: float, x2: float, x3: float) -> "H3Point":
        shape = np.shape(x0)
        x0, x1, x2, x3 = (flat(c, float) for c in (x0, x1, x2, x3))
        q = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
        q, *x = clip(~((x0 > 0) & (q > 0)), shape, ValueError,
                     lambda: "not in the forward cone", q, x0, x1, x2, x3)
        r = 1.0 / np.sqrt(q)
        return cls("lorentz", unflat(shape, *(c * r for c in x)))

    @classmethod
    def ball(cls, x1: float, x2: float, x3: float) -> "H3Point":
        shape = np.shape(x1)
        x1, x2, x3 = (flat(c, float) for c in (x1, x2, x3))
        x = clip(x1 * x1 + x2 * x2 + x3 * x3 >= 1.0, shape, ValueError,
                 lambda: "ball point must have norm < 1", x1, x2, x3)
        return cls("ball", unflat(shape, *x))


@np.errstate(invalid="ignore")    # complex w/k warns where k is NaN
def hermitian_to_upper_half_space(H: HermitianForm) -> H3Point:
    """(z, t) = (w/k, 1/k)."""
    shape, _, k, w = H.flat()
    return H3Point.upper_half_space(*unflat(shape, w / k, 1.0 / k))


@np.errstate(invalid="ignore")    # complex z/t warns where t is NaN
def upper_half_space_to_hermitian(p: H3Point) -> HermitianForm:
    """(z, t) -> [[t + |z|^2/t, conj(z)/t], [z/t, 1/t]], of det 1."""
    if p.chart != "uhs":
        raise ChartError(f"expected uhs chart, got {p.chart}")
    z, t = H3Point.upper_half_space(*p.coords).coords    # t > 0, else NaN
    return HermitianForm(t + abs(z) ** 2 / t, 1.0 / t, z / t)


def hermitian_to_lorentz(H: HermitianForm) -> H3Point:
    """((h+k)/2, Re w, Im w, (h-k)/2), on L1 as det H = 1."""
    shape, h, k, w = H.flat()
    return H3Point("lorentz", unflat(shape, 0.5 * (h + k), w.real, w.imag,
                                     0.5 * (h - k)))


def lorentz_to_hermitian(p: H3Point) -> HermitianForm:
    """[[x0 + x3, x1 - i x2], [x1 + i x2, x0 - x3]], of det 1 on L1."""
    if p.chart != "lorentz":
        raise ChartError(f"expected lorentz chart, got {p.chart}")
    x0, x1, x2, x3 = p.coords
    return HermitianForm(x0 + x3, x0 - x3, x1 + 1j * x2)


def lorentz_to_ball(p: H3Point) -> H3Point:
    """(x1, x2, x3) / (1 + x0)."""
    if p.chart != "lorentz":
        raise ChartError(f"expected lorentz chart, got {p.chart}")
    x0, x1, x2, x3 = p.coords
    r = 1.0 / (1.0 + x0)
    return H3Point.ball(r * x1, r * x2, r * x3)


def ball_to_lorentz(p: H3Point) -> H3Point:
    """(1 + |x|^2, 2 x1, 2 x2, 2 x3) / (1 - |x|^2), on L1."""
    if p.chart != "ball":
        raise ChartError(f"expected ball chart, got {p.chart}")
    x1, x2, x3 = H3Point.ball(*p.coords).coords    # norm < 1, else NaN
    n2 = x1 * x1 + x2 * x2 + x3 * x3
    r = 1.0 / (1.0 - n2)
    return H3Point("lorentz", (r * (1.0 + n2), 2.0 * r * x1, 2.0 * r * x2,
                               2.0 * r * x3))


def hermitian_to_ball(H: HermitianForm) -> H3Point:
    return lorentz_to_ball(hermitian_to_lorentz(H))
