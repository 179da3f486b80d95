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

# Determinant tolerance (relative to h*k) below which a form is rejected
# as degenerate rather than clamped.  det is computed as h*k - |w|^2, so
# cancellation noise is of order eps * h*k; forms from the front keep
# det = 1 while h*k grows near the ends, hence the small relative bound.
_PD_RTOL = 1e-14

# Allowed undershoot of the Lorentz pairing below 1 before raising.
_DIST_CLAMP = 1e-10


class ChartError(ValueError):
    """Operation applied to a point in the wrong chart."""


class NotPositiveDefiniteError(ValueError):
    """Hermitian form is not (numerically) positive-definite."""


@dataclass(frozen=True)
class HermitianForm:
    """Positive-definite 2x2 Hermitian matrix [[h, conj(w)], [w, k]].

    h and k are the real diagonal entries, w the bottom-left entry.
    """

    h: float
    k: float
    w: complex

    def __post_init__(self):
        h, k, w = float(self.h), float(self.k), complex(self.w)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "w", w)
        if not (h > 0.0 and k > 0.0):
            raise NotPositiveDefiniteError(
                f"diagonal not positive: h={h}, k={k}")
        if self.det() <= _PD_RTOL * h * k:
            raise NotPositiveDefiniteError(
                f"determinant {self.det()} below tolerance for h*k={h * k}")

    def det(self) -> float:
        return self.h * self.k - abs(self.w) ** 2

    def matrix(self) -> np.ndarray:
        return np.array([[self.h, self.w.conjugate()], [self.w, self.k]],
                        dtype=complex)

    @classmethod
    def from_matrix(cls, m) -> "HermitianForm":
        m = np.asarray(m, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if abs(m[0, 1] - m[1, 0].conjugate()) > 1e-9 * (1.0 + np.abs(m).max()):
            raise ValueError("matrix is not Hermitian")
        if abs(m[0, 0].imag) > 1e-9 * abs(m[0, 0]) or \
           abs(m[1, 1].imag) > 1e-9 * abs(m[1, 1]):
            raise ValueError("diagonal is not real")
        return cls(m[0, 0].real, m[1, 1].real, m[1, 0])

    def scaled(self, c: float) -> "HermitianForm":
        """Projective rescaling H -> c*H, c > 0."""
        if c <= 0:
            raise ValueError("scale must be positive")
        return HermitianForm(c * self.h, c * self.k, c * self.w)


@dataclass(frozen=True)
class H3Point:
    """A point of H^3 in exactly one chart.

    chart is one of "uhs" (z, t), "lorentz" (x0, x1, x2, x3) on L1,
    or "ball" (x1, x2, x3) with norm < 1.
    """

    chart: str
    coords: tuple

    @classmethod
    def upper_half_space(cls, z: complex, t: float) -> "H3Point":
        if not t > 0:
            raise ValueError(f"height must be positive, got {t}")
        return cls("uhs", (complex(z), float(t)))

    @classmethod
    def lorentz(cls, x0: float, x1: float, x2: float, x3: float) -> "H3Point":
        q = x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3
        if x0 <= 0 or q <= 0:
            raise ValueError("not in the forward cone")
        r = 1.0 / math.sqrt(q)
        return cls("lorentz", (x0 * r, x1 * r, x2 * r, x3 * r))

    @classmethod
    def ball(cls, x1: float, x2: float, x3: float) -> "H3Point":
        if x1 * x1 + x2 * x2 + x3 * x3 >= 1.0:
            raise ValueError("ball point must have norm < 1")
        return cls("ball", (float(x1), float(x2), float(x3)))


@dataclass(frozen=True)
class Isometry:
    """Orientation-preserving isometry of H^3 given by P in GL(2,C)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        if abs(np.linalg.det(m)) < 1e-14:
            raise ValueError("isometry matrix must be invertible")
        object.__setattr__(self, "matrix", m)

    def compose(self, other: "Isometry") -> "Isometry":
        return Isometry(self.matrix @ other.matrix)

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(np.eye(2, dtype=complex))


def hermitian_to_upper_half_space(H: HermitianForm) -> H3Point:
    """(z, t) = (w/k, sqrt(h k - |w|^2)/k)."""
    return H3Point.upper_half_space(H.w / H.k, math.sqrt(H.det()) / H.k)


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
    r = 0.5 / math.sqrt(H.det())
    return H3Point("lorentz", (r * (H.h + H.k), r * 2.0 * H.w.real,
                               r * 2.0 * H.w.imag, r * (H.h - H.k)))


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


def convert(p: H3Point, chart: str) -> H3Point:
    """Convert a point to the requested chart ("uhs", "lorentz", "ball")."""
    if p.chart == chart:
        return p
    if p.chart == "uhs":
        lor = hermitian_to_lorentz(upper_half_space_to_hermitian(p))
    elif p.chart == "ball":
        lor = ball_to_lorentz(p)
    else:
        lor = p
    if chart == "lorentz":
        return lor
    if chart == "ball":
        return lorentz_to_ball(lor)
    if chart == "uhs":
        return hermitian_to_upper_half_space(lorentz_to_hermitian(lor))
    raise ChartError(f"unknown chart {chart!r}")


def hermitian_to_ball(H: HermitianForm) -> H3Point:
    return lorentz_to_ball(hermitian_to_lorentz(H))


def apply_isometry(P: Isometry, H: HermitianForm) -> HermitianForm:
    """Group action H -> P H conj(P)^t."""
    m = P.matrix @ H.matrix() @ P.matrix.conj().T
    # Symmetrize tiny Hermitian defects from roundoff.
    m = 0.5 * (m + m.conj().T)
    return HermitianForm(m[0, 0].real, m[1, 1].real, m[1, 0])


def lorentz_inner(p: H3Point, q: H3Point) -> float:
    """Pairing <p, q> with signature (+,-,-,-)."""
    a = convert(p, "lorentz").coords
    b = convert(q, "lorentz").coords
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def hyperbolic_distance(p: H3Point, q: H3Point) -> float:
    """d(p, q) = arccosh(<p, q>) with the Lorentz pairing."""
    ip = lorentz_inner(p, q)
    if ip < 1.0:
        if ip < 1.0 - _DIST_CLAMP:
            raise ValueError(f"Lorentz pairing {ip} < 1 beyond tolerance")
        ip = 1.0
    return math.acosh(ip)
