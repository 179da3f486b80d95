"""Polyhedral inverse Schwarz maps.

For the four finite monodromy groups the inverse of the Schwarz map is the
rational function

    x(z) = A0 f0(z)^k0 / fInf(z)^kInf,

with 1 - x = A1 f1^k1 / fInf^kInf and the closed-form derivative

    dx/dz = A f0^(k0-1) f1^(k1-1) / fInf^(kInf+1).

Polynomials are stored both factored and expanded; the builder asserts the
expansion of the factors reproduces the expanded coefficients, which guards
against transcription slips in the tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .arrays import clip, flat, unflat
from .equation import (TAG_DIHEDRAL, TAG_ICOSAHEDRAL, TAG_OCTAHEDRAL,
                       TAG_TETRAHEDRAL)

_SQRT3 = math.sqrt(3.0)

# evaluation is rejected within this distance of a pole of x(z)
POLE_MARGIN = 1e-8


class PoleError(ValueError):
    """z too close to a pole of the inverse map (a root of fInf)."""


@dataclass(frozen=True)
class PolyhedralData:
    """Table data for one polyhedral case.

    f0, f1, fInf are coefficient arrays, highest degree first.  Derived
    once: the roots of fInf (the poles of x), and a table whose columns
    are f0, f1, fInf, f0', f1', fInf', zero-padded to one degree, so one
    np.polyval evaluates all six.
    """

    k0: int
    k1: int
    kInf: int
    A0: float
    A1: float
    A: float
    f0: np.ndarray
    f1: np.ndarray
    fInf: np.ndarray
    pole_roots: np.ndarray = field(init=False, repr=False)
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        polys = [self.f0, self.f1, self.fInf]
        polys += [np.polyder(f) for f in polys]
        top = max(map(len, polys))
        table = [np.pad(f, (top - len(f), 0)) for f in polys]
        object.__setattr__(self, "pole_roots", np.roots(self.fInf))
        object.__setattr__(self, "table", np.array(table).T[:, :, None])


def _expand(factors) -> np.ndarray:
    """Product of the factors' coefficient arrays (highest degree first):
    np.convolve, the product np.poly1d forms, without its wrapping."""
    p = np.ones(1)
    for f in factors:
        p = np.convolve(p, np.asarray(f, dtype=float))
    return p


def build_polyhedral(tag: str, n: int | None = None) -> PolyhedralData:
    """Build the exact table data for a polyhedral tag."""
    if tag == TAG_DIHEDRAL:
        f0 = np.array([1.0] + [0.0] * (n - 1) + [1.0])
        f1 = np.array([1.0] + [0.0] * (n - 1) + [-1.0])
        fi = np.array([1.0, 0.0])
        data = dict(k0=2, k1=2, kInf=n,
                    A0=0.25, A1=-0.25, A=n / 4.0, f0=f0, f1=f1, fInf=fi)
    elif tag == TAG_TETRAHEDRAL:
        f0 = np.array([1.0, 0, 0, 0, 1.0, 0])      # z (z^4 + 1)
        f1 = np.array([1.0, 0, 2 * _SQRT3, 0, -1.0])
        fi = np.array([1.0, 0, -2 * _SQRT3, 0, -1.0])
        assert np.allclose(f1, _expand([[1, 0, -2 + _SQRT3],
                                        [1, 0, 2 + _SQRT3]]))
        assert np.allclose(fi, _expand([[1, 0, -2 - _SQRT3],
                                        [1, 0, 2 - _SQRT3]]))
        data = dict(k0=2, k1=3, kInf=3,
                    A0=-12 * _SQRT3, A1=1.0, A=24 * _SQRT3,
                    f0=f0, f1=f1, fInf=fi)
    elif tag == TAG_OCTAHEDRAL:
        f0 = np.array([1.0, 0, 0, 0, 14.0, 0, 0, 0, 1.0])
        f1 = np.array([1.0, 0, 0, 0, -33.0, 0, 0, 0, -33.0, 0, 0, 0, 1.0])
        fi = np.array([1.0, 0, 0, 0, -1.0, 0])     # z (z^4 - 1)
        assert np.allclose(f0, _expand([[1, 2, 2, -2, 1], [1, -2, 2, 2, 1]]))
        assert np.allclose(f1, _expand([[1, 0, 0, 0, 1], [1, 2, -1],
                                        [1, -2, -1], [1, 0, 6, 0, 1]]))
        assert np.allclose(fi, _expand([[1, 0], [1, 0, 1], [1, 0, -1]]))
        data = dict(k0=3, k1=2, kInf=4,
                    A0=1.0 / 108, A1=-1.0 / 108, A=1.0 / 27,
                    f0=f0, f1=f1, fInf=fi)
    elif tag == TAG_ICOSAHEDRAL:
        f0 = _expand([[1, -3, -1, 3, 1],
                      [1, -1, 7, 7, 0, -7, 7, 1, 1],
                      [1, 4, 7, 2, 15, -2, 7, -4, 1]])
        f1 = _expand([[1, 0, 1],
                      [1, 0, -1, 0, 1, 0, -1, 0, 1],
                      [1, 2, -6, -2, 1],
                      [1, 4, 17, 22, 5, -22, 17, -4, 1],
                      [1, -6, 17, -18, 25, 18, 17, 6, 1]])
        fi = _expand([[1, 0], [1, 1, -1],
                      [1, 2, 4, 3, 1], [1, -3, 4, -2, 1]])
        f0_exp = np.zeros(21)
        f0_exp[[0, 5, 10, 15, 20]] = [1, -228, 494, 228, 1]
        f1_exp = np.zeros(31)
        f1_exp[[0, 5, 10, 20, 25, 30]] = [1, 522, -10005, -10005, -522, 1]
        fi_exp = np.zeros(12)
        fi_exp[[0, 5, 10]] = [1, 11, -1]
        assert np.allclose(f0, f0_exp) and np.allclose(f1, f1_exp)
        assert np.allclose(fi, fi_exp)
        data = dict(k0=3, k1=2, kInf=5,
                    A0=-1.0 / 1728, A1=1.0 / 1728, A=-5.0 / 1728,
                    f0=f0, f1=f1, fInf=fi)
    else:
        raise ValueError(f"not a polyhedral tag: {tag!r}")

    return PolyhedralData(**data)


class PolyhedralInverse:
    """Inverse Schwarz map evaluator for a polyhedral case."""

    def __init__(self, tag: str, n: int | None = None):
        self.data = build_polyhedral(tag, n)

    @np.errstate(invalid="ignore")    # NaN marks clipped points
    def eval(self, z):
        """(x, dx/dz, d2x/dz2) at z (scalar or array); within POLE_MARGIN
        of a pole, PoleError or NaN (see arrays.clip)."""
        d = self.data
        shape, z = np.shape(z), flat(z)
        dist = np.abs(np.subtract.outer(z, d.pole_roots))
        z, = clip(dist.min(axis=-1) < POLE_MARGIN, shape, PoleError,
                  lambda: (f"z={z[0]} is within {POLE_MARGIN} of the pole "
                           f"at {d.pole_roots[np.argmin(dist)]}"), z)
        # leading zeros leave each Horner value as np.polyval(f, z) has it
        f0, f1, fi, f0p, f1p, fip = np.polyval(d.table, z)

        x = d.A0 * f0 ** d.k0 / fi ** d.kInf
        a, b, c = d.k0 - 1, d.k1 - 1, d.kInf + 1
        xd = d.A * f0 ** a * f1 ** b / fi ** c
        # product/quotient rule on the closed form of dx/dz
        xdd = d.A * (a * f0 ** (a - 1) * f0p * f1 ** b * fi ** (-c)
                     + b * f0 ** a * f1 ** (b - 1) * f1p * fi ** (-c)
                     - c * f0 ** a * f1 ** b * fi ** (-c - 1) * fip)
        return unflat(shape, x, xd, xdd)


@np.errstate(invalid="ignore")    # NaN marks clipped points
def dihedral_z_from_x(n: int, x):
    """Invert x = (z^n + 1)^2 / (4 z^n) on the base fan, for x scalar or
    array.

    w = z^n solves w^2 - 2yw + 1 = 0 with y = 2x - 1; its roots y +- d,
    d = 2 sqrt(x^2 - x), multiply to 1, so w is 1 over the root of larger
    modulus, free of the cancellation in the smaller one, and z is its
    principal n-th root: |z| <= 1 and |arg(z)| <= pi/n.  x in the upper
    half-plane lands in the lower half of the fan and vice versa; on a
    tie (real x in [0, 1], |w| = 1) w = y + d, in the upper half.  y and
    d are computed divided by s = max(1, |Re x|, |Im x|), so x^2 stays
    finite.  Non-finite x is NaN in an array call; a scalar call raises
    ValueError.
    """
    shape, x = np.shape(x), flat(x)
    s = np.maximum(1.0, np.maximum(np.abs(x.real), np.abs(x.imag)))
    xs = x / s
    y, d = 2.0 * xs - 1.0 / s, 2.0 * np.sqrt(xs * xs - xs / s)
    big = np.where(np.abs(y - d) >= np.abs(y + d), y - d, y + d)
    z = (1.0 / s / big) ** (1.0 / n)
    z, = clip(~np.isfinite(x), shape, ValueError,
              lambda: f"x={x[0]} is not finite", z)
    return complex(z[0]) if shape == () else z.reshape(shape)
