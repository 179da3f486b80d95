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

    f0, f1, fInf are coefficient arrays, highest degree first.
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
    pole_roots: np.ndarray = field(repr=False, default=None)


def _expand(factors) -> np.ndarray:
    p = np.poly1d([1.0])
    for f in factors:
        p = p * np.poly1d(np.asarray(f, dtype=float))
    return p.coeffs


def build_polyhedral(tag: str, n: int | None = None) -> PolyhedralData:
    """Build the exact table data for a polyhedral tag."""
    if tag == TAG_DIHEDRAL:
        if n is None or n < 1:
            raise ValueError("dihedral case needs n >= 1")
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

    return PolyhedralData(pole_roots=np.roots(data["fInf"]), **data)


def eval_polyhedral_x(d: PolyhedralData, z: complex):
    """Evaluate (x, dx/dz, d2x/dz2) at z.

    Raises PoleError within POLE_MARGIN of a root of fInf.
    """
    z = complex(z)
    if d.pole_roots.size and np.min(np.abs(d.pole_roots - z)) < POLE_MARGIN:
        root = d.pole_roots[np.argmin(np.abs(d.pole_roots - z))]
        raise PoleError(f"z={z} is within {POLE_MARGIN} of the pole at {root}")
    f0 = np.polyval(d.f0, z)
    f1 = np.polyval(d.f1, z)
    fi = np.polyval(d.fInf, z)
    f0p = np.polyval(np.polyder(d.f0), z)
    f1p = np.polyval(np.polyder(d.f1), z)
    fip = np.polyval(np.polyder(d.fInf), z)

    x = d.A0 * f0 ** d.k0 / fi ** d.kInf
    a, b, c = d.k0 - 1, d.k1 - 1, d.kInf + 1
    xd = d.A * f0 ** a * f1 ** b / fi ** c
    # product/quotient rule on the closed form of dx/dz
    xdd = d.A * (a * f0 ** (a - 1) * f0p * f1 ** b * fi ** (-c)
                 + b * f0 ** a * f1 ** (b - 1) * f1p * fi ** (-c)
                 - c * f0 ** a * f1 ** b * fi ** (-c - 1) * fip)
    return x, xd, xdd


class PolyhedralInverse:
    """Inverse Schwarz map evaluator for a polyhedral case."""

    def __init__(self, tag: str, n: int | None = None):
        self.data = build_polyhedral(tag, n)

    def eval(self, z: complex):
        return eval_polyhedral_x(self.data, z)


def dihedral_z_from_x(n: int, x: complex) -> complex:
    """Invert x = (z^n + 1)^2 / (4 z^n) on the base fan.

    Returns the preimage with |z| <= 1 and |arg(z)| <= pi/n; x in the
    upper half-plane lands in the lower half of the fan and vice versa.
    """
    x = complex(x)
    disc = np.sqrt(complex(x * x - x))
    for y in (2.0 * x - 1.0 + 2.0 * disc, 2.0 * x - 1.0 - 2.0 * disc):
        if abs(y) > 1.0 + 1e-12:
            continue
        # n-th roots of y; pick the one inside the (two-sided) fan
        r, phi = abs(y), math.atan2(y.imag, y.real)
        for k in range(-n, n + 1):
            ang = (phi + 2.0 * math.pi * k) / n
            if abs(ang) <= math.pi / n + 1e-9:
                z = r ** (1.0 / n) * complex(math.cos(ang), math.sin(ang))
                zn = z ** n
                if abs((zn + 1.0) ** 2 / (4.0 * zn) - x) <= \
                   1e-8 * max(1.0, abs(x)):
                    return z
    raise ValueError(f"no fan preimage found for x={x}")
