"""The five families of fronts, each described once.

A Case holds what the pipeline needs to know about one family: its
exponents, its inverse Schwarz map x(z), the preimage x -> z on the base
triangle where one is known, the order of its monodromy group (the number
of tiles), the three mirrors bounding the base triangle, the triangle's
vertices and the probe points that tell tiles apart.  resolve_case()
builds it from the user's text ("dihedral:3", "tetra", ...) or from a tag
and n, and checks it against equation.is_standard.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import modular
from .equation import (INF, TAG_DIHEDRAL, TAG_FUCHSIAN_INF, TAG_ICOSAHEDRAL,
                       TAG_OCTAHEDRAL, TAG_TETRAHEDRAL, ExponentData,
                       exponents_from_mu, group_order, is_standard)
from .polyhedral import PolyhedralInverse, dihedral_z_from_x
from .tiling import Reflection

_ALIASES = {"tetra": TAG_TETRAHEDRAL, "octa": TAG_OCTAHEDRAL,
            "icosa": TAG_ICOSAHEDRAL, "fuchsian": TAG_FUCHSIAN_INF}

# tile-dedup probes: generic points of the sphere, or of the upper
# half-plane for the Fuchsian group
_SPHERE_PROBES = (0.31 + 0.12j, -0.22 + 0.47j, 0.15 - 0.33j)
_UHP_PROBES = (0.31 + 0.83j, -0.52 + 1.27j, 0.11 + 0.45j)


@dataclass(frozen=True)
class BaseTriangle:
    """Vertices of the base Schwarz triangle in the z-plane.

    v_inf / v_zero / v_one are the vertices lying over x = infinity, 0, 1
    (zeros of fInf, f0, f1 for the polyhedral cases).
    """

    v_inf: complex
    v_zero: complex
    v_one: complex


@dataclass(frozen=True)
class Case:
    """One family of fronts; build it with resolve_case."""

    tag: str
    n: int | None                     # dihedral parameter, else None
    exponents: ExponentData
    inverse: object                   # PolyhedralInverse | LambdaInverse
    z_from_x: Callable | None         # x -> z on the base triangle
    max_tiles: int | None             # group order; None when infinite
    mirrors: tuple                    # three Reflections of the group
    base: BaseTriangle | None         # None for the ideal triangle
    probes: tuple                     # three points that tell tiles apart


def _polyhedral(tag, n, mirrors, base, z_from_x=None):
    inverse = PolyhedralInverse(tag, n)
    d = inverse.data
    return dict(exponents=exponents_from_mu(*(Fraction(1, k)
                                              for k in (d.k0, d.k1, d.kInf))),
                inverse=inverse, z_from_x=z_from_x, mirrors=mirrors,
                base=base, probes=_SPHERE_PROBES)


def _dihedral(n):
    return _polyhedral(
        TAG_DIHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(cmath.exp(2j * math.pi / n)),
         Reflection(np.array([[0.0, 1.0], [1.0, 0.0]],
                             dtype=complex))),  # z -> 1/conj(z)
        BaseTriangle(v_inf=0.0, v_zero=cmath.exp(1j * math.pi / n),
                     v_one=1.0),
        functools.partial(dihedral_z_from_x, n))


def _tetrahedral(n):
    r = math.sqrt(2.0 - math.sqrt(3.0))
    return _polyhedral(
        TAG_TETRAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(-1.0),
         Reflection.circle(-(1.0 + 1.0j) / math.sqrt(2.0), math.sqrt(2.0))),
        BaseTriangle(v_zero=0.0, v_one=r, v_inf=1j * r))


def _octahedral(n):
    r0 = math.sqrt(2.0 - math.sqrt(3.0))
    return _polyhedral(
        TAG_OCTAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(1.0j),
         Reflection.circle(-1.0, math.sqrt(2.0))),
        BaseTriangle(v_inf=0.0, v_one=math.sqrt(2.0) - 1.0,
                     v_zero=r0 * cmath.exp(0.25j * math.pi)))


def _icosahedral(n):
    eps = cmath.exp(2j * math.pi / 5.0)
    # mirror circle of the Moebius form of R3; it is centered at
    # -2 cos(pi/5) with radius sqrt(1 + 4 cos^2(pi/5))
    c = 2.0 * math.cos(math.pi / 5.0)
    r = math.sqrt(1.0 + 4.0 * math.cos(math.pi / 5.0) ** 2)
    ref = Reflection.circle(-c, r)
    # cross-check against the epsilon form of the same involution
    probe = 0.3 + 0.2j
    num = -(eps - eps ** 4) * probe.conjugate() + (eps ** 2 - eps ** 3)
    den = (eps ** 2 - eps ** 3) * probe.conjugate() + (eps - eps ** 4)
    assert abs(ref(probe) - num / den) < 1e-12
    # line arg(z) = pi/5 meets the mirror circle |z + c| = r
    t0 = (-2.0 * c * math.cos(math.pi / 5.0)
          + math.sqrt(4.0 * c * c * math.cos(math.pi / 5.0) ** 2
                      + 4.0 * (r * r - c * c))) / 2.0
    return _polyhedral(
        TAG_ICOSAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(eps),
         ref),
        BaseTriangle(v_inf=0.0, v_one=r - c,
                     v_zero=t0 * cmath.exp(1j * math.pi / 5.0)))


def _fuchsian(n):
    # zero-angle triangle with vertices 0, 1, infinity in the upper
    # half-plane: mirrors Re z = 0, Re z = 1, |z - 1/2| = 1/2
    return dict(exponents=exponents_from_mu(0, 0, 0),
                inverse=modular.LambdaInverse(),
                # bound at each resolve_case, so a Case resolved while a
                # wrapper sits on modular.fuchsian_z_from_x (bench/spans.py)
                # calls the wrapper
                z_from_x=modular.fuchsian_z_from_x,
                mirrors=(Reflection.line(0.0, 1.0j),
                         Reflection.line(1.0, 1.0j),
                         Reflection.circle(0.5, 0.5)),
                base=None, probes=_UHP_PROBES)


_FAMILIES = {TAG_DIHEDRAL: _dihedral, TAG_TETRAHEDRAL: _tetrahedral,
             TAG_OCTAHEDRAL: _octahedral, TAG_ICOSAHEDRAL: _icosahedral,
             TAG_FUCHSIAN_INF: _fuchsian}


def resolve_case(case: str, n: int | None = None) -> Case:
    """Case for 'dihedral:n', 'tetra', 'octa', 'icosa', 'fuchsian' or a tag.

    A bare dihedral tag takes n from the argument, an int (not a bool);
    the other families ignore it.  Raises ValueError for anything else.
    """
    text = case.strip().lower()
    name, colon, arg = text.partition(":")
    tag = _ALIASES.get(name, name)
    if tag == TAG_DIHEDRAL:
        if colon:
            # isdigit alone accepts digits int() refuses, such as '²'
            n = int(arg) if arg.isascii() and arg.isdigit() else None
        if type(n) is not int or n < 1:
            raise ValueError(
                "dihedral case must be written dihedral:n with n >= 1")
    elif colon or tag not in _FAMILIES:
        raise ValueError(f"unknown case {text!r}; expected dihedral:n, "
                         f"tetra, octa, icosa or fuchsian")
    else:
        n = None
    fields = _FAMILIES[tag](n)
    e = fields["exponents"]
    std = is_standard(e)
    assert std.tag == tag and std.n == n, (std, tag, n)
    order = group_order(e.orders)
    return Case(tag=tag, n=n, max_tiles=None if order == INF else order,
                **fields)
