"""The five families of fronts, each described once.

A Case holds what the pipeline needs to know about one family: its
exponents, its inverse Schwarz map x(z), the preimage x -> z on the base
triangle where one is known, the order of its monodromy group (the number
of tiles) and the three mirrors bounding the base triangle.
resolve_case() builds it from the user's text ("dihedral:3", "tetra",
...; each tag is its family's name) or from "dihedral" and n, and checks
it against equation.is_standard.  The mirrors are a family's whole
geometry: they generate its group (tiling.tile_parameter_domain) and
bound its base triangle, whose grid mesh.sample_triangle reads from
them.  For a finite family, mirror 0 is the line arg z = 0, mirror 1 the
line arg z = phi and mirror 2 a circle around z = 0; for the ideal
triangle, mirrors 0 and 1 are the lines Re z = 0 and Re z = 1 and
mirror 2 the circle |z - 1/2| = 1/2.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import modular
from .equation import (INF, TAG_DIHEDRAL, TAG_FUCHSIAN_INF, TAG_ICOSAHEDRAL,
                       TAG_OCTAHEDRAL, TAG_TETRAHEDRAL, ExponentData,
                       exponents_from_mu, group_order, is_standard)
from .polyhedral import PolyhedralInverse, dihedral_z_from_x
from .tiling import Reflection


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


def _polyhedral(tag, n, mirrors, z_from_x=None):
    inverse = PolyhedralInverse(tag, n)
    d = inverse.data
    return dict(exponents=exponents_from_mu(*(Fraction(1, k)
                                              for k in (d.k0, d.k1, d.kInf))),
                inverse=inverse, z_from_x=z_from_x, mirrors=mirrors)


def _dihedral(n):
    return _polyhedral(
        TAG_DIHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(cmath.exp(2j * math.pi / n)),
         Reflection.circle(0.0, 1.0)),
        functools.partial(dihedral_z_from_x, n))


def _tetrahedral(n):
    return _polyhedral(
        TAG_TETRAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(-1.0),
         Reflection.circle(-(1.0 + 1.0j) / math.sqrt(2.0), math.sqrt(2.0))))


def _octahedral(n):
    return _polyhedral(
        TAG_OCTAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(1.0j),
         Reflection.circle(-1.0, math.sqrt(2.0))))


def _icosahedral(n):
    eps = cmath.exp(2j * math.pi / 5.0)
    # mirror circle of the Moebius form of R3; it is centered at
    # -2 cos(pi/5) with radius sqrt(1 + 4 cos^2(pi/5))
    c = 2.0 * math.cos(math.pi / 5.0)
    r = math.sqrt(1.0 + 4.0 * math.cos(math.pi / 5.0) ** 2)
    return _polyhedral(
        TAG_ICOSAHEDRAL, n,
        (Reflection.conjugation_times(1.0),
         Reflection.conjugation_times(eps),
         Reflection.circle(-c, r)))


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
                         Reflection.circle(0.5, 0.5)))


_FAMILIES = {TAG_DIHEDRAL: _dihedral, TAG_TETRAHEDRAL: _tetrahedral,
             TAG_OCTAHEDRAL: _octahedral, TAG_ICOSAHEDRAL: _icosahedral,
             TAG_FUCHSIAN_INF: _fuchsian}


def resolve_case(case: str, n: int | None = None) -> Case:
    """Case for 'dihedral:n', 'tetra', 'octa', 'icosa' or 'fuchsian'.

    A bare 'dihedral' takes n from the argument, an int (not a bool);
    the other families ignore it.  Raises ValueError for anything else.
    """
    if not isinstance(case, str):
        raise ValueError(f"case must be a str, got {case!r}")
    text = case.strip().lower()
    tag, colon, arg = text.partition(":")
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
