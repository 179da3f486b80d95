"""The five families of fronts, each described once.

A Case holds what the pipeline needs to know about one family: its
exponents, its inverse Schwarz map x(z), the preimage x -> z on the base
triangle where one is known, and the order of its monodromy group, which
is the number of tiles.  resolve_case() builds it from the user's text
("dihedral:3", "tetra", ...) or from a tag and n, and checks it against
equation.is_standard.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import modular
from .equation import (INF, TAG_DIHEDRAL, TAG_FUCHSIAN_INF, TAG_ICOSAHEDRAL,
                       TAG_OCTAHEDRAL, TAG_TETRAHEDRAL, ExponentData,
                       exponents_from_mu, group_order, is_standard)
from .polyhedral import PolyhedralInverse, dihedral_z_from_x

_ALIASES = {"tetra": TAG_TETRAHEDRAL, "octa": TAG_OCTAHEDRAL,
            "icosa": TAG_ICOSAHEDRAL, "fuchsian": TAG_FUCHSIAN_INF}


@dataclass(frozen=True)
class Case:
    """One family of fronts; build it with resolve_case."""

    tag: str
    n: int | None                     # dihedral parameter, else None
    exponents: ExponentData
    inverse: object                   # PolyhedralInverse | LambdaInverse
    z_from_x: Callable | None         # x -> z on the base triangle
    max_tiles: int | None             # group order; None when infinite


def resolve_case(case: str, n: int | None = None) -> Case:
    """Case for 'dihedral:n', 'tetra', 'octa', 'icosa', 'fuchsian' or a tag.

    A bare dihedral tag takes n from the argument; the other families
    ignore it.  Raises ValueError for anything else.
    """
    text = case.strip().lower()
    name, colon, arg = text.partition(":")
    tag = _ALIASES.get(name, name)
    if tag == TAG_DIHEDRAL:
        if colon:
            n = int(arg) if arg.isdigit() else None
        if n is None or n < 1:
            raise ValueError(
                "dihedral case must be written dihedral:n with n >= 1")
    elif colon or tag not in (TAG_TETRAHEDRAL, TAG_OCTAHEDRAL,
                              TAG_ICOSAHEDRAL, TAG_FUCHSIAN_INF):
        raise ValueError(f"unknown case {text!r}; expected dihedral:n, "
                         f"tetra, octa, icosa or fuchsian")
    else:
        n = None
    if tag == TAG_FUCHSIAN_INF:
        inverse = modular.LambdaInverse()
        e = exponents_from_mu(0, 0, 0)
        # read from the module on each call, so a wrapper installed on
        # modular.fuchsian_z_from_x (bench/spans.py) sees calls via a Case
        z_from_x = modular.fuchsian_z_from_x
    else:
        inverse = PolyhedralInverse(tag, n)
        d = inverse.data
        e = exponents_from_mu(*(Fraction(1, k)
                                for k in (d.k0, d.k1, d.kInf)))
        z_from_x = (functools.partial(dihedral_z_from_x, n)
                    if tag == TAG_DIHEDRAL else None)
    std = is_standard(e)
    assert std.tag == tag and std.n == n, (std, tag, n)
    order = group_order(std)
    return Case(tag=tag, n=n, exponents=e, inverse=inverse,
                z_from_x=z_from_x, max_tiles=None if order == INF else order)
