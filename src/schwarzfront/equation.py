"""Hypergeometric equation data in SL-form.

Exponent differences (mu0, mu1, muInf) of E(a,b,c), kept exactly as
given, and the coefficient q(x) = -Q / (4 x^2 (1-x)^2) of u'' = q u with

    Q = 1 - mu0^2 + (muInf^2 + mu0^2 - mu1^2 - 1) x + (1 - muInf^2) x^2,

and the numerator R of q' = -R / (4 x^3 (1-x)^3).  The module knows no
family: the tags at its end are the names cases.resolve_case accepts, and
cases sets each family's exponents and group order.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arrays import clip, flat, unflat

_SING_TOL = 1e-12


class SingularPointError(ValueError):
    """Evaluation requested at a singular point of the equation."""


@dataclass(frozen=True)
class ExponentData:
    """Exponent differences at 0, 1 and infinity, exactly as given to
    exponents_from_mu (Fractions stay Fractions)."""

    mu0: float
    mu1: float
    muInf: float

    @property
    def mus(self):
        return (self.mu0, self.mu1, self.muInf)

    @cached_property
    def q_coeffs(self):
        """Coefficients (c2, c1, c0) of Q = c0 + c1 x + c2 x^2, as floats.

        Computed once: the exponents may be Fractions, and converting them
        on every evaluation of Q dominated the scalar tracer and oracle.
        """
        m0, m1, mi = (float(m) ** 2 for m in self.mus)
        return (1.0 - mi, mi + m0 - m1 - 1.0, 1.0 - m0)


def exponents_from_mu(mu0, mu1, muInf) -> ExponentData:
    """ExponentData for the exponent differences, each a finite real
    number (an int, float or Fraction); a bool, complex, NaN or infinite
    one is a ValueError that names it."""
    for name, mu in (("mu0", mu0), ("mu1", mu1), ("muInf", muInf)):
        if (isinstance(mu, bool) or not isinstance(mu, numbers.Real)
                or not math.isfinite(mu)):
            raise ValueError(f"{name} must be a finite real number, "
                             f"got {mu!r}")
    return ExponentData(mu0, mu1, muInf)


@dataclass(frozen=True)
class CoefficientValue:
    """q, Q, R of the SL-form coefficient at a point x, with Q' and R'."""

    q: complex
    Q: complex
    R: complex
    x: complex
    Qp: complex
    Rp: complex


def q_terms(e: ExponentData, x: complex):
    """(Q, Q', R, R', w, w') at x, with w = x(1-x).

    The one evaluation of the polynomial arithmetic behind eval_q and
    eval_q_derivatives, and so behind the singular functions.
    """
    c2, c1, c0 = e.q_coeffs
    Q = c0 + c1 * x + c2 * x * x
    Qp = c1 + 2.0 * c2 * x
    w = x * (1.0 - x)
    wp = 1.0 - 2.0 * x
    R = Qp * w - 2.0 * Q * wp
    Rp = 2.0 * c2 * w - Qp * wp + 4.0 * Q
    return Q, Qp, R, Rp, w, wp


@np.errstate(invalid="ignore")    # NaN marks clipped points
def eval_q(e: ExponentData, x) -> CoefficientValue:
    """q, Q, R, Q', R' at x (scalar or array); within _SING_TOL of 0 or 1,
    SingularPointError or NaN (see arrays.clip)."""
    shape, x = np.shape(x), flat(x)
    x, = clip((abs(x) < _SING_TOL) | (abs(x - 1.0) < _SING_TOL), shape,
              SingularPointError,
              lambda: f"x={x[0]} is a singular point of the equation", x)
    Q, Qp, R, Rp, w, _ = q_terms(e, x)
    return CoefficientValue(*unflat(shape, -Q / (4.0 * w * w), Q, R, x, Qp,
                                    Rp))


def eval_q_derivatives(e: ExponentData, x):
    """(Q, Q', R, R') at x (scalar or array), for the swallowtail test."""
    return unflat(np.shape(x), *q_terms(e, flat(x))[:4])


# --- family tags: the names cases.resolve_case accepts --------------------

TAG_DIHEDRAL = "dihedral"
TAG_TETRAHEDRAL = "tetra"
TAG_OCTAHEDRAL = "octa"
TAG_ICOSAHEDRAL = "icosa"
TAG_FUCHSIAN_INF = "fuchsian"
