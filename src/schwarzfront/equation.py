"""Hypergeometric equation data in SL-form.

Exponent differences (mu0, mu1, muInf) of E(a,b,c), the coefficient
q(x) = -Q / (4 x^2 (1-x)^2) of u'' = q u with

    Q = 1 - mu0^2 + (muInf^2 + mu0^2 - mu1^2 - 1) x + (1 - muInf^2) x^2,

the numerator R of q' = -R / (4 x^3 (1-x)^3), and the classification of
standard parameter triples by the orders (k0, k1, kInf) = 1/|mu_i|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .arrays import clip

INF = math.inf

# tolerance on 1/|mu| for recognizing an integer order from floats
_ORDER_TOL = 1e-9
# |mu| below this is treated as exactly zero (order infinity)
_MU_ZERO_TOL = 1e-12

_SING_TOL = 1e-12


class SingularPointError(ValueError):
    """Evaluation requested at a singular point of the equation."""


@dataclass(frozen=True)
class ExponentData:
    """Parameters (a,b,c) with exponent differences and orders.

    k0/k1/kInf are integer orders >= 1, math.inf for mu = 0, or None when
    1/|mu| is not an integer (non-standard direction).
    """

    a: float
    b: float
    c: float
    mu0: float
    mu1: float
    muInf: float
    k0: object
    k1: object
    kInf: object

    @property
    def mus(self):
        return (self.mu0, self.mu1, self.muInf)

    @property
    def orders(self):
        return (self.k0, self.k1, self.kInf)

    @cached_property
    def q_coeffs(self):
        """Coefficients (c2, c1, c0) of Q = c0 + c1 x + c2 x^2, as floats.

        Computed once: the exponents may be Fractions, and converting them
        on every evaluation of Q dominated the scalar tracer and oracle.
        """
        m0, m1, mi = (float(m) ** 2 for m in self.mus)
        return (1.0 - mi, mi + m0 - m1 - 1.0, 1.0 - m0)


def _order_from_mu(mu):
    if isinstance(mu, Fraction):
        if mu == 0:
            return INF
        inv = 1 / abs(mu)
        return int(inv) if inv.denominator == 1 else None
    if abs(mu) < _MU_ZERO_TOL:
        return INF
    inv = 1.0 / abs(mu)
    n = round(inv)
    if n >= 1 and abs(inv - n) < _ORDER_TOL * max(1.0, inv):
        return n
    return None


def exponents_from_abc(a, b, c) -> ExponentData:
    """Build ExponentData from real (a, b, c).

    Accepts floats or Fractions; Fractions keep order detection exact.
    Complex inputs are rejected.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        if isinstance(v, complex):
            raise ValueError(f"parameter {name} must be real")
    mu0 = 1 - c
    mu1 = c - a - b
    muInf = b - a
    return ExponentData(a, b, c, mu0, mu1, muInf,
                        _order_from_mu(mu0), _order_from_mu(mu1),
                        _order_from_mu(muInf))


def exponents_from_mu(mu0, mu1, muInf) -> ExponentData:
    """Build ExponentData from exponent differences."""
    a = (1 - mu0 - mu1 - muInf) / 2
    return exponents_from_abc(a, a + muInf, 1 - mu0)


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

    The one evaluation of the polynomial arithmetic behind eval_q,
    eval_q_derivatives and the singular-locus function.
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
    x = np.asarray(x, complex) if isinstance(x, np.ndarray) else complex(x)
    x, = clip((abs(x) < _SING_TOL) | (abs(x - 1.0) < _SING_TOL),
              getattr(x, "shape", ()), SingularPointError,
              lambda: f"x={x} is a singular point of the equation", x)
    Q, Qp, R, Rp, w, _ = q_terms(e, x)
    return CoefficientValue(-Q / (4.0 * w * w), Q, R, x, Qp, Rp)


def eval_q_derivatives(e: ExponentData, x):
    """(Q, Q', R, R') at x (scalar or array), for the swallowtail test."""
    return q_terms(e, x if isinstance(x, np.ndarray) else complex(x))[:4]


# --- standardness classification -------------------------------------------

TAG_DIHEDRAL = "dihedral"
TAG_TETRAHEDRAL = "tetrahedral"
TAG_OCTAHEDRAL = "octahedral"
TAG_ICOSAHEDRAL = "icosahedral"
TAG_FUCHSIAN_INF = "fuchsian-inf-inf-inf"
TAG_FUCHSIAN = "fuchsian"
TAG_NONSTANDARD = "non-standard"


@dataclass(frozen=True)
class StandardCase:
    standard: bool
    tag: str
    n: int | None = None  # dihedral parameter, orders (2, 2, n)


def is_standard(e: ExponentData) -> StandardCase:
    """Classify the parameter triple by its orders (k0, k1, kInf)."""
    ks = e.orders
    if any(k is None for k in ks):
        return StandardCase(False, TAG_NONSTANDARD)
    finite = sorted(k for k in ks if k is not INF)
    if any(k is not INF and k < 2 for k in ks):
        # (2,2,1) is the order-2 dihedral degeneration; anything else with
        # an order-1 direction is outside the standard list.
        if sorted(ks, key=lambda k: (k is INF, k)) != [1, 2, 2]:
            return StandardCase(False, TAG_NONSTANDARD)
        return StandardCase(True, TAG_DIHEDRAL, n=1)
    if all(k is INF for k in ks):
        return StandardCase(True, TAG_FUCHSIAN_INF)
    if any(k is INF for k in ks):
        return StandardCase(True, TAG_FUCHSIAN)
    f = sorted(finite)
    if f[:2] == [2, 2]:
        return StandardCase(True, TAG_DIHEDRAL, n=f[2])
    if f == [2, 3, 3]:
        return StandardCase(True, TAG_TETRAHEDRAL)
    if f == [2, 3, 4]:
        return StandardCase(True, TAG_OCTAHEDRAL)
    if f == [2, 3, 5]:
        return StandardCase(True, TAG_ICOSAHEDRAL)
    # all orders finite but angle sum <= pi: hyperbolic triangle group
    if sum(Fraction(1, k) for k in f) < 1:
        return StandardCase(True, TAG_FUCHSIAN)
    return StandardCase(False, TAG_NONSTANDARD)


def group_order(orders):
    """Projective monodromy order N of a standard triple of orders
    (k0, k1, kInf): 2/N = 1/k0 + 1/k1 + 1/kInf - 1, and N = INF when
    1/k0 + 1/k1 + 1/kInf <= 1."""
    excess = sum(Fraction(1, k) for k in orders if k is not INF) - 1
    return int(2 / excess) if excess > 0 else INF
