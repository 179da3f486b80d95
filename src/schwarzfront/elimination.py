"""Exact polynomial elimination for the singular locus with mu = (0, 0, 0).

On the line of symmetry variables x = s + i t, s = 1/2 + u, the defining
function of the singular curve and the swallowtail condition become
polynomials in U = u^2 and T = t^2.  Eliminating one variable leaves a
cubic in S = U - T whose admissible roots locate swallowtail candidates
off the symmetry line, and a quartic in T for candidates on it.

A polynomial is a dict from exponent tuples to int or Fraction
coefficients, zero terms dropped.  Everything is exact integer and
rational arithmetic; floating point enters only when each real root is
rounded to its nearest float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

# univariate coefficients in x, highest degree first
Q_COEFFS = (1, -1, 1)           # Q = 1 - x + x^2
R_COEFFS = (2, -3, 5, -2)       # R = (2x - 1)x(1 - x) - 2Q(1 - 2x)
G_COEFFS = (-1, 1, 0)           # x(1 - x)


@dataclass(frozen=True)
class FuchsianEliminationData:
    # polynomials as read-only {(i, j): coefficient of U^i T^j} maps
    F: MappingProxyType      # |Q|^2 - 16|x(1-x)|^4
    G: MappingProxyType      # Im(Q^3 conj(R)^2) / (t(2s-1)), calibrated
    G1: MappingProxyType     # 5F - 16G, {(i, j): coefficient of S^i V^j}
    F1: MappingProxyType     # 256F - 16G1, in S, V
    calibration: Fraction    # global factor fixed by G(0,0) = 1323/256
    cubic: tuple             # eliminant in S, integers, highest degree first
    cubic_real_roots: tuple  # real roots of the eliminant, as floats
    admissible_roots: tuple  # real roots compatible with U, T >= 0
    symmetry_line_quartic: tuple   # F(0, T), integers, highest first
    symmetry_line_T: tuple   # nonnegative real roots of F(0, T)


def _add(*ps) -> dict:
    out = {}
    for p in ps:
        for m, c in p.items():
            out[m] = out.get(m, 0) + c
    return {m: c for m, c in out.items() if c}


def _scale(p: dict, c) -> dict:
    return {m: c * a for m, a in p.items()} if c else {}


def _mul(p: dict, q: dict) -> dict:
    out = {}
    for (i, j), a in p.items():
        for (k, l), b in q.items():
            m = (i + k, j + l)
            out[m] = out.get(m, 0) + a * b
    return {m: c for m, c in out.items() if c}


def _pow(p: dict, n: int) -> dict:
    out = {(0, 0): 1}
    for _ in range(n):
        out = _mul(out, p)
    return out


# complex polynomials are (real part, imaginary part) pairs of dicts

def _cmul(z, w):
    (a, b), (c, d) = z, w
    return (_add(_mul(a, c), _scale(_mul(b, d), -1)),
            _add(_mul(a, d), _mul(b, c)))


def _horner(coeffs, z):
    """The univariate polynomial `coeffs` at the complex polynomial z."""
    acc = ({}, {})
    for c in coeffs:
        re, im = _cmul(acc, z)
        acc = (_add(re, {(0, 0): c}), im)
    return acc


def _abs2(z) -> dict:
    return _add(_mul(z[0], z[0]), _mul(z[1], z[1]))


def _to_UT(p: dict) -> dict:
    """Rewrite a polynomial even in both u and t via U = u^2, T = t^2."""
    if any(i % 2 or j % 2 for i, j in p):
        raise ValueError("polynomial is not even in (u, t)")
    return {(i // 2, j // 2): c for (i, j), c in p.items()}


def _S_V_term(k: int, b: int) -> dict:
    """(U - T)^k (U T)^b in U, T, by the binomial theorem."""
    return {(k - i + b, i + b): (-1) ** i * math.comb(k, i)
            for i in range(k + 1)}


def _in_S_V(p: dict) -> dict:
    """Express a polynomial in U, T through S = U - T and V = U*T.

    Peels leading terms: the lex-leading term c U^a T^b (U before T) can
    only come from c S^(a-b) V^b, whose own lex-leading term it is.
    Raises ValueError when a >= b fails, i.e. p is not in the subring
    generated by U - T and U*T.
    """
    out = {}
    while p:
        a, b = max(p)
        if a < b:
            raise ValueError("polynomial is not a polynomial in S and V")
        c = p[a, b]
        out[a - b, b] = c
        p = _add(p, _scale(_S_V_term(a - b, b), -c))
    return out


def _terms_in_V(p: dict, degree: int) -> dict:
    """The coefficient of V^degree in p(S, V), a polynomial in S."""
    return {(i, 0): c for (i, j), c in p.items() if j == degree}


def _integral(coeffs) -> list:
    """Rational coefficients times the positive rational that makes them
    integers with gcd 1 (the signs of the polynomial's values stay)."""
    coeffs = [Fraction(c) for c in coeffs]
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    g = math.gcd(*ints)
    return [c // g for c in ints]


def _primitive(p: dict) -> tuple:
    """A polynomial in its first variable scaled to integer coefficients
    with gcd 1 and a positive leading coefficient, highest degree first."""
    deg = max(i for i, _ in p)
    coeffs = [0] * (deg + 1)
    for (i, _), c in p.items():
        coeffs[deg - i] = c
    ints = _integral(coeffs)
    return tuple(c if ints[0] > 0 else -c for c in ints)


def _scaled_value(coeffs, n: int, d: int) -> int:
    """d^deg p(n/d) for integer coefficients, highest degree first, and
    d > 0: an integer with the sign of p(n/d)."""
    acc, dk = 0, 1
    for c in coeffs:
        acc = acc * n + c * dk
        dk *= d
    return acc


def _rem(p: list, q: list) -> list:
    """The remainder of p by q; coefficient lists, highest degree first,
    without leading zeros."""
    p = list(p)
    while len(p) >= len(q):
        c = Fraction(p[0]) / q[0]
        pad = [0] * (len(p) - len(q))
        p = [a - c * b for a, b in zip(p[1:], q[1:] + pad)]
        while p and p[0] == 0:
            del p[0]
    return p


def _sign_changes(values) -> int:
    s = [v for v in values if v]
    return sum((a < 0) != (b < 0) for a, b in zip(s, s[1:]))


def _real_roots(coeffs: tuple) -> tuple:
    """The real roots of an integer polynomial without repeated roots
    (highest degree first), each rounded to the nearest float, ascending.

    A Sturm sequence counts the roots in any interval (lo, hi] exactly;
    bisection in exact dyadic arithmetic isolates each root and narrows
    it until both ends of its interval round to the same float.
    """
    n = len(coeffs) - 1
    seq = [list(coeffs), [c * (n - k) for k, c in enumerate(coeffs[:-1])]]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            raise ValueError("polynomial has a repeated root")
        seq.append([-c for c in _integral(r)])

    def count(x):               # sign changes of the sequence at x
        return _sign_changes([_scaled_value(q, x.numerator, x.denominator)
                              for q in seq])

    expected = (_sign_changes([q[0] * (-1) ** (len(q) - 1) for q in seq])
                - _sign_changes([q[0] for q in seq]))
    # Cauchy's bound: every root has |r| < 1 + max |c_k / c_0| <= bound
    cauchy = 1 + max(abs(Fraction(c, coeffs[0])) for c in coeffs[1:])
    bound = Fraction(1 << math.ceil(cauchy).bit_length())
    roots = []
    todo = [(-bound, bound, count(-bound), count(bound))]
    while todo:
        lo, hi, clo, chi = todo.pop()
        if clo == chi:
            continue
        if clo - chi == 1 and float(lo) == float(hi):
            roots.append(float(hi))
            continue
        mid = (lo + hi) / 2
        cmid = count(mid)
        todo += [(lo, mid, clo, cmid), (mid, hi, cmid, chi)]
    if len(roots) != expected:
        raise ValueError(f"found {len(roots)} real roots, Sturm counts "
                         f"{expected}")
    return tuple(sorted(roots))


@lru_cache(maxsize=1)
def fuchsian_elimination() -> FuchsianEliminationData:
    # x = 1/2 + u + i t as a complex polynomial in (u, t)
    x = ({(0, 0): Fraction(1, 2), (1, 0): 1}, {(0, 1): 1})
    Q, R, g = (_horner(c, x) for c in (Q_COEFFS, R_COEFFS, G_COEFFS))

    abs_g2 = _abs2(g)
    F = _to_UT(_add(_abs2(Q), _scale(_mul(abs_g2, abs_g2), -16)))

    Rb = (R[0], _scale(R[1], -1))
    im_W = _cmul(_cmul(Q, _cmul(Q, Q)), _cmul(Rb, Rb))[1]
    # divide by t(2s - 1) = 2ut: an exponent shift
    if any(i == 0 or j == 0 for i, j in im_W):
        raise ValueError("Im(Q^3 conj(R)^2) is not divisible by u t")
    G_raw = _to_UT({(i - 1, j - 1): Fraction(c, 2)
                    for (i, j), c in im_W.items()})

    calibration = Fraction(1323, 256) / G_raw[0, 0]
    G = _scale(G_raw, calibration)

    G1 = _in_S_V(_add(_scale(F, 5), _scale(G, -16)))
    # 256F - 16 G1 = 256F - 16(5F - 16G)
    F1 = _in_S_V(_add(_scale(F, 176), _scale(G, 256)))

    # G1 = g0(S) + g1(S) V is linear in V; substituting V = -g0/g1 into
    # F1 = sum_j f_j(S) V^j and clearing g1^m leaves the eliminant
    if any(j > 1 for _, j in G1):
        raise ValueError("G1 is not linear in V")
    g0, g1 = _terms_in_V(G1, 0), _terms_in_V(G1, 1)
    m = max(j for _, j in F1)
    eliminant = _add(*(_mul(_mul(_terms_in_V(F1, j), _pow(_scale(g0, -1), j)),
                            _pow(g1, m - j)) for j in range(m + 1)))
    cubic = _primitive(eliminant)

    real_roots = _real_roots(cubic)

    def at(p, r):               # a polynomial in S at the float r, exactly
        return sum(c * Fraction(r) ** i for (i, _), c in p.items())

    # U, T are the (nonnegative) roots of y^2 - (U+T) y + V with
    # U + T = sqrt(S^2 + 4V); both nonnegative needs V = -g0/g1 >= 0
    admissible = tuple(r for r in real_roots if -at(g0, r) * at(g1, r) >= 0)

    # F(0, T) as a polynomial in T
    quartic = _primitive({(j, 0): c for (i, j), c in F.items() if i == 0})
    sym_T = tuple(r for r in _real_roots(quartic) if r >= 0)

    # read-only views: every caller shares the cached result
    F, G, G1, F1 = map(MappingProxyType, (F, G, G1, F1))
    return FuchsianEliminationData(
        F=F, G=G, G1=G1, F1=F1,
        calibration=calibration,
        cubic=cubic,
        cubic_real_roots=real_roots,
        admissible_roots=admissible,
        symmetry_line_quartic=quartic,
        symmetry_line_T=sym_T,
    )


def swallowtail_t_exact() -> float:
    """The symmetry-line swallowtail height t* = sqrt((-3 + sqrt(17))/8)."""
    data = fuchsian_elimination()
    ts = [math.sqrt(Tv) for Tv in data.symmetry_line_T]
    target = math.sqrt((-3.0 + math.sqrt(17.0)) / 8.0)
    return min(ts, key=lambda t: abs(t - target))
