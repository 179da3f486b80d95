"""Exact polynomial elimination for the singular locus with mu = (0, 0, 0).

On the line of symmetry variables x = s + i t, s = 1/2 + u, the defining
function of the singular curve and the swallowtail condition become
polynomials in U = u^2 and T = t^2.  Eliminating one variable leaves a
cubic in S = U - T whose admissible roots locate swallowtail candidates
off the symmetry line, and a quartic in T for candidates on it.

A polynomial is a dict from exponent tuples to coefficients, zero
terms dropped.  The algebra runs on integers, in 2x = 1 + 2u + 2it, and
the results are divided back by their powers of 2 and the calibration at
the end; floating point enters only when each real root is rounded to
its nearest float.
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


def _coeffs(p: dict) -> list:
    """A polynomial in its first variable (the second exponent 0) as a
    coefficient list, highest degree first."""
    deg = max(i for i, _ in p)
    coeffs = [0] * (deg + 1)
    for (i, _), c in p.items():
        coeffs[deg - i] = c
    return coeffs


def _primitive(coeffs) -> tuple:
    """Integer coefficients divided by their gcd, with the sign that makes
    the leading one positive."""
    g = math.gcd(*coeffs) if coeffs[0] > 0 else -math.gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _scaled_value(coeffs, n: int, d: int) -> int:
    """d^deg p(n/d) for integer coefficients, highest degree first, and
    d > 0: an integer with the sign of p(n/d)."""
    acc, dk = 0, 1
    for c in coeffs:
        acc = acc * n + c * dk
        dk *= d
    return acc


def _rem(p: list, q: list) -> list:
    """A positive integer multiple of the remainder of p by q; integer
    coefficient lists, highest degree first, without leading zeros.

    Each step is |q0| (p - p0/q0 q x^k), in integers."""
    lead, sign = abs(q[0]), (1 if q[0] > 0 else -1)
    p = list(p)
    while len(p) >= len(q):
        c = sign * p[0]
        pad = [0] * (len(p) - len(q))
        p = [lead * a - c * b for a, b in zip(p[1:], q[1:] + pad)]
        while p and p[0] == 0:
            del p[0]
    return p


def _sign_changes(values) -> int:
    s = [v for v in values if v]
    return sum((a < 0) != (b < 0) for a, b in zip(s, s[1:]))


def _narrow(coeffs, lo: int, hi: int, k: int) -> float:
    """The float nearest the one root r of the square-free p in (lo / 2^k,
    hi / 2^k], by halving the interval on the sign of p at its middle:
    r is in the left half when p vanishes there or has the sign it has
    at hi (a zero at hi is r itself, which lies right of the middle)."""
    vhi = _scaled_value(coeffs, hi, 1 << k)
    while lo / (1 << k) != hi / (1 << k):
        mid, k = lo + hi, k + 1
        vmid = _scaled_value(coeffs, mid, 1 << k)
        if vmid == 0 or (vhi != 0 and (vmid > 0) == (vhi > 0)):
            lo, hi, vhi = 2 * lo, mid, vmid
        else:
            lo, hi = mid, 2 * hi
    return hi / (1 << k)


def _real_roots(coeffs: tuple) -> tuple:
    """The real roots of an integer polynomial without repeated roots
    (highest degree first), each rounded to the nearest float, ascending.

    A Sturm sequence counts the roots in any interval (lo, hi] exactly;
    bisection isolates each root, and the sign of p alone, which changes
    at each root as p has no repeated one, narrows it until both ends of
    its interval round to the same float.  The ends are dyadic, n / 2^k
    for integers n and k, and int / int rounds correctly, as
    float(Fraction) does.
    """
    n = len(coeffs) - 1
    seq = [list(coeffs), [c * (n - k) for k, c in enumerate(coeffs[:-1])]]
    while len(seq[-1]) > 1:
        r = _rem(seq[-2], seq[-1])
        if not r:
            raise ValueError("polynomial has a repeated root")
        g = math.gcd(*r)
        seq.append([-c // g for c in r])

    def count(n, k):            # sign changes of the sequence at n / 2^k
        return _sign_changes([_scaled_value(q, n, 1 << k) for q in seq])

    expected = (_sign_changes([q[0] * (-1) ** (len(q) - 1) for q in seq])
                - _sign_changes([q[0] for q in seq]))
    # Cauchy's bound: every root has |r| < 1 + max |c_k / c_0| <= bound
    lead = abs(coeffs[0])
    cauchy = 1 + max(-(-abs(c) // lead) for c in coeffs[1:])
    bound = 1 << cauchy.bit_length()
    roots = []
    # intervals (lo / 2^k, hi / 2^k]
    todo = [(-bound, bound, 0, count(-bound, 0), count(bound, 0))]
    while todo:
        lo, hi, k, clo, chi = todo.pop()
        if clo == chi:
            continue
        if clo - chi == 1:
            roots.append(_narrow(coeffs, lo, hi, k))
            continue
        mid = lo + hi               # at 2^(k + 1)
        cmid = count(mid, k + 1)
        todo += [(2 * lo, mid, k + 1, clo, cmid),
                 (mid, 2 * hi, k + 1, cmid, chi)]
    if len(roots) != expected:
        raise ValueError(f"found {len(roots)} real roots, Sturm counts "
                         f"{expected}")
    return tuple(sorted(roots))


def _times_powers_of_2(coeffs) -> list:
    """2^d p(X / 2) for p of degree d, highest degree first: integer
    coefficients in X = 2x for a p in x."""
    return [c << k for k, c in enumerate(coeffs)]


@lru_cache(maxsize=1)
def fuchsian_elimination() -> FuchsianEliminationData:
    # X = 2x = 1 + 2u + 2i t as a complex polynomial in (u, t), and in it
    # 4Q, 8R and 4x(1 - x), all with integer coefficients
    X = ({(0, 0): 1, (1, 0): 2}, {(0, 1): 2})
    Q, R, g = (_horner(_times_powers_of_2(c), X)
               for c in (Q_COEFFS, R_COEFFS, G_COEFFS))

    abs_g2 = _abs2(g)
    F16 = _to_UT(_add(_abs2(Q), _scale(_mul(abs_g2, abs_g2), -1)))   # 16F

    Rb = (R[0], _scale(R[1], -1))
    im_W = _cmul(_cmul(Q, _cmul(Q, Q)), _cmul(Rb, Rb))[1]   # 2^12 Im(W)
    # divide by t(2s - 1) = 2ut: an exponent shift
    if any(i == 0 or j == 0 for i, j in im_W):
        raise ValueError("Im(Q^3 conj(R)^2) is not divisible by u t")
    G13 = _to_UT({(i - 1, j - 1): c for (i, j), c in im_W.items()})
    g00 = G13[0, 0]     # 2^13 times G(0, 0) before the calibration

    calibration = Fraction(1323, 256) / Fraction(g00, 1 << 13)
    # G = 1323 G13 / (256 g00); G1 = 5F - 16G and
    # F1 = 256F - 16 G1 = 176F + 256G, each times 16 g00
    G1n = _in_S_V(_add(_scale(F16, 5 * g00), _scale(G13, -1323)))
    F1n = _in_S_V(_add(_scale(F16, 176 * g00), _scale(G13, 16 * 1323)))

    # G1 = g0(S) + g1(S) V is linear in V; substituting V = -g0/g1 into
    # F1 = sum_j f_j(S) V^j and clearing g1^m leaves the eliminant (the
    # common factor 16 g00 of G1 and F1 only scales it)
    if any(j > 1 for _, j in G1n):
        raise ValueError("G1 is not linear in V")
    g0, g1 = _terms_in_V(G1n, 0), _terms_in_V(G1n, 1)
    m = max(j for _, j in F1n)
    eliminant = _add(*(_mul(_mul(_terms_in_V(F1n, j), _pow(_scale(g0, -1), j)),
                            _pow(g1, m - j)) for j in range(m + 1)))
    cubic = _primitive(_coeffs(eliminant))

    real_roots = _real_roots(cubic)

    def sign_at(p, r):          # the sign of a polynomial in S at the float r
        return _scaled_value(_coeffs(p), *r.as_integer_ratio())

    # U, T are the (nonnegative) roots of y^2 - (U+T) y + V with
    # U + T = sqrt(S^2 + 4V); both nonnegative needs V = -g0/g1 >= 0
    admissible = tuple(r for r in real_roots
                       if -sign_at(g0, r) * sign_at(g1, r) >= 0)

    # F(0, T) as a polynomial in T
    quartic = _primitive(_coeffs({(j, 0): c for (i, j), c in F16.items()
                                  if i == 0}))
    sym_T = tuple(r for r in _real_roots(quartic) if r >= 0)

    # F = F16 / 16 with the types the rational arithmetic on
    # x = 1/2 + u + it gives: int on the top degree, which the 1/2 does
    # not reach, Fraction below it
    top = max(map(sum, F16))
    F = {mo: c // 16 if sum(mo) == top else Fraction(c, 16)
         for mo, c in F16.items()}
    G = {mo: Fraction(1323 * c, 256 * g00) for mo, c in G13.items()}
    G1, F1 = ({mo: Fraction(c, 16 * g00) for mo, c in p.items()}
              for p in (G1n, F1n))
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
