"""Theta constants and the lambda function.

Conventions (all centralized here):

* nome q = exp(pi i z / 2), so q^2 = exp(pi i z) and q^4 = exp(2 pi i z);
* theta2 = sum q^((2n-1)^2/2), theta3 = sum q^(2 n^2),
  theta0 = sum (-1)^n q^(2 n^2);
* lambda = (theta0/theta3)^4 = 1 - 16 q^2 + 128 q^4 - ...,
  normalized so lambda: infinity -> 1, 0 -> 0, 1 -> infinity;
* mu = (theta2/theta3)^4, so lambda + mu = 1 by Jacobi's identity
  theta3^4 = theta0^4 + theta2^4; mu is summed, never subtracted;
* ' = q d/dq = (2 / pi i) d/dz, hence d/dz = (pi i / 2) ';
* lambda' = -2 theta2^4 lambda and mu' = 2 theta0^4 mu.

Evaluation anywhere in the upper half-plane first moves z to the classical
fundamental domain (where the q-series converge fast) by generators
z -> z + 1 and z -> -1/z.  lambda(z + 1) = 1 / lambda(z) and
lambda(-1/z) = mu(z), so lambda(z) = s lambda(w)^a mu(w)^b at the reduced
point w, one of the six anharmonic maps (s = +-1, a, b in {-1, 0, 1}).
The log-derivative of x = lambda(z) in ' at w is
L = 2 (b theta0^4 - a theta2^4), so x' = x L and x'' = x (L^2 + L'); the
chain rule through w = m(z) gives the z-derivatives.

The theta series are summed for all points at once, each power of q from
the one before by an exact exponent step, with q^(1/2) = exp(pi i z / 4)
taken from z itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arrays import clip, flat, unflat

# d/dz = DZ_FROM_PRIME * (q d/dq)
DZ_FROM_PRIME = 0.5j * math.pi

# below this height the raw series are refused and reduction is mandatory
MIN_IM = 0.05

_TAIL = 1e-16

# steps of a fundamental-domain reduction (of SL(2, Z) or of level 2)
# before a point is given up
_MAX_REDUCTIONS = 200

# fuchsian_z_from_x accepts z once |lambda(z) - x| < _PREIMAGE_TOL
# max(1, |x|), after at most _PREIMAGE_EVALS lambda evaluations
_PREIMAGE_TOL = 1e-12
_PREIMAGE_EVALS = 4

# reduce_level_two moves a point this close to a left side of the level-2
# domain to the right side paired with it: above the 9e-16 by which the
# polished preimage of a real x in [-1e4, -1e-6] or [1 + 1e-6, 1e4]
# misses its side, below the 1e-12 that the domain's callers allow
_SIDE_TOL = 1e-13


class DomainError(ValueError):
    """z outside the upper half-plane."""


@dataclass(frozen=True)
class ThetaValues:
    theta2: complex
    theta3: complex
    theta0: complex
    theta2p: complex        # q d/dq theta2


def _truncation_order(im: float) -> int:
    # first omitted theta term has exponent ~ 2 M^2; require
    # |q|^(2 M^2) < _TAIL, with -log|q| = pi Im z / 2
    m = math.sqrt(-math.log(_TAIL) / (math.pi * im))
    return max(4, int(math.ceil(m)) + 2)


# the order the lowest points of the fundamental domain (Im = sqrt(3)/2)
# need; every reduced point is summed to it
_DOMAIN_ORDER = _truncation_order(math.sqrt(3.0) / 2.0)


def _theta_sums(z, m: int):
    """theta2, theta3, theta0, q d/dq theta2 and q d/dq theta0, each summed
    over |n| <= m, at every point of the array z.

    The terms of n and -n (in theta2, of 2n - 1 and 1 - 2n) are equal, so
    each pair is summed once and doubled.  Each power of q comes from the
    one before by an exact exponent step: q^(2(k+1)^2) = q^(2k^2) q^(4k+2)
    and, for odd j, q^((j+2)^2/2) = q^(j^2/2) q^(2j+2).  q^(1/2) =
    exp(pi i z / 4) is taken from z: the principal root of q is the other
    branch for Re z in (2, 6] mod 8.
    """
    q2 = np.exp(2.0 * DZ_FROM_PRIME * z)
    q4 = q2 * q2
    t2 = t2p = t3 = t0 = t0p = 0.0
    p2, s2 = np.exp(0.5 * DZ_FROM_PRIME * z), q4    # q^(j^2/2), q^(2j+2)
    p3, s3 = q2, q2 * q4                            # q^(2k^2), q^(4k+2)
    for k in range(1, m + 1):
        j = 2 * k - 1
        t2, t2p = t2 + p2, t2p + (j * j / 2.0) * p2
        t3, t0 = t3 + p3, (t0 - p3 if k % 2 else t0 + p3)
        t0p = t0p + (-1) ** k * (2 * k * k) * p3
        p2, s2 = p2 * s2, s2 * q4
        p3, s3 = p3 * s3, s3 * q4
    # p2 is now the one unpaired term, j = 2m + 1 (n = -m)
    return (2.0 * t2 + p2, 1.0 + 2.0 * t3, 1.0 + 2.0 * t0,
            2.0 * t2p + ((2 * m + 1) ** 2 / 2.0) * p2, 2.0 * t0p)


def theta_values(z) -> ThetaValues:
    """Truncated q-series for the theta constants and q d/dq theta2 at z
    (scalar or array), every point summed to the order its lowest point
    needs.  Below Im z = MIN_IM, DomainError or NaN (see arrays.clip)."""
    shape, z = np.shape(z), flat(z)
    ok = z.imag >= MIN_IM
    z, = clip(~ok, shape, DomainError, lambda: (
        f"Im z = {z.imag[0]} below series floor {MIN_IM}; "
        "reduce to the fundamental domain first"), z)
    m = _truncation_order(z.imag[ok].min(initial=math.inf))
    return ThetaValues(*unflat(shape, *_theta_sums(z, m)[:4]))


# --- reduction to the fundamental domain -----------------------------------

def _reduce_to_fundamental(z: np.ndarray):
    """Move each point of the 1-D array z to |Re| <= 1/2, |z| >= 1.

    Returns (w, c, d, s, a, b, failed): w = m(z) for m = [[., .], [c, d]]
    in SL(2, Z), lambda(z) = s lambda(w)^a mu(w)^b, and the points still
    outside after _MAX_REDUCTIONS steps.
    """
    finite = np.isfinite(z)
    w = np.where(finite, z, 1j)
    one, zero = np.ones(w.size, np.int64), np.zeros(w.size, np.int64)
    m, s, a, b = np.array([one, zero, zero, one]), one, one, zero
    for _ in range(_MAX_REDUCTIONS):
        # T^-k; a point already in the domain has k = 0 and stays put
        k = np.rint(w.real)
        w = w - k
        k = k.astype(np.int64)
        m[:2] -= k * m[2:]
        # odd k: lambda(w_old) = 1 / lambda(w_new), mu(w_old) =
        # -mu(w_new) / lambda(w_new)
        odd = (k & 1).astype(bool)
        s = np.where(odd & (b != 0), -s, s)
        a = np.where(odd, -a - b, a)
        inside = np.abs(w) < 1.0 - 1e-15
        if not inside.any():
            break
        # S: m <- [[0, -1], [1, 0]] m, and lambda <-> mu
        w = np.where(inside, -1.0 / w, w)
        m = np.where(inside, [-m[2], -m[3], m[0], m[1]], m)
        a, b = np.where(inside, b, a), np.where(inside, a, b)
    return (np.where(finite, w, np.nan), m[2], m[3], s, a, b,
            inside & finite)


class LambdaInverse:
    """Inverse Schwarz map x = lambda(z) with first two z-derivatives."""

    @np.errstate(invalid="ignore")    # NaN marks clipped points
    def eval(self, z):
        """(x, dx/dz, d2x/dz2) at z (scalar or array); off the upper
        half-plane, DomainError or NaN (see arrays.clip)."""
        shape, z = np.shape(z), flat(z)
        z, = clip(~(z.imag > 0), shape, DomainError,
                  lambda: f"Im z must be positive, got {z[0]}", z)
        w, c, d, s, a, b, failed = _reduce_to_fundamental(z)
        w, = clip(failed, shape, RuntimeError, lambda: (
            f"fundamental-domain reduction failed for z={z[0]}"), w)
        t2, t3, t0, t2p, t0p = _theta_sums(w, _DOMAIN_ORDER)
        lam, mu = (t0 / t3) ** 4, (t2 / t3) ** 4
        pole = ((a == -1) & (abs(lam) < 1e-100)
                | (b == -1) & (abs(mu) < 1e-100))
        lam, mu = clip(pole, shape, DomainError, lambda: (
            f"value map has a pole at lambda={lam[0]}, mu={mu[0]}"), lam, mu)
        x = s * lam ** a * mu ** b
        # log-derivative of x at w in ', and its derivative
        el = 2.0 * (b * t0 ** 4 - a * t2 ** 4)
        el_p = 8.0 * (b * t0 ** 3 * t0p - a * t2 ** 3 * t2p)
        # chain rule through w = m(z), det m = 1: dw/dz = 1 / den^2
        den = c * z + d
        lz = DZ_FROM_PRIME * el / den ** 2                  # x_z / x
        # d lz / dz, so that x_zz = x (lz^2 + lzz)
        lzz = (DZ_FROM_PRIME / den ** 2) ** 2 * el_p - 2.0 * c * lz / den
        return unflat(shape, x, x * lz, x * (lz * lz + lzz))


def eval_lambda(z: complex):
    """(x, dx/dz, d2x/dz2) for x = lambda(z), valid on all of Im z > 0."""
    return LambdaInverse().eval(z)


# --- exact series (transcription checks) ------------------------------------

def lambda_series_coeffs(count: int):
    """First `count` coefficients of lambda as a series in q^2, exactly.

    lambda = 1 - 16 q^2 + 128 q^4 - 704 q^6 + ...  theta_3 starts with 1,
    so 1/theta_3 and (theta_0/theta_3)^4 have integer coefficients.
    """
    n = count
    t3, t0 = [1] + [0] * (n - 1), [1] + [0] * (n - 1)
    k = 1
    while k * k < n:
        t3[k * k] += 2
        t0[k * k] += 2 * (-1) ** k
        k += 1

    def mul(a, b):
        return [sum(a[j] * b[i - j] for j in range(i + 1)) for i in range(n)]

    inv = [1] + [0] * (n - 1)
    for i in range(1, n):
        inv[i] = -sum(t3[j] * inv[i - j] for j in range(1, i + 1))
    r = mul(t0, inv)
    r2 = mul(r, r)
    return mul(r2, r2)


def reduce_level_two(z):
    """Move z (scalar or array) into the fundamental domain of the level-2
    principal group.

    The domain is {|Re z| <= 1, |2z - 1| >= 1, |2z + 1| >= 1}; lambda
    takes every value of C - {0, 1} exactly once on it, except on its
    sides, which the group pairs: z + 2 carries Re z = -1 onto Re z = 1,
    and z / (2z + 1) carries |2z + 1| = 1 onto |2z - 1| = 1.  Lambda is
    real there (x > 1 on the lines, x < 0 on the circles), and a point
    within _SIDE_TOL of a left side goes to its image on the right side,
    so each such x has one representative, with Re z > 0.  Off the upper
    half-plane, or where z is not finite, DomainError or NaN (see
    arrays.clip).
    """
    shape, z = np.shape(z), flat(z)
    z, = clip(~(z.imag > 0) | ~np.isfinite(z), shape, DomainError,
              lambda: f"z must be finite with Im z > 0, got {z[0]}", z)
    for _ in range(_MAX_REDUCTIONS):
        z = z - np.floor((z.real + 1.0) / 2.0) * 2
        left = np.abs(2.0 * z + 1.0) < 1.0 - 1e-15
        right = ~left & (np.abs(2.0 * z - 1.0) < 1.0 - 1e-15)
        if not (left | right).any():
            break
        z = np.where(left, z / (2.0 * z + 1.0),
                     np.where(right, z / (-2.0 * z + 1.0), z))
    z[z.real < -1.0 + _SIDE_TOL] += 2.0
    tie = np.abs(2.0 * z + 1.0) < 1.0 + _SIDE_TOL
    z[tie] /= 2.0 * z[tie] + 1.0
    return unflat(shape, z)[0]


# cap on the AGM steps: sqrt x of a finite double lies within 1e+-155 of
# 1, the exponent of b / a halves each step and then the AGM converges
# quadratically, so 12 steps reach full precision from the extremes
_AGM_STEPS = 16


def _agm(a, b) -> np.ndarray:
    """Arithmetic-geometric mean M(a, b) of arrays, keeping at each step
    the square root nearer the arithmetic mean (|a - b| <= |a + b|).

    The steps stop at the fixed point, where a step leaves (a, b)
    unchanged and so would every later one, or after _AGM_STEPS; a NaN
    never compares equal, so an array holding one runs to the cap."""
    for _ in range(_AGM_STEPS):
        a0, b0 = a, b
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        b = np.where(np.abs(a - b) <= np.abs(a + b), b, -b)
        if np.array_equal(a, a0) and np.array_equal(b, b0):
            break
    return a


def _schwarz_agm(x: np.ndarray) -> np.ndarray:
    """z = i K(x) / K(1 - x) = i M(1, sqrt x) / M(1, sqrt(1 - x)), the
    ratio of two solutions of E(1/2, 1/2, 1), for every point of x."""
    return 1j * _agm(1.0, np.sqrt(x)) / _agm(1.0, np.sqrt(1.0 - x))


def _newton(inv: LambdaInverse, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Damped Newton on lambda(z) = x from the starts z for every point of
    x at once; NaN where it stops without converging."""
    out = np.full(x.shape, np.nan, dtype=complex)
    active = np.arange(x.size)
    for _ in range(_PREIMAGE_EVALS):
        if not active.size:
            break
        val, der, _ = inv.eval(z)
        err = val - x[active]
        done = np.abs(err) < _PREIMAGE_TOL * np.maximum(1.0, np.abs(x[active]))
        out[active[done]] = z[done]
        step = err / der
        size = np.abs(step)
        z = z - np.where(size > 0.5, step * (0.5 / size), step)
        # a point leaves when it converged, its value is not finite, its
        # derivative vanished or its step left the upper half-plane
        keep = ~done & np.isfinite(val) & (der != 0.0) & (z.imag > 1e-6)
        active, z = active[keep], z[keep]
    return out


@np.errstate(invalid="ignore", divide="ignore")
def fuchsian_z_from_x(x):
    """Canonical preimage of x (scalar or array) under lambda.

    lambda = (theta0/theta3)^4 is 1 minus the classical lambda, with the
    classical nome q^2 = exp(pi i z), so its inverse is the Schwarz map of
    E(1/2, 1/2, 1) with x and 1 - x swapped from the classical formula:

        z = i K(x) / K(1 - x) = i M(1, sqrt x) / M(1, sqrt(1 - x)),

    with K(m) = pi / (2 M(1, sqrt(1 - m))) and M the arithmetic-geometric
    mean.  Damped Newton from that z, at most _PREIMAGE_EVALS lambda
    evaluations, accepts a point once |lambda(z) - x| < _PREIMAGE_TOL
    max(1, |x|); the result is reduced into the level-2 fundamental
    domain, where the preimage is unique, so curves of x map to
    continuous curves of z (one branch per half-plane of x: Im x > 0
    lands in Re z < 0).  On a tie, real x < 0 or x > 1, whose preimages
    lie on the sides that the group pairs, z is the one with Re z > 0
    (see reduce_level_two), the limit from the lower half-plane.  A point
    that fails the check, and x = 0 or 1, which lambda omits but reaches
    within _PREIMAGE_TOL near the cusps, is NaN in an array call; a
    scalar call raises ValueError.
    """
    shape, x = np.shape(x), flat(x)
    z = _newton(LambdaInverse(), x, _schwarz_agm(x))
    z, = clip(np.isnan(z) | (x == 0.0) | (x == 1.0), shape, ValueError,
              lambda: f"no lambda preimage found for x={x[0]}", z)
    ok = ~np.isnan(z)
    z[ok] = reduce_level_two(z[ok])
    return unflat(shape, z)[0]
