"""Theta constants and the lambda function.

Conventions (all centralized here):

* nome q = exp(pi i z / 2), so q^2 = exp(pi i z) and q^4 = exp(2 pi i z);
* theta2 = sum q^((2n-1)^2/2), theta3 = sum q^(2 n^2),
  theta0 = sum (-1)^n q^(2 n^2);
* lambda = (theta0/theta3)^4 = 1 - 16 q^2 + 128 q^4 - ...,
  normalized so lambda: infinity -> 1, 0 -> 0, 1 -> infinity;
* ' = q d/dq = (2 / pi i) d/dz, hence d/dz = (pi i / 2) ';
* lambda' = -2 theta2^4 lambda, so
  lambda'' = -2 (4 theta2^3 theta2' lambda + theta2^4 lambda').

Evaluation anywhere in the upper half-plane first moves z to the classical
fundamental domain (where the q-series converge fast) by generators
z -> z + 1 and z -> -1/z, tracking the induced Moebius action on the value:
lambda(z + 1) = 1 / lambda(z) and lambda(-1/z) = 1 - lambda(z).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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


# points per block of _theta_sums: bounds its (4, block, 2m + 1) tables
_BLOCK = 512


def _theta_sums(q, m: int):
    """theta2, theta3, theta0 and q d/dq theta2, each summed over |n| <= m,
    for every nome in the array q."""
    q = np.asarray(q)
    if q.size > _BLOCK:     # a block at a time keeps the tables small
        blocks = np.array_split(q.ravel(), -(-q.size // _BLOCK))
        sums = zip(*(_theta_sums(b, m) for b in blocks))
        return tuple(np.concatenate(s).reshape(q.shape) for s in sums)
    n = np.arange(-m, m + 1)
    e2 = (2 * n - 1) ** 2 / 2.0
    q = q[..., None]
    q2 = q ** e2
    q3 = q ** (2.0 * n ** 2)
    s3 = np.where(n % 2, -1.0, 1.0) * q3
    return np.stack([q2, q3, s3, e2 * q2]).sum(axis=-1)


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
    return ThetaValues(*unflat(shape, *_theta_sums(
        np.exp(0.5j * math.pi * z), m)))


def _lambda_series(w: np.ndarray):
    """lambda, lambda', lambda'' (' = q d/dq) on the fundamental domain."""
    t2, t3, t0, t2p = _theta_sums(np.exp(DZ_FROM_PRIME * w), _DOMAIN_ORDER)
    lam = (t0 / t3) ** 4
    t2_4 = t2 ** 4
    lam_p = -2.0 * t2_4 * lam
    return lam, lam_p, -2.0 * (4.0 * t2 ** 3 * t2p * lam + t2_4 * lam_p)


# --- reduction to the fundamental domain -----------------------------------

# z -> -1/z on the stacked entries (a, b, c, d) of m and (p0..p3) of phi:
# m <- [[0, -1], [1, 0]] m and phi <- phi [[-1, 1], [0, 1]]
_S_STEP = np.zeros((8, 8), dtype=np.int64)
_S_STEP[:4, :4] = [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]]
_S_STEP[4:, 4:] = [[-1, 0, 0, 0], [1, 1, 0, 0], [0, 0, -1, 0], [0, 0, 1, 1]]
# an odd translation swaps the columns of phi: phi <- phi [[0, 1], [1, 0]]
_SWAP_PHI = [0, 1, 2, 3, 5, 4, 7, 6]


def _reduce_to_fundamental(z: np.ndarray):
    """Move each point of the 1-D array z to |Re| <= 1/2, |z| >= 1.

    Returns (w, c, d, phi, failed): w = m(z) for m = [[a, b], [c, d]] in
    SL(2, Z), lambda(z) = phi(lambda(w)) for phi given by its entries row
    by row, and the points still outside after _MAX_REDUCTIONS steps.
    """
    finite = np.isfinite(z)
    w = np.where(finite, z, 1j)
    mp = np.zeros((8, w.size), dtype=np.int64)     # rows a..d, p0..p3
    mp[[0, 3, 4, 7]] = 1
    for _ in range(_MAX_REDUCTIONS):
        # T^-k; a point already in the domain has k = 0 and stays put
        k = np.rint(w.real)
        w = w - k
        k = k.astype(np.int64)
        mp[:2] -= k * mp[2:4]
        # odd k: lambda(w_old) = 1 / lambda(w_new)
        mp = np.where(k & 1, mp[_SWAP_PHI], mp)
        s = np.abs(w) < 1.0 - 1e-15
        if not s.any():
            break
        w = np.where(s, -1.0 / w, w)
        mp = np.where(s, _S_STEP @ mp, mp)
    return np.where(finite, w, np.nan), mp[2], mp[3], mp[4:], s & finite


class LambdaInverse:
    """Inverse Schwarz map x = lambda(z) with first two z-derivatives."""

    @np.errstate(invalid="ignore")    # NaN marks clipped points
    def eval(self, z):
        """(x, dx/dz, d2x/dz2) at z (scalar or array); off the upper
        half-plane, DomainError or NaN (see arrays.clip)."""
        shape, z = np.shape(z), flat(z)
        z, = clip(~(z.imag > 0), shape, DomainError,
                  lambda: f"Im z must be positive, got {z[0]}", z)
        w, c, d, phi, failed = _reduce_to_fundamental(z)
        w, = clip(failed, shape, RuntimeError, lambda: (
            f"fundamental-domain reduction failed for z={z[0]}"), w)
        lam, lam_p, lam_pp = _lambda_series(w)
        # z-derivatives of lambda at w
        lw = DZ_FROM_PRIME * lam_p
        lww = DZ_FROM_PRIME ** 2 * lam_pp
        # chain rule through w = m(z), det m = 1
        den = c * z + d
        mp = 1.0 / den ** 2
        mpp = -2.0 * c / den ** 3
        lz = lw * mp
        lzz = lww * mp * mp + lw * mpp
        # value map x = phi(lambda(w))
        pa, pb, g, h = phi
        pden = g * lam + h
        pden, = clip(abs(pden) < 1e-100, shape, DomainError,
                     lambda: f"value map has a pole at lambda={lam[0]}", pden)
        pdet = pa * h - pb * g
        x = (pa * lam + pb) / pden
        php = pdet / pden ** 2
        phpp = -2.0 * g * pdet / pden ** 3
        xd = php * lz
        xdd = phpp * lz * lz + php * lzz
        return unflat(shape, x, xd, xdd)


def eval_lambda(z: complex):
    """(x, dx/dz, d2x/dz2) for x = lambda(z), valid on all of Im z > 0."""
    return LambdaInverse().eval(z)


# --- exact series (transcription checks) ------------------------------------

def lambda_series_coeffs(count: int):
    """First `count` coefficients of lambda as a series in q^2, exactly.

    lambda = 1 - 16 q^2 + 128 q^4 - 704 q^6 + ...
    """
    n = count
    t3 = [Fraction(0)] * n
    t0 = [Fraction(0)] * n
    t3[0] = t0[0] = Fraction(1)
    k = 1
    while k * k < n:
        t3[k * k] += 2
        t0[k * k] += 2 * (-1) ** k
        k += 1

    def mul(a, b):
        c = [Fraction(0)] * n
        for i, ai in enumerate(a):
            if ai:
                for j in range(n - i):
                    if b[j]:
                        c[i + j] += ai * b[j]
        return c

    def inv(a):
        c = [Fraction(0)] * n
        c[0] = 1 / a[0]
        for k in range(1, n):
            c[k] = -sum(a[j] * c[k - j] for j in range(1, k + 1)) / a[0]
        return c

    r = mul(t0, inv(t3))
    r2 = mul(r, r)
    return mul(r2, r2)


def reduce_level_two(z):
    """Move z (scalar or array) into the fundamental domain of the level-2
    principal group.

    The domain is {|Re z| <= 1, |2z - 1| >= 1, |2z + 1| >= 1}; lambda
    takes every value of C - {0, 1} exactly once on it.  Off the upper
    half-plane, DomainError or NaN (see arrays.clip).
    """
    shape, z = np.shape(z), flat(z)
    z, = clip(~(z.imag > 0), shape, DomainError,
              lambda: f"Im z must be positive, got {z[0]}", z)
    for _ in range(_MAX_REDUCTIONS):
        z = z - np.floor((z.real + 1.0) / 2.0) * 2
        left = np.abs(2.0 * z + 1.0) < 1.0 - 1e-15
        right = ~left & (np.abs(2.0 * z - 1.0) < 1.0 - 1e-15)
        if not (left | right).any():
            break
        z = np.where(left, z / (2.0 * z + 1.0),
                     np.where(right, z / (-2.0 * z + 1.0), z))
    return unflat(shape, z)[0]


# AGM steps: sqrt x of a finite double lies within 1e+-155 of 1, the
# exponent of b / a halves each step and then the AGM converges
# quadratically, so 12 steps reach full precision from the extremes
_AGM_STEPS = 16


def _agm(a, b) -> np.ndarray:
    """Arithmetic-geometric mean M(a, b) of arrays, keeping at each step
    the square root nearer the arithmetic mean (|a - b| <= |a + b|)."""
    for _ in range(_AGM_STEPS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        b = np.where(np.abs(a - b) <= np.abs(a + b), b, -b)
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
    continuous curves of z (one branch per half-plane of x).  A point
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
    return complex(z[0]) if shape == () else z.reshape(shape)
