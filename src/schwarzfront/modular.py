"""Theta constants, Eisenstein series E2, and the lambda function.

Conventions (all centralized here):

* nome q = exp(pi i z / 2), so q^2 = exp(pi i z) and q^4 = exp(2 pi i z);
* theta2 = sum q^((2n-1)^2/2), theta3 = sum q^(2 n^2),
  theta0 = sum (-1)^n q^(2 n^2);
* lambda = (theta0/theta3)^4 = 1 - 16 q^2 + 128 q^4 - ...,
  normalized so lambda: infinity -> 1, 0 -> 0, 1 -> infinity;
* ' = q d/dq = (2 / pi i) d/dz, hence d/dz = (pi i / 2) ';
* E2 = 1 - 24 sum sigma_1(n) q^(4n);
* lambda' = -2 theta2^4 lambda and
  lambda''/lambda' = (4/6) E2 + (4/6)(theta0^4 + theta3^4) - 2 theta2^4.

Evaluation anywhere in the upper half-plane first moves z to the classical
fundamental domain (where the q-series converge fast) by generators
z -> z + 1 and z -> -1/z, tracking the induced Moebius action on the value:
lambda(z + 1) = 1 / lambda(z) and lambda(-1/z) = 1 - lambda(z).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# d/dz = DZ_FROM_PRIME * (q d/dq)
DZ_FROM_PRIME = 0.5j * math.pi

# below this height the raw series are refused and reduction is mandatory
MIN_IM = 0.05

_TAIL = 1e-16


class DomainError(ValueError):
    """z outside the upper half-plane."""


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise DomainError(f"Im z must be positive, got {z}")
    return z


@dataclass(frozen=True)
class ThetaValues:
    theta2: complex
    theta3: complex
    theta0: complex
    # ' = q d/dq
    theta2p: complex
    theta3p: complex
    theta0p: complex
    order: int


def _truncation_order(z: complex) -> int:
    # first omitted theta term has exponent ~ 2 M^2; require
    # |q|^(2 M^2) < _TAIL
    t = math.pi * z.imag / 2.0  # -log|q|
    m = math.sqrt(-math.log(_TAIL) / (2.0 * t))
    return max(4, int(math.ceil(m)) + 2)


def theta_values(z: complex, order: int | None = None) -> ThetaValues:
    """Truncated q-series for the theta constants and their q d/dq."""
    z = _require_upper(z)
    if z.imag < MIN_IM:
        raise DomainError(
            f"Im z = {z.imag} below series floor {MIN_IM}; "
            "reduce to the fundamental domain first")
    m = order if order is not None else _truncation_order(z)
    q = cmath.exp(0.5j * math.pi * z)
    n = np.arange(-m, m + 1)
    e2 = (2 * n - 1) ** 2 / 2.0
    e3 = 2.0 * n ** 2
    q2 = q ** e2
    q3 = q ** e3
    sgn = np.where(n % 2 == 0, 1.0, -1.0)
    return ThetaValues(
        theta2=np.sum(q2), theta3=np.sum(q3), theta0=np.sum(sgn * q3),
        theta2p=np.sum(e2 * q2), theta3p=np.sum(e3 * q3),
        theta0p=np.sum(sgn * e3 * q3), order=m)


def eisenstein_e2(z: complex) -> complex:
    """Truncated q-series for E2."""
    z = _require_upper(z)
    if z.imag < MIN_IM:
        raise DomainError(f"Im z = {z.imag} below series floor")
    q4 = cmath.exp(2j * math.pi * z)
    if abs(q4) == 0.0:
        return 1.0 + 0.0j
    t = -math.log(abs(q4))
    nmax = max(4, int(math.ceil(-math.log(_TAIL) / t)) + 2)
    total = 0.0 + 0.0j
    for n in range(1, nmax + 1):
        total += _sigma1(n) * q4 ** n
    return 1.0 - 24.0 * total


def _sigma1(n: int) -> int:
    s = 0
    d = 1
    while d * d <= n:
        if n % d == 0:
            s += d
            if d != n // d:
                s += n // d
        d += 1
    return s


# --- reduction to the fundamental domain -----------------------------------

def _reduce_to_fundamental(z: complex):
    """Move z to |Re| <= 1/2, |z| >= 1 by T and S.

    Returns (w, m, phi) with w = m(z) for m = [[a,b],[c,d]] integer and
    lambda(z) = phi(lambda(w)) for the integer Moebius matrix phi.
    """
    w = complex(z)
    m = np.eye(2, dtype=np.int64)
    phi = np.eye(2, dtype=np.int64)
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)           # 1/lambda
    onemin = np.array([[-1, 1], [0, 1]], dtype=np.int64)        # 1 - lambda
    for _ in range(200):
        k = int(round(w.real))
        if k != 0:
            w -= k
            m = np.array([[1, -k], [0, 1]], dtype=np.int64) @ m
            if k % 2:
                # lambda(w_old) = lambda(w_new + k) = lambda(w_new)^(+-1)
                phi = phi @ swap
        if abs(w) >= 1.0 - 1e-15:
            break
        w = -1.0 / w
        m = np.array([[0, -1], [1, 0]], dtype=np.int64) @ m
        phi = phi @ onemin
    else:
        raise RuntimeError(f"fundamental-domain reduction failed for z={z}")
    return w, m, phi


def _mobius(mat, t: complex) -> complex:
    a, b = mat[0]
    c, d = mat[1]
    return (a * t + b) / (c * t + d)


class LambdaInverse:
    """Inverse Schwarz map x = lambda(z) with first two z-derivatives."""

    def eval(self, z: complex):
        z = _require_upper(z)
        w, m, phi = _reduce_to_fundamental(z)
        tv = theta_values(w)
        lam = (tv.theta0 / tv.theta3) ** 4
        t2_4 = tv.theta2 ** 4
        e2 = eisenstein_e2(w)
        lam_p = -2.0 * t2_4 * lam
        ratio = (2.0 / 3.0) * e2 + (2.0 / 3.0) * (tv.theta0 ** 4
                                                  + tv.theta3 ** 4) - 2.0 * t2_4
        lam_pp = ratio * lam_p
        # z-derivatives of lambda at w
        lw = DZ_FROM_PRIME * lam_p
        lww = DZ_FROM_PRIME ** 2 * lam_pp
        # chain rule through w = m(z)
        c, d = m[1]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        den = c * z + d
        mp = det / den ** 2
        mpp = -2.0 * c * det / den ** 3
        lz = lw * mp
        lzz = lww * mp * mp + lw * mpp
        # value map x = phi(lambda(w))
        g, h = phi[1]
        pden = g * lam + h
        if abs(pden) < 1e-100:
            raise DomainError(f"value map has a pole at lambda={lam}")
        pdet = phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0]
        x = _mobius(phi, lam)
        php = pdet / pden ** 2
        phpp = -2.0 * g * pdet / pden ** 3
        xd = php * lz
        xdd = phpp * lz * lz + php * lzz
        return x, xd, xdd


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


def e2_series_coeffs(count: int):
    """Coefficients of E2 = 1 - 24 sum sigma_1(n) q^(4n) in powers of q^4."""
    return [1] + [-24 * _sigma1(n) for n in range(1, count)]


def reduce_level_two(z: complex, max_iter: int = 200) -> complex:
    """Move z into the fundamental domain of the level-2 principal group.

    The domain is {|Re z| <= 1, |2z - 1| >= 1, |2z + 1| >= 1}; lambda
    takes every value of C - {0, 1} exactly once on it.
    """
    z = _require_upper(z)
    for _ in range(max_iter):
        shift = -math.floor((z.real + 1.0) / 2.0) * 2
        z += shift
        if abs(2.0 * z + 1.0) < 1.0 - 1e-15:
            z = z / (2.0 * z + 1.0)
        elif abs(2.0 * z - 1.0) < 1.0 - 1e-15:
            z = z / (-2.0 * z + 1.0)
        else:
            return z
    return z


def fuchsian_z_from_x(x: complex, inv: LambdaInverse | None = None,
                      tol: float = 1e-12, max_iter: int = 60) -> complex:
    """Canonical preimage of x under lambda.

    Newton on lambda(z) - x with the closed-form derivative, started from
    a coarse grid; the result is reduced into the level-2 fundamental
    domain, where the preimage is unique, so curves of x map to
    continuous curves of z (one branch per half-plane of x).
    """
    x = complex(x)
    inv = inv or LambdaInverse()
    guesses = [complex(s, t)
               for t in (0.4, 0.7, 1.1, 1.8, 0.25, 0.15)
               for s in (0.5, 0.25, 0.75, 0.1, 0.9)]
    for z0 in guesses:
        z = z0
        ok = False
        for _ in range(max_iter):
            try:
                val, der, _ = inv.eval(z)
            except (DomainError, ZeroDivisionError):
                break
            err = val - x
            if abs(err) < tol * max(1.0, abs(x)):
                ok = True
                break
            if der == 0.0:
                break
            step = err / der
            if abs(step) > 0.5:
                step *= 0.5 / abs(step)
            z = z - step
            if z.imag <= 1e-6:
                break
        if ok:
            return reduce_level_two(z)
    raise ValueError(f"no lambda preimage found for x={x}")
