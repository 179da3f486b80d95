"""Independent high-precision reference for front vertices.

Everything here is mpmath arithmetic written from the formulas, not from
the package's code: the polyhedral inverse maps come from this file's own
coefficient tables (exact constants, derivatives by the log-derivative
rule), and the Fuchsian map is lambda = (theta0/theta3)^4 from
mpmath.jtheta after reducing z by z -> z + 1 and z -> -1/z, with
derivatives taken by mpmath.diff.  The chart maps use det H = 1 exactly,
so they never recompute the determinant by cancellation.
"""

from __future__ import annotations

import mpmath as mp

DPS = 30

# tolerances for one checked vertex
UHS_TOL = 1e-6      # hyperbolic distance in the upper half-space chart
BALL_TOL = 1e-9     # Euclidean distance in the Poincare ball chart
SWALLOWTAIL_FUCHSIAN_TOL = 1e-9
SWALLOWTAIL_NEWTON_TOL = 1e-8


def _sparse(degree, terms):
    """{power: coefficient} as an mpf list, highest degree first."""
    out = [mp.mpf(0)] * (degree + 1)
    for power, c in terms.items():
        out[degree - power] = mp.mpf(c)
    return out


def polyhedral_tables():
    """x(z) = A0 f0(z)^k0 / fInf(z)^kInf for the three finite groups.

    Returns {family: (A0, k0, f0, kInf, fInf)} with coefficient lists
    highest degree first.
    """
    with mp.workdps(DPS):
        s3 = mp.sqrt(3)
        return {
            "tetra": (-12 * s3, 2, _sparse(5, {5: 1, 1: 1}),
                      3, _sparse(4, {4: 1, 2: -2 * s3, 0: -1})),
            "octa": (mp.mpf(1) / 108, 3, _sparse(8, {8: 1, 4: 14, 0: 1}),
                     4, _sparse(5, {5: 1, 1: -1})),
            "icosa": (mp.mpf(-1) / 1728, 3,
                      _sparse(20, {20: 1, 15: -228, 10: 494, 5: 228, 0: 1}),
                      5, _sparse(11, {11: 1, 6: 11, 1: -1})),
        }


def _horner2(coeffs, z):
    """p(z), p'(z), p''(z) by Horner's rule."""
    p = dp = ddp = mp.mpc(0)
    for c in coeffs:
        ddp = ddp * z + 2 * dp
        dp = dp * z + p
        p = p * z + c
    return p, dp, ddp


def polyhedral_x(table, z):
    """(x, x', x'') of the polyhedral inverse map at z."""
    A0, k0, f0, ki, fi = table
    a, da, dda = _horner2(f0, z)
    b, db, ddb = _horner2(fi, z)
    x = A0 * a ** k0 / b ** ki
    ra, rb = da / a, db / b
    L = k0 * ra - ki * rb
    dL = k0 * (dda / a - ra * ra) - ki * (ddb / b - rb * rb)
    return x, x * L, x * (L * L + dL)


def _lambda_fundamental(w):
    q = mp.exp(1j * mp.pi * w)
    return (mp.jtheta(4, 0, q) / mp.jtheta(3, 0, q)) ** 4


def modular_lambda(z):
    """lambda(z) = (theta0/theta3)^4, normalised so lambda(i oo) = 1.

    z is moved to |Re z| <= 1/2, |z| >= 1 first; the value follows
    lambda(z + 1) = 1/lambda(z) and lambda(-1/z) = 1 - lambda(z).
    """
    w = mp.mpc(z)
    steps = []
    for _ in range(10000):
        k = int(mp.nint(w.real))
        if k:
            w -= k
            steps.append(k % 2)
        if abs(w) >= 1:
            break
        w = -1 / w
        steps.append(None)
    else:
        raise ValueError(f"reduction of z={z} did not terminate")
    v = _lambda_fundamental(w)
    for s in reversed(steps):
        if s is None:
            v = 1 - v
        elif s:
            v = 1 / v
    return v


def fuchsian_x(z):
    """(x, x', x'') of lambda at z."""
    return (modular_lambda(z), mp.diff(modular_lambda, z, 1),
            mp.diff(modular_lambda, z, 2))


def chart_point(z, x1, x2, chart):
    """Front vertex from z, x', x'' in the "ball" or "uhs" chart.

    U = (i/sqrt(x')) [[z x', 1 + z x''/(2x')], [x', x''/(2x')]] has
    det U = 1, so H = U conj(U)^t has det H = 1 and the charts use it.
    """
    r = x2 / x1
    inv_abs = 1 / abs(x1)                  # |i/sqrt(x')|^2
    u00, u01 = z * x1, 1 + z * r / 2
    u10, u11 = x1, r / 2
    h = inv_abs * (abs(u00) ** 2 + abs(u01) ** 2)
    k = inv_abs * (abs(u10) ** 2 + abs(u11) ** 2)
    w = inv_abs * (u10 * mp.conj(u00) + u11 * mp.conj(u01))
    if chart == "uhs":
        return (mp.re(w) / k, mp.im(w) / k, 1 / k)
    x0 = (h + k) / 2
    return (mp.re(w) / (1 + x0), mp.im(w) / (1 + x0),
            (h - k) / 2 / (1 + x0))


class FrontReference:
    """High-precision front vertices for one family."""

    def __init__(self, family):
        self.family = family
        self.table = None
        if family != "fuchsian":
            self.table = polyhedral_tables()[family]

    def vertex(self, z, chart):
        with mp.workdps(DPS):
            zz = mp.mpc(complex(z))
            if self.table is None:
                x, x1, x2 = fuchsian_x(zz)
            else:
                x, x1, x2 = polyhedral_x(self.table, zz)
            return chart_point(zz, x1, x2, chart)


def vertex_error(ref, got, chart):
    """Hyperbolic (uhs) or Euclidean (ball) distance of got from ref."""
    with mp.workdps(DPS):
        d2 = sum((mp.mpf(float(g)) - r) ** 2 for g, r in zip(got, ref))
        if chart == "ball":
            return float(mp.sqrt(d2))
        t_ref, t_got = ref[2], mp.mpf(float(got[2]))
        if not t_got > 0:
            return float("inf")
        return float(mp.acosh(1 + d2 / (2 * t_ref * t_got)))


def vertex_tolerance(chart):
    return BALL_TOL if chart == "ball" else UHS_TOL


def fuchsian_swallowtails():
    """x = 1/2 +- i sqrt((-3 + sqrt 17)/8), the Fuchsian swallowtails."""
    with mp.workdps(DPS):
        t = mp.sqrt((-3 + mp.sqrt(17)) / 8)
        return [complex(mp.mpf(1) / 2, t), complex(mp.mpf(1) / 2, -t)]
