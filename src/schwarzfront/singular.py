"""Singular locus of the front: curve tracing and classification.

A point x is singular exactly when |q(x)| = 1, i.e. when
f(x) = |Q|^2 - 16|x(1-x)|^4 vanishes.  On that curve a point is a
cuspidal edge unless Q^3 conj(R)^2 is a non-positive real, in which case
it is a swallowtail provided the second-order test expression
Re(2|R|^4 - x(1-x)(2R'Q - RQ') conj(R)^2) does not vanish.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .equation import ExponentData, eval_q, eval_q_derivatives, q_terms
# unused here; kept because bench/spans.py wraps singular.hermitian_to_lorentz
from .h3 import hermitian_to_lorentz  # noqa: F401

CURVE_TOL = 1e-10          # |f| on every accepted curve sample
CLOSURE_TOL = 1e-6         # curve closes when it returns this near the start
NONPOS_REAL_TOL = 1e-9     # scale-invariant test for "non-positive real"
STEP_MIN = 1e-4
STEP_MAX = 1e-2
# (s_min, s_max, t_min, t_max) in x = s + it: where the tracer seeks a seed
SEED_BOX = (-1.0, 2.0, 1e-4, 1.5)
MAX_TRACE_STEPS = 200000
NEWTON_MAX_ITER = 40       # Newton steps onto the curve f = 0
BISECT_TOL = 1e-12         # swallowtail bracket width along the curve
# 2-D Newton of swallowtail_by_newton
SWALLOWTAIL_TOL = 1e-13
SWALLOWTAIL_MAX_ITER = 60

NOT_SINGULAR = "NotSingular"
CUSPIDAL_EDGE = "CuspidalEdge"
SWALLOWTAIL = "Swallowtail"
HIGHER_DEGENERATE = "HigherDegenerate"


@dataclass(frozen=True)
class SingularPointClass:
    x: complex
    cls: str
    abs_q: float
    QRbar2: complex              # Q^3 conj(R)^2
    swallowtail_re: float        # Re(2|R|^4 - x(1-x)(2R'Q - RQ') conj(R)^2)


@dataclass
class TracedCurve:
    samples: np.ndarray          # complex x values in order
    closed: bool


def _f_and_grad(e: ExponentData, x: complex):
    """f = |Q|^2 - 16|x(1-x)|^4 and its gradient in (Re x, Im x)."""
    Q, Qp, _, _, g, gp = q_terms(e, x)
    f = abs(Q) ** 2 - 16.0 * abs(g) ** 4
    a = Q.conjugate() * Qp
    b = g.conjugate() * gp
    gs = 2.0 * a.real - 64.0 * abs(g) ** 2 * b.real
    gt = -2.0 * a.imag + 64.0 * abs(g) ** 2 * b.imag
    return f, gs, gt


def _is_nonpositive_real(z, tol: float = NONPOS_REAL_TOL):
    m = np.abs(z)
    return (m == 0.0) | ((np.abs(z.imag) <= tol * m) & (z.real <= tol * m))


@np.errstate(invalid="ignore")    # NaN marks clipped points
def classify_point(e: ExponentData, x,
                   tol: float = 1e-8) -> SingularPointClass:
    """Classify x (scalar or array) against the front singularity criteria.

    An array call returns arrays in every field; a point at x = 0 or 1 is
    NaN (see arrays.clip) and classed NotSingular.  A scalar call raises
    SingularPointError there and returns Python scalars.
    """
    cv = eval_q(e, x)
    x, Q, Qp, R, Rp = cv.x, cv.Q, cv.Qp, cv.R, cv.Rp
    zeta = Q ** 3 * R.conjugate() ** 2
    g = x * (1.0 - x)
    sw = (2.0 * abs(R) ** 4
          - g * (2.0 * Rp * Q - R * Qp) * R.conjugate() ** 2).real
    sw_scale = (2.0 * abs(R) ** 4
                + abs(g) * (2.0 * abs(Rp) * abs(Q) + abs(R) * abs(Qp))
                * abs(R) ** 2)
    absq = abs(cv.q)
    cls = np.select(
        [~(np.abs(absq - 1.0) <= tol),
         (np.abs(R) > 0.0) & ~_is_nonpositive_real(zeta),
         np.abs(sw) > NONPOS_REAL_TOL * np.maximum(sw_scale, 1.0)],
        [NOT_SINGULAR, CUSPIDAL_EDGE, SWALLOWTAIL], HIGHER_DEGENERATE)
    if not isinstance(x, np.ndarray):
        cls = str(cls)
    return SingularPointClass(x=x, cls=cls, abs_q=absq, QRbar2=zeta,
                              swallowtail_re=sw)


def _newton_to_curve(e: ExponentData, x: complex) -> complex:
    """Correct x onto f = 0 by Newton steps along grad f."""
    return _newton_with_grad(e, x)[0]


def _newton_with_grad(e: ExponentData, x: complex):
    """(x, gs, gt): x corrected onto f = 0 and grad f there, from the
    evaluation that accepted it."""
    for _ in range(NEWTON_MAX_ITER):
        f, gs, gt = _f_and_grad(e, x)
        if abs(f) < CURVE_TOL:
            return x, gs, gt
        n2 = gs * gs + gt * gt
        if n2 == 0.0:
            break
        x -= f * complex(gs, gt) / n2
    f, gs, gt = _f_and_grad(e, x)
    if abs(f) >= CURVE_TOL:
        raise ValueError(f"Newton correction failed near x={x}")
    return x, gs, gt


def _find_seed(e: ExponentData):
    """Scan SEED_BOX for a sign change of f and bisect to the curve;
    (x, gs, gt) as _newton_with_grad, or None."""
    s0, s1, t0, t1 = SEED_BOX
    for t in np.linspace(t0, t1, 41):
        ss = np.linspace(s0, s1, 201)
        vals = _f_and_grad(e, ss + 1j * t)[0]
        for k in range(len(ss) - 1):
            if vals[k] == 0.0:
                return _newton_with_grad(e, complex(ss[k], t))
            if vals[k] * vals[k + 1] < 0.0:
                a, b = ss[k], ss[k + 1]
                fa = vals[k]
                for _ in range(80):
                    m = 0.5 * (a + b)
                    fm = _f_and_grad(e, complex(m, t))[0]
                    if fa * fm <= 0.0:
                        b = m
                    else:
                        a, fa = m, fm
                return _newton_with_grad(e, complex(0.5 * (a + b), t))
    return None


def trace_singular_curve(e: ExponentData) -> TracedCurve:
    """March along f = 0 starting from a seed found in SEED_BOX.

    Returns an empty curve when no sign change is found.
    """
    found = _find_seed(e)
    if found is None:
        return TracedCurve(samples=np.empty(0, complex), closed=False)
    seed, gs, gt = found
    pts = [seed]
    x = seed
    step = STEP_MAX
    prev_tan = None
    closed = False
    for k in range(MAX_TRACE_STEPS):
        gn = math.hypot(gs, gt)
        if gn == 0.0:
            break
        tan = complex(-gt, gs) / gn
        if prev_tan is not None:
            if (tan.real * prev_tan.real + tan.imag * prev_tan.imag) < 0.0:
                tan = -tan
            turn = abs(cmath.phase(tan / prev_tan))
            if turn > 0.05 and step > STEP_MIN:
                step = max(STEP_MIN, step * 0.5)
            elif turn < 0.01 and step < STEP_MAX:
                step = min(STEP_MAX, step * 1.5)
        x_new, gs, gt = _newton_with_grad(e, x + step * tan)
        pts.append(x_new)
        prev_tan = tan
        x = x_new
        if k > 10 and abs(x - seed) < CLOSURE_TOL:
            closed = True
            break
        if k > 10 and abs(x - seed) < step:
            # land exactly on the start to close the polygon
            step = max(STEP_MIN, abs(x - seed) * 0.5)
    return TracedCurve(samples=np.array(pts), closed=closed)


def _im_zeta(e: ExponentData, x: complex) -> float:
    Q, _, R, _ = eval_q_derivatives(e, x)
    return (Q ** 3 * R.conjugate() ** 2).imag


def find_swallowtails(e: ExponentData, curve: TracedCurve) -> list:
    """Swallowtail points on a traced singular curve.

    Scans for sign changes of Im(Q^3 conj(R)^2) along the curve, refines
    each crossing by bisection, and keeps the points whose value is a
    non-positive real passing the second-order test.
    """
    xs = curve.samples
    if len(xs) < 3:
        return []
    vals = _im_zeta(e, xs)
    hits = (vals == 0.0) | (vals * np.roll(vals, -1) < 0.0)
    if not curve.closed:        # no segment from the last sample back
        hits[-1] = False
    found = []
    n = len(xs)
    for k in np.flatnonzero(hits):
        a, b = xs[k], xs[(k + 1) % n]
        fa = vals[k]
        if fa == 0.0:
            cand = a
        else:
            lo, hi, flo = a, b, fa
            while abs(hi - lo) > BISECT_TOL:
                mid = _newton_to_curve(e, 0.5 * (lo + hi))
                fm = _im_zeta(e, mid)
                if flo * fm <= 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            cand = 0.5 * (lo + hi)
        spc = classify_point(e, cand)
        if spc.cls == SWALLOWTAIL and \
           all(abs(cand - p.x) > 1e-6 for p in found):
            found.append(spc)
    return found


def swallowtail_by_newton(e: ExponentData, x0: complex) -> complex:
    """Locate a swallowtail by 2-D Newton on (f, Im(Q^3 conj(R)^2)) = 0.

    Independent of the curve tracer and of the polynomial elimination;
    the three routes are cross-checked in the test suite.
    """
    x = complex(x0)
    h = 1e-7
    for _ in range(SWALLOWTAIL_MAX_ITER):
        f, gs, gt = _f_and_grad(e, x)
        g2 = _im_zeta(e, x)
        if abs(f) < SWALLOWTAIL_TOL and \
           abs(g2) < SWALLOWTAIL_TOL * max(1.0, abs(x) ** 10):
            break
        d2s = (_im_zeta(e, x + h) - _im_zeta(e, x - h)) / (2 * h)
        d2t = (_im_zeta(e, x + 1j * h) - _im_zeta(e, x - 1j * h)) / (2 * h)
        J = np.array([[gs, gt], [d2s, d2t]])
        try:
            ds, dt = np.linalg.solve(J, [f, g2])
        except np.linalg.LinAlgError:
            raise ValueError(f"singular Jacobian near x={x}")
        x -= complex(ds, dt)
    f, _, _ = _f_and_grad(e, x)
    if abs(f) > 1e-10:
        raise ValueError(f"Newton search did not converge from x0={x0}")
    return x


# --- local models -----------------------------------------------------------

def local_model_cusp(s: float, t: float):
    """Standard map with a cuspidal-edge image along s = -2 t^2."""
    return (s - t * t, s * t)


def local_model_swallowtail(s: float, t: float):
    """Map of the plane to 3-space with a swallowtail at the origin."""
    return (s - t * t, s * t, s * s - 4.0 * s * t * t)


def swallowtail_canonical(u: float, v: float):
    """The normal form (3u^4 + u^2 v, 4u^3 + 2uv, v)."""
    return (3.0 * u ** 4 + u * u * v, 4.0 * u ** 3 + 2.0 * u * v, v)


def swallowtail_chart_source(u: float, v: float):
    """Source chart psi carrying the normal form onto the (s, t) model."""
    return (2.0 * v + 4.0 * u * u, 2.0 * u)


def swallowtail_chart_target(x: float, y: float, z: float):
    """Target chart Psi with swallowtail_canonical = Psi . model . psi."""
    return ((-z + x * x) / 16.0, y / 2.0, x / 2.0)
