"""Singular locus of the front: curve sampling and classification.

A point x is singular exactly when |q(x)| = 1, i.e. when
f(x) = |Q|^2 - 16|x(1-x)|^4 vanishes.  On that curve a point is a
cuspidal edge unless Q^3 conj(R)^2 is a non-positive real, in which case
it is a swallowtail provided the second-order test expression
Re(2|R|^4 - x(1-x)(2R'Q - RQ') conj(R)^2) does not vanish.

The curve is sampled exactly: q(x) = e^{i theta} is the quartic
Q(x) + 4 e^{i theta} x^2 (1-x)^2 = 0, so the samples at a fixed theta are
its 4 roots, taken in closed form (Ferrari) and polished by Newton steps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arrays import flat, unflat
from .equation import ExponentData, eval_q, eval_q_derivatives
# unused here; kept because bench/spans.py wraps singular.hermitian_to_lorentz
from .h3 import hermitian_to_lorentz  # noqa: F401

NONPOS_REAL_TOL = 1e-9     # scale-invariant test for "non-positive real"
CLASSIFY_TOL = 1e-8        # ||q| - 1| within which a point is singular
THETA_SAMPLES = 128        # values of arg q in [0, 2 pi), 4 roots each
# 2-D Newton of swallowtail_by_newton
SWALLOWTAIL_TOL = 1e-13
SWALLOWTAIL_MAX_ITER = 60

_CUBE_ROOTS_OF_UNITY = np.exp(2j * np.pi / 3.0 * np.arange(3))

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


def _zeta(Q, R):
    """zeta = Q^3 conj(R)^2, from Q and R at x (scalars or arrays)."""
    return Q ** 3 * R.conjugate() ** 2


def _second_order(x, Q, Qp, R, Rp):
    """The second-order expression sw = 2|R|^4 - w(2R'Q - RQ') conj(R)^2,
    w = x(1-x), from Q, Q', R, R' at x (scalars or arrays)."""
    w = x * (1.0 - x)
    return 2.0 * abs(R) ** 4 - w * (2.0 * Rp * Q - R * Qp) * R.conjugate() ** 2


def _singular_terms(x, Q, Qp, R, Rp):
    """(f, df, zeta, d_im, sw) at x from Q, Q', R, R' there (scalars or
    arrays): f = |Q|^2 - 16|w|^4 with w = x(1-x), zeta (_zeta), the
    gradients df of f and d_im of Im zeta in x = s + it, each as the
    complex d/ds + i d/dt, and sw (_second_order).  zeta_s = A + B and
    zeta_t = i(A - B) for A = 3Q^2 Q' conj(R)^2, B = 2Q^3 conj(R) conj(R').
    Callers that read only zeta and sw call those two kernels alone."""
    w, Rb = x * (1.0 - x), R.conjugate()
    f = abs(Q) ** 2 - 16.0 * abs(w) ** 4
    df = (2.0 * Q * Qp.conjugate()
          - 64.0 * abs(w) ** 2 * (w * (1.0 - 2.0 * x).conjugate()))
    d_im = 1j * ((3.0 * Q ** 2 * Qp * Rb ** 2).conjugate()
                 - 2.0 * Q ** 3 * Rb * Rp.conjugate())
    return f, df, _zeta(Q, R), d_im, _second_order(x, Q, Qp, R, Rp)


def _is_nonpositive_real(z):
    m, tol = np.abs(z), NONPOS_REAL_TOL
    return (m == 0.0) | ((np.abs(z.imag) <= tol * m) & (z.real <= tol * m))


@np.errstate(invalid="ignore")    # NaN marks clipped points
def classify_point(e: ExponentData, x) -> SingularPointClass:
    """Classify x (scalar or array) against the front singularity criteria.

    An array call returns arrays in every field; a point at x = 0 or 1 is
    NaN (see arrays.clip) and classed NotSingular.  A scalar call raises
    SingularPointError there, and is a one-element array call otherwise.
    """
    cv = eval_q(e, x)
    # a scalar call's Python values flatten back to the same bits
    x, q, Q, Qp, R, Rp = (flat(v) for v in (cv.x, cv.q, cv.Q, cv.Qp, cv.R,
                                            cv.Rp))
    zeta, sw = _zeta(Q, R), _second_order(x, Q, Qp, R, Rp)
    sw_scale = (2.0 * abs(R) ** 4 + abs(x * (1.0 - x))
                * (2.0 * abs(Rp) * abs(Q) + abs(R) * abs(Qp)) * abs(R) ** 2)
    absq = abs(q)
    cls = np.select(
        [~(np.abs(absq - 1.0) <= CLASSIFY_TOL),
         (np.abs(R) > 0.0) & ~_is_nonpositive_real(zeta),
         np.abs(sw.real) > NONPOS_REAL_TOL * np.maximum(sw_scale, 1.0)],
        [NOT_SINGULAR, CUSPIDAL_EDGE, SWALLOWTAIL], HIGHER_DEGENERATE)
    return SingularPointClass(*unflat(np.shape(cv.x), x, cls, absq, zeta,
                                      sw.real))


def _newton(e: ExponentData, a, x):
    """x after two Newton steps on the quartic P = x^2 (1-x)^2 + a Q(x),
    whose roots are the points with q(x) = e^{i theta}, for
    a = e^{-i theta} / 4."""
    c2, c1, c0 = e.q_coeffs
    for _ in range(2):
        w = x * (x - 1.0)
        x = x - ((w * w + a * ((c2 * x + c1) * x + c0))
                 / (2.0 * w * (2.0 * x - 1.0) + a * (2.0 * c2 * x + c1)))
    return x


def _quartic_roots(e: ExponentData, theta):
    """The 4 roots of Q(x) + 4 e^{i theta} x^2 (1-x)^2 for each theta, on a
    new last axis, by Ferrari's closed form on arrays, each polished by two
    Newton steps.

    x = y + 1/2 gives the depressed quartic y^4 + p y^2 + q y + r.  Its
    resolvent cubic 8 m^3 + 8 p m^2 + (2 p^2 - 8 r) m - q^2 is solved by
    Cardano's formula, taking the cube root of the larger-modulus value
    of -R/2 +- sqrt(R^2/4 + P^3/27), and its root m of largest modulus is
    used: where q = 0 (mu0 = mu1) one root is 0, and s = sqrt(2 m)
    divides.  Then y^2 -+ s y + p/2 + m +- q/(2s) = 0 give two roots
    each: the larger-modulus one by the formula, the other as their
    product over it.
    """
    a = 0.25 * np.exp(-1j * np.asarray(theta, float))
    c2, c1, c0 = e.q_coeffs
    p = a * c2 - 0.5
    q = a * (c1 + c2)
    r = a * (0.25 * c2 + 0.5 * c1 + c0) + 0.0625
    # the resolvent in m = t - p/3 is t^3 + P t + R
    P = -p * p / 12.0 - r
    R = (-p * p / 108.0 + r / 3.0) * p - 0.125 * q * q
    d, h = np.sqrt(0.25 * R * R + P ** 3 / 27.0), 0.5 * R
    u = np.where(np.abs(d - h) >= np.abs(d + h), d - h, -d - h) ** (1 / 3)
    u = u[..., None] * _CUBE_ROOTS_OF_UNITY
    m = u - (P / 3.0)[..., None] / u - (p / 3.0)[..., None]
    m = np.take_along_axis(m, np.abs(m).argmax(axis=-1)[..., None],
                           axis=-1)[..., 0]
    s = np.sqrt(2.0 * m)
    h, g = 0.5 * p + m, q / (2.0 * s)
    b, c = np.stack([-s, s], axis=-1), np.stack([h + g, h - g], axis=-1)
    d = np.sqrt(b * b - 4.0 * c)
    big = 0.5 * np.where(np.abs(d - b) >= np.abs(d + b), d - b, -d - b)
    x = np.concatenate([big, c / big], axis=-1) + 0.5
    return _newton(e, a[..., None], x)


def _nearest(a, b):
    """For each entry of a[..., i], the index of the nearest entry of
    b[..., j]."""
    return np.argmin(np.abs(a[..., :, None] - b[..., None, :]), axis=-1)


def trace_singular_curve(e: ExponentData) -> TracedCurve:
    """Sample the singular curve |q| = 1 once round, closed.

    The 4 roots at THETA_SAMPLES values of theta = arg q in [0, 2 pi)
    (_quartic_roots, one array call) are continued root by root to the
    nearest root at the next theta; the steps compose into the 4 arcs by
    a prefix scan, and at the wrap the arcs join into one closed polygon
    of 4 * THETA_SAMPLES samples along which arg q rises through 8 pi.
    The polygon starts at the theta = 0 root of least Re x + Im x: there
    the quartic is real, so its roots come in conjugate pairs (and for
    mu0 = mu1 in mirror pairs x, 1 - conj x too), and neither part alone
    picks one.  Raises ValueError if a continuation step is not a
    permutation of the roots or the arcs do not form a single cycle: the
    monotone rise of arg q that this relies on is measured on every
    family, not proved.
    """
    n = THETA_SAMPLES
    theta = 2.0 * np.pi * np.arange(n) / n
    roots = _quartic_roots(e, theta)
    steps = _nearest(roots, np.roll(roots, -1, axis=0))  # k -> k + 1 mod n
    if not (np.sort(steps, axis=1) == np.arange(4)).all():
        raise ValueError("nearest-root continuation of the singular curve "
                         "is not a permutation")
    # after the scan root j at theta 0 continues to root reach[k, j] at
    # theta k + 1, reach[k] = steps[k] o ... o steps[0], in log2 n passes
    reach, d = steps.copy(), 1
    while d < n:
        reach[d:] = np.take_along_axis(reach[d:], reach[:-d], axis=1)
        d *= 2
    arc = np.vstack([np.arange(4), reach[:-1]])   # arc j's root at each theta
    wrap = reach[-1]                # arc j continues as arc wrap[j]
    r0 = roots[0]
    order = [int(np.argmin(r0.real + r0.imag))]
    for _ in range(3):
        order.append(wrap[order[-1]])
    if len(set(order)) != 4:
        raise ValueError("the singular curve's arcs do not close into one "
                         "cycle")
    samples = np.take_along_axis(roots, arc, axis=1)[:, order].T.ravel()
    return TracedCurve(samples=samples, closed=True)


def _newton_step(e: ExponentData, x):
    """The stop rule and the step of swallowtail_by_newton's 2-D Newton on
    (f, Im zeta) = 0 at an array x, from one _singular_terms call:
    (done, det, num), the step being x -> x - num / det.  With x = s + it
    the Jacobian's rows are grad f and grad Im zeta as complex numbers:
    Cramer's rule on them, in complex form."""
    f, df, zeta, d_im, _ = _singular_terms(x, *eval_q_derivatives(e, x))
    done = (abs(f) < SWALLOWTAIL_TOL) & (
        abs(zeta.imag) < SWALLOWTAIL_TOL * np.maximum(1.0, abs(x) ** 10))
    return done, (df.conjugate() * d_im).imag, 1j * (zeta.imag * df
                                                     - f * d_im)


def swallowtail_by_newton(e: ExponentData, x0):
    """Locate swallowtails by 2-D Newton on (f, Im(Q^3 conj(R)^2)) = 0
    from x0 (scalar or array; see arrays), its Jacobian exact
    (_newton_step), every start refined together, one _singular_terms
    call a step.

    ValueError, naming the first point that failed, where the Jacobian is
    singular (`singular Jacobian near x=...`, the iterate) or where the
    stop rule does not hold within SWALLOWTAIL_MAX_ITER steps (`Newton
    search did not converge from x0=...`, the start); an iterate that
    goes non-finite fails the second way, and no NaN is returned.

    Independent of the curve tracer; the census test in the test suite
    checks the swallowtails of every family by exact elimination,
    independently of this and of find_swallowtails.
    """
    start = x = flat(x0)
    # a step where det = 0 is refused, and is not taken where x is done;
    # a non-finite x fails the stop rule
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for n in range(SWALLOWTAIL_MAX_ITER + 1):
            done, det, num = _newton_step(e, x)
            if done.all():
                return unflat(np.shape(x0), x)[0]
            if n == SWALLOWTAIL_MAX_ITER:
                raise ValueError(f"Newton search did not converge from "
                                 f"x0={start[~done][0]}")
            singular = ~done & (det == 0.0)
            if singular.any():
                raise ValueError(f"singular Jacobian near x={x[singular][0]}")
            x = np.where(done, x, x - num / det)


def find_swallowtails(e: ExponentData, curve: TracedCurve) -> list:
    """Swallowtail points on a sampled singular curve.

    Brackets each sign change of Im(Q^3 conj(R)^2) between consecutive
    samples (the closing segment included).  Each bracket starts at its
    sample where Im zeta is 0 there, else at the linear interpolate of Im
    zeta between its samples, and all starts are refined in one
    swallowtail_by_newton call, whose ValueError passes through.
    ValueError, naming the bracket, where a limit lies farther from its
    start than the bracket's chord.  Classifies every limit in one call
    and keeps the swallowtails.
    """
    xs = curve.samples
    vals = _zeta(*eval_q_derivatives(e, xs)[::2]).imag     # Q, R
    k = np.flatnonzero((vals == 0.0) | (vals * np.roll(vals, -1) < 0.0))
    x0, f0, x1, f1 = xs[k], vals[k], np.roll(xs, -1)[k], np.roll(vals, -1)[k]
    with np.errstate(invalid="ignore", divide="ignore"):    # f0 = f1 = 0
        start = np.where(f0 == 0.0, x0, x0 + (x1 - x0) * (f0 / (f0 - f1)))
    x = swallowtail_by_newton(e, start)
    far = abs(x - start) > abs(x1 - x0)
    if far.any():
        i = np.flatnonzero(far)[0]
        raise ValueError(f"swallowtail bracket {x0[i]} to {x1[i]}: limit "
                         f"farther from its start than the chord, "
                         f"at x={x[i]}")
    c = classify_point(e, x)
    # each record in Python types, as a scalar call would give it
    return [SingularPointClass(*(v[i].item() for v in vars(c).values()))
            for i in np.flatnonzero(c.cls == SWALLOWTAIL)]


# --- local models -----------------------------------------------------------
# Each map computes elementwise, so it takes floats or arrays of one shape
# and returns a tuple of the same kind.

def local_model_cusp(s, t):
    """Standard map with a cuspidal-edge image along s = -2 t^2."""
    return (s - t * t, s * t)


def local_model_swallowtail(s, t):
    """Map of the plane to 3-space with a swallowtail at the origin."""
    return (s - t * t, s * t, s * s - 4.0 * s * t * t)


def swallowtail_canonical(u, v):
    """The normal form (3u^4 + u^2 v, 4u^3 + 2uv, v)."""
    return (3.0 * u ** 4 + u * u * v, 4.0 * u ** 3 + 2.0 * u * v, v)


def swallowtail_chart_source(u, v):
    """Source chart psi carrying the normal form onto the (s, t) model."""
    return (2.0 * v + 4.0 * u * u, 2.0 * u)


def swallowtail_chart_target(x, y, z):
    """Target chart Psi with swallowtail_canonical = Psi . model . psi."""
    return ((-z + x * x) / 16.0, y / 2.0, x / 2.0)
