import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzfront.h3 import (ChartError, H3Point, HermitianForm,
                             NotPositiveDefiniteError, ball_to_lorentz,
                             hermitian_to_ball, hermitian_to_lorentz,
                             hermitian_to_upper_half_space, lorentz_to_ball,
                             lorentz_to_hermitian,
                             upper_half_space_to_hermitian)

ROUNDTRIP_TOL = 1e-10

finite = st.floats(-5.0, 5.0, allow_nan=False)
height = st.floats(0.05, 5.0, allow_nan=False)


def _det_one(h, k, w):
    """The form [[h, conj(w)], [w, k]] scaled to det 1."""
    s = 1.0 / math.sqrt(h * k - abs(w) ** 2)
    return HermitianForm(s * h, s * k, s * w)


def test_hermitian_form_requires_positive_definite():
    # det 1 forms that are negative-definite
    with pytest.raises(NotPositiveDefiniteError):
        HermitianForm(-1.0, -1.0, 0.0)
    with pytest.raises(NotPositiveDefiniteError):
        HermitianForm(-2.0, -1.0, 1.0)


@given(finite, finite, height)
@settings(max_examples=60, deadline=None)
def test_uhs_roundtrip_through_all_charts(a, b, t):
    p = H3Point.upper_half_space(complex(a, b), t)
    H = upper_half_space_to_hermitian(p)
    q = hermitian_to_upper_half_space(
        lorentz_to_hermitian(ball_to_lorentz(lorentz_to_ball(
            hermitian_to_lorentz(H)))))
    assert abs(q.coords[0] - complex(a, b)) < ROUNDTRIP_TOL * (1 + abs(t))
    assert abs(q.coords[1] - t) < ROUNDTRIP_TOL * (1 + abs(t))


def test_chart_maps_reject_a_point_in_another_chart():
    p = H3Point.upper_half_space(0.3 + 0.4j, 1.2)
    b = lorentz_to_ball(hermitian_to_lorentz(upper_half_space_to_hermitian(p)))
    assert b.chart == "ball"
    for chart_map in (upper_half_space_to_hermitian, lorentz_to_hermitian,
                      lorentz_to_ball):
        with pytest.raises(ChartError):
            chart_map(b)
    with pytest.raises(ChartError):
        ball_to_lorentz(p)


def test_lorentz_point_is_normalized():
    p = H3Point.lorentz(2.0, 1.0, 0.5, 0.5)
    x0, x1, x2, x3 = p.coords
    assert abs(x0 * x0 - x1 * x1 - x2 * x2 - x3 * x3 - 1.0) < 1e-12


def _pairing(H, K):
    """Lorentz pairing (+,-,-,-) of hermitian_to_lorentz(H) and of K;
    the hyperbolic distance is its arccosh."""
    a, b = hermitian_to_lorentz(H).coords, hermitian_to_lorentz(K).coords
    return a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3]


def _congruence(P, H):
    """P H conj(P)^t as a HermitianForm."""
    m = P @ np.array([[H.h, H.w.conjugate()], [H.w, H.k]]) @ P.conj().T
    return HermitianForm(m[0, 0].real, m[1, 1].real, m[1, 0])


def test_distance_is_isometry_invariant():
    rng = np.random.default_rng(3)
    P = np.array([[1.1 + 0.2j, 0.3], [0.1j, 0.9]])
    P = P / np.sqrt(np.linalg.det(P))           # in SL(2, C), keeps det 1
    for _ in range(20):
        Ha = _det_one(2.0 + rng.random(), 1.0 + rng.random(),
                      0.3 * (rng.random() + 1j * rng.random()))
        Hb = _det_one(1.0 + rng.random(), 2.0 + rng.random(),
                      0.2 * (rng.random() + 1j * rng.random()))
        d0 = math.acosh(_pairing(Ha, Hb))
        d1 = math.acosh(_pairing(_congruence(P, Ha), _congruence(P, Hb)))
        assert abs(d0 - d1) < 1e-9 * (1.0 + d0)


def test_lorentz_inner_of_equal_points_is_one():
    H = HermitianForm(2.0, 1.0, 1.0j)           # det 2 - 1 = 1
    assert abs(_pairing(H, H) - 1.0) < 1e-12


def test_boundary_scale_forms_still_convert():
    # det stays 1 while h*k grows, as for the front near its ends
    H = HermitianForm(1e7, 1e-7 + 1e-14 + 1.0 / 1e7, 1.0)
    p = hermitian_to_ball(H)
    assert np.linalg.norm(p.coords) < 1.0
    # and read back from the ball to float64 reach: 1 - |x|^2 = 2/(1 + x0)
    # keeps a relative error of about eps x0, and nothing recomputes
    # x0^2 - |x|^2 by cancellation
    eps = np.finfo(float).eps
    for h in (1e3, 1e6, 1e9, 8e9):
        H = HermitianForm(h, 1.5 / h, math.sqrt(0.5))
        want = hermitian_to_lorentz(H).coords
        got = ball_to_lorentz(hermitian_to_ball(H)).coords
        assert max(abs(g - w) for g, w in zip(got, want)) \
            <= 2.0 * eps * want[0] ** 2
