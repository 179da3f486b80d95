import cmath
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from schwarzfront import singular as sg
from schwarzfront.cases import resolve_case
from schwarzfront.elimination import swallowtail_t_exact
from schwarzfront.equation import (SingularPointError, eval_q,
                                   exponents_from_mu)


@pytest.fixture(scope="module")
def fuchsian():
    return exponents_from_mu(0, 0, 0)


@pytest.fixture(scope="module")
def dihedral3():
    return exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))


@pytest.fixture(scope="module")
def fuchsian_curve(fuchsian):
    return sg.trace_singular_curve(fuchsian)


@pytest.fixture(scope="module")
def dihedral_curve(dihedral3):
    return sg.trace_singular_curve(dihedral3)


def test_classify_regular_point(fuchsian):
    p = sg.classify_point(fuchsian, 0.5 + 0.0j)
    assert p.cls == sg.NOT_SINGULAR


def test_classify_swallowtail_point(fuchsian):
    t_star = swallowtail_t_exact()
    p = sg.classify_point(fuchsian, complex(0.5, t_star))
    assert p.cls == sg.SWALLOWTAIL
    assert abs(p.abs_q - 1.0) < 1e-10


def test_classify_cuspidal_edge_point(fuchsian, fuchsian_curve):
    # a generic curve sample away from the symmetry line
    x = min(fuchsian_curve.samples, key=lambda s: abs(s.real - 0.2))
    p = sg.classify_point(fuchsian, x)
    assert p.cls == sg.CUSPIDAL_EDGE


def test_classify_rejects_equation_singularities(fuchsian):
    with pytest.raises(SingularPointError):
        sg.classify_point(fuchsian, 0.0)
    with pytest.raises(SingularPointError):
        sg.classify_point(fuchsian, 1.0)


@pytest.mark.parametrize("curve_name", ["fuchsian_curve", "dihedral_curve"])
def test_curve_samples_satisfy_defining_equation(curve_name, request):
    curve = request.getfixturevalue(curve_name)
    e_name = "fuchsian" if curve_name == "fuchsian_curve" else "dihedral3"
    e = request.getfixturevalue(e_name)
    assert curve.closed
    assert len(curve.samples) > 100
    for x in curve.samples[::7]:
        f, _, _ = sg._f_and_grad(e, x)
        assert abs(f) < sg.CURVE_TOL
        assert abs(abs(eval_q(e, x).q) - 1.0) < 1e-8


def test_curve_has_reflection_symmetry(fuchsian, fuchsian_curve):
    # mu0 = mu1 makes the curve symmetric about Re x = 1/2
    for x in fuchsian_curve.samples[::11]:
        xr = 1.0 - x.conjugate()
        assert abs(sg._newton_to_curve(fuchsian, xr) - xr) < 1e-8


def test_swallowtail_pipelines_agree(fuchsian, fuchsian_curve):
    t_star = swallowtail_t_exact()
    by_newton = sg.swallowtail_by_newton(fuchsian, 0.5 + 0.35j)
    assert abs(by_newton - complex(0.5, t_star)) < 1e-9
    sws = sg.find_swallowtails(fuchsian, fuchsian_curve)
    upper = [p.x for p in sws if p.x.imag > 0]
    assert len(upper) == 1
    assert abs(upper[0] - complex(0.5, t_star)) < 1e-9


def test_curve_is_cuspidal_away_from_swallowtails(fuchsian, fuchsian_curve):
    sws = [p.x for p in sg.find_swallowtails(fuchsian, fuchsian_curve)]
    checked = kept = 0
    for x in fuchsian_curve.samples[::5]:
        if min(abs(x - s) for s in sws) < 1e-3:
            continue
        checked += 1
        if sg.classify_point(fuchsian, x).cls == sg.CUSPIDAL_EDGE:
            kept += 1
    assert checked > 50
    assert kept >= 0.99 * checked


def test_cusp_model_discriminant():
    for s, t in [(0.3, -0.7), (-1.1, 0.4), (0.0, 1.0)]:
        x, y = sg.local_model_cusp(s, t)
        assert 27 * y * y + 4 * x ** 3 == pytest.approx(
            (s + 2 * t * t) ** 2 * (4 * s - t * t), abs=1e-12)


def test_swallowtail_model_value():
    assert sg.local_model_swallowtail(-2.0, 1.0) == (-3.0, -2.0, 12.0)


def test_swallowtail_chart_conjugation():
    for u, v in [(0.5, -0.3), (-1.2, 0.8), (0.0, 0.0), (1.0, 1.0)]:
        lhs = sg.swallowtail_canonical(u, v)
        st = sg.swallowtail_chart_source(u, v)
        rhs = sg.swallowtail_chart_target(*sg.local_model_swallowtail(*st))
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) < 1e-12


# --- array classification and the tracer ----------------------------------

_CURVE_CASES = ([f"dihedral:{n}" for n in range(2, 9)]
                + ["tetra", "octa", "icosa", "fuchsian"])


@pytest.fixture(scope="module")
def traced():
    """{case: (exponents, traced singular curve)} for every family."""
    out = {}
    for name in _CURVE_CASES:
        e = resolve_case(name).exponents
        out[name] = (e, sg.trace_singular_curve(e))
    return out


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_array_classify_matches_scalar_calls(traced, name):
    e, curve = traced[name]
    xs = curve.samples
    assert len(xs) > 100
    got = sg.classify_point(e, xs)
    assert got.cls.shape == got.abs_q.shape == got.QRbar2.shape == xs.shape
    for k, x in enumerate(xs):
        want = sg.classify_point(e, complex(x))
        assert got.cls[k] == want.cls
        assert abs(got.abs_q[k] - want.abs_q) <= 1e-14
        assert abs(got.QRbar2[k] - want.QRbar2) <= 1e-12 * abs(want.QRbar2)
        assert got.x[k] == want.x


def test_array_classify_marks_equation_singularities(fuchsian):
    xs = np.array([0.0, 0.5 + 0.3j, 1.0])
    got = sg.classify_point(fuchsian, xs)
    assert np.isnan(got.abs_q[[0, 2]]).all()
    assert list(got.cls[[0, 2]]) == [sg.NOT_SINGULAR] * 2
    want = sg.classify_point(fuchsian, xs[1])
    assert got.cls[1] == want.cls
    assert got.abs_q[1] == pytest.approx(want.abs_q, rel=1e-14)


def test_scalar_classify_returns_python_types(fuchsian):
    p = sg.classify_point(fuchsian, complex(0.5, swallowtail_t_exact()))
    assert type(p.x) is complex and type(p.QRbar2) is complex
    assert type(p.cls) is str
    assert type(p.abs_q) is float and type(p.swallowtail_re) is float


def _reference_trace(e):
    """The tracer with the gradient evaluated again at every accepted
    point, as it was before it took the Newton corrector's gradient."""
    seed = sg._find_seed(e)[0]
    pts, x, step, prev_tan, closed = [seed], seed, sg.STEP_MAX, None, False
    for k in range(sg.MAX_TRACE_STEPS):
        _, gs, gt = sg._f_and_grad(e, x)
        gn = math.hypot(gs, gt)
        if gn == 0.0:
            break
        tan = complex(-gt, gs) / gn
        if prev_tan is not None:
            if (tan.real * prev_tan.real + tan.imag * prev_tan.imag) < 0.0:
                tan = -tan
            turn = abs(cmath.phase(tan / prev_tan))
            if turn > 0.05 and step > sg.STEP_MIN:
                step = max(sg.STEP_MIN, step * 0.5)
            elif turn < 0.01 and step < sg.STEP_MAX:
                step = min(sg.STEP_MAX, step * 1.5)
        x = sg._newton_to_curve(e, x + step * tan)
        pts.append(x)
        prev_tan = tan
        if k > 10 and abs(x - seed) < sg.CLOSURE_TOL:
            closed = True
            break
        if k > 10 and abs(x - seed) < step:
            step = max(sg.STEP_MIN, abs(x - seed) * 0.5)
    return np.array(pts), closed


@pytest.mark.parametrize("name", ["dihedral:3", "icosa", "fuchsian"])
def test_tracer_matches_reference_bit_for_bit(traced, name):
    e, curve = traced[name]
    samples, closed = _reference_trace(e)
    assert curve.closed == closed
    assert np.array_equal(curve.samples, samples)
