import math
import warnings
from fractions import Fraction as Fr

import mpmath as mp
import numpy as np
import pytest
import sympy as sp

from schwarzfront import selfcheck
from schwarzfront import singular as sg
from schwarzfront.cases import resolve_case
from schwarzfront.elimination import swallowtail_t_exact
from schwarzfront.equation import (SingularPointError, eval_q,
                                   eval_q_derivatives, exponents_from_mu)

CURVE_TOL = 1e-10       # |f| at a sample of the singular curve


def _terms(e, x):
    """(f, grad f, zeta, grad Im zeta, second-order expression) at x."""
    return sg._singular_terms(x, *eval_q_derivatives(e, x))


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
        f = _terms(e, x)[0]
        assert abs(f) < CURVE_TOL
        assert abs(abs(eval_q(e, x).q) - 1.0) < 1e-8


def test_curve_has_reflection_symmetry(fuchsian, fuchsian_curve):
    # mu0 = mu1 makes the curve symmetric about Re x = 1/2: each mirrored
    # sample lies on the curve to first order in f / |grad f|
    f, df = _terms(fuchsian, 1.0 - fuchsian_curve.samples.conj())[:2]
    assert np.max(np.abs(f) / np.abs(df)) < 1e-8


def test_swallowtail_pipelines_agree(fuchsian, fuchsian_curve):
    t_star = swallowtail_t_exact()
    by_newton = sg.swallowtail_by_newton(fuchsian, 0.5 + 0.35j)
    assert abs(by_newton - complex(0.5, t_star)) < 1e-9
    sws = sg.find_swallowtails(fuchsian, fuchsian_curve)
    upper = [p.x for p in sws if p.x.imag > 0]
    assert len(upper) == 1
    assert abs(upper[0] - complex(0.5, t_star)) < 1e-9


def test_swallowtail_newton_without_steps_checks_its_start(fuchsian,
                                                           monkeypatch):
    # with no iteration left, a start off the curve is refused and a
    # start on it is returned as it is
    monkeypatch.setattr(sg, "SWALLOWTAIL_MAX_ITER", 0)
    with pytest.raises(ValueError, match="did not converge"):
        sg.swallowtail_by_newton(fuchsian, 0.5 + 0.35j)
    x0 = complex(0.5, swallowtail_t_exact())
    assert sg.swallowtail_by_newton(fuchsian, x0) == x0


def _parallel_gradients(monkeypatch):
    """Replace _singular_terms by one whose grad f is parallel to grad Im
    zeta, so that every Newton step has det exactly 0."""
    terms = sg._singular_terms

    def parallel(*args):
        f, _, zeta, _, second = terms(*args)
        return f, 1.0 + 2.0j, zeta, 2.0 + 4.0j, second

    monkeypatch.setattr(sg, "_singular_terms", parallel)


def test_swallowtail_newton_refuses_a_singular_jacobian(fuchsian,
                                                       monkeypatch):
    # with grad f parallel to grad Im zeta the Newton step is undefined:
    # a ValueError, which criterion 8 reports as a FAIL that measures NaN
    _parallel_gradients(monkeypatch)
    with pytest.raises(ValueError, match=r"^singular Jacobian near x="):
        sg.swallowtail_by_newton(fuchsian, 0.5 + 0.35j)
    result = selfcheck.check_fuchsian_swallowtail(selfcheck._Run())
    assert math.isnan(result.measured) and not result.passed
    assert result.detail.startswith("singular Jacobian near x=")


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


# each point as floats, and all of them as one array call
def _scalars_and_array(points):
    yield from points
    yield tuple(np.array(points).T)


def test_cusp_model_discriminant():
    for s, t in _scalars_and_array([(0.3, -0.7), (-1.1, 0.4), (0.0, 1.0)]):
        x, y = sg.local_model_cusp(s, t)
        assert 27 * y * y + 4 * x ** 3 == pytest.approx(
            (s + 2 * t * t) ** 2 * (4 * s - t * t), abs=1e-12)


def test_swallowtail_model_value():
    assert sg.local_model_swallowtail(-2.0, 1.0) == (-3.0, -2.0, 12.0)
    got = sg.local_model_swallowtail(np.array([-2.0, 0.0]),
                                     np.array([1.0, 0.0]))
    assert np.array(got).tolist() == [[-3.0, 0.0], [-2.0, 0.0], [12.0, 0.0]]


def test_swallowtail_chart_conjugation():
    for u, v in _scalars_and_array([(0.5, -0.3), (-1.2, 0.8), (0.0, 0.0),
                                    (1.0, 1.0)]):
        lhs = sg.swallowtail_canonical(u, v)
        st = sg.swallowtail_chart_source(u, v)
        rhs = sg.swallowtail_chart_target(*sg.local_model_swallowtail(*st))
        assert np.max(np.abs(np.subtract(lhs, rhs))) < 1e-12


# numpy's u ** 4 may round one ulp away from Python's pow (7.1e-15 at
# worst over 1e5 points); every other model is bit-equal
@pytest.mark.parametrize("model, arity, atol", [
    (sg.local_model_cusp, 2, 0.0),
    (sg.local_model_swallowtail, 2, 0.0),
    (sg.swallowtail_chart_source, 2, 0.0),
    (sg.swallowtail_chart_target, 3, 0.0),
    (sg.swallowtail_canonical, 2, 1e-14)])
def test_array_local_models_match_scalar_calls(model, arity, atol):
    args = np.random.default_rng(29).uniform(-1.5, 1.5, (arity, 2000))
    got = np.array(model(*args))
    want = np.array([model(*map(float, p)) for p in args.T]).T
    assert got.shape == want.shape
    if atol:
        np.testing.assert_allclose(got, want, rtol=0, atol=atol)
    else:
        assert got.tolist() == want.tolist()


# --- array classification and the sampler ---------------------------------

_CURVE_CASES = ([f"dihedral:{n}" for n in range(1, 9)]
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
    # a scalar call is a one-element array call, so it agrees bit for bit
    for k, x in enumerate(xs):
        want = sg.classify_point(e, complex(x))
        assert got.cls[k] == want.cls
        assert got.abs_q[k] == want.abs_q
        assert got.QRbar2[k] == want.QRbar2
        assert got.swallowtail_re[k] == want.swallowtail_re
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


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_sampler_goes_round_the_curve_once(traced, name):
    e, curve = traced[name]
    xs = curve.samples
    assert curve.closed and len(xs) == 4 * sg.THETA_SAMPLES == 512
    assert np.max(np.abs(_terms(e, xs)[0])) <= 1e-12
    assert np.max(np.abs(xs - np.roll(xs, -1))) <= 0.015  # closing step too
    q = eval_q(e, xs).q
    # sample j lies at theta = 2 pi j / THETA_SAMPLES, mod 2 pi
    theta = 2.0 * np.pi * np.arange(len(xs)) / sg.THETA_SAMPLES
    assert np.max(np.abs(np.angle(q * np.exp(-1j * theta)))) < 1e-12
    steps = np.angle(np.roll(q, -1) / q)
    assert (steps > 0).all()
    assert abs(steps.sum() - 8.0 * math.pi) < 1e-9   # arg q turns 4 times


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_swallowtails_are_newton_fixed_points(traced, name):
    e, curve = traced[name]
    sws = sg.find_swallowtails(e, curve)
    assert len(sws) == 2
    for p in sws:
        assert sg.swallowtail_by_newton(e, p.x) == p.x


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_swallowtail_search_takes_few_steps(traced, name, monkeypatch):
    # one kernel call a Newton step for all brackets together, from the
    # linear interpolate of Im zeta in each
    e, curve = traced[name]
    calls = []
    terms = sg._singular_terms
    monkeypatch.setattr(sg, "_singular_terms",
                        lambda *args: calls.append(1) or terms(*args))
    assert len(sg.find_swallowtails(e, curve)) == 2
    assert 1 <= len(calls) <= 4


def test_swallowtail_search_refuses_a_singular_jacobian(traced,
                                                        monkeypatch):
    e, curve = traced["tetra"]
    _parallel_gradients(monkeypatch)
    with pytest.raises(ValueError, match=r"^singular Jacobian near x="):
        sg.find_swallowtails(e, curve)


def test_swallowtail_search_without_steps_checks_its_starts(traced,
                                                           monkeypatch):
    # with no step left, brackets that start off a swallowtail are
    # refused, and starts that meet the stop rule are returned as they are
    monkeypatch.setattr(sg, "SWALLOWTAIL_MAX_ITER", 0)
    e, curve = traced["dihedral:3"]
    with pytest.raises(ValueError, match=r"^Newton search did not converge "
                                         r"from x0="):
        sg.find_swallowtails(e, curve)
    e, curve = traced["fuchsian"]
    assert len(sg.find_swallowtails(e, curve)) == 2


def test_singular_locus_reports_a_refused_search(monkeypatch, capsys):
    # one error line, before the table is written, and no traceback
    from schwarzfront.cli import main
    _parallel_gradients(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(["singular-locus", "--case", "tetra"])
    assert str(exc.value).startswith("error: singular Jacobian near x=")
    assert "\n" not in str(exc.value)
    assert capsys.readouterr().out == ""


def test_criterion_10_fails_on_a_refused_search(monkeypatch):
    _parallel_gradients(monkeypatch)
    result = selfcheck.check_dihedral_curve(selfcheck._Run())
    assert math.isnan(result.measured) and not result.passed
    assert result.detail.startswith("singular Jacobian near x=")


def test_swallowtail_search_refuses_a_limit_outside_its_chord(traced):
    # the samples moved 0.05 off the curve, beyond a bracket's chord (at
    # most 0.015, test_sampler_goes_round_the_curve_once): the brackets
    # start off the curve, and Newton goes back to it, too far
    e, curve = traced["tetra"]
    moved = sg.TracedCurve(curve.samples + 0.05, True)
    with pytest.raises(ValueError, match=r"^swallowtail bracket .*: limit "
                                         r"farther from its start than the "
                                         r"chord, at x="):
        sg.find_swallowtails(e, moved)


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_swallowtail_records_are_one_classification(traced, name,
                                                    monkeypatch):
    # every bracket end is classified in one call, and each record equals
    # the scalar call at its point, field for field and in Python types
    e, curve = traced[name]
    calls = []
    classify = sg.classify_point
    monkeypatch.setattr(sg, "classify_point",
                        lambda *args: calls.append(1) or classify(*args))
    sws = sg.find_swallowtails(e, curve)
    assert len(calls) == 1 and type(sws) is list and len(sws) == 2
    for p in sws:
        assert p == classify(e, p.x)
        assert [type(v) for v in vars(p).values()] == [
            complex, str, float, complex, float]


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_kernel_gradients_match_central_differences(traced, name):
    # grad f and grad Im zeta, each as d/ds + i d/dt for x = s + it
    e, curve = traced[name]
    x, h = curve.samples, 1e-5
    _, df, _, d_im, _ = _terms(e, x)

    def central(d):
        """f and Im zeta differenced along the direction d."""
        p, m = _terms(e, x + h * d), _terms(e, x - h * d)
        return (p[0] - m[0]) / (2 * h), (p[2] - m[2]).imag / (2 * h)

    (fs, zs), (ft, zt) = central(1.0), central(1j)
    assert np.max(np.abs(df - (fs + 1j * ft)) / np.abs(df)) <= 1e-7
    assert np.max(np.abs(d_im - (zs + 1j * zt)) / np.abs(d_im)) <= 1e-7


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_swallowtail_newton_takes_few_steps(traced, name, monkeypatch):
    # one kernel evaluation a step with the exact Jacobian, from
    # criterion 8's start and from each printed swallowtail + 0.01
    e, curve = traced[name]
    tails = [p.x for p in sg.find_swallowtails(e, curve)]
    starts = [x + 0.01 for x in tails]
    if name == "fuchsian":
        starts.append(0.5 + 0.35j)
    calls = []
    terms = sg._singular_terms
    monkeypatch.setattr(sg, "_singular_terms",
                        lambda *args: calls.append(1) or terms(*args))
    for x0 in starts:
        calls.clear()
        x = sg.swallowtail_by_newton(e, x0)
        assert min(abs(x - t) for t in tails) <= 1e-10
        assert 1 <= len(calls) <= 5


_BRACKET_CASES = ([f"dihedral:{n}" for n in (1, 2, 3, 4, 5, 6, 8, 26, 50)]
                  + ["tetra", "octa", "icosa", "fuchsian"])


def _search_starts_and_limits(e, monkeypatch):
    """find_swallowtails' bracket starts and their Newton limits, as the
    one swallowtail_by_newton call it makes receives and returns them."""
    calls, newton = [], sg.swallowtail_by_newton

    def recorded(e, x0):
        calls.append((x0, newton(e, x0)))
        return calls[-1][1]

    monkeypatch.setattr(sg, "swallowtail_by_newton", recorded)
    assert len(sg.find_swallowtails(e, sg.trace_singular_curve(e))) == 2
    monkeypatch.undo()
    assert len(calls) == 1
    return calls[0]


@pytest.mark.parametrize("name", _BRACKET_CASES)
def test_newton_from_each_bracket_start_is_the_search_limit(name,
                                                           monkeypatch):
    # one Newton loop: a scalar call from a start of find_swallowtails
    # lands on its limit bit for bit (35 of the 84 brackets differed in
    # the last ulps while the scalar call had its own Python loop)
    e = resolve_case(name).exponents
    starts, limits = _search_starts_and_limits(e, monkeypatch)
    assert starts.dtype == limits.dtype == complex and len(starts) >= 2
    for x0, want in zip(starts, limits):
        got = sg.swallowtail_by_newton(e, complex(x0))
        assert type(got) is complex
        assert np.array(got).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["dihedral:3", "icosa", "fuchsian"])
def test_newton_array_call_is_its_scalar_calls(name, monkeypatch):
    # a scalar call is a one-element array call (arrays): an array of
    # starts, in its shape, equals the call at each start bit for bit
    e = resolve_case(name).exponents
    starts, _ = _search_starts_and_limits(e, monkeypatch)
    starts = np.concatenate([starts, starts + 0.01, [0.5 + 0.35j]])
    grid = np.resize(starts, (3, -(-len(starts) // 3)))
    got = sg.swallowtail_by_newton(e, grid)
    assert got.shape == grid.shape and got.dtype == complex
    want = np.array([sg.swallowtail_by_newton(e, complex(x))
                     for x in grid.ravel()])
    assert got.tobytes() == want.tobytes()
    empty = sg.swallowtail_by_newton(e, np.zeros((0,), complex))
    assert empty.shape == (0,) and empty.dtype == complex


@pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf,
                                complex(0.0, -math.inf), 1e200 + 1e200j])
def test_newton_refuses_a_start_that_goes_non_finite(fuchsian, x0,
                                                     monkeypatch):
    # a non-finite iterate is a search that does not converge: a
    # ValueError, with no RuntimeWarning and no NaN returned, within
    # SWALLOWTAIL_MAX_ITER + 1 kernel calls
    calls = []
    terms = sg._singular_terms
    monkeypatch.setattr(sg, "_singular_terms",
                        lambda *args: calls.append(1) or terms(*args))
    # alone, and after a start that converges: the message names it
    for starts in (x0, [0.5 + 0.35j, x0]):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as exc:
                sg.swallowtail_by_newton(fuchsian, starts)
        assert str(exc.value) == (f"Newton search did not converge from "
                                  f"x0={np.complex128(x0)}")
        assert 1 <= len(calls) <= sg.SWALLOWTAIL_MAX_ITER + 1


# --- an exact census of the swallowtails ----------------------------------

_s, _t, _U, _x = sp.symbols("s t U x")


def _mpf(r):
    """A sympy Rational as an mpmath number at the working precision."""
    return mp.mpf(r.p) / r.q


def _census_polynomials(mus):
    """Q and R in x from the exact mu, and F(U, s), G(U, s) over QQ.

    R comes from q = -Q / (4 w^2) and q' = -R / (4 w^3), w = x (1 - x),
    by sympy's derivative.  With x = s + it, f = |Q|^2 - 16 |w|^4 is even
    in t and Im Q^3 conj(R)^2 odd, so f = F(t^2, s) and Im zeta =
    t G(t^2, s); a coefficient with an imaginary part would not convert
    to QQ.
    """
    m0, m1, mi = (sp.Rational(Fr(m).numerator, Fr(m).denominator)
                  for m in mus)
    Q = 1 - m0 ** 2 + (mi ** 2 + m0 ** 2 - m1 ** 2 - 1) * _x \
        + (1 - mi ** 2) * _x ** 2
    w = _x * (1 - _x)
    R = sp.cancel(-4 * w ** 3 * sp.diff(-Q / (4 * w ** 2), _x))

    def at(p, sign):
        """p(s + sign it) in t and s; conj p(x) = p(conj x), p real."""
        return sp.Poly(p.subs(_x, _s + sign * sp.I * _t), _t, _s,
                       domain=sp.QQ_I)

    Qz, Qb, Rz, Rb, wz, wb = (at(p, g) for p in (Q, R, w) for g in (1, -1))
    f = Qz * Qb - 16 * (wz * wb) ** 2
    im = (Qz ** 3 * Rb ** 2 - Qb ** 3 * Rz ** 2) * at(-sp.I / 2, 1)

    def in_u(p, odd):
        assert all(k % 2 == odd for k, _ in p.monoms())
        return sp.Poly.from_dict({(k // 2, j): c for (k, j), c in p.terms()},
                                 _U, _s, domain=sp.QQ)

    return sp.Poly(Q, _x), sp.Poly(R, _x), in_u(f, 0), in_u(im, 1)


def _root_in(coeffs, a, b):
    """The one root of a squarefree polynomial in its isolating interval
    [a, b], by bisection to 1e-45."""
    sign_a = mp.sign(mp.polyval(coeffs, a))
    while b - a > mp.mpf(10) ** -45:
        m = (a + b) / 2
        sign_m = mp.sign(mp.polyval(coeffs, m))
        if sign_m == 0:
            return m
        a, b = (m, b) if sign_m == sign_a else (a, m)
    return (a + b) / 2


def _swallowtail_census(mus):
    """Every x = s + it with t > 0 where f = Im zeta = 0 and Re zeta <= 0.

    s runs over the real roots of the resultant of F and G in U, isolated
    exactly by sympy and bisected; at each, U runs over the positive real
    roots of F(U, s) at which G vanishes.  At 50 digits a real common
    root leaves |Im U| and |G| below 1e-44 on every family, any other
    root 0.3 or more; the cut is 1e-30.
    """
    Q, R, F, G = _census_polynomials(mus)
    res = F.resultant(G).sqf_part()
    found = []
    with mp.workdps(50):
        rc = [_mpf(c) for c in res.all_coeffs()]
        for (a, b), _ in res.intervals():
            s = _root_in(rc, _mpf(a), _mpf(b))
            in_u = [sum(_mpf(c) * s ** j for (i, j), c in F.terms() if i == d)
                    for d in range(F.degree(_U), -1, -1)]
            for u in mp.polyroots(in_u, extraprec=20):
                if abs(mp.im(u)) > 1e-30 or mp.re(u) <= 0:
                    continue
                u = mp.re(u)
                g = sum(_mpf(c) * u ** i * s ** j for (i, j), c in G.terms())
                if abs(g) > 1e-30:
                    continue
                x = mp.mpc(s, mp.sqrt(u))
                zeta = (mp.polyval([_mpf(c) for c in Q.all_coeffs()], x) ** 3
                        * mp.conj(mp.polyval([_mpf(c) for c in R.all_coeffs()],
                                             x)) ** 2)
                if mp.re(zeta) <= 0:
                    found.append(complex(x))
    return found


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_swallowtail_census_is_exact(traced, name):
    # by exact elimination, independent of the tracer and of the Newton
    # step that find_swallowtails and swallowtail_by_newton share: one
    # swallowtail with t > 0, which find_swallowtails finds (the
    # tolerance was fixed before measuring)
    e, curve = traced[name]
    census = _swallowtail_census(e.mus)
    assert len(census) == 1
    upper = [p.x for p in sg.find_swallowtails(e, curve) if p.x.imag > 0]
    assert len(upper) == 1
    assert abs(upper[0] - census[0]) <= 1e-9


def test_fuchsian_swallowtails_are_exact(traced):
    e, curve = traced["fuchsian"]
    t = math.sqrt((-3.0 + math.sqrt(17.0)) / 8.0)
    got = sorted((p.x for p in sg.find_swallowtails(e, curve)),
                 key=lambda x: x.imag)
    assert len(got) == 2
    assert abs(got[0] - complex(0.5, -t)) <= 1e-12
    assert abs(got[1] - complex(0.5, t)) <= 1e-12


def test_sampler_rejects_a_continuation_that_is_not_a_permutation(
        dihedral3, monkeypatch):
    monkeypatch.setattr(sg, "_nearest", lambda a, b: np.zeros(
        np.broadcast_shapes(a.shape, b.shape), int))
    with pytest.raises(ValueError, match="not a permutation"):
        sg.trace_singular_curve(dihedral3)


@pytest.mark.parametrize("mus", [(1, 1, 1), (1, 0, 0), (0, 1, 0),
                                 (1, 1, 0)])
def test_sampler_refuses_a_double_root_at_zero_or_one(mus):
    # mu0 = 1 or mu1 = 1 make x = 0 or x = 1 a double root of the quartic,
    # where the Newton polish divides 0 by 0: a ValueError, and no
    # RuntimeWarning before it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^the singular curve's "
                                             "quartic has a non-finite root$"):
            sg.trace_singular_curve(exponents_from_mu(*mus))


def test_sampler_rejects_arcs_that_are_not_one_cycle(dihedral3, monkeypatch):
    monkeypatch.setattr(sg, "_nearest", lambda a, b: np.broadcast_to(
        np.arange(b.shape[-1]), np.broadcast_shapes(a.shape, b.shape)))
    with pytest.raises(ValueError, match="one cycle"):
        sg.trace_singular_curve(dihedral3)


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_sampler_starts_at_the_documented_root(traced, name):
    # the quartic is real at theta = 0, so its roots there come in
    # conjugate pairs (and, for mu0 = mu1, in mirror pairs x, 1 - conj x)
    e, curve = traced[name]
    at_zero = curve.samples[::sg.THETA_SAMPLES]     # theta = 0 mod 2 pi
    assert np.max(np.abs(eval_q(e, at_zero).q - 1.0)) < 1e-12
    assert np.argmin(at_zero.real + at_zero.imag) == 0
    again = sg.trace_singular_curve(e)
    assert again.samples.tobytes() == curve.samples.tobytes()


# --- the closed-form quartic against LAPACK --------------------------------

def _companion_eigvals(e, theta):
    """The roots of Q(x) + 4 e^{i theta} x^2 (1-x)^2 as the eigenvalues of
    the monic companion matrices, the way the sampler found them before
    the closed form."""
    c2, c1, c0 = e.q_coeffs
    a = 0.25 * np.exp(-1j * theta)
    m = np.zeros(a.shape + (4, 4), complex)
    m[..., [1, 2, 3], [0, 1, 2]] = 1.0
    m[..., 0, 3] = -c0 * a
    m[..., 1, 3] = -c1 * a
    m[..., 2, 3] = -(1.0 + c2 * a)
    m[..., 3, 3] = 2.0
    return np.linalg.eigvals(m)


def _residual_and_floor(e, theta, x):
    """|P(x)| for the monic P = x^4 - 2x^3 + (1 + c2 a) x^2 + c1 a x + c0 a,
    a = e^{-i theta} / 4, by Horner's rule, and the bound 4 eps
    sum |a_k| |x|^k on the rounding error of that evaluation."""
    c2, c1, c0 = e.q_coeffs
    a = 0.25 * np.exp(-1j * theta)[:, None]
    coeffs = [1.0, -2.0, 1.0 + c2 * a, c1 * a, c0 * a]
    p, bound = 0.0, 0.0
    for c in coeffs:
        p, bound = p * x + c, bound * np.abs(x) + np.abs(c)
    return np.abs(p), 4.0 * np.finfo(float).eps * bound


@pytest.mark.parametrize("name", _CURVE_CASES)
def test_quartic_roots_match_companion_eigenvalues(name):
    e = resolve_case(name).exponents
    theta = np.concatenate([
        2.0 * np.pi * np.arange(sg.THETA_SAMPLES) / sg.THETA_SAMPLES,
        np.random.default_rng(43).uniform(0.0, 2.0 * np.pi, 1000)])
    # mu0 = mu1 (dihedral:n, fuchsian) leaves the depressed quartic no
    # linear term: a zero resolvent root would divide by zero there
    with np.errstate(all="raise"):
        got = sg._quartic_roots(e, theta)
    want = _companion_eigvals(e, theta)
    pick = sg._nearest(want, got)
    assert (np.sort(pick, axis=1) == np.arange(4)).all()   # one to one
    got = np.take_along_axis(got, pick, axis=1)
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    res, floor = _residual_and_floor(e, theta, got)
    res_eig, _ = _residual_and_floor(e, theta, want)
    # a residual under the rounding floor of its evaluation says nothing
    # more about the root; there LAPACK's may be smaller by chance
    assert (res <= np.maximum(res_eig, floor)).all()
    assert res.max() <= res_eig.max()
