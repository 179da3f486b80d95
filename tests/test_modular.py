import cmath
import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest

from schwarzfront import modular
from schwarzfront.cases import resolve_case
from schwarzfront.modular import (DomainError, LambdaInverse, eval_lambda,
                                  fuchsian_z_from_x, lambda_series_coeffs,
                                  reduce_level_two, theta_values)
from schwarzfront.singular import trace_singular_curve

IDENT_TOL = 1e-12
FD_TOL = 1e-8


def test_theta_quartic_identity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        z = complex(rng.uniform(-1, 1), rng.uniform(0.4, 2.5))
        tv = theta_values(z)
        lhs = tv.theta3 ** 4 - tv.theta0 ** 4 - tv.theta2 ** 4
        assert abs(lhs) < IDENT_TOL * abs(tv.theta3) ** 4


def test_theta_array_matches_scalar_calls():
    # an array call sums every point to the order of its lowest point
    z = np.array([0.3 + 0.9j, -0.2 + 0.6j, 0.1 + 2.0j, 0.5 + 0.01j])
    tv = theta_values(z)
    assert np.isnan(tv.theta3[3])
    with pytest.raises(DomainError):
        theta_values(z[3])
    for k in range(3):
        want = theta_values(z[k])
        for a in ("theta2", "theta3", "theta0", "theta2p"):
            got, ref = getattr(tv, a)[k], getattr(want, a)
            assert abs(got - ref) <= 1e-15 * abs(ref)
    one = theta_values(z[:1])
    assert one.theta0[0] == theta_values(z[0]).theta0


def _theta_mp(z, count=40):
    """theta2, theta3, theta0 and q d/dq theta2 at z, 30 digits, each
    term q^e formed from z as exp(pi i z e / 2) (not from a root of the
    nome, whose principal branch flips theta2 for Re z in (2, 6] mod 8)."""
    with mpmath.workdps(30):
        z = mpmath.mpc(z)

        def power(e):
            return mpmath.exp(mpmath.pi * 1j * z * e / 2)

        ns = range(-count, count + 1)
        e2 = [mpmath.mpf((2 * n - 1) ** 2) / 2 for n in ns]
        return [complex(v) for v in (
            sum(power(e) for e in e2),
            sum(power(2 * n * n) for n in ns),
            sum((-1) ** n * power(2 * n * n) for n in ns),
            sum(e * power(e) for e in e2))]


@pytest.mark.parametrize("im", [modular.MIN_IM, 0.3, 2.0])
def test_theta_sums_match_mpmath_across_the_domain(im):
    # every |Re z| > 2 here lies in (2, 6] mod 8; near the cusps theta is
    # exponentially small, so the error is bounded absolutely
    res = np.array([0.0, 0.4, -0.4, 3.5, -3.5, 4.6, -4.6, 19.5, -19.5])
    z = res + 1j * im
    tv = theta_values(z)
    for k, zk in enumerate(z):
        got = [tv.theta2[k], tv.theta3[k], tv.theta0[k], tv.theta2p[k]]
        for g, want in zip(got, _theta_mp(zk)):
            assert abs(g - want) < 1e-12, (zk, g, want)


def test_lambda_at_i_is_one_half():
    x, _, _ = eval_lambda(1j)
    assert abs(x - 0.5) < 1e-14


def test_lambda_series_coefficients():
    assert lambda_series_coeffs(7) == [1, -16, 128, -704, 3072, -11488, 38400]


@pytest.mark.parametrize("count", [1, 2, 7, 30, 80])
def test_lambda_series_times_theta3_to_the_fourth_is_theta0_to_the_fourth(
        count):
    # lambda = (theta_0 / theta_3)^4, checked by multiplication alone
    def mul(a, b):
        return [sum(a[j] * b[i - j] for j in range(i + 1))
                for i in range(count)]

    def theta_fourth_power(sign):
        t = [1] + [0] * (count - 1)
        k = 1
        while k * k < count:
            t[k * k] = 2 * sign ** k
            k += 1
        t2 = mul(t, t)
        return mul(t2, t2)

    lam = lambda_series_coeffs(count)
    assert all(type(c) is int for c in lam)
    assert mul(lam, theta_fourth_power(1)) == theta_fourth_power(-1)


def test_modular_translation_and_inversion():
    for z in (0.3 + 0.9j, -0.2 + 1.4j, 0.05 + 0.6j):
        lam = eval_lambda(z)[0]
        assert abs(eval_lambda(z + 1)[0] - 1.0 / lam) < 1e-10 * abs(1 / lam)
        assert abs(eval_lambda(-1.0 / z)[0] - (1.0 - lam)) < \
            1e-10 * max(1.0, abs(lam))


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(9)
    h = 1e-5
    for _ in range(30):
        z = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.5, 1.6))
        x, xd, xdd = eval_lambda(z)
        fd1 = (eval_lambda(z + h)[0] - eval_lambda(z - h)[0]) / (2 * h)
        fd2 = (eval_lambda(z + h)[1] - eval_lambda(z - h)[1]) / (2 * h)
        assert abs(xd - fd1) < FD_TOL * abs(xd)
        assert abs(xdd - fd2) < FD_TOL * abs(xdd)


def test_lambda_prime_theta_closed_form():
    # d(lambda)/dq' with ' = q d/dq equals -2 theta2^4 lambda
    h = 1e-6
    for z in (0.1 + 0.9j, -0.4 + 1.2j):
        tv = theta_values(z)
        lam = (tv.theta0 / tv.theta3) ** 4
        lam_z = (eval_lambda(z + h)[0] - eval_lambda(z - h)[0]) / (2 * h)
        lam_prime = lam_z / (0.5j * math.pi)
        assert abs(lam_prime + 2.0 * tv.theta2 ** 4 * lam) < \
            1e-8 * abs(lam_prime)


def _reduced_lambda_mp(z):
    """lambda(z) = (theta4/theta3)^4 at nome exp(pi i z) and mpmath's
    working precision, z moved to |Re z| <= 1/2, |z| >= 1 first by
    z -> z + 1 and z -> -1/z, the value following lambda(z + 1) =
    1 / lambda(z) and lambda(-1/z) = 1 - lambda(z)."""
    w, steps = mpmath.mpc(z), []
    for _ in range(100):
        k = int(mpmath.nint(w.real))
        w -= k
        steps.append(k % 2)
        if abs(w) >= 1:
            break
        w = -1 / w
        steps.append(None)
    q = mpmath.exp(mpmath.pi * 1j * w)
    v = (mpmath.jtheta(4, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
    for step in reversed(steps):
        v = 1 - v if step is None else (1 / v if step else v)
    return v


# a vertex of `surface --case fuchsian --tiles 400 --resolution 8` near the
# cusp -3/13, where |x| ~ 3e16, then one point near i oo, 0, +1 or -1 for
# each of the six value maps x = s lambda(w)^a mu(w)^b; the reference
# forms 1 - lambda, so the points stay where 30 digits keep more than 13
_CUSP_Z = np.array([-0.2308 + 0.000455j, 0.1 + 2j, 1.1 + 3j, 0.01 + 0.2j,
                    -1 / (1 + 4j), 1 + 0.2j, -1 / (1 + 0.2j), -1 + 0.2j])


def test_lambda_matches_mpmath_near_the_cusps():
    *_, s, a, b, failed = modular._reduce_to_fundamental(_CUSP_Z)
    assert not failed.any()
    assert set(zip(s.tolist(), a.tolist(), b.tolist())) == {
        (1, 1, 0), (1, 0, 1), (1, -1, 0), (-1, -1, 1), (-1, 1, -1),
        (1, 0, -1)}
    got = np.array(LambdaInverse().eval(_CUSP_Z))
    with mpmath.workdps(30):
        for k, z in enumerate(_CUSP_Z):
            z = mpmath.mpc(z)
            want = [complex(mpmath.diff(_reduced_lambda_mp, z, n))
                    for n in range(3)]
            for n in range(3):
                assert abs(got[n, k] - want[n]) <= 1e-9 * abs(want[n]), \
                    (z, n, got[n, k], want[n])


def test_value_map_pole_is_clipped():
    # near z = +-1, lambda(z) = 1 / mu(w) with mu(w) below 1e-100
    for z in (1 + 1e-3j, -1 + 1e-3j):
        with pytest.raises(DomainError):
            eval_lambda(z)
    # NaN in an array call, with no RuntimeWarning (an error under pytest)
    vals = LambdaInverse().eval(np.array([1 + 1e-3j, 0.3 + 0.9j, -1 + 1e-3j]))
    for v in vals:
        assert np.isnan(v[[0, 2]]).all() and np.isfinite(v[1])
    # near z = 0, lambda(z) = mu(w) underflows to an exact zero
    assert eval_lambda(1e-3j)[0] == 0


def test_evaluation_near_real_axis_uses_reduction():
    # points with tiny Im z are far outside the naive convergence region
    x, xd, _ = eval_lambda(0.3 + 0.002j)
    assert np.isfinite(abs(x)) and np.isfinite(abs(xd))


def test_rejects_lower_half_plane():
    with pytest.raises(DomainError):
        eval_lambda(0.5 - 0.1j)


def test_reduce_level_two_lands_in_domain():
    rng = np.random.default_rng(21)
    for _ in range(50):
        z = complex(rng.uniform(-4, 4), rng.uniform(0.01, 2.0))
        w = reduce_level_two(z)
        assert -1.0 - 1e-9 <= w.real <= 1.0 + 1e-9
        assert abs(2 * w - 1) >= 1.0 - 1e-9
        assert abs(2 * w + 1) >= 1.0 - 1e-9
        assert abs(eval_lambda(w)[0] - eval_lambda(z)[0]) < \
            1e-9 * max(1.0, abs(eval_lambda(z)[0]))


def test_reduce_level_two_refuses_a_non_finite_z():
    # Im z = +inf passes Im z > 0, and 2z + 1 in the loop is then NaN
    bad = [complex(0.0, math.inf), complex(math.inf, 1.0),
           complex(-math.inf, math.inf), complex(math.nan, 1.0)]
    with np.errstate(all="raise"):
        w = reduce_level_two(np.array(bad + [3.3 + 0.9j]))
    assert np.isnan(w[:-1]).all()
    assert w[-1] == reduce_level_two(3.3 + 0.9j)
    for z in bad:
        with pytest.raises(DomainError, match="must be finite"):
            reduce_level_two(z)


def test_z_from_x_roundtrip_and_branch_continuity():
    rng = np.random.default_rng(31)
    for _ in range(20):
        x = complex(rng.uniform(-1.0, 2.0), rng.uniform(0.05, 1.0))
        z = fuchsian_z_from_x(x)
        assert abs(eval_lambda(z)[0] - x) < 1e-9 * max(1.0, abs(x))
    zs = [fuchsian_z_from_x(0.5 + d + 0.3j)
          for d in np.linspace(-0.4, 0.4, 17)]
    assert np.abs(np.diff(zs)).max() < 0.1


def test_z_from_x_array_matches_scalar_calls():
    rng = np.random.default_rng(37)
    xs = (rng.uniform(-1.0, 2.0, 24)
          + 1j * rng.uniform(-1.0, 1.0, 24)).reshape(4, 6)
    zs = fuchsian_z_from_x(xs)
    assert zs.shape == xs.shape
    for x, z in zip(xs.ravel(), zs.ravel()):
        want = fuchsian_z_from_x(x)
        assert type(want) is complex
        assert abs(z - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("x", [1e200 + 0j, complex("nan"), complex("inf")])
def test_z_from_x_unsolvable_point(x):
    with pytest.raises(ValueError):
        fuchsian_z_from_x(x)
    zs = fuchsian_z_from_x(np.array([0.3 + 0.4j, x]))
    assert np.isfinite(zs[0]) and np.isnan(zs[1])


# --- the closed-form preimage against independent references ---------------

def _lambda_mp(z):
    """lambda(z) = (theta4 / theta3)^4 at nome exp(pi i z), 30 digits."""
    with mpmath.workdps(30):
        q = mpmath.exp(mpmath.pi * 1j * mpmath.mpc(z))
        return complex((mpmath.jtheta(4, 0, q) / mpmath.jtheta(3, 0, q)) ** 4)


_RING = np.exp(1j * np.linspace(-math.pi, math.pi, 8, endpoint=False) + 0.1j)
# near-cusp points, the lower half-plane, the three real cuts (x < 0,
# 0 < x < 1, x > 1) and |x| up to 1e2
_X_GRID = np.concatenate([
    [1e-8 + 1e-8j, 1e-8 - 1e-8j, 1.0 - 1e-8 + 1e-9j, 1.0 - 1e-8 - 1e-9j],
    [0.3 - 0.4j, -1.0 - 2.0j, 2.0 - 0.5j, 0.5 - 1e-6j, -7.0 - 0.01j],
    [-50.0, -3.0, -0.5, -1e-6, 1e-6, 0.2, 0.5, 0.9, 1.0 + 1e-6, 1.5, 4.0,
     80.0],
    10.0 * _RING, 100.0 * _RING])
# far out, x lies near the cusps z = +-1, where LambdaInverse.eval takes
# 1 - lambda as mu = (theta2/theta3)^4 and loses no digits
_X_FAR = np.concatenate([1e3 * _RING, 1e4 * _RING])


def _maps_back(z, x, tol=1e-11):
    return abs(_lambda_mp(z) - x) < tol * max(1.0, abs(x))


def test_closed_form_lies_upstairs_and_maps_back():
    xs = np.concatenate([_X_GRID, _X_FAR])
    zs = modular._schwarz_agm(xs)
    assert np.all(zs.imag > 0)
    for x, z in zip(xs, zs):
        assert _maps_back(z, x), (x, z)


def _agm_capped(a, b):
    """The AGM as _agm computes it, always to _AGM_STEPS steps."""
    for _ in range(modular._AGM_STEPS):
        a, b = 0.5 * (a + b), np.sqrt(a * b)
        b = np.where(np.abs(a - b) <= np.abs(a + b), b, -b)
    return a


def _agm_steps(monkeypatch, b):
    """The number of steps _agm(1, b) takes."""
    roots = []

    def sqrt(v):
        roots.append(1)
        return np.sqrt(v)

    monkeypatch.setattr(modular, "np", SimpleNamespace(
        **{k: getattr(np, k) for k in ("where", "abs", "array_equal")},
        sqrt=sqrt))
    modular._agm(1.0, b)
    return len(roots)


def test_agm_stops_at_its_fixed_point_with_the_capped_value(monkeypatch):
    x = np.concatenate([np.geomspace(1e-300, 1e300, 601),
                        -np.geomspace(1e-300, 1e300, 601),
                        np.geomspace(1e-300, 1e300, 121) * np.exp(2.5j),
                        [0.0, 1.0, np.nan, np.inf, -np.inf,
                         complex(np.nan, 1.0)]])
    with np.errstate(all="ignore"):
        for b in (np.sqrt(x), np.sqrt(1.0 - x)):
            # the whole array holds NaN, and runs to the cap
            want = _agm_capped(1.0, b)
            assert modular._agm(1.0, b).tobytes() == want.tobytes()
            # each finite point alone, and the finite ones together
            finite = np.isfinite(want)
            assert (modular._agm(1.0, b[finite]).tobytes()
                    == want[finite].tobytes())
            for bi in b:
                assert (modular._agm(1.0, np.array([bi])).tobytes()
                        == _agm_capped(1.0, np.array([bi])).tobytes())
        # a point off the cusps stops early; a NaN runs to the cap
        assert _agm_steps(monkeypatch, np.sqrt([0.3 + 0.4j])) < 10
        assert (_agm_steps(monkeypatch, np.array([np.nan + 0j]))
                == modular._AGM_STEPS)


def test_preimage_maps_back_into_the_level_two_domain():
    zs = fuchsian_z_from_x(_X_GRID)
    assert np.all(np.isfinite(zs))
    assert np.all(np.abs(zs.real) <= 1.0 + 1e-12)
    assert np.all(np.abs(2.0 * zs - 1.0) >= 1.0 - 1e-12)
    assert np.all(np.abs(2.0 * zs + 1.0) >= 1.0 - 1e-12)
    for x, z in zip(_X_GRID, zs):
        assert _maps_back(z, x), (x, z)


def test_preimage_solves_far_points():
    zs = fuchsian_z_from_x(_X_FAR)
    assert np.all(np.isfinite(zs))


def _multistart_newton(xs, tol=1e-12, max_iter=60):
    """The preimage before the closed form: damped Newton on
    lambda(z) = x from 30 fixed starts, the first that converges wins,
    reduced into the level-2 domain."""
    inv = LambdaInverse()
    out = np.full(xs.shape, np.nan, dtype=complex)
    for t in (0.4, 0.7, 1.1, 1.8, 0.25, 0.15):
        for s in (0.5, 0.25, 0.75, 0.1, 0.9):
            todo = np.flatnonzero(np.isnan(out))
            z, x = np.full(todo.size, complex(s, t)), xs[todo]
            for _ in range(max_iter):
                if not todo.size:
                    break
                val, der, _ = inv.eval(z)
                err = val - x
                done = np.abs(err) < tol * np.maximum(1.0, np.abs(x))
                out[todo[done]] = z[done]
                step = err / der
                size = np.abs(step)
                z = z - np.where(size > 0.5, step * (0.5 / size), step)
                keep = (~done & np.isfinite(val) & (der != 0.0)
                        & (z.imag > 1e-6))
                todo, z, x = todo[keep], z[keep], x[keep]
    ok = ~np.isnan(out)
    out[ok] = reduce_level_two(out[ok])
    return out


def test_preimage_on_the_singular_curve_matches_multistart_newton():
    e = resolve_case("fuchsian").exponents
    xs = trace_singular_curve(e).samples
    with np.errstate(invalid="ignore", divide="ignore"):
        want = _multistart_newton(xs)
    got = fuchsian_z_from_x(xs)
    assert np.all(np.isfinite(want))
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


# real x whose preimages lie on the sides of the level-2 domain that the
# group pairs: x > 1 on Re z = +-1, x < 0 on |2z +- 1| = 1;
# 1.4436038380603418 is where the Fuchsian singular curve crosses x > 1
_TIE_X = [-3.0, -0.5, 1.2, 1.4436038380603418, 2.0, 5.0]


@pytest.mark.parametrize("x0", _TIE_X)
def test_preimage_of_a_real_x_is_the_right_hand_representative(x0):
    xs = np.array([complex(re, im)
                   for re in (np.nextafter(x0, -np.inf), x0,
                              np.nextafter(x0, np.inf))
                   for im in (0.0, 1e-17, -1e-17, 1e-16, -1e-16)])
    with np.errstate(invalid="ignore", divide="ignore"):
        oracle = _multistart_newton(xs)
    for zs in (fuchsian_z_from_x(xs), oracle,
               np.array([fuchsian_z_from_x(x) for x in xs])):
        assert np.all(zs.real > 0.0)
        side = zs.real if x0 > 1.0 else np.abs(2.0 * zs - 1.0)
        assert np.all(np.abs(side - 1.0) <= 1e-13)
        assert np.all(np.abs(zs - zs[5]) <= 1e-12)    # zs[5]: x0 itself
    # and the sides themselves, each point on a left side or just inside
    # the domain from it, and its image on the right side
    for z in (-1.0 + 0.7j, complex(np.nextafter(-1.0, 0.0), 0.7),
              -0.5 + 0.5j, (-0.5 + 0.5j) * (1.0 + 1e-15)):
        w = reduce_level_two(z)
        assert w.real > 0.0
        assert abs(w - reduce_level_two(z / (2.0 * z + 1.0))) <= 1e-15
        assert abs(w - reduce_level_two(z + 2.0)) <= 1e-15


@pytest.mark.parametrize("bad", [1e200 + 0j, complex("nan"), complex("inf"),
                                 0j, 1 + 0j])
def test_unsolvable_point_costs_at_most_the_polish(bad, monkeypatch):
    calls = []
    evaluate = LambdaInverse.eval

    def counting(self, z):
        calls.append(np.size(z))
        return evaluate(self, z)

    monkeypatch.setattr(LambdaInverse, "eval", counting)
    zs = fuchsian_z_from_x(np.array([0.3 + 0.4j, bad]))
    assert np.isfinite(zs[0]) and np.isnan(zs[1])
    assert len(calls) <= modular._PREIMAGE_EVALS == 4     # the polish cap
