import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

import schwarzfront
from schwarzfront import front as fr
from schwarzfront.cases import resolve_case
from schwarzfront.equation import eval_q, exponents_from_mu
from schwarzfront.h3 import HermitianForm
from schwarzfront.polyhedral import PolyhedralInverse
from schwarzfront.selfcheck import (_FRONT_CASES, _oracle_grid, _oracle_points,
                                   _tile_grids)

DET_TOL = 1e-10
ORACLE_TOL = 1e-6


@pytest.fixture(scope="module")
def dihedral3():
    return PolyhedralInverse("dihedral", 3)


def _matrix(H):
    """The 2x2 matrix of a scalar HermitianForm."""
    return np.array([[H.h, H.w.conjugate()], [H.w, H.k]])


def _stack(forms):
    """One array HermitianForm from a list of scalar forms."""
    return HermitianForm(*(np.array([getattr(f, a) for f in forms])
                           for a in "hkw"))


def test_front_matrix_is_unimodular(dihedral3):
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0.05, 1.0))
        U, _ = fr.eval_front_matrix(dihedral3, z)
        assert abs(np.linalg.det(U) - 1.0) < DET_TOL


def test_hermitian_matches_matrix_square(dihedral3):
    rng = np.random.default_rng(5)
    for _ in range(30):
        z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0.05, 1.0))
        U, _ = fr.eval_front_matrix(dihedral3, z)
        H = fr.eval_front_closed_form(dihedral3, z).H
        m = U @ U.conj().T
        assert np.linalg.norm(_matrix(H) - m) < 1e-10 * np.linalg.norm(m)


def test_front_hermitian_det_is_one(dihedral3):
    for z in (0.3 + 0.2j, 0.55 * cmath.exp(0.8j)):
        H = fr.eval_front_closed_form(dihedral3, z).H
        assert abs(H.h * H.k - abs(H.w) ** 2 - 1.0) < 1e-9


def test_ramification_point_rejected(dihedral3):
    # dx/dz = 0 at the cube roots of -1 and 1 on the unit circle
    with pytest.raises(fr.RamificationError):
        fr.eval_front_matrix(dihedral3, cmath.exp(1j * math.pi / 3))


def test_sqrt_branch_continuation(dihedral3):
    # continuation along a loop around a ramification point flips the sign
    z0 = cmath.exp(1j * math.pi / 3)
    s_prev = None
    path = [z0 + 0.05 * cmath.exp(1j * t)
            for t in np.linspace(0.0, 2.0 * math.pi, 200)]
    first = fr.eval_front_matrix(dihedral3, path[0])[1]
    for z in path:
        _, s_prev = fr.eval_front_matrix(dihedral3, z, sqrt_prev=s_prev)
    assert abs(s_prev + first) < 1e-3 * abs(first)


def test_integrate_rejects_paths_near_singularities():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    with pytest.raises(fr.PathError):
        fr.integrate_sl_form(e, [-0.5 + 1e-5j, 0.5 + 1e-5j])


def test_integrate_needs_two_path_points():
    e = exponents_from_mu(0, 0, 0)
    with pytest.raises(ValueError, match="path needs at least two points"):
        fr.integrate_sl_form(e, [0.5 + 0.4j])


def test_integration_is_path_independent():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    a, b = 0.4 + 0.5j, 0.7 + 0.3j
    direct = fr.integrate_sl_form(e, [a, b])
    detour = fr.integrate_sl_form(e, [a, 0.5 + 0.8j, b])
    assert np.linalg.norm(direct - detour) < 1e-9 * np.linalg.norm(direct)


def test_wronskian_is_preserved():
    e = exponents_from_mu(0, 0, 0)
    U = fr.integrate_sl_form(e, [0.5 + 0.4j, 0.3 + 0.6j])
    assert abs(np.linalg.det(U) - 1.0) < 1e-10


def _known_transform_grids(inv):
    """(Ha, Hb, P0) with Ha = P0 Hb conj(P0)^t, lists of scalar forms."""
    zs = [r * cmath.exp(1j * t) for r in (0.35, 0.5, 0.65)
          for t in (0.15, 0.45, 0.75)]
    Ha = [fr.eval_front_closed_form(inv, z).H for z in zs]
    P0 = np.array([[1.2 + 0.3j, 0.4 - 0.1j], [0.2j, 0.8]])
    P0 /= np.sqrt(np.linalg.det(P0))
    Q = np.linalg.inv(P0)
    Hb = []
    for H in Ha:
        m = Q @ _matrix(H) @ Q.conj().T
        Hb.append(HermitianForm(m[0, 0].real, m[1, 1].real, m[1, 0]))
    return Ha, Hb, P0


def test_match_isometry_residual_equals_the_loop(dihedral3):
    Ha, Hb, P0 = _known_transform_grids(dihedral3)
    assert fr.match_isometry(_stack(Ha), _stack(Hb), P0) < 1e-14
    # a wrong factor, so that the residual is well above rounding: one P
    # for all points, then one P per point with only the last one wrong
    P = P0 @ np.array([[1.0, 0.2], [0.0, 1.0]])
    for Ps in (P, np.stack([P0] * 8 + [P])):
        resid = fr.match_isometry(_stack(Ha), _stack(Hb), Ps)
        loop = max(float(np.linalg.norm(_matrix(a) - p @ _matrix(b)
                                        @ p.conj().T)
                         / np.linalg.norm(_matrix(a)))
                   for a, b, p in zip(Ha, Hb, np.broadcast_to(Ps, (9, 2, 2))))
        assert loop > 1e-3
        assert abs(resid - loop) <= 1e-15 * loop


def test_match_isometry_refuses_grids_of_unequal_length(dihedral3):
    Ha, Hb, P0 = _known_transform_grids(dihedral3)
    with pytest.raises(ValueError, match="equal length"):
        fr.match_isometry(_stack(Ha), _stack(Hb[:-1]), P0)


def _integrate_per_segment(e, path):
    """The oracle as one solve_ivp per segment and path, a scalar eval_q per
    right-hand side: the test-only reference for integrate_sl_form."""
    from scipy.integrate import solve_ivp

    U = np.eye(2, dtype=complex)
    for p, pq in zip(path, path[1:]):
        dx = pq - p

        def rhs(s, y):
            qv = eval_q(e, p + s * dx).q
            u = y[:4].reshape(2, 2) + 1j * y[4:].reshape(2, 2)
            du = (u @ np.array([[0.0, qv], [1.0, 0.0]])) * dx
            return np.concatenate([du.real.ravel(), du.imag.ravel()])

        y0 = np.concatenate([U.real.ravel(), U.imag.ravel()])
        sol = solve_ivp(rhs, (0.0, 1.0), y0, method="DOP853",
                        rtol=1e-11, atol=1e-13)
        assert sol.success
        yf = sol.y[:, -1]
        U = yf[:4].reshape(2, 2) + 1j * yf[4:].reshape(2, 2)
    return U


# passes 2e-3 from x = 0, where the series steps shrink to a few 1e-3
NEAR_ZERO = [0.5 + 0.45j, 0.3 + 2e-3j, -0.3 + 2e-3j, -0.2 + 0.4j]


@pytest.mark.parametrize("c", range(len(_FRONT_CASES)))
def test_oracle_targets_fill_a_disk_within_one_series_step(c):
    xs = _oracle_points(200, c)
    assert xs[0] == 0.5 + 0.45j and len(np.unique(xs)) == 200
    # every path x0 -> x is one step: the disk's radius 0.3 is inside the
    # reach STEP_RATIO |x0| = 0.336 of the basepoint
    r = abs(xs[1:] - xs[0])
    reach = fr.STEP_RATIO * min(abs(xs[0]), abs(xs[0] - 1.0))
    assert r.max() < 0.3 < reach
    # uniform in area: half the targets lie within 0.3 / sqrt(2)
    assert abs(np.mean(r < 0.3 / math.sqrt(2.0)) - 0.5) < 0.02
    assert not np.array_equal(xs, _oracle_points(200, (c + 1) % 5))


@pytest.mark.parametrize("name", _FRONT_CASES)
def test_array_oracle_matches_per_segment_solves(name):
    # the criterion-7 grid, one array call, and a polyline that takes many
    # steps, each path against its own solve_ivp
    e = resolve_case(name).exponents
    xs = _oracle_points(200, _FRONT_CASES.index(name))
    U = fr.integrate_sl_form(e, [xs[0], xs[1:]])
    assert U.shape == (199, 2, 2)
    paths = [[complex(xs[0]), complex(x)] for x in xs[1:]] + [NEAR_ZERO]
    for path, Ux in zip(paths, [*U, fr.integrate_sl_form(e, NEAR_ZERO)]):
        ref = _integrate_per_segment(e, path)
        assert np.linalg.norm(Ux - ref) <= 1e-10 * np.linalg.norm(ref)


@pytest.mark.parametrize("name", _FRONT_CASES)
def test_transport_past_a_singular_point_is_path_independent(name):
    # in many steps 2e-3 past x = 1 (or 0), against one step around it; a
    # step that ended one ulp of x short of where the next began read
    # 4.7e-13 to 6.2e-13 past x = 1
    e = resolve_case(name).exponents
    a = 0.5 + 0.45j
    for near, b in (([0.8 + 2e-3j, 1.3 + 2e-3j], 1.5 + 0.6j),
                    ([0.3 + 2e-3j, -0.3 + 2e-3j], -0.2 + 0.4j)):
        U = fr.integrate_sl_form(e, [a, *near, b])
        ref = fr.integrate_sl_form(e, [a, b])
        assert np.linalg.norm(U - ref) <= 1e-13 * np.linalg.norm(ref)


def test_scalar_oracle_call_keeps_its_types():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    U = fr.integrate_sl_form(e, [0.4 + 0.5j, 0.7 + 0.3j])
    assert type(U) is np.ndarray and U.shape == (2, 2)
    H = fr.hermitian_of_solution(U)
    assert type(H.h) is float and type(H.w) is complex


def test_array_integration_is_path_independent():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    a = 0.4 + 0.5j
    b = np.array([[0.7 + 0.3j, 0.6 + 0.2j], [0.3 + 0.3j, 0.8 + 0.6j]])
    direct = fr.integrate_sl_form(e, [a, b])
    detour = fr.integrate_sl_form(e, [a, 0.5 + 0.8j, b])
    assert direct.shape == detour.shape == (2, 2, 2, 2)
    err = np.linalg.norm(direct - detour, axis=(-2, -1))
    assert np.all(err < 1e-9 * np.linalg.norm(direct, axis=(-2, -1)))
    # one form per path, each the scalar call's
    H = fr.hermitian_of_solution(direct)
    assert H.h.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        Hi = fr.hermitian_of_solution(direct[idx])
        assert (H.h[idx], H.k[idx], H.w[idx]) == (Hi.h, Hi.k, Hi.w)


def test_one_bad_path_in_an_array_raises():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    ends = np.array([0.5 + 0.4j, -0.4 - 0.4j, 0.6 + 0.4j])   # through x = 0
    with pytest.raises(fr.PathError, match="segment 0"):
        fr.integrate_sl_form(e, [0.4 + 0.4j, ends])


def test_integrate_measures_segment_distance_to_singularities():
    # segment 1 passes 5e-4 from x = 0, between the points a scan at 33
    # points per segment would test
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    with pytest.raises(fr.PathError, match="segment 1.*x = 0"):
        fr.integrate_sl_form(e, [0.4 + 0.4j, -0.5 + 5e-4j, 0.52 + 5e-4j])
    with pytest.raises(fr.PathError, match="segment 0.*x = 0"):
        fr.integrate_sl_form(e, [-0.5 + 5e-4j, 0.52 + 5e-4j])


def test_integrate_refuses_a_non_finite_vertex():
    # a step toward NaN never reaches its end, so the transport used to
    # run forever: it runs in a child process with a timeout, which fails
    # the test instead of hanging it, and each vertex is refused before
    # any step, naming its segment
    code = """if True:
        import numpy as np
        from fractions import Fraction as Fr
        from schwarzfront import front as fr
        from schwarzfront.equation import exponents_from_mu
        e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
        nan, inf = float("nan"), float("inf")
        for bad in (nan, inf, -inf, complex(0, -inf), complex(nan, 0.3)):
            for path in ([0.5 + 0.45j, bad], [bad, 0.5 + 0.45j],
                         [0.5 + 0.45j, 0.5 + 0.4j, np.array([0.3j, bad])]):
                try:
                    fr.integrate_sl_form(e, path)
                except fr.PathError as exc:
                    print(exc)
        """
    src = str(Path(schwarzfront.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 15
    assert all(ln.endswith(", has a non-finite vertex") for ln in lines)
    assert [ln.split(",")[0] for ln in lines[:3]] == [
        "segment 0", "segment 0", "segment 1"]


# x = center + radius e^(i turn k) (r0 + dr k) for k = 0..7: (radius, turn,
# r0, dr) per case
ORACLE_SPIRALS = {"dihedral:3": (0.25, 0.7, 0.4, 0.06),
                  "fuchsian": (0.2, 0.9, 0.5, 0.05)}


@pytest.mark.parametrize("name", list(ORACLE_SPIRALS))
def test_closed_form_agrees_with_ode_oracle(name):
    radius, turn, r0, dr = ORACLE_SPIRALS[name]
    case = resolve_case(name)
    center = 0.5 + 0.45j
    k = np.arange(8)
    xs = np.concatenate([[center], center + radius * np.exp(1j * turn * k)
                         * (r0 + dr * k)])
    zs = case.z_from_x(xs)
    Ha = fr.eval_front_closed_form(case.inverse, zs).H
    Hb = fr.hermitian_of_solution(fr.integrate_sl_form(case.exponents,
                                                       [xs[0], xs]))
    # the transport starts at U = 1, the closed form at U(z0)
    P, _ = fr.eval_front_matrix(case.inverse, zs[0])
    assert fr.match_isometry(Ha, Hb, P) < ORACLE_TOL


@pytest.mark.parametrize("name", ["dihedral:3", "fuchsian"])
def test_oracle_residual_fails_for_a_wrong_factor(name):
    case = resolve_case(name)
    c = _FRONT_CASES.index(name)
    Ha, Hb, P = _oracle_grid(case, 40, c)
    assert fr.match_isometry(Ha, Hb, P) < 1e-12
    # U at the grid's second point instead of its basepoint, and P = 1
    P1, _ = fr.eval_front_matrix(case.inverse,
                                 case.z_from_x(_oracle_points(40, c)[1]))
    assert fr.match_isometry(Ha, Hb, P1) > 1e-3
    assert fr.match_isometry(Ha, Hb, np.eye(2)) > 1e-3


def test_tile_residual_fails_for_another_tiles_factor():
    zs = 0.55 * np.exp(1j * (0.15 + 0.1 * np.arange(8)))
    Hg, H, P = _tile_grids(resolve_case("dihedral:3"), zs)
    assert len(P) == len(zs) * 5
    assert fr.match_isometry(Hg, H, P) < 1e-12
    # each tile given the factor of the next one
    assert fr.match_isometry(Hg, H, np.roll(P, len(zs), axis=0)) > 1e-3


def _close(a, b, rel=1e-13):
    return np.all(np.abs(a - b) <= rel * np.maximum(np.abs(b), 1e-300))


@pytest.mark.parametrize("name", ["dihedral:3", "icosa", "fuchsian"])
def test_array_front_matrix_matches_scalar_calls(name):
    case = resolve_case(name)
    rng = np.random.default_rng(41)
    u = rng.uniform([0.2, 0.05], [0.9, 1.0], (40, 2))
    if case.max_tiles is None:
        z = u[:, 0] - 0.5 + 1j * u[:, 1]
        bad = [-0.2 - 0.1j, 0.3 + 0j]            # off the upper half-plane
    else:
        z = u[:, 0] * np.exp(1j * u[:, 1])
        pole = np.roots(case.inverse.data.fInf)[0]
        bad = [pole, cmath.exp(1j * math.pi / case.n) if case.n else pole]
    z = np.concatenate([z, bad]).reshape(6, 7)
    U, s = fr.eval_front_matrix(case.inverse, z)
    assert U.shape == (6, 7, 2, 2) and s.shape == (6, 7)
    # continue from the other branch at every other point
    flip = np.where(np.arange(z.size).reshape(z.shape) % 2 == 0, 1.0, -1.0)
    Up, sp = fr.eval_front_matrix(case.inverse, z + 1e-6, sqrt_prev=flip * s)
    for idx in np.ndindex(z.shape):
        if z[idx] in bad:
            with pytest.raises(ValueError):
                fr.eval_front_matrix(case.inverse, z[idx])
            assert np.isnan(U[idx]).all() and np.isnan(s[idx])
            continue
        U1, s1 = fr.eval_front_matrix(case.inverse, z[idx])
        Up1, sp1 = fr.eval_front_matrix(case.inverse, z[idx] + 1e-6,
                                        sqrt_prev=flip[idx] * s1)
        assert type(s1) is complex and U1.shape == (2, 2)
        assert _close(U[idx], U1) and _close(s[idx], s1)
        assert _close(Up[idx], Up1) and _close(sp[idx], sp1)
        # the branch nearer sqrt_prev was taken, per point
        assert abs(sp1 - flip[idx] * s1) < abs(sp1 + flip[idx] * s1)


def _step_matrix_by_m(e, c, h):
    """_step_matrix with the recurrence factors formed afresh for each m,
    as the loop over m was written before they were one array."""
    w, v = c * (1.0 - c), eval_q(e, c)
    al, be, g = (1.0 - 2.0 * c) * h / w, -h * h / w, 0.25 * (h / w) ** 2
    pk = np.array([2.0 * al, al * al + 2.0 * be, 2.0 * al * be, be * be])
    qk = np.array([0.0 * h, g * v.Q, g * v.Qp * h, g * e.q_coeffs[0] * h * h])
    b = np.zeros((fr._TERMS + 2, len(c), 2), complex)
    b[2, :, 0], b[3, :, 1] = 1.0, h
    k = np.arange(1, 5)[:, None]
    for m in range(2, fr._TERMS):
        f = ((m - k) * (m - k - 1) * pk + qk) / (m * (1 - m))
        b[m + 2] = (f[:, :, None] * b[m - 2:m + 2][::-1]).sum(axis=0)
    m = np.arange(-2, fr._TERMS)[:, None, None]
    return np.stack([b.sum(axis=0), (m * b).sum(axis=0) / h[:, None]], -1)


@pytest.mark.parametrize("name", _FRONT_CASES)
def test_step_matrix_equals_the_loop_over_m(name):
    # the first oracle step of criterion 7's grid, from its basepoint
    e = resolve_case(name).exponents
    xs = _oracle_points(200, 0)
    c, h = np.full(len(xs) - 1, xs[0]), xs[1:] - xs[0]
    assert np.array_equal(fr._step_matrix(e, c, h), _step_matrix_by_m(e, c, h))
