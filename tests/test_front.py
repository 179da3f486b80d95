import cmath
import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from schwarzfront import front as fr
from schwarzfront.cases import resolve_case
from schwarzfront.equation import eval_q, exponents_from_mu
from schwarzfront.h3 import (HermitianForm, Isometry, apply_isometry,
                             hermitian_to_ball)
from schwarzfront.modular import LambdaInverse, fuchsian_z_from_x
from schwarzfront.polyhedral import PolyhedralInverse, dihedral_z_from_x
from schwarzfront.selfcheck import _oracle_points

DET_TOL = 1e-10
ORACLE_TOL = 1e-6


@pytest.fixture(scope="module")
def dihedral3():
    return PolyhedralInverse("dihedral", 3)


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
        assert np.linalg.norm(H.matrix() - m) < 1e-10 * np.linalg.norm(m)


def test_front_hermitian_det_is_one(dihedral3):
    for z in (0.3 + 0.2j, 0.55 * cmath.exp(0.8j)):
        H = fr.eval_front_closed_form(dihedral3, z).H
        assert abs(H.det() - 1.0) < 1e-9


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


def test_integrate_requires_unimodular_start():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    with pytest.raises(ValueError):
        fr.integrate_sl_form(e, [0.4 + 0.4j, 0.5 + 0.4j],
                             U0=2.0 * np.eye(2))


def test_integrate_rejects_paths_near_singularities():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    with pytest.raises(fr.PathError):
        fr.integrate_sl_form(e, [-0.5 + 1e-5j, 0.5 + 1e-5j])


def test_integration_is_path_independent():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    a, b = 0.4 + 0.5j, 0.7 + 0.3j
    direct = fr.integrate_sl_form(e, [a, b]).U
    detour = fr.integrate_sl_form(e, [a, 0.5 + 0.8j, b]).U
    assert np.linalg.norm(direct - detour) < 1e-9 * np.linalg.norm(direct)


def test_wronskian_is_preserved():
    e = exponents_from_mu(0, 0, 0)
    U = fr.integrate_sl_form(e, [0.5 + 0.4j, 0.3 + 0.6j]).U
    assert abs(np.linalg.det(U) - 1.0) < 1e-10


def _known_transform_grids(inv):
    """(Ha, Hb, P0) with Ha = P0 Hb conj(P0)^t, lists of forms."""
    zs = [r * cmath.exp(1j * t) for r in (0.35, 0.5, 0.65)
          for t in (0.15, 0.45, 0.75)]
    Ha = [fr.eval_front_closed_form(inv, z).H for z in zs]
    P0 = np.array([[1.2 + 0.3j, 0.4 - 0.1j], [0.2j, 0.8]])
    P0 /= np.sqrt(np.linalg.det(P0))
    Hb = [apply_isometry(Isometry(np.linalg.inv(P0)), H) for H in Ha]
    return Ha, Hb, P0


def test_match_isometry_recovers_known_transform(dihedral3):
    Ha, Hb, P0 = _known_transform_grids(dihedral3)
    iso, resid = fr.match_isometry(Ha, Hb)
    assert resid < 1e-10
    rel = iso.matrix / P0
    assert np.allclose(rel, rel[0, 0] * np.ones((2, 2)), atol=1e-8)


def test_match_isometry_residual_equals_the_loop(dihedral3):
    Ha, Hb, _ = _known_transform_grids(dihedral3)
    iso, resid = fr.match_isometry(Ha, Hb)
    P = iso.matrix
    loop = max(float(np.linalg.norm(a.matrix() - P @ b.matrix() @ P.conj().T)
                     / np.linalg.norm(a.matrix())) for a, b in zip(Ha, Hb))
    assert abs(resid - loop) <= 1e-15 * loop

    def as_array(forms):
        return HermitianForm(*(np.array([getattr(f, a) for f in forms])
                               for a in "hkw"))

    iso2, resid2 = fr.match_isometry(as_array(Ha), as_array(Hb))
    assert np.array_equal(iso2.matrix, P) and resid2 == resid


def _integrate_per_segment(e, path):
    """The oracle as one solve per segment and path: a scalar eval_q per
    right-hand side, at the per-path tolerances."""
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


@pytest.mark.parametrize("name", ["dihedral:3", "fuchsian"])
def test_array_oracle_matches_per_segment_solves(name):
    # the criterion-7 grid: every path shares one step control, each stays
    # as accurate as its own solve
    e = resolve_case(name).exponents
    xs = _oracle_points(200)
    U = fr.integrate_sl_form(e, [xs[0], xs[1:]]).U
    assert U.shape == (199, 2, 2)
    for x, Ux in zip(xs[1:], U):
        ref = _integrate_per_segment(e, [complex(xs[0]), complex(x)])
        assert np.linalg.norm(Ux - ref) <= 1e-10 * np.linalg.norm(ref)


def test_scalar_oracle_call_keeps_its_types():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    sol = fr.integrate_sl_form(e, [0.4 + 0.5j, 0.7 + 0.3j])
    assert isinstance(sol, fr.FundamentalSolution)
    assert type(sol.U) is np.ndarray and sol.U.shape == (2, 2)
    assert type(sol.basepoint) is complex and type(sol.endpoint) is complex
    assert sol.path == (0.4 + 0.5j, 0.7 + 0.3j)
    H = fr.hermitian_of_solution(sol.U)
    assert type(H.h) is float and type(H.w) is complex


def test_array_integration_is_path_independent():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    a = 0.4 + 0.5j
    b = np.array([[0.7 + 0.3j, 0.6 + 0.2j], [0.3 + 0.3j, 0.8 + 0.6j]])
    direct = fr.integrate_sl_form(e, [a, b])
    detour = fr.integrate_sl_form(e, [a, 0.5 + 0.8j, b]).U
    assert direct.U.shape == detour.shape == (2, 2, 2, 2)
    assert direct.endpoint.shape == (2, 2)
    err = np.linalg.norm(direct.U - detour, axis=(-2, -1))
    assert np.all(err < 1e-9 * np.linalg.norm(direct.U, axis=(-2, -1)))
    # one form per path, each the scalar call's
    H = fr.hermitian_of_solution(direct.U)
    assert H.h.shape == (2, 2)
    for idx in np.ndindex(2, 2):
        Hi = fr.hermitian_of_solution(direct.U[idx])
        assert (H.h[idx], H.k[idx], H.w[idx]) == (Hi.h, Hi.k, Hi.w)


def test_array_integration_requires_unimodular_start():
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    ends = np.array([0.5 + 0.4j, 0.6 + 0.4j])
    with pytest.raises(ValueError, match="determinant 1"):
        fr.integrate_sl_form(e, [0.4 + 0.4j, ends],
                             U0=np.array([np.eye(2), 2.0 * np.eye(2)]))


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


def test_closed_form_agrees_with_ode_oracle_dihedral(dihedral3):
    e = exponents_from_mu(Fr(1, 2), Fr(1, 2), Fr(1, 3))
    center = 0.5 + 0.45j
    xs = [center] + [center + 0.25 * cmath.exp(1j * 0.7 * k) * (0.4 + 0.06 * k)
                     for k in range(8)]
    Ha, Hb = [], []
    for x in xs:
        z = dihedral_z_from_x(3, x)
        Ha.append(fr.eval_front_closed_form(dihedral3, z).H)
        U = np.eye(2, dtype=complex) if x == xs[0] else \
            fr.integrate_sl_form(e, [xs[0], x]).U
        Hb.append(fr.hermitian_of_solution(U))
    _, resid = fr.match_isometry(Ha, Hb)
    assert resid < ORACLE_TOL


def test_closed_form_agrees_with_ode_oracle_fuchsian():
    e = exponents_from_mu(0, 0, 0)
    inv = LambdaInverse()
    center = 0.5 + 0.45j
    xs = [center] + [center + 0.2 * cmath.exp(1j * 0.9 * k) * (0.5 + 0.05 * k)
                     for k in range(8)]
    Ha, Hb = [], []
    for x in xs:
        z = fuchsian_z_from_x(x)
        Ha.append(fr.eval_front_closed_form(inv, z).H)
        U = np.eye(2, dtype=complex) if x == xs[0] else \
            fr.integrate_sl_form(e, [xs[0], x]).U
        Hb.append(fr.hermitian_of_solution(U))
    _, resid = fr.match_isometry(Ha, Hb)
    assert resid < ORACLE_TOL


def test_end_probe_reaches_boundary(dihedral3):
    zs = [0.02 * cmath.exp(0.3j) * (0.85 ** k) for k in range(10)]
    probe = fr.end_behavior_probe(dihedral3, zs, cauchy_tol=5e-3)
    assert probe.monotone_tail
    assert probe.norms[-1] > 1.0 - 1e-3
    assert probe.limit is not None


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
        pole = case.inverse.data.pole_roots[0]
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
