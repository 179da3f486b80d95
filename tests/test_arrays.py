"""One evaluation path for scalars and arrays.

An array call must agree with the scalar calls point by point, and a point
where the scalar call raises must come back clipped (NaN) from the array
call, which raises nothing.
"""

import numpy as np
import pytest

from schwarzfront import mesh
from schwarzfront.cases import resolve_case
from schwarzfront.equation import (SingularPointError, eval_q,
                                   exponents_from_mu)
from schwarzfront.front import (RamificationError, eval_front_closed_form,
                                eval_front_on_tiles, front_hermitian)
from schwarzfront.h3 import (H3Point, HermitianForm, NotPositiveDefiniteError,
                             ball_to_lorentz, hermitian_to_ball,
                             hermitian_to_lorentz,
                             hermitian_to_upper_half_space,
                             lorentz_to_hermitian,
                             upper_half_space_to_hermitian)
from schwarzfront.modular import DomainError, LambdaInverse
from schwarzfront.polyhedral import PoleError, PolyhedralInverse
from schwarzfront.tiling import tile_parameter_domain

# (case, tiles) at resolution 8; all but tetra and octa have clipped vertices
JOBS = [("dihedral:6", 4), ("tetra", 12), ("octa", 12), ("icosa", 20),
        ("fuchsian", 60)]

# what the scalar path raises at a point that cannot be evaluated
SCALAR_FAILURES = (PoleError, RamificationError, NotPositiveDefiniteError,
                   DomainError, ValueError)


def _scalar_chart_point(case, z0, g, chart):
    """The tile point g z0 and its chart point, from a scalar call."""
    fv = eval_front_on_tiles(case.inverse, z0, g)
    if chart == "ball":
        return fv.z, hermitian_to_ball(fv.H).coords
    w, t = hermitian_to_upper_half_space(fv.H).coords
    return fv.z, (w.real, w.imag, t)


@pytest.fixture(scope="module", params=JOBS, ids=[c for c, _ in JOBS])
def job(request):
    """The case, its tile matrices and its mesh in each chart."""
    text, tiles = request.param
    case = resolve_case(text)
    gs = tile_parameter_domain(case, max_count=tiles).elements
    return case, gs, {
        chart: mesh.build_mesh(mesh.JobConfig(
            case=text, tiles=tiles, resolution=8, chart=chart,
            with_singular=False))
        for chart in ("ball", "uhs")}


def test_inverse_array_matches_scalar_calls(job):
    case, _, meshes = job
    z = meshes["ball"].source_z
    xs = case.inverse.eval(z)
    for i, zi in enumerate(z):
        try:
            want = case.inverse.eval(zi)
        except SCALAR_FAILURES:
            assert all(np.isnan(v[i]) for v in xs)
            continue
        for got, w in zip(xs, want):
            assert isinstance(w, complex)
            assert abs(got[i] - w) <= 1e-13 * max(1.0, abs(w))


def test_clip_mask_is_where_the_scalar_path_raises(job):
    # vertex i of the mesh is base point i % len(z0) of tile i // len(z0);
    # the mesh agrees with direct evaluation at the tile point to the
    # bounds of tests/test_automorphy.py, and bit for bit with the scalar
    # call of the chain-rule path it takes
    case, gs, meshes = job
    z0, _ = mesh.sample_triangle(case, 8)
    for chart, m in meshes.items():
        clipped = (m.flags & mesh.FLAG_CLIPPED) != 0
        for i, z in enumerate(m.source_z):
            t, k = divmod(i, len(z0))
            try:
                zi, p = _scalar_chart_point(case, z0[k], gs[t], chart)
            except SCALAR_FAILURES:
                assert clipped[i], (chart, z)
                assert np.all(m.vertices[i] == 0.0)
                continue
            assert not clipped[i], (chart, z)
            # a scalar call runs the array arithmetic on one element
            assert zi == z
            assert np.array_equal(m.vertices[i], p)


def test_scalar_calls_raise_and_array_calls_clip():
    poly = PolyhedralInverse("dihedral", 3)
    with pytest.raises(PoleError):
        poly.eval(0.0)
    x, xd, xdd = poly.eval(np.array([0.0, 0.5 + 0.1j]))
    assert np.isnan(x[0]) and np.isfinite(x[1])

    lam = LambdaInverse()
    with pytest.raises(DomainError):
        lam.eval(0.5 - 0.1j)
    x, xd, xdd = lam.eval(np.array([0.5 - 0.1j, 0.5 + 0.7j]))
    assert np.isnan(xdd[0]) and np.isfinite(xdd[1])

    with pytest.raises(RamificationError):
        front_hermitian(0.5, 0.0, 1.0)
    H = front_hermitian(np.array([0.5, 0.5]), np.array([0.0, 1.0]),
                        np.array([1.0, 1.0]))
    assert np.isnan(H.h[0]) and H.h[1] > 0

    e = exponents_from_mu(0, 0, 0)
    with pytest.raises(SingularPointError):
        eval_q(e, 1.0)
    q = eval_q(e, np.array([0.0, 1.0, 0.5 + 0.5j])).q
    assert np.isnan(q[:2]).all() and np.isfinite(q[2])

    # det 1 forms: negative-definite, and beyond float64 reach (h + k at
    # 1e10, past 2 RESOLUTION/eps = 9.0e9; 8.9e9 is within it)
    for h, k in ((-1.0, -1.0), (1e10, 1e-10)):
        with pytest.raises(NotPositiveDefiniteError):
            HermitianForm(h, k, 0.0)
    H = HermitianForm(np.array([-1.0, 2.0, 1e10, 8.9e9]),
                      np.array([-1.0, 1.0, 1e-10, 1.0 / 8.9e9]),
                      np.array([0.0, 1.0j, 0.0, 0.0]))
    assert np.isnan(H.h[[0, 2]]).all() and np.isnan(H.w[[0, 2]]).all()
    assert (H.h[1], H.k[1], H.w[1]) == (2.0, 1.0, 1.0j)
    assert H.h[3] == 8.9e9

    with pytest.raises(ValueError):
        H3Point.ball(1.0, 0.0, 0.0)
    p = H3Point.ball(np.array([1.0, 0.5]), np.zeros(2), np.zeros(2))
    assert np.isnan(p.coords[0][0]) and p.coords[0][1] == 0.5


def test_scalar_calls_keep_their_types():
    case = resolve_case("icosa")
    fv = eval_front_closed_form(case.inverse, 0.1 + 0.05j)
    assert isinstance(fv.z, complex) and isinstance(fv.x, complex)
    assert isinstance(fv.H.h, float) and isinstance(fv.H.w, complex)
    for p in (hermitian_to_ball(fv.H), hermitian_to_lorentz(fv.H)):
        assert all(type(c) is float for c in p.coords)
    z, t = hermitian_to_upper_half_space(fv.H).coords
    assert type(z) is complex and type(t) is float
    assert isinstance(eval_q(case.exponents, 0.3 + 0.2j).q, complex)
    fv = eval_front_on_tiles(case.inverse, 0.1 + 0.05j, np.eye(2))
    assert isinstance(fv.z, complex) and isinstance(fv.x, complex)
    assert isinstance(fv.H.h, float) and isinstance(fv.H.w, complex)


_LORENTZ = H3Point.lorentz(2.0, 1.0, 0.5, 0.5).coords

# each inverse chart map, with points whose last lies outside its domain
CHART_MAPS = {
    "H3Point.lorentz": (
        lambda c: H3Point.lorentz(*c),
        [(2.0, 1.0, 0.5, 0.5), (1.5, -0.3, 0.2, 0.9),
         (1.0, 2.0, 0.0, 0.0)]),                 # out of the cone
    "ball_to_lorentz": (
        lambda c: ball_to_lorentz(H3Point("ball", c)),
        [(0.1, 0.2, -0.3), (-0.5, 0.4, 0.1),
         (1.2, 0.0, 0.0)]),                      # out of the ball
    "lorentz_to_hermitian": (
        lambda c: lorentz_to_hermitian(H3Point("lorentz", c)),
        [_LORENTZ, (1.0, 0.0, 0.0, 0.0),
         (1.0, 0.0, 0.0, 2.0)]),                 # out of the cone: k < 0
    "upper_half_space_to_hermitian": (
        lambda c: upper_half_space_to_hermitian(H3Point("uhs", c)),
        [(0.3 + 0.4j, 1.2), (-1.0 + 0.2j, 0.05),
         (0.5 + 0.0j, 0.0)]),                    # on the boundary
}


def _values(result):
    if isinstance(result, H3Point):
        return result.coords
    return result.h, result.k, result.w


@pytest.mark.parametrize("name", list(CHART_MAPS))
def test_chart_map_array_matches_scalar_calls(name):
    chart_map, points = CHART_MAPS[name]

    def array_call(points):
        return _values(chart_map(tuple(np.array(c) for c in zip(*points))))

    got, got_valid = array_call(points), array_call(points[:-1])
    for i, p in enumerate(points[:-1]):
        want = _values(chart_map(p))
        assert all(type(w) in (float, complex) for w in want)
        assert [g[i] for g in got] == [g[i] for g in got_valid] == list(want)
    with pytest.raises(ValueError):
        chart_map(points[-1])
    assert all(np.isnan(g[-1]) for g in got)
