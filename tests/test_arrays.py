"""One evaluation path for scalars and arrays.

An array call must agree with the scalar calls point by point, and a point
where the scalar call raises must come back clipped (NaN) from the array
call, which raises nothing.
"""

import dataclasses

import numpy as np
import pytest

from schwarzfront import mesh
from schwarzfront import singular as sg
from schwarzfront.cases import resolve_case
from schwarzfront.elimination import swallowtail_t_exact
from schwarzfront.equation import (SingularPointError, eval_q,
                                   eval_q_derivatives, exponents_from_mu)
from schwarzfront.front import (RamificationError, eval_front_closed_form,
                                eval_front_matrix, eval_front_on_tiles,
                                eval_inverse_on_tiles, front_hermitian)
from schwarzfront.h3 import (H3Point, HermitianForm, NotPositiveDefiniteError,
                             ball_to_lorentz, hermitian_to_ball,
                             hermitian_to_lorentz,
                             hermitian_to_upper_half_space, lorentz_to_ball,
                             lorentz_to_hermitian,
                             upper_half_space_to_hermitian)
from schwarzfront.modular import (DomainError, LambdaInverse, eval_lambda,
                                  fuchsian_z_from_x, reduce_level_two,
                                  theta_values)
from schwarzfront.polyhedral import (PoleError, PolyhedralInverse,
                                     dihedral_z_from_x)
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


# --- one rule for every public numeric entry point --------------------------

_ICOSA = resolve_case("icosa")
_TILE = tile_parameter_domain(_ICOSA, max_count=5).elements[3]
_FUCHSIAN = resolve_case("fuchsian").exponents


def _form(map_):
    return lambda h, k, w: map_(HermitianForm(h, k, w))


# name: (call, points, points it cannot evaluate); a point is the call's
# per-point arguments
ENTRY_POINTS = {
    "PolyhedralInverse.eval": (
        _ICOSA.inverse.eval, [(0.1 + 0.05j,), (0.2 + 0.1j,)], [(0.0,)]),
    "LambdaInverse.eval": (
        LambdaInverse().eval, [(0.3 + 0.8j,), (-0.7 + 0.2j,), (5.1 + 0.01j,)],
        [(0.5 - 0.1j,)]),
    "eval_lambda": (eval_lambda, [(0.3 + 0.8j,)], [(0.5 - 0.1j,)]),
    "theta_values": (
        theta_values, [(0.2 + 1.1j,), (0.4 + 0.06j,)], [(0.1 + 0.01j,)]),
    "eval_q": (lambda x: eval_q(_FUCHSIAN, x),
               [(0.3 + 0.2j,), (0.5 + 0.35j,), (2.0,)], [(0.0,), (1.0,)]),
    "eval_q_derivatives": (lambda x: eval_q_derivatives(_FUCHSIAN, x),
                           [(0.3 + 0.2j,), (0.0,), (1.0,)], []),
    "classify_point": (
        lambda x: sg.classify_point(_FUCHSIAN, x),
        [(0.3 + 0.2j,), (complex(0.5, swallowtail_t_exact()),)],
        [(0.0,), (1.0 + 1e-13,)]),
    "front_hermitian": (
        front_hermitian, [(0.3 + 0.2j, 1.5 - 0.5j, 0.2 + 0.1j)],
        [(0.3 + 0.2j, 0.0, 1.0)]),
    "eval_front_closed_form": (
        lambda z: eval_front_closed_form(_ICOSA.inverse, z),
        [(0.1 + 0.05j,)], [(0.0,)]),
    "eval_inverse_on_tiles": (
        lambda z: eval_inverse_on_tiles(_ICOSA.inverse, z, _TILE),
        [(0.1 + 0.05j,)], [(0.0,)]),
    "eval_front_on_tiles": (
        lambda z: eval_front_on_tiles(_ICOSA.inverse, z, _TILE),
        [(0.1 + 0.05j,)], [(0.0,)]),
    "eval_front_matrix": (
        lambda z: eval_front_matrix(_ICOSA.inverse, z),
        [(0.1 + 0.05j,)], [(0.0,)]),
    "HermitianForm": (
        HermitianForm, [(2.0, 1.0, 1.0j), (1.0, 1.0, 0.0)],
        [(-1.0, -1.0, 0.0), (1e10, 1e-10, 0.0)]),
    "H3Point.upper_half_space": (
        H3Point.upper_half_space, [(0.3 + 0.4j, 1.2)],
        [(0.5, 0.0), (0.5, -1.0)]),
    "H3Point.ball": (
        H3Point.ball, [(0.1, 0.2, -0.3)], [(1.2, 0.0, 0.0)]),
    "hermitian_to_upper_half_space": (
        _form(hermitian_to_upper_half_space), [(2.0, 1.0, 1.0j)],
        [(-1.0, -1.0, 0.0)]),
    "hermitian_to_lorentz": (
        _form(hermitian_to_lorentz), [(2.0, 1.0, 1.0j)], [(-1.0, -1.0, 0.0)]),
    "hermitian_to_ball": (
        _form(hermitian_to_ball), [(2.0, 1.0, 1.0j)], [(-1.0, -1.0, 0.0)]),
    "lorentz_to_ball": (
        lambda *c: lorentz_to_ball(H3Point("lorentz", c)), [_LORENTZ],
        [(-0.5, 1.0, 0.0, 0.0)]),
    "fuchsian_z_from_x": (
        fuchsian_z_from_x, [(0.3 + 0.2j,), (-2.0,), (3.0,)],
        [(0.0,), (1.0,)]),
    "dihedral_z_from_x": (
        lambda x: dihedral_z_from_x(3, x), [(0.3 + 0.2j,), (-2.0,)],
        [(complex("inf"),)]),
    "reduce_level_two": (
        reduce_level_two, [(0.3 + 0.8j,), (3.7 + 0.01j,)],
        [(0.5 - 0.1j,), (1.0,)]),
    # the inverse chart maps, whose last point lies outside their domain
    **{name: (lambda *c, f=chart_map: f(c), points[:-1], points[-1:])
       for name, (chart_map, points) in CHART_MAPS.items()},
}


def _leaves(result):
    """The values of a result: its fields, coordinates or entries."""
    if isinstance(result, H3Point):
        return list(result.coords)
    if dataclasses.is_dataclass(result):
        result = [getattr(result, f.name) for f in dataclasses.fields(result)]
    if isinstance(result, (tuple, list)):
        return [v for r in result for v in _leaves(r)]
    return [result]


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
def test_scalar_call_is_a_one_element_array_call(name):
    # bit for bit, in Python types (eval_front_matrix's U is a 2x2 array),
    # and a scalar call raises exactly where the array call gives NaN
    call, points, refused = ENTRY_POINTS[name]
    for point in points + refused:
        got = _leaves(call(*(np.array([v]) for v in point)))
        got = [v[0] for v in got]
        nan = any(np.isnan(v).any() for v in got if not isinstance(v, str))
        if point in refused:
            with pytest.raises(ValueError):
                call(*point)
            assert nan, point
            continue
        want = _leaves(call(*point))
        assert not nan, point
        assert len(want) == len(got)
        for w, g in zip(want, got):
            if isinstance(w, np.ndarray):
                assert w.shape == g.shape
            else:
                assert type(w) in (float, complex, str), (point, type(w))
            assert np.asarray(w).tobytes() == np.asarray(g).tobytes(), point
