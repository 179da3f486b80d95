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
                                front_hermitian)
from schwarzfront.h3 import (H3Point, HermitianForm, NotPositiveDefiniteError,
                             hermitian_to_ball, hermitian_to_lorentz,
                             hermitian_to_upper_half_space)
from schwarzfront.modular import DomainError, LambdaInverse
from schwarzfront.polyhedral import PoleError, PolyhedralInverse

# (case, tiles) at resolution 8; all but tetra and octa have clipped vertices
JOBS = [("dihedral:6", 4), ("tetra", 12), ("octa", 12), ("icosa", 20),
        ("fuchsian", 60)]

# what the scalar path raises at a point that cannot be evaluated
SCALAR_FAILURES = (PoleError, RamificationError, NotPositiveDefiniteError,
                   DomainError, ValueError)


def _scalar_chart_point(case, z, chart):
    H = eval_front_closed_form(case.inverse, z).H
    if chart == "ball":
        return hermitian_to_ball(H).coords
    w, t = hermitian_to_upper_half_space(H).coords
    return (w.real, w.imag, t)


@pytest.fixture(scope="module", params=JOBS, ids=[c for c, _ in JOBS])
def job(request):
    """The case and its mesh in each chart."""
    text, tiles = request.param
    return resolve_case(text), {
        chart: mesh.build_mesh(mesh.JobConfig(
            case=text, tiles=tiles, resolution=8, chart=chart,
            with_singular=False))
        for chart in ("ball", "uhs")}


def test_inverse_array_matches_scalar_calls(job):
    case, meshes = job
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
    case, meshes = job
    for chart, m in meshes.items():
        clipped = (m.flags & mesh.FLAG_CLIPPED) != 0
        for i, z in enumerate(m.source_z):
            try:
                p = _scalar_chart_point(case, z, chart)
            except SCALAR_FAILURES:
                assert clipped[i], (chart, z)
                assert np.all(m.vertices[i] == 0.0)
                assert np.isnan(m.source_x[i])
                continue
            assert not clipped[i], (chart, z)
            # det = h k - |w|^2 is recomputed by cancellation (h k reaches
            # 1e15 here), so last-bit differences between the two paths
            # grow to about 1e-9 in the chart; 1e-7 leaves room
            scale = max(1.0, np.linalg.norm(p))
            assert np.abs(m.vertices[i] - p).max() <= 1e-7 * scale


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

    with pytest.raises(NotPositiveDefiniteError):
        HermitianForm(1.0, 1.0, 2.0)
    H = HermitianForm(np.array([1.0, 1.0, -1.0]), np.array([1.0, 1.0, 1.0]),
                      np.array([2.0, 0.5, 0.0]))
    assert np.isnan(H.h[[0, 2]]).all()
    assert H.h[1] * H.k[1] - abs(H.w[1]) ** 2 == 0.75

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
