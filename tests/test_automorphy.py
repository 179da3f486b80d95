"""Surface vertices reach each tile by the chain rule.

x is automorphic, x(g z) = x(z), so build_mesh evaluates x once on the
base triangle and carries x' and x'' to every tile g = [[a, b], [c, d]]
by j = c z0 + d: x'(g z0) = j^2 x'(z0), x''(g z0) = j^4 x''(z0) +
2c j^3 x'(z0).  Here the mesh is checked against direct evaluation of x
at each tile point g z0.
"""

import numpy as np
import pytest

from schwarzfront import mesh
from schwarzfront.cases import resolve_case
from schwarzfront.equation import eval_q
from schwarzfront.front import eval_front_closed_form, eval_inverse_on_tiles
from schwarzfront.tiling import tile_parameter_domain

# (case, tiles) at resolution 8; None is the whole group
CASES = [("dihedral:3", None), ("dihedral:6", None), ("tetra", None),
         ("octa", None), ("icosa", None), ("fuchsian", 400),
         ("fuchsian", 2000)]

# vertex against direct evaluation: ball absolute (measured worst 3.5e-15,
# tetra), uhs relative to max(1, |p|) (measured worst 1.8e-14, tetra uhs)
BALL_TOL = 4e-14
UHS_TOL = 2e-13
# (x, x', x'') against inv.eval(g z0), relative (measured worst 6.7e-13,
# x of dihedral:3)
DERIVATIVE_TOL = 1e-11


@pytest.mark.parametrize("chart", ["ball", "uhs"])
@pytest.mark.parametrize("text, tiles", CASES)
def test_mesh_matches_direct_evaluation(text, tiles, chart):
    case = resolve_case(text)
    m = mesh.build_mesh(mesh.JobConfig(case=text, tiles=tiles, resolution=8,
                                       chart=chart, with_singular=False))
    fv = eval_front_closed_form(case.inverse, m.source_z)
    p = mesh._chart_coords(fv.H, chart)
    ok = np.isfinite(p).all(axis=1)
    q = eval_q(case.exponents, fv.x).q
    near = np.abs(np.abs(q) - 1.0) < mesh.NEAR_SINGULAR_TOL
    assert np.array_equal(m.flags, np.where(ok, near * mesh.FLAG_NEAR_SINGULAR,
                                            mesh.FLAG_CLIPPED))
    err = np.linalg.norm(m.vertices[ok] - p[ok], axis=1)
    if chart == "ball":
        assert err.max() <= BALL_TOL
    else:
        scale = np.maximum(1.0, np.linalg.norm(p[ok], axis=1))
        assert (err / scale).max() <= UHS_TOL


@pytest.mark.parametrize("text", [c for c, t in CASES if t is None])
def test_chain_rule_matches_the_inverse_map_at_the_tile_point(text):
    # fuchsian is left out: at deep tiles the rounded g z0 is
    # ill-conditioned, and the direct lambda differs by up to 2.7e-9
    case = resolve_case(text)
    z0, _ = mesh.sample_triangle(case, 8)
    gs = tile_parameter_domain(case).elements
    z, *chained = eval_inverse_on_tiles(case.inverse, z0, gs)
    assert z.shape == (len(gs), len(z0))
    direct = case.inverse.eval(z)
    for got, want in zip(chained, direct):
        assert np.array_equal(np.isnan(got), np.isnan(want))
        ok = ~np.isnan(want)
        rel = abs(got[ok] - want[ok]) / abs(want[ok])
        assert rel.max() <= DERIVATIVE_TOL


def test_tiled_x_is_a_view_of_the_base_grid():
    # x(g z0) = x(z0): every tile reads the base grid's x, so x is a
    # read-only broadcast view of it, not one copy per tile
    case = resolve_case("fuchsian")
    z0, _ = mesh.sample_triangle(case, 8)
    z0 = z0[:16].reshape(4, 4)
    gs = tile_parameter_domain(case, max_count=20).elements
    base = []

    class Recording:
        def eval(self, z):
            out = case.inverse.eval(z)
            base.append(out[0])
            return out

    z, x, xd, xdd = eval_inverse_on_tiles(Recording(), z0, gs)
    assert x.shape == z.shape == xd.shape == (len(gs), 4, 4)
    assert np.array_equal(x, np.tile(base[0].reshape(4, 4), (len(gs), 1, 1)))
    assert np.shares_memory(x, base[0])
    assert not x.flags.writeable
    z, x, xd, xdd = eval_inverse_on_tiles(case.inverse, z0[0, 0], gs[3])
    assert type(x) is complex and x == base[0][0]
