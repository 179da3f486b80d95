"""det H = 1 in the charts: which vertices clip, and how close the rest lie.

A form is clipped where it is not positive-definite or where h + k passes
float64 reach, a rule that reads no chart, so the Poincare ball and the
upper half-space drop the same vertices.  Every vertex kept lies as close
to the exact det-1 point of its own (z, x', x'') as float64 allows.
"""

import mpmath as mp
import numpy as np
import pytest

from schwarzfront import mesh
from schwarzfront.cases import resolve_case

# (case, tiles, resolution, clipped vertices, all vertices)
CLIPPED = [
    ("fuchsian", 400, 8, 0, 6_400),
    ("fuchsian", 2000, 16, 6, 120_000),
    ("dihedral:6", 12, 16, 0, 3_072),
    ("icosa", None, 24, 0, 34_560),
    ("octa", None, 16, 0, 6_144),
]

UHS_TOL = 1e-6      # hyperbolic distance
BALL_TOL = 1e-9     # Euclidean distance


def _mesh(case, tiles, resolution, chart):
    return mesh.build_mesh(mesh.JobConfig(
        case=case, tiles=tiles, resolution=resolution, chart=chart,
        with_singular=False))


@pytest.mark.parametrize("case, tiles, resolution, clipped, total", CLIPPED)
def test_ball_and_uhs_clip_the_same_vertices(case, tiles, resolution,
                                             clipped, total):
    ball, uhs = (_mesh(case, tiles, resolution, chart).flags
                 for chart in ("ball", "uhs"))
    assert len(ball) == total
    assert np.count_nonzero(ball & mesh.FLAG_CLIPPED) == clipped
    assert np.array_equal(ball, uhs)


def _exact_chart_point(z, x1, x2, chart):
    """The chart point of H = U conj(U)^t at 30 digits, from the float64
    z, x', x'': U = (i/sqrt(x')) [[z x', 1 + z x''/(2x')], [x', x''/(2x')]]
    has det 1, so the charts read h, k and w with det H = 1."""
    z, x1, x2 = mp.mpc(z), mp.mpc(x1), mp.mpc(x2)
    r = x2 / x1
    u00, u01, u10, u11 = z * x1, 1 + z * r / 2, x1, r / 2
    h = (abs(u00) ** 2 + abs(u01) ** 2) / abs(x1)
    k = (abs(u10) ** 2 + abs(u11) ** 2) / abs(x1)
    w = (u10 * mp.conj(u00) + u11 * mp.conj(u01)) / abs(x1)
    if chart == "uhs":
        return mp.re(w) / k, mp.im(w) / k, 1 / k
    x0 = (h + k) / 2
    return mp.re(w) / (1 + x0), mp.im(w) / (1 + x0), (h - k) / 2 / (1 + x0)


def _distance(exact, got, chart):
    """Hyperbolic (uhs) or Euclidean (ball) distance of got from exact."""
    d2 = sum((mp.mpf(float(g)) - e) ** 2 for g, e in zip(got, exact))
    if chart == "ball":
        return mp.sqrt(d2)
    return mp.acosh(1 + d2 / (2 * exact[2] * mp.mpf(float(got[2]))))


@pytest.mark.parametrize("chart, tol", [("uhs", UHS_TOL), ("ball", BALL_TOL)])
def test_accepted_vertices_match_the_exact_det_one_point(chart, tol):
    # the inverse map's (x', x'') are taken as given, so only the front's
    # H and the chart arithmetic are checked
    m = _mesh("octa", None, 16, chart)
    ok = (m.flags & mesh.FLAG_CLIPPED) == 0
    z = m.source_z[ok]
    _, x1, x2 = resolve_case("octa").inverse.eval(z)
    with mp.workdps(30):
        misses = [zi for zi, a, b, got in zip(z, x1, x2, m.vertices[ok])
                  if not _distance(_exact_chart_point(zi, a, b, chart),
                                   got, chart) <= tol]
    assert misses == []
