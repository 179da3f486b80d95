import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from schwarzfront import cli, mesh, tiling
from schwarzfront.cases import resolve_case
from schwarzfront.equation import (TAG_DIHEDRAL, TAG_FUCHSIAN_INF,
                                   TAG_ICOSAHEDRAL, TAG_OCTAHEDRAL,
                                   TAG_TETRAHEDRAL)
from schwarzfront.mesh import JobConfig
from schwarzfront.tiling import tile_parameter_domain

# (text, tag, n) for every family the command line accepts
CASES = ([(f"dihedral:{n}", TAG_DIHEDRAL, n) for n in range(1, 9)]
         + [("tetra", TAG_TETRAHEDRAL, None), ("octa", TAG_OCTAHEDRAL, None),
            ("icosa", TAG_ICOSAHEDRAL, None),
            ("fuchsian", TAG_FUCHSIAN_INF, None)])


@pytest.mark.parametrize("text, tag, n", CASES)
def test_aliases_and_tags_resolve(text, tag, n):
    for case in (resolve_case(text), resolve_case(f" {text.upper()} "),
                 resolve_case(tag, n)):
        assert (case.tag, case.n) == (tag, n)
    assert cli.parse_case(text) == (tag, n)


@pytest.mark.parametrize("text, tag, n", CASES)
def test_exponents_are_standard_for_the_tag(text, tag, n):
    # the exponents are 1/k for the orders (k0, k1, kInf) of the rational
    # map, and 2/N = 1/k0 + 1/k1 + 1/kInf - 1 for the group order N; the
    # ideal triangle's exponents are 0 and its group is infinite
    case = resolve_case(text)
    mus = case.exponents.mus
    if tag == TAG_FUCHSIAN_INF:
        assert mus == (0, 0, 0) and case.max_tiles is None
        return
    d = case.inverse.data
    assert mus == tuple(Fraction(1, k) for k in (d.k0, d.k1, d.kInf))
    assert all(type(m) is Fraction for m in mus)
    assert case.max_tiles == 2 / (sum(mus) - 1)
    assert type(case.max_tiles) is int


@pytest.mark.parametrize("text, tag, n", CASES)
def test_max_tiles_is_the_enumerated_group_order(text, tag, n):
    case = resolve_case(text)
    if tag == TAG_FUCHSIAN_INF:
        assert case.max_tiles is None
        return
    ts = tile_parameter_domain(case)
    assert ts.complete
    assert case.max_tiles == len(ts.elements)


@pytest.mark.parametrize("text, tag, n", CASES)
def test_z_from_x_inverts_the_inverse_map(text, tag, n):
    case = resolve_case(text)
    if case.z_from_x is None:
        assert tag in (TAG_TETRAHEDRAL, TAG_OCTAHEDRAL, TAG_ICOSAHEDRAL)
        return
    for x in (0.3 + 0.4j, 0.7 - 0.2j, -0.5 + 0.9j):
        assert abs(case.inverse.eval(case.z_from_x(x))[0] - x) < 1e-8


@pytest.mark.parametrize("text, tag, n", CASES)
def test_tiles_do_not_depend_on_the_probe_points(text, tag, n, monkeypatch):
    # one probe set tells the tiles of every group apart: points of the
    # sphere off the upper half-plane find the same words and matrices
    case = resolve_case(text)
    count = 2000 if case.max_tiles is None else None
    ts = tile_parameter_domain(case, count)
    monkeypatch.setattr(tiling, "_PROBES",
                        (0.31 + 0.12j, -0.22 + 0.47j, 0.15 - 0.33j))
    other = tile_parameter_domain(case, count)
    assert other.words == ts.words
    assert other.elements.tobytes() == ts.elements.tobytes()
    assert other.complete == ts.complete


def _vertex_params():
    """(text, vertex name) for every vertex of every finite family."""
    for text, tag, _ in CASES:
        if tag == TAG_FUCHSIAN_INF:
            continue
        for vertex in ("v_inf", "v_zero", "v_one"):
            yield text, vertex


# the inverse map near each corner of the base triangle, by its name
NEAR_X = {"v_inf": lambda x: abs(x) > 1e3, "v_zero": lambda x: abs(x) < 1e-3,
          "v_one": lambda x: abs(x - 1.0) < 1e-3}


@pytest.mark.parametrize("text, vertex", list(_vertex_params()))
def test_base_vertices_are_fixed_by_two_mirrors(text, vertex):
    # the corners of the sampler's fan, the apex 0 and the ends of its
    # arc before CORNER_MARGIN moves them in; the one over x = infinity,
    # 0 or 1 is found by x a short step inside
    case = resolve_case(text)
    z = mesh.sample_triangle(case, 8)[0]
    corners = [0.0, *(z[[-8, -1]] / (1.0 - mesh.CORNER_MARGIN))]
    (v,) = [v for v in corners
            if NEAR_X[vertex](case.inverse.eval(v + 1e-5 * (z.mean() - v))[0])]
    # a mirror that maps v to infinity gives a NaN distance: not fixed
    with np.errstate(divide="ignore", invalid="ignore"):
        moves = [abs(m(v) - v) for m in case.mirrors]
    assert sum(d < 1e-12 for d in moves) >= 2, moves


def test_icosahedral_circle_mirror_is_the_epsilon_form_of_its_involution():
    eps = cmath.exp(2j * math.pi / 5.0)
    z = np.array([0.3 + 0.2j, -0.4 + 0.7j, 1.5 - 0.2j])
    num = -(eps - eps ** 4) * z.conjugate() + (eps ** 2 - eps ** 3)
    den = (eps ** 2 - eps ** 3) * z.conjugate() + (eps - eps ** 4)
    mirror = resolve_case("icosa").mirrors[2]
    assert (abs(mirror(z) - num / den) < 1e-12).all()


@pytest.mark.parametrize("args", [
    ("dihedral:²",),            # str.isdigit accepts it, int() does not
    ("dihedral:٣",),            # an Arabic-Indic digit three
    ("dihedral:0",), ("dihedral:x",), ("dihedral:-2",), ("dihedral:3.0",),
    ("dihedral", None), ("dihedral", 0), ("dihedral", 2.5),
    ("dihedral", 3.0), ("dihedral", "3"),
    ("dihedral", True),         # an int subclass, not a dihedral order
])
def test_dihedral_n_must_be_a_positive_int(args):
    with pytest.raises(ValueError, match="^dihedral case must be written "
                                         "dihedral:n with n >= 1$"):
        resolve_case(*args)


@pytest.mark.parametrize("n", [2.5, True, False, "3"])
def test_job_config_rejects_a_dihedral_n_that_is_no_int(n):
    with pytest.raises(ValueError, match="^dihedral case must be written"):
        JobConfig(case="dihedral", n=n)
