import numpy as np
import pytest

from schwarzfront import cli
from schwarzfront.cases import resolve_case
from schwarzfront.equation import (TAG_DIHEDRAL, TAG_FUCHSIAN_INF,
                                   TAG_ICOSAHEDRAL, TAG_OCTAHEDRAL,
                                   TAG_TETRAHEDRAL, is_standard)
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
    case = resolve_case(text)
    std = is_standard(case.exponents)
    assert std.standard and std.tag == case.tag


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


def _vertex_params():
    """(text, vertex name) for every vertex of every finite family."""
    for text, tag, _ in CASES:
        if tag == TAG_FUCHSIAN_INF:
            continue
        for vertex in ("v_inf", "v_zero", "v_one"):
            yield text, vertex


@pytest.mark.parametrize("text, vertex", list(_vertex_params()))
def test_base_vertices_are_fixed_by_two_mirrors(text, vertex):
    case = resolve_case(text)
    v = getattr(case.base, vertex)
    # a mirror that maps v to infinity gives a NaN distance: not fixed
    with np.errstate(divide="ignore", invalid="ignore"):
        moves = [abs(m(v) - v) for m in case.mirrors]
    assert sum(d < 1e-12 for d in moves) >= 2, moves


def test_only_the_ideal_triangle_has_no_base_vertices():
    for text, tag, _ in CASES:
        assert (resolve_case(text).base is None) == (tag == TAG_FUCHSIAN_INF)
