import cmath
import math

import numpy as np
import pytest

from schwarzfront import cli, mesh
from schwarzfront.modular import eval_lambda
from schwarzfront.cases import resolve_case
from schwarzfront.polyhedral import PolyhedralInverse
from schwarzfront.tiling import (_DEDUP_TOL, _PROBES, Reflection, _new_rows,
                                 apply, check_tile_count,
                                 tile_parameter_domain)

INVARIANCE_TOL = 1e-9

ORDERS = [("dihedral", 3, 6), ("dihedral", 5, 10), ("tetra", None, 12),
          ("octa", None, 24), ("icosa", None, 60),
          # words of up to 26 and 50 letters, 13 and 25 levels deep
          ("dihedral", 25, 50), ("dihedral", 50, 100)]


@pytest.mark.parametrize("tag, n, order", ORDERS)
def test_group_orders(tag, n, order):
    ts = tile_parameter_domain(resolve_case(tag, n))
    assert len(ts.elements) == order
    assert ts.complete


@pytest.mark.parametrize("tag, n", [(t, n) for t, n, _ in ORDERS])
def test_reflections_are_involutions(tag, n):
    zs = (0.3 + 0.2j, -0.7 + 0.4j, 0.1 - 0.6j)
    for refl in resolve_case(tag, n).mirrors:
        for z in zs:
            assert abs(refl(refl(z)) - z) < 1e-10 * (1 + abs(z))
        # an array call maps each point as a scalar call does, to rounding
        z = np.array(zs)
        assert (abs(refl(z) - [refl(w) for w in zs]) < 1e-15).all()
        assert (abs(refl(refl(z)) - z) < 1e-10 * (1 + abs(z))).all()


@pytest.mark.parametrize("tag, n", [("dihedral", 3), ("tetra", None),
                                    ("octa", None), ("icosa", None)])
def test_inverse_map_invariance_under_tiles(tag, n):
    inv = PolyhedralInverse(tag, n)
    ts = tile_parameter_domain(resolve_case(tag, n))
    zs = (0.37 * cmath.exp(0.4j), 0.52 * cmath.exp(1.1j))
    for gz in apply(ts.elements, zs):
        for z, w in zip(zs, gz):
            x0 = inv.eval(z)[0]
            x1 = inv.eval(w)[0]
            assert abs(x0 - x1) < INVARIANCE_TOL * max(1.0, abs(x0))


def test_fuchsian_tiles_preserve_lambda():
    ts = tile_parameter_domain(resolve_case("fuchsian"), max_count=8)
    zs = (0.3 + 0.8j, -0.2 + 1.3j)
    for gz in apply(ts.elements, zs):
        for z, w in zip(zs, gz):
            x0 = eval_lambda(z)[0]
            x1 = eval_lambda(w)[0]
            assert abs(x0 - x1) < 1e-8 * max(1.0, abs(x0))


def test_fuchsian_enumeration_grows_without_repetition():
    ts = tile_parameter_domain(resolve_case("fuchsian"), max_count=25)
    assert ts.elements.shape == (25, 2, 2) and len(ts.words) == 25
    assert len(set(ts.words)) == 25


def test_tile_words_compose_left_to_right():
    case = resolve_case("dihedral", 3)
    refl = case.mirrors
    ts = tile_parameter_domain(case)
    g = ts.elements[ts.words.index("21")]
    z = 0.4 + 0.3j
    assert abs(apply(g, z)[0, 0] - refl[0](refl[1](z))) < 1e-10


@pytest.mark.parametrize("tag, n", [("dihedral", 3), ("tetra", None),
                                    ("octa", None), ("icosa", None)])
def test_base_triangle_vertices_hit_ramification_values(tag, n):
    # the corners of the sampler's fan, the apex 0 and the ends of its arc
    # before CORNER_MARGIN moves them in, map (in the limit) to x = 0, 1
    # and infinity, one each
    case = resolve_case(tag, n)
    z = mesh.sample_triangle(case, 8)[0]
    corners = [0.0, *(z[[-8, -1]] / (1.0 - mesh.CORNER_MARGIN))]
    x = [case.inverse.eval(v + 1e-5 * (z.mean() - v))[0] for v in corners]
    hits = [[abs(xi) < 1e-3, abs(xi - 1.0) < 1e-3, abs(xi) > 1e3]
            for xi in x]
    assert np.array_equal(np.sum(hits, axis=0), [1, 1, 1]), x
    assert np.array_equal(np.sum(hits, axis=1), [1, 1, 1]), x


def test_apply_composes_matrices_and_tiles_have_det_one():
    a = np.array([[2.0, 1.0], [0.0, 2.0]])
    b = np.array([[1.0, -1.0], [1.0, 1.0]])
    z = np.array([0.3 + 0.4j, -1.2 + 0.1j])
    assert apply(np.stack([a, b]), z).shape == (2, 2)
    assert abs(apply(a @ b, z) - apply(a, apply(b, z))).max() < 1e-12
    for tag, n, _ in ORDERS + [("fuchsian", None, 400)]:
        ts = tile_parameter_domain(resolve_case(tag, n), max_count=400)
        assert abs(np.linalg.det(ts.elements) - 1.0).max() < 1e-12


def test_reflection_circle_fixes_its_circle():
    refl = Reflection.circle(-0.5 + 0.0j, 1.25)
    for th in (0.2, 1.1, 2.5):
        z = -0.5 + 1.25 * cmath.exp(1j * th)
        assert abs(refl(z) - z) < 1e-12


def test_complete_only_when_no_limit_cut_enumeration():
    # a count above the group order lists the whole group
    ts = tile_parameter_domain(resolve_case("dihedral", 3), max_count=100)
    assert len(ts.elements) == 6 and ts.complete
    icosa = resolve_case("icosa")
    assert tile_parameter_domain(icosa, max_count=60).complete
    # a count below what the group needs cuts it short
    assert not tile_parameter_domain(icosa, max_count=40).complete
    assert not tile_parameter_domain(resolve_case("fuchsian"),
                                     max_count=25).complete


def test_an_infinite_group_needs_a_count():
    # the count is all that bounds the walk
    with pytest.raises(ValueError, match="infinitely many tiles"):
        tile_parameter_domain(resolve_case("fuchsian"))
    with pytest.raises(ValueError, match="tiles must be >= 1"):
        tile_parameter_domain(resolve_case("fuchsian"), max_count=0)


def test_tile_count_messages_name_the_case_as_written():
    with pytest.raises(ValueError, match="^case fuchsian has infinitely "
                                         "many tiles; set a tile count"):
        tile_parameter_domain(resolve_case("fuchsian"))
    for case in (resolve_case("dihedral:3"), resolve_case("dihedral", 3)):
        with pytest.raises(ValueError,
                           match="^case dihedral:3 has at most 6 tiles$"):
            check_tile_count(case, 7)


def test_cli_tiles_reports_complete_group(capsys):
    # a count equal to the group order lists the whole group; one above
    # it is refused, as surface refuses it (test_cli_rejects_bad_input)
    assert cli.main(["tiles", "--case", "dihedral:3", "--tiles", "6"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "6 elements (complete=True)"


# --- array dedup against a linear scan ------------------------------------

def _normalize(m):
    """m over the square root of its determinant, in scalar arithmetic."""
    return m / cmath.sqrt(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])


def _signature(m, probes):
    (a, b), (c, d) = m
    return tuple((a * p + b) / (c * p + d) for p in probes)


def _linear_scan(case, max_count=None):
    """Reference enumeration: the same breadth-first walk on plain 2 x 2
    matrices, each new signature compared with every earlier one."""
    refl = case.mirrors
    gens = [(_normalize(refl[i].matrix @ np.conj(refl[j].matrix)),
             f"{j + 1}{i + 1}")
            for i in range(3) for j in range(3) if i != j]
    probes = _PROBES
    seen = np.empty((0, 3), dtype=complex)

    def known(g):
        nonlocal seen
        sig = np.array(_signature(g, probes))
        close = np.abs(seen - sig) <= _DEDUP_TOL * (1.0 + np.abs(sig))
        if close.all(axis=1).any():
            return True
        seen = np.vstack([seen, sig])
        return False

    ident = _normalize(np.eye(2, dtype=complex))
    known(ident)
    out, queue, complete = [(ident, "")], [(ident, "")], True
    while queue and complete:
        g, word = queue.pop(0)
        for h, hw in gens:
            gh = _normalize(h @ g)
            if known(gh):
                continue
            if max_count is not None and len(out) >= max_count:
                complete = False
                break
            out.append((gh, word + hw))
            queue.append((gh, word + hw))
    return out, complete


def _assert_matches_linear_scan(case, max_count):
    ts = tile_parameter_domain(case, max_count=max_count)
    want, complete = _linear_scan(case, max_count=max_count)
    assert ts.complete == complete
    assert ts.words == [w for _, w in want]
    assert ts.elements.shape == (len(want), 2, 2)
    for g, (h, _) in zip(ts.elements, want):
        assert np.array_equal(g, h)
        # to the sign of a zero, which `tiles` prints
        assert g.tobytes() == h.tobytes()


# the count cuts at 17 (octa) and 7, 25 and 401 (fuchsian) land partway
# through a breadth-first level
@pytest.mark.parametrize("tag, n, max_count", [
    ("dihedral", 1, None), ("dihedral", 3, None), ("dihedral", 8, None),
    ("dihedral", 50, None),
    ("tetra", None, None), ("octa", None, None), ("octa", None, 17),
    ("icosa", None, None), ("icosa", None, 40), ("fuchsian", None, 7),
    ("fuchsian", None, 25), ("fuchsian", None, 401), ("fuchsian", None, 2000)])
def test_hashed_dedup_matches_linear_scan(tag, n, max_count):
    _assert_matches_linear_scan(resolve_case(tag, n), max_count)


# a known signature; candidates differ from it in Re of the first probe
# image by a multiple of the tolerance that image sets
_SIG = np.array([2.5 + 0.3j, 0.4 + 0.7j, -1.3 + 0.2j])


def _shifted(factor):
    return _SIG + [factor * _DEDUP_TOL * (1.0 + abs(_SIG[0])), 0, 0]


def test_dedup_merges_a_pair_within_the_tolerance():
    assert _new_rows(_SIG[None], _shifted(0.99)[None]).tolist() == []
    assert _new_rows(_SIG[None], _shifted(-0.99)[None]).tolist() == []


def test_dedup_keeps_a_pair_beyond_the_tolerance_apart():
    assert _new_rows(_SIG[None], _shifted(1.01)[None]).tolist() == [0]
    assert _new_rows(_SIG[None], _shifted(-1.01)[None]).tolist() == [0]


def test_dedup_compares_every_probe():
    # equal at the first probe, 1e-6 off at another: distinct
    other = _SIG + [0, 1e-6, 0]
    assert _new_rows(_SIG[None], other[None]).tolist() == [0]


def test_dedup_keeps_the_earlier_of_two_duplicate_candidates():
    far = _SIG + 1.0
    cand = np.array([far, _shifted(0.5), _shifted(0.5) + 0.1j, far])
    assert _new_rows(_SIG[None], cand).tolist() == [0, 2]
    assert _new_rows(np.empty((0, 3), complex), cand).tolist() == [0, 1, 2]
