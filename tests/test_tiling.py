import cmath
import math

import numpy as np
import pytest

from schwarzfront import cli, tiling
from schwarzfront.modular import eval_lambda
from schwarzfront.cases import resolve_case
from schwarzfront.polyhedral import PolyhedralInverse
from schwarzfront.tiling import (_DEDUP_TOL, Mobius, Reflection, _cell,
                                 _known, _signature, tile_parameter_domain)

INVARIANCE_TOL = 1e-9

ORDERS = [("dihedral", 3, 6), ("dihedral", 5, 10), ("tetrahedral", None, 12),
          ("octahedral", None, 24), ("icosahedral", None, 60)]


@pytest.mark.parametrize("tag, n, order", ORDERS)
def test_group_orders(tag, n, order):
    ts = tile_parameter_domain(resolve_case(tag, n))
    assert len(ts.elements) == order
    assert ts.complete


@pytest.mark.parametrize("tag, n", [(t, n) for t, n, _ in ORDERS])
def test_reflections_are_involutions(tag, n):
    for refl in resolve_case(tag, n).mirrors:
        for z in (0.3 + 0.2j, -0.7 + 0.4j, 0.1 - 0.6j):
            assert abs(refl(refl(z)) - z) < 1e-10 * (1 + abs(z))


@pytest.mark.parametrize("tag, n", [("dihedral", 3), ("tetrahedral", None),
                                    ("octahedral", None),
                                    ("icosahedral", None)])
def test_inverse_map_invariance_under_tiles(tag, n):
    inv = PolyhedralInverse(tag, n)
    ts = tile_parameter_domain(resolve_case(tag, n))
    zs = (0.37 * cmath.exp(0.4j), 0.52 * cmath.exp(1.1j))
    for g, _ in ts.elements:
        for z in zs:
            x0 = inv.eval(z)[0]
            x1 = inv.eval(g(z))[0]
            assert abs(x0 - x1) < INVARIANCE_TOL * max(1.0, abs(x0))


def test_fuchsian_tiles_preserve_lambda():
    ts = tile_parameter_domain(resolve_case("fuchsian-inf-inf-inf"),
                               max_count=8)
    for g, _ in ts.elements:
        for z in (0.3 + 0.8j, -0.2 + 1.3j):
            x0 = eval_lambda(z)[0]
            x1 = eval_lambda(g(z))[0]
            assert abs(x0 - x1) < 1e-8 * max(1.0, abs(x0))


def test_fuchsian_enumeration_grows_without_repetition():
    ts = tile_parameter_domain(resolve_case("fuchsian-inf-inf-inf"),
                               max_count=25)
    assert len(ts.elements) == 25
    words = [w for _, w in ts.elements]
    assert len(set(words)) == 25


def test_tile_words_compose_left_to_right():
    case = resolve_case("dihedral", 3)
    refl = case.mirrors
    ts = tile_parameter_domain(case)
    by_word = {w: g for g, w in ts.elements}
    g = by_word["21"]
    z = 0.4 + 0.3j
    assert abs(g(z) - refl[0](refl[1](z))) < 1e-10


@pytest.mark.parametrize("tag, n", [("dihedral", 3), ("tetrahedral", None),
                                    ("octahedral", None),
                                    ("icosahedral", None)])
def test_base_triangle_vertices_hit_ramification_values(tag, n):
    tri = resolve_case(tag, n).base
    inv = PolyhedralInverse(tag, n)
    # vertices map (in the limit) to x = 0, 1, infinity
    eps = 1e-5
    interior = 0.5 * (tri.v_zero + tri.v_one)
    v0 = tri.v_zero + eps * (interior - tri.v_zero)
    v1 = tri.v_one + eps * (interior - tri.v_one)
    vi = tri.v_inf + eps * (interior - tri.v_inf)
    assert abs(inv.eval(v0)[0]) < 1e-3
    assert abs(inv.eval(v1)[0] - 1.0) < 1e-3
    assert abs(inv.eval(vi)[0]) > 1e3


def test_mobius_composition_and_normalization():
    a = Mobius(np.array([[2.0, 1.0], [0.0, 2.0]]))
    b = Mobius(np.array([[1.0, -1.0], [1.0, 1.0]]))
    z = 0.3 + 0.4j
    assert abs(a.compose(b)(z) - a(b(z))) < 1e-12
    assert abs(np.linalg.det(a.matrix) - 1.0) < 1e-12


def test_reflection_circle_fixes_its_circle():
    refl = Reflection.circle(-0.5 + 0.0j, 1.25)
    for th in (0.2, 1.1, 2.5):
        z = -0.5 + 1.25 * cmath.exp(1j * th)
        assert abs(refl(z) - z) < 1e-12


def test_complete_only_when_no_limit_cut_enumeration(monkeypatch):
    # a count above the group order lists the whole group
    ts = tile_parameter_domain(resolve_case("dihedral", 3), max_count=100)
    assert len(ts.elements) == 6 and ts.complete
    icosa = resolve_case("icosahedral")
    assert tile_parameter_domain(icosa, max_count=60).complete
    # a count or a depth below what the group needs cuts it short
    assert not tile_parameter_domain(icosa, max_count=40).complete
    assert not tile_parameter_domain(resolve_case("fuchsian-inf-inf-inf"),
                                     max_count=25).complete
    monkeypatch.setattr(tiling, "MAX_WORD_LENGTH", 1)
    assert not tile_parameter_domain(icosa).complete


def test_cli_tiles_reports_complete_group(capsys):
    assert cli.main(["tiles", "--case", "dihedral:3", "--tiles", "100"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == \
        "6 elements (complete=True)"


# --- hashed dedup against a linear scan -----------------------------------

def _linear_scan(case, max_count=None, max_word_length=12):
    """Reference enumeration: the same breadth-first walk, each new
    signature compared with every earlier one."""
    refl = case.mirrors
    gens = [(refl[j].then(refl[i]), f"{j + 1}{i + 1}")
            for i in range(3) for j in range(3) if i != j]
    probes = case.probes
    seen = np.empty((0, 3), dtype=complex)

    def known(g):
        nonlocal seen
        sig = np.array(_signature(g, probes))
        close = np.abs(seen - sig) <= _DEDUP_TOL * (1.0 + np.abs(sig))
        if close.all(axis=1).any():
            return True
        seen = np.vstack([seen, sig])
        return False

    ident = Mobius.identity()
    known(ident)
    out, queue, complete = [(ident, "")], [(ident, "", 0)], True
    while queue and complete:
        g, word, depth = queue.pop(0)
        for h, hw in gens:
            gh = h.compose(g)
            if known(gh):
                continue
            if depth >= max_word_length or \
               (max_count is not None and len(out) >= max_count):
                complete = False
                break
            out.append((gh, word + hw))
            queue.append((gh, word + hw, depth + 1))
    if max_count is not None and len(out) > max_count:
        out, complete = out[:max_count], False
    return out, complete


@pytest.mark.parametrize("tag, n, max_count", [
    ("dihedral", 1, None), ("dihedral", 3, None), ("dihedral", 8, None),
    ("tetrahedral", None, None), ("octahedral", None, None),
    ("icosahedral", None, None), ("icosahedral", None, 40),
    ("fuchsian-inf-inf-inf", None, 2000)])
def test_hashed_dedup_matches_linear_scan(tag, n, max_count):
    case = resolve_case(tag, n)
    ts = tile_parameter_domain(case, max_count=max_count)
    want, complete = _linear_scan(case, max_count=max_count)
    assert ts.complete == complete
    assert [w for _, w in ts.elements] == [w for _, w in want]
    for (g, _), (h, _) in zip(ts.elements, want):
        assert np.array_equal(g.matrix, h.matrix)


def test_hashed_dedup_merges_across_a_cell_edge():
    # a real image whose hash coordinate u sits 1e-3 below an integer, and
    # a match half a tolerance away, which lands in the next cell
    scale = 100.0 * _DEDUP_TOL
    u = 3_000_000 - 1e-3
    a = u * scale / (1.0 - u * scale) + 0j
    b = a + 0.5 * _DEDUP_TOL * (1.0 + abs(a))
    assert _cell(a) != _cell(b)
    rest = (0.4 + 0.7j, -1.3 + 0.2j)
    buckets = {}
    assert not _known(buckets, (a,) + rest)
    assert _known(buckets, (b,) + rest)
    # outside the tolerance in another probe it stays distinct
    assert not _known(buckets, (b, rest[0] + 1e-6, rest[1]))
