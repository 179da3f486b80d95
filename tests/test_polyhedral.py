import cmath
import math

import numpy as np
import pytest

from schwarzfront import polyhedral
from schwarzfront.polyhedral import (PoleError, PolyhedralInverse,
                                     build_polyhedral, dihedral_z_from_x)

PARTITION_TOL = 1e-10
FD_TOL = 1e-6

CASES = [("dihedral", 1), ("dihedral", 2), ("dihedral", 3), ("dihedral", 6),
         ("tetrahedral", None), ("octahedral", None), ("icosahedral", None)]


@pytest.mark.parametrize("tag, n", CASES)
def test_partition_of_unity(tag, n):
    d = build_polyhedral(tag, n)
    rng = np.random.default_rng(5)
    for _ in range(100):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5))
        t0 = d.A0 * np.polyval(d.f0, z) ** d.k0
        t1 = d.A1 * np.polyval(d.f1, z) ** d.k1
        ti = np.polyval(d.fInf, z) ** d.kInf
        scale = max(abs(t0), abs(t1), abs(ti), 1e-30)
        assert abs(t0 + t1 - ti) < PARTITION_TOL * scale


@pytest.mark.parametrize("tag, n", CASES)
def test_degree_bookkeeping(tag, n):
    d = build_polyhedral(tag, n)
    # x = A0 f0^k0 / fInf^kInf has matching total degrees up or down
    deg = (len(d.f0) - 1) * d.k0
    degi = (len(d.fInf) - 1) * d.kInf
    deg1 = (len(d.f1) - 1) * d.k1
    assert deg == max(degi, deg1) or deg1 == max(deg, degi)


@pytest.mark.parametrize("tag, n", CASES)
def test_derivatives_match_finite_differences(tag, n):
    inv = PolyhedralInverse(tag, n)
    h = 1e-6
    rng = np.random.default_rng(11)
    count = 0
    while count < 25:
        z = rng.uniform(0.2, 1.1) * cmath.exp(1j * rng.uniform(0.05, 3.0))
        try:
            x, xd, xdd = inv.eval(z)
            xp = inv.eval(z + h)[0]
            xm = inv.eval(z - h)[0]
            dp = inv.eval(z + h)[1]
            dm = inv.eval(z - h)[1]
        except PoleError:
            continue
        count += 1
        fd1 = (xp - xm) / (2 * h)
        fd2 = (dp - dm) / (2 * h)
        assert abs(xd - fd1) < FD_TOL * (1 + abs(xd))
        assert abs(xdd - fd2) < FD_TOL * (1 + abs(xdd))


def test_pole_rejection():
    inv = PolyhedralInverse("dihedral", 3)
    with pytest.raises(PoleError):
        inv.eval(0.0)


def test_dihedral_ramification_values():
    # zeros of f1 map to x = 1, zeros of f0 map to x = 0
    d = build_polyhedral("dihedral", 4)
    inv = PolyhedralInverse("dihedral", 4)
    for r in np.roots(d.f1):
        x, _, _ = inv.eval(complex(r) * (1 + 1e-7))
        assert abs(x - 1.0) < 1e-5
    for r in np.roots(d.f0):
        x, _, _ = inv.eval(complex(r) * (1 + 1e-7))
        assert abs(x) < 1e-5


@pytest.mark.parametrize("n", [2, 3, 5])
def test_dihedral_z_from_x_roundtrip(n):
    inv = PolyhedralInverse("dihedral", n)
    rng = np.random.default_rng(7)
    for _ in range(40):
        x = complex(rng.uniform(-1.0, 2.0), rng.uniform(-1.0, 1.0))
        if abs(x) < 0.05 or abs(x - 1.0) < 0.05:
            continue
        z = dihedral_z_from_x(n, x)
        assert abs(z) <= 1.0 + 1e-9
        assert abs(inv.eval(z)[0] - x) < 1e-8 * max(1.0, abs(x))
    # far points: the small root of w^2 - 2yw + 1 without cancellation
    for r in (1e4, 1e6):
        for x in r * np.exp(1j * rng.uniform(-math.pi, math.pi, 20)):
            z = dihedral_z_from_x(n, x)
            assert abs(z) <= 1.0 and abs(cmath.phase(z)) <= math.pi / n
            assert abs(inv.eval(z)[0] - x) < 1e-12 * max(1.0, abs(x))
    # x^2 would overflow here: z near the pole, but finite and in the fan
    for x in (1e200, -1e300j, 1e308 + 1e308j):
        z = dihedral_z_from_x(n, x)
        assert 0.0 < abs(z) < 1e-30 and abs(cmath.phase(z)) <= math.pi / n
    # real x in (0, 1) has |z^n| = 1 for both roots: the upper one is kept
    for x in np.linspace(0.0, 1.0, 23)[1:-1]:
        z = dihedral_z_from_x(n, x)
        assert 0.0 <= cmath.phase(z) <= math.pi / n
        assert abs(inv.eval(z)[0] - x) < 1e-12


def test_icosahedral_invariant_expansions():
    # the factored mirror data reproduces the expanded invariants
    d = build_polyhedral("icosahedral", None)
    want0 = np.zeros(21)
    want0[[0, 5, 10, 15, 20]] = [1, -228, 494, 228, 1]
    assert np.allclose(d.f0, want0, rtol=0, atol=1e-8)
    want_inf = np.zeros(12)
    want_inf[[0, 5, 10]] = [1, 11, -1]
    assert np.allclose(d.fInf, want_inf, rtol=0, atol=1e-8)


def test_expanded_tables_equal_the_poly1d_product(monkeypatch):
    # every factored table the builder expands is bit for bit the product
    # np.poly1d forms
    seen = []
    expand = polyhedral._expand

    def record(factors):
        seen.append((factors, expand(factors)))
        return seen[-1][1]

    monkeypatch.setattr(polyhedral, "_expand", record)
    for tag, n in CASES:
        build_polyhedral(tag, n)
    assert len(seen) == 8           # tetra 2, octa 3, icosa 3
    for factors, got in seen:
        want = np.poly1d([1.0])
        for f in factors:
            want = want * np.poly1d(np.asarray(f, dtype=float))
        assert got.dtype == want.coeffs.dtype
        assert np.array_equal(got, want.coeffs)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_dihedral_z_from_x_array_matches_scalar_calls(n):
    rng = np.random.default_rng(11)
    xs = (rng.uniform(-1.0, 2.0, 40)
          + 1j * rng.uniform(-1.0, 1.0, 40)).reshape(5, 8)
    zs = dihedral_z_from_x(n, xs)
    assert zs.shape == xs.shape
    for x, z in zip(xs.ravel(), zs.ravel()):
        want = dihedral_z_from_x(n, x)
        assert type(want) is complex
        assert abs(z - want) <= 1e-12 * max(1.0, abs(want))


@pytest.mark.parametrize("x", [complex("nan"), complex("inf")])
def test_dihedral_z_from_x_unsolvable_point(x):
    with pytest.raises(ValueError):
        dihedral_z_from_x(3, x)
    zs = dihedral_z_from_x(3, np.array([0.3 + 0.4j, x]))
    assert np.isfinite(zs[0]) and np.isnan(zs[1])
