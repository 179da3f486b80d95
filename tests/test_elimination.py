import math
from fractions import Fraction

import pytest
import sympy as sp

from schwarzfront import elimination as el
from schwarzfront.elimination import fuchsian_elimination

U, T, S, V = sp.symbols("U T S V", real=True)
_u, _t = sp.symbols("u t", real=True)


@pytest.fixture(scope="module")
def data():
    return fuchsian_elimination()


def _even_poly_to_UT(expr):
    p = sp.Poly(sp.expand(expr), _u, _t)
    assert all(eu % 2 == 0 and et % 2 == 0 for eu, et in p.monoms())
    return sp.expand(sum(c * U ** (eu // 2) * T ** (et // 2)
                         for (eu, et), c in p.terms()))


@pytest.fixture(scope="module")
def oracle():
    """F and G by sympy expression expansion, independent of the
    package's polynomial arithmetic."""
    s = sp.Rational(1, 2) + _u
    x, xb = s + sp.I * _t, s - sp.I * _t

    def Qof(y):
        return 1 - y + y ** 2

    def Rof(y):
        return (2 * y - 1) * y * (1 - y) - 2 * Qof(y) * (1 - 2 * y)

    Q, Qb, R, Rb = Qof(x), Qof(xb), Rof(x), Rof(xb)
    g, gb = x * (1 - x), xb * (1 - xb)
    F = _even_poly_to_UT(Q * Qb - 16 * (g * gb) ** 2)
    W, Wb = sp.expand(Q ** 3 * Rb ** 2), sp.expand(Qb ** 3 * R ** 2)
    imW = sp.expand((W - Wb) / (2 * sp.I))
    G_raw = _even_poly_to_UT(sp.cancel(imW / (_t * (2 * s - 1))))
    calibration = sp.Rational(1323, 256) / G_raw.subs({U: 0, T: 0})
    return {"F": F, "G": sp.expand(calibration * G_raw)}


def _poly(d, *gens):
    return sp.Poly.from_dict(dict(d), *gens)


@pytest.mark.parametrize("name", ["F", "G"])
def test_f_and_g_match_sympy_expansion(data, oracle, name):
    assert _poly(getattr(data, name), U, T) == sp.Poly(oracle[name], U, T)


def test_f_has_constant_term_one_half(data):
    assert data.F[0, 0] == Fraction(1, 2)


def test_g_constant_term(data):
    assert data.G[0, 0] == Fraction(1323, 256)


def test_calibration_is_a_sign(data):
    assert abs(data.calibration) == 1


def test_g1_closed_form(data):
    # 256 S^3 - 43 S^2 + 1024 S V - 353/2 S + 340 V - 1283/16
    printed = {(3, 0): 256, (2, 0): -43, (1, 1): 1024,
               (1, 0): Fraction(-353, 2), (0, 1): 340,
               (0, 0): Fraction(-1283, 16)}
    assert data.G1 == printed


def test_g1_is_linear_in_v(data):
    assert max(j for _, j in data.G1) == 1


def test_f1_combination(data):
    back = {S: U - T, V: U * T}
    F = _poly(data.F, U, T).as_expr()
    G1 = _poly(data.G1, S, V).as_expr()
    F1 = _poly(data.F1, S, V).as_expr()
    assert sp.expand(F1.subs(back) - (256 * F - 16 * G1.subs(back))) == 0


def test_eliminant_cubic_coefficients(data):
    assert data.cubic == (32768, -50448, -84888, -26521)


def test_eliminant_is_the_resultant_in_v(data):
    res = sp.Poly(sp.resultant(_poly(data.G1, S, V).as_expr(),
                               _poly(data.F1, S, V).as_expr(), V), S)
    _, prim = res.primitive()
    assert tuple(abs(c) for c in prim.all_coeffs()) == tuple(
        abs(c) for c in data.cubic)


def test_eliminant_has_no_admissible_root(data):
    assert len(data.cubic_real_roots) == 1
    assert data.cubic_real_roots[0] == pytest.approx(2.638, abs=2e-3)
    assert data.admissible_roots == ()


def test_symmetry_line_quartic(data):
    # F(0, T) = 1/2 - 5/2 T - 5 T^2 - 16 T^3 - 16 T^4, made primitive
    assert data.symmetry_line_quartic == (32, 32, 10, 5, -1)


def test_symmetry_line_root(data):
    assert len(data.symmetry_line_T) == 1
    assert data.symmetry_line_T[0] == pytest.approx(
        (-3.0 + math.sqrt(17.0)) / 8.0, abs=1e-14)


@pytest.mark.parametrize("coeffs", [(32768, -50448, -84888, -26521),
                                    (32, 32, 10, 5, -1),
                                    (1, 0, -2),
                                    (6, -5, -2, 1)])
def test_real_roots_are_the_nearest_floats(coeffs):
    want = sorted(float(r) for r in sp.Poly(coeffs, S).real_roots())
    assert list(el._real_roots(coeffs)) == want


# the fields as the rational arithmetic on x = 1/2 + u + it produced
# them, with their types: F is int on its top degree, Fraction elsewhere
_F = {(0, 0): Fraction(1, 2), (0, 1): Fraction(-5, 2), (0, 2): Fraction(-5),
      (0, 3): Fraction(-16), (0, 4): -16, (1, 0): Fraction(5, 2),
      (1, 1): Fraction(6), (1, 2): Fraction(-16), (1, 3): -64,
      (2, 0): Fraction(-5), (2, 1): Fraction(16), (2, 2): -96,
      (3, 0): Fraction(16), (3, 1): -64, (4, 0): -16}
_G = {(0, 0): Fraction(1323, 256), (0, 1): Fraction(-189, 16),
      (0, 2): Fraction(9, 8), (0, 3): Fraction(11), (0, 4): Fraction(-5),
      (1, 0): Fraction(189, 16), (1, 1): Fraction(-99, 4),
      (1, 2): Fraction(11), (1, 3): Fraction(-20), (2, 0): Fraction(9, 8),
      (2, 1): Fraction(-11), (2, 2): Fraction(-30), (3, 0): Fraction(-11),
      (3, 1): Fraction(-20), (4, 0): Fraction(-5)}
_G1 = {(0, 0): Fraction(-1283, 16), (0, 1): Fraction(340),
       (1, 0): Fraction(-353, 2), (1, 1): Fraction(1024),
       (2, 0): Fraction(-43), (3, 0): Fraction(256)}
_F1 = {(0, 0): Fraction(1411), (0, 1): Fraction(-6464),
       (0, 2): Fraction(-65536), (1, 0): Fraction(3464),
       (2, 0): Fraction(-592), (2, 1): Fraction(-32768),
       (4, 0): Fraction(-4096)}


def _typed(value):
    if isinstance(value, (tuple, list)):
        return [_typed(v) for v in value]
    if hasattr(value, "items"):
        return {k: _typed(v) for k, v in value.items()}
    return type(value), value


def test_every_field_is_pinned_with_its_type(data):
    want = dict(F=_F, G=_G, G1=_G1, F1=_F1, calibration=Fraction(-1),
                cubic=(32768, -50448, -84888, -26521),
                cubic_real_roots=(2.6379154004858716,),
                admissible_roots=(),
                symmetry_line_quartic=(32, 32, 10, 5, -1),
                symmetry_line_T=(0.14038820320220757,))
    for name, value in want.items():
        assert _typed(getattr(data, name)) == _typed(value), name
    assert [f for f in vars(data) if f not in want] == []


def _fraction_real_roots(coeffs):
    """Reference for _real_roots: Sturm counts at Fraction points and
    bisection of Fraction intervals, rounded by float(Fraction)."""
    def rem(p, q):
        p = [Fraction(c) for c in p]
        while len(p) >= len(q):
            c = p[0] / q[0]
            p = [a - c * b for a, b in
                 zip(p[1:], q[1:] + [0] * (len(p) - len(q)))]
            while p and p[0] == 0:
                del p[0]
        return p

    def value(q, x):
        acc = Fraction(0)
        for c in q:
            acc = acc * x + c
        return acc

    def changes(values):
        s = [v for v in values if v]
        return sum((a < 0) != (b < 0) for a, b in zip(s, s[1:]))

    n = len(coeffs) - 1
    seq = [list(coeffs), [c * (n - k) for k, c in enumerate(coeffs[:-1])]]
    while len(seq[-1]) > 1:
        seq.append([-c for c in rem(seq[-2], seq[-1])])

    def count(x):
        return changes([value(q, x) for q in seq])

    cauchy = 1 + max(abs(Fraction(c, coeffs[0])) for c in coeffs[1:])
    bound = Fraction(1 << math.ceil(cauchy).bit_length())
    roots, todo = [], [(-bound, bound, count(-bound), count(bound))]
    while todo:
        lo, hi, clo, chi = todo.pop()
        if clo == chi:
            continue
        if clo - chi == 1 and float(lo) == float(hi):
            roots.append(float(hi))
            continue
        mid = (lo + hi) / 2
        cmid = count(mid)
        todo += [(lo, mid, clo, cmid), (mid, hi, cmid, chi)]
    return tuple(sorted(roots))


@pytest.mark.parametrize("coeffs", [
    (32768, -50448, -84888, -26521),    # the eliminant
    (32, 32, 10, 5, -1),                # F(0, T)
    (1, 0, -2), (6, -5, -2, 1), (2, 1, -13, 6), (-3, 0, 7, 0, -1),
    (1, 0, 0, 0, 0, -1), (5, -1, -17, 3, 11, -2), (-1, 3),
    (1, 0, -1000001, 0, 999999)])
def test_real_roots_agree_with_fraction_bisection(coeffs):
    assert el._real_roots(coeffs) == _fraction_real_roots(coeffs)


def _full_sturm_real_roots(coeffs):
    """Reference for the sign narrowing of _real_roots: the same dyadic
    bisection with a full Sturm count at every halving."""
    n = len(coeffs) - 1
    seq = [list(coeffs), [c * (n - k) for k, c in enumerate(coeffs[:-1])]]
    while len(seq[-1]) > 1:
        r = el._rem(seq[-2], seq[-1])
        g = math.gcd(*r)
        seq.append([-c // g for c in r])

    def count(n, k):
        return el._sign_changes([el._scaled_value(q, n, 1 << k)
                                 for q in seq])

    lead = abs(coeffs[0])
    cauchy = 1 + max(-(-abs(c) // lead) for c in coeffs[1:])
    bound = 1 << cauchy.bit_length()
    roots = []
    todo = [(-bound, bound, 0, count(-bound, 0), count(bound, 0))]
    while todo:
        lo, hi, k, clo, chi = todo.pop()
        if clo == chi:
            continue
        if clo - chi == 1 and lo / (1 << k) == hi / (1 << k):
            roots.append(hi / (1 << k))
            continue
        mid = lo + hi
        cmid = count(mid, k + 1)
        todo += [(2 * lo, mid, k + 1, clo, cmid),
                 (mid, 2 * hi, k + 1, cmid, chi)]
    return tuple(sorted(roots))


@pytest.mark.parametrize("coeffs", [
    (32768, -50448, -84888, -26521),    # the eliminant
    (32, 32, 10, 5, -1),                # F(0, T)
    # roots on bisection points, 0 and an interval end among them
    (1, 0), (1, -1), (1, 0, -1), (4, 0, -1), (8, -1), (1, 0, -4),
    (2, 1, -13, 6), (3, -7, 1, 2), (-2, 5, 0, -1)])
def test_sign_narrowing_matches_full_sturm_bisection(coeffs):
    assert el._real_roots(coeffs) == _full_sturm_real_roots(coeffs)


def test_real_roots_finds_exact_roots():
    # (S + 3)(2S - 1)(S - 2): roots on dyadic bisection points
    assert el._real_roots((2, 1, -13, 6)) == (-3.0, 0.5, 2.0)


def test_real_roots_rejects_a_repeated_root():
    with pytest.raises(ValueError, match="repeated root"):
        el._real_roots((1, -2, 1))


def test_s_v_rewrite_rejects_a_polynomial_outside_the_subring():
    with pytest.raises(ValueError, match="S and V"):
        el._in_S_V({(0, 1): 1})      # T alone is not in Z[U - T, U T]


def test_swallowtail_height():
    t_star = el.swallowtail_t_exact()
    assert t_star == pytest.approx(
        math.sqrt((-3.0 + math.sqrt(17.0)) / 8.0), abs=1e-15)
    assert t_star == pytest.approx(0.3746841379111312, abs=1e-15)
