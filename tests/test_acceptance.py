"""Acceptance gate: one test per numbered self-check criterion.

Each test runs the corresponding check at its pinned tolerance and
prints the standard one-line PASS/FAIL record so the criterion status
is visible in the pytest -s output.
"""

import gc
import inspect
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from schwarzfront import cli
from schwarzfront import front as fr
from schwarzfront import selfcheck as sc
from schwarzfront import singular as sg
from schwarzfront.arrays import clip, flat, unflat
from schwarzfront.cases import resolve_case
from schwarzfront.equation import eval_q
from schwarzfront.h3 import H3Point
from schwarzfront.modular import DomainError, LambdaInverse, eval_lambda
from schwarzfront.polyhedral import PolyhedralInverse, horner_table
from schwarzfront.tiling import apply, tile_parameter_domain

NAN = float("nan")


def _run(check):
    r = check(sc._Run())
    print(r.line())
    assert r.passed, r.line() + (f" | {r.detail}" if r.detail else "")


def test_criterion_01_theta_nullwert_identity():
    _run(sc.check_theta_identity)


def test_criterion_02_lambda_series_and_special_values():
    _run(sc.check_lambda_series)


def test_criterion_02_detail_lists_the_coefficients_as_numbers():
    # plain integers, as the criterion compares them
    assert (sc.check_lambda_series(sc._Run()).detail
            == "got 1, -16, 128, -704, 3072, -11488, 38400")


def test_criterion_03_lambda_derivative_closed_forms():
    _run(sc.check_lambda_derivatives)


def test_criterion_04_polyhedral_partition_of_unity():
    _run(sc.check_partition_of_unity)


def test_criterion_05_inverse_map_derivatives():
    _run(sc.check_dx_dz)


def test_criterion_06_closed_form_front_representation():
    _run(sc.check_representation_formula)


def test_criterion_07_closed_form_matches_ode_oracle():
    _run(sc.check_oracle_equivalence)


@pytest.mark.parametrize("quick", [False, True])
def test_criterion_07_detail_names_each_case_as_written(quick):
    # the --case spelling, dihedral:3 with its n, then the residual
    detail = sc.check_oracle_equivalence(sc._Run(quick)).detail
    assert [w.split("=")[0] for w in detail.split()] == ["dihedral:3",
                                                         "fuchsian"]
    assert all(float(w.split("=")[1]) < 1e-6 for w in detail.split())


def test_criterion_08_fuchsian_swallowtail_two_pipelines():
    _run(sc.check_fuchsian_swallowtail)


def test_criterion_09_symbolic_elimination():
    _run(sc.check_elimination)


def test_criterion_10_dihedral_singular_curve():
    _run(sc.check_dihedral_curve)


def test_criterion_11_local_normal_form_models():
    _run(sc.check_local_models)


def test_criterion_12_end_behavior():
    _run(sc.check_end_behavior)


def test_criterion_13_geometry_chart_roundtrips():
    _run(sc.check_geometry_roundtrips)


# --- a point a criterion cannot evaluate is NaN, and fails it ---------------

def _wrap(monkeypatch, owner, name, change):
    """Replace owner.name by `change` applied to its own result."""
    f = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *a, **k: change(f(*a, **k)))


def _clip_every_front_point(monkeypatch):
    monkeypatch.setattr(fr, "RAMIFICATION_TOL", float("inf"))


def _nan_tetra_f1(monkeypatch):
    run = sc._Run()
    d = run["tetra"].inverse.data
    data = SimpleNamespace(**{**vars(d), "f1": d.f1 * NAN})
    run["tetra"] = SimpleNamespace(inverse=SimpleNamespace(data=data))
    return run


def _nan_xd_right_of_half(monkeypatch):
    inverse_eval = PolyhedralInverse.eval

    def eval_(self, z):
        x, xd, xdd = inverse_eval(self, z)
        return x, np.where(np.real(z) > 0.5, NAN, xd), xdd

    monkeypatch.setattr(PolyhedralInverse, "eval", eval_)


def _refusing_fuchsian():
    """A run whose fuchsian case refuses about 40% of criterion 6's
    points."""
    run = sc._Run()
    run["fuchsian"] = SimpleNamespace(
        inverse=_RefusingInverse(), exponents=run["fuchsian"].exponents,
        max_tiles=None)
    return run


_NAN_INJECTIONS = {
    "01": (sc.check_theta_identity, lambda mp: _wrap(
        mp, sc, "theta_values", lambda v: replace(v, theta0=v.theta0 * NAN))),
    "03": (sc.check_lambda_derivatives, lambda mp: _wrap(
        mp, sc, "eval_lambda", lambda v: (v[0], v[1], v[2] * NAN))),
    "04": (sc.check_partition_of_unity, _nan_tetra_f1),
    "05": (sc.check_dx_dz, _nan_xd_right_of_half),
    "06": (sc.check_representation_formula, lambda mp: _refusing_fuchsian()),
    "07": (sc.check_oracle_equivalence, _clip_every_front_point),
    "08": (sc.check_fuchsian_swallowtail, lambda mp: _wrap(
        mp, sg, "_singular_terms", lambda v: (*v[:4], v[4] * NAN))),
    "10": (sc.check_dihedral_curve, lambda mp: _wrap(
        mp, sg, "_singular_terms", lambda v: (v[0] * NAN, *v[1:]))),
    "11": (sc.check_local_models, lambda mp: _wrap(
        mp, sg, "local_model_cusp", lambda v: (v[0] * NAN, v[1]))),
    "12": (sc.check_end_behavior, _clip_every_front_point),
    "13": (sc.check_geometry_roundtrips, _clip_every_front_point),
}


@pytest.mark.parametrize("number", _NAN_INJECTIONS)
def test_criterion_fails_on_a_nan_residual(number, monkeypatch):
    check, inject = _NAN_INJECTIONS[number]
    run = inject(monkeypatch) or sc._Run(quick=True)
    with np.errstate(invalid="ignore"):
        result = check(run)
    assert not result.passed, result.line()


def _no_swallowtails(monkeypatch):
    monkeypatch.setattr(sg, "find_swallowtails", lambda *args: [])


def _dip_odd_ball_points(monkeypatch):
    """Move every other point of each ray 1e-4 toward the ball's centre,
    so no march increases monotonically, while each still ends near the
    sphere at infinity."""
    to_ball = sc.hermitian_to_ball

    def dipped(H):
        p = to_ball(H)
        k = np.arange(np.size(p.coords[0]))
        return H3Point(p.chart, tuple(c * (1.0 - 1e-4 * (k % 2))
                                      for c in p.coords))

    monkeypatch.setattr(sc, "hermitian_to_ball", dipped)


def _one_swallowtail_off_the_axis(monkeypatch):
    point = sg.SingularPointClass(0.6 + 0.3j, sg.SWALLOWTAIL, 1.0, 0j, 0.0)
    monkeypatch.setattr(sg, "find_swallowtails", lambda *args: [point])


@pytest.mark.parametrize("number, inject, reason", [
    (10, _no_swallowtails, "upper_swallowtails=0"),
    (10, _one_swallowtail_off_the_axis,
     "upper_swallowtails=1 upper_re_x=0.6"),
    (12, _dip_odd_ball_points, "monotone=False"),
])
def test_criterion_fails_on_a_condition_its_residual_omits(
        number, inject, reason, monkeypatch):
    # the residual alone would pass: the condition makes it NaN, the
    # detail says why, and the line never reads a passing value as FAIL
    inject(monkeypatch)
    result = sc.ALL_CHECKS[number - 1](sc._Run())
    assert not result.passed
    assert result.line().startswith(f"FAIL criterion {number} | ")
    assert "measured=nan" in result.line()
    assert reason in result.detail


def test_every_criterion_is_check_of_run_and_passes_below_threshold():
    for chk in sc.ALL_CHECKS:
        assert list(inspect.signature(chk).parameters) == ["run"]
    for measured, passed in [(0.0, True), (0.999, True), (1.0, False),
                             (2.0, False), (NAN, False)]:
        r = sc.CheckResult(1, "x", measured, 1.0)
        assert r.passed is passed
        assert r.line().startswith("PASS" if passed else "FAIL")


@pytest.mark.parametrize("number, search", [
    (8, "swallowtail_by_newton"), (10, "trace_singular_curve")])
def test_criterion_fails_when_its_search_gives_up(number, search,
                                                  monkeypatch, capsys):
    # the documented ValueError of the search is a failed criterion, and
    # the battery still reports every criterion; criterion 10's
    # find_swallowtails refines its brackets by swallowtail_by_newton, so
    # that search giving up fails criterion 10 as well
    def give_up(*args, **kwargs):
        raise ValueError(f"{search} gave up")

    monkeypatch.setattr(sg, search, give_up)
    numbers = [8, 10] if number == 8 else [number]
    results = sc.run_all(quick=True)
    assert [r.number for r in results] == list(range(1, 15))
    failed = [r for r in results if not r.passed]
    assert [r.number for r in failed] == numbers
    for r in failed:
        assert r.detail == f"{search} gave up"
        assert "measured=nan" in r.line()
    assert cli.main(["selfcheck", "--quick"]) == 1
    out = capsys.readouterr().out
    for n in numbers:
        assert f"FAIL criterion {n:2d} | " in out
    assert out.count(" criterion ") == 14


def test_criterion_14_mesh_export_roundtrip():
    _run(sc.check_export_roundtrip)


def test_criterion_14_closes_the_files_it_reads():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        sc.check_export_roundtrip(sc._Run())
        gc.collect()
    assert not [w for w in caught if w.category is ResourceWarning]


def test_full_battery_reports_no_failures():
    results = sc.run_all(quick=True)
    assert len(results) == 14
    assert all(r.passed for r in results), sc.report(results)


def test_full_battery_reports_a_clipped_front_as_failures(monkeypatch):
    # every front point clipped: each criterion still reports, with no
    # RuntimeWarning, and the four that evaluate the front fail
    _clip_every_front_point(monkeypatch)
    results = sc.run_all(quick=True)
    assert [r.number for r in results] == list(range(1, 15))
    assert [r.number for r in results if not r.passed] == [6, 7, 12, 13]


def test_full_battery_resolves_each_family_once(monkeypatch):
    calls = []

    def counting(name, *args):
        calls.append(name)
        return resolve_case(name, *args)

    monkeypatch.setattr(sc, "resolve_case", counting)
    assert all(r.passed for r in sc.run_all(quick=True))
    assert sorted(calls) == sorted(set(sc._POLY_CASES + sc._FRONT_CASES))


@pytest.mark.parametrize("name", sc._POLY_CASES)
def test_criterion_05_reference_is_the_poly1d_product(name):
    # the reference x = A0 f0^k0 / fInf^kInf and its derivatives, bit for
    # bit as np.poly1d forms them, and their values at complex z
    d = resolve_case(name).inverse.data
    num = d.A0 * np.poly1d(d.f0) ** d.k0
    den = np.poly1d(d.fInf) ** d.kInf
    want = [num, den, np.polyder(num), np.polyder(den)]
    got = sc._dx_dz_reference(d)
    z = 0.7 * np.exp(1j * np.linspace(0.05, 3.0, 40))
    for p, q in zip(got, want):
        assert p.dtype == q.coeffs.dtype
        assert np.array_equal(p, q.coeffs)
        assert np.array_equal(np.polyval(p, z), q(z))


# --- criterion 6 takes one fixed draw per family --------------------------

class _RefusingInverse:
    """The lambda inverse, refusing Re z > 0.2 (about 40% of the draws)."""

    def eval(self, z):
        shape, zf = np.shape(z), flat(z)
        values = LambdaInverse().eval(zf)
        values = clip(zf.real > 0.2, shape, DomainError,
                      lambda: "refused", *values)
        return unflat(shape, *(flat(v) for v in values))


def _recording_kronecker(monkeypatch):
    """Replace sc._kronecker by itself, recording each (start, count)."""
    calls, draw = [], sc._kronecker

    def recording(start, count, low, high):
        calls.append((start, count))
        return draw(start, count, low, high)

    monkeypatch.setattr(sc, "_kronecker", recording)
    return calls


def test_criterion_06_reads_one_fixed_draw_and_fails_on_a_refused_point(
        monkeypatch):
    # terms start, ..., start + 99 of each family's block and no others,
    # whether or not a point evaluates; a refused point fails the check
    calls = _recording_kronecker(monkeypatch)
    assert sc.check_representation_formula(sc._Run()).passed
    want = [(sc._first_term(17, i), 100) for i in range(len(sc._FRONT_CASES))]
    assert calls == want
    calls.clear()
    with np.errstate(invalid="ignore"):
        result = sc.check_representation_formula(_refusing_fuchsian())
    assert calls == want
    assert not result.passed and "nan" in result.detail


# --- the Kronecker sequence the battery draws its points from -------------

_BOXES = [([-1.0, 0.5], [1.0, 2.5]), ([0.15, 0.05], [1.2, 3.0]),
          ([-3.0, -3.0, -3.0], [3.0, 3.0, 3.0]),
          ([0.0, -1.0, 2.0], [1e-3, 1.0, 2.5])]


@pytest.mark.parametrize("low, high", _BOXES)
def test_kronecker_points_are_fixed_and_in_their_half_open_box(low, high):
    for start in (0, sc._first_term(11), sc._first_term(31, 9)):
        p = sc._kronecker(start, 1000, low, high)
        assert p.shape == (1000, len(low))
        assert np.array_equal(p, sc._kronecker(start, 1000, low, high))
        # a batch is its pieces in order
        assert np.array_equal(p, np.concatenate(
            [sc._kronecker(start, 400, low, high),
             sc._kronecker(start + 400, 600, low, high)]))
        assert ((low <= p) & (p < np.array(high))).all()


@pytest.mark.parametrize("start", [0, sc._first_term(5),
                                   sc._first_term(23, 1)])
def test_kronecker_points_cover_a_grid_of_the_box(start):
    low, high = np.array([-0.8, 0.6]), np.array([0.8, 1.8])
    p = sc._kronecker(start, 200, low, high)
    cells = np.floor((p - low) / (high - low) * 10).astype(int)
    assert len({tuple(c) for c in cells}) == 100


def test_kronecker_alpha_solves_its_polynomial():
    for d, alpha in sc._ALPHA.items():
        phi = 1.0 / alpha[0]
        assert phi ** (d + 1) == pytest.approx(phi + 1.0, rel=1e-15)
        assert np.allclose(alpha, phi ** -np.arange(1, d + 1), rtol=1e-15)


def test_battery_draws_share_no_terms(monkeypatch):
    calls = _recording_kronecker(monkeypatch)
    assert all(r.passed for r in sc.run_all(quick=True))
    terms = np.concatenate([np.arange(a, a + c) for a, c in calls])
    assert len(np.unique(terms)) == len(terms)
    # each draw keeps to the terms its (check, case) owns, and owns its own:
    # 1 + 1 + 9 + 9 + 5 + 2 + 2 + 1 draws in checks 1, 3, 4, 5, 6, 7, 11
    # and 13
    blocks = {a // sc._SITE_TERMS for a, _ in calls}
    assert all(a // sc._SITE_TERMS == (a + c - 1) // sc._SITE_TERMS
               for a, c in calls)
    assert len(blocks) == 30


# --- each batched grid of the battery equals the calls it replaces --------

def _spy(monkeypatch, owner, name):
    """Replace owner.name by itself, recording each call's arguments and
    result; returns the original and the record."""
    f, seen = getattr(owner, name), []

    def spy(*args, **kwargs):
        seen.append((args, kwargs, f(*args, **kwargs)))
        return seen[-1][2]

    monkeypatch.setattr(owner, name, spy)
    return f, seen


def _same_forms(a, b, part=slice(None)):
    """The entries `part` of the array HermitianForm a are b's, bit for
    bit, a clipped point NaN in both."""
    return all(np.array_equal(getattr(a, f)[part], getattr(b, f),
                              equal_nan=True) for f in "hkw")


def test_criterion_03_grid_equals_a_call_per_shift(monkeypatch):
    _, seen = _spy(monkeypatch, sc, "eval_lambda")
    sc.check_lambda_derivatives(sc._Run())
    [((z,), _, got)] = seen
    for k, part in enumerate(np.split(z, 3)):     # z, z + h, z - h
        for v, want in zip(got, eval_lambda(part)):
            assert np.array_equal(np.split(v, 3)[k], want)


@pytest.mark.parametrize("i, name", enumerate(sc._POLY_CASES))
def test_criterion_05_table_equals_a_polyval_per_polynomial(i, name):
    polys = sc._dx_dz_reference(resolve_case(name).inverse.data)
    u = sc._kronecker(sc._first_term(13, i), 40, [0.15, 0.05], [1.2, 3.0])
    z = u[:, 0] * np.exp(1j * u[:, 1])
    got = np.polyval(horner_table(polys), z)
    assert got.shape == (4, len(z))
    for row, p in zip(got, polys):
        assert np.array_equal(row, np.polyval(p, z))


def _branch_continued(inv, z, prev):
    """U at the points z on the branch of sqrt(x') nearer prev, per
    point: front_matrix's formula with that branch taken before U is
    formed (no point here is clipped)."""
    _, xd, xdd = inv.eval(z)
    s = np.sqrt(xd)
    s = np.where(abs(s - prev) > abs(-s - prev), -s, s)
    r = xdd / xd
    return (1j / s)[:, None, None] * np.stack(
        [np.stack([z * xd, 1.0 + 0.5 * z * r], axis=-1),
         np.stack([xd, 0.5 * r], axis=-1)], axis=-2)


@pytest.mark.parametrize("i, name", enumerate(sc._FRONT_CASES))
def test_criterion_06_grid_equals_a_call_per_shift(i, name, monkeypatch):
    case, h = resolve_case(name), 1e-6
    _, seen = _spy(monkeypatch, fr, "front_matrix")
    U, Up, Um, _, _ = sc._representation_points(case, sc._first_term(17, i),
                                                 h)
    # one call on z, z + h and z - h
    [((z3, _, _), _, _)] = seen
    z = z3[0]
    assert np.array_equal(z3, np.stack([z, z + h, z - h]))
    want, s = fr.eval_front_matrix(case.inverse, z)
    assert np.array_equal(U, want)
    for got, zh in ((Up, z + h), (Um, z - h)):
        assert np.array_equal(got, _branch_continued(case.inverse, zh, s))


class _TurnedInverse:
    """An inverse map whose x' and x'' are turned by one phase, which puts
    x' at the point z0 on the cut of the principal sqrt."""

    def __init__(self, inverse, z0):
        self.inverse = inverse
        xd0 = inverse.eval(z0)[1]
        self.phase = -abs(xd0) / xd0

    def eval(self, z):
        x, xd, xdd = self.inverse.eval(z)
        return x, self.phase * xd, self.phase * xdd


@pytest.mark.parametrize("name", ["dihedral:3", "fuchsian"])
def test_criterion_06_continues_the_branch_across_the_cut(name):
    # sqrt(x') jumps sign across the cut between z0 and one of z0 +- h;
    # U there is negated, equal bit for bit to U on the continued branch
    i, h = sc._FRONT_CASES.index(name), 1e-6
    case = _recording(name)
    sc._representation_points(case, sc._first_term(17, i), h)
    z = case.inverse.calls[0][0]
    inv = _TurnedInverse(case.inverse.inverse, z[0])
    _, Up, Um, _, _ = sc._representation_points(
        replace(case, inverse=inv), sc._first_term(17, i), h)
    principal = [fr.eval_front_matrix(inv, z + d)[0] for d in (h, -h)]
    assert sorted(np.array_equal(got[0], -p[0])
                  for got, p in zip((Up, Um), principal)) == [False, True]
    _, s = fr.eval_front_matrix(inv, z)
    for got, zh in ((Up, z + h), (Um, z - h)):
        assert np.array_equal(got, _branch_continued(inv, zh, s))


def test_criterion_12_grid_equals_a_call_per_ray(monkeypatch):
    closed_form, fronts = _spy(monkeypatch, fr, "eval_front_closed_form")
    to_ball, balls = _spy(monkeypatch, sc, "hermitian_to_ball")
    sc.check_end_behavior(sc._Run())
    [((inv, z), _, got)], [(_, _, ball)] = fronts, balls
    for k, ray in enumerate(z.reshape(5, -1)):
        part = slice(k * len(ray), (k + 1) * len(ray))
        want = closed_form(inv, ray).H
        assert _same_forms(got.H, want, part)
        for a, b in zip(ball.coords, to_ball(want).coords):
            assert np.array_equal(a[part], b, equal_nan=True)


def test_criterion_13_grid_equals_a_call_per_grid():
    case = resolve_case("dihedral:3")
    zs = 0.55 * np.exp(1j * (0.15 + 0.1 * np.arange(8)))
    Hg, H, _ = sc._tile_grids(case, zs)
    gs = tile_parameter_domain(case).elements[1:]
    for got, z in ((Hg, apply(gs, zs).ravel()), (H, np.tile(zs, len(gs)))):
        assert _same_forms(got, fr.eval_front_closed_form(case.inverse, z).H)


# --- each check evaluates each family once --------------------------------

class _RecordingInverse:
    """An inverse map that records the points of each call."""

    def __init__(self, inverse):
        self.inverse, self.calls = inverse, []

    def eval(self, z):
        self.calls.append(np.copy(z))
        return self.inverse.eval(z)


def _recording(name):
    case = resolve_case(name)
    return replace(case, inverse=_RecordingInverse(case.inverse))


@pytest.mark.parametrize("check, evaluated", [
    (sc.check_representation_formula, sc._FRONT_CASES),
    (sc.check_oracle_equivalence, ["dihedral:3", "fuchsian"]),
    (sc.check_geometry_roundtrips, ["dihedral:3"])], ids=[6, 7, 13])
def test_check_calls_each_inverse_map_once(check, evaluated):
    # the front's families without a preimage are idle in criterion 7
    run = sc._Run(quick=True)
    for name in sc._FRONT_CASES:
        run[name] = _recording(name)
    assert check(run).passed
    assert {name: len(run[name].inverse.calls)
            for name in sc._FRONT_CASES} == {
                name: int(name in evaluated) for name in sc._FRONT_CASES}


@pytest.mark.parametrize("i, name", enumerate(sc._FRONT_CASES))
def test_criterion_06_one_call_returns_the_arrays_of_three(i, name):
    case, h = _recording(name), 1e-6
    got = sc._representation_points(case, sc._first_term(17, i), h)
    [z3], inv = case.inverse.calls, case.inverse.inverse
    z = z3[0]
    assert z.shape == (100,)
    assert np.array_equal(z3, np.stack([z, z + h, z - h]))
    U, s = fr.eval_front_matrix(inv, z)
    x, xd, _ = inv.eval(z)
    want = (U, _branch_continued(inv, z + h, s),
            _branch_continued(inv, z - h, s), xd, eval_q(case.exponents, x).q)
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("count", [40, 200])
@pytest.mark.parametrize("name", ["dihedral:3", "fuchsian"])
def test_criterion_07_one_call_returns_the_arrays_of_two(name, count):
    case = _recording(name)
    c = sc._FRONT_CASES.index(name)
    Ha, Hb, P = sc._oracle_grid(case, count, c)
    [zs], inv = case.inverse.calls, case.inverse.inverse
    assert np.array_equal(zs, case.z_from_x(sc._oracle_points(count, c)))
    assert _same_forms(Ha, fr.eval_front_closed_form(inv, zs).H)
    assert np.array_equal(P, fr.eval_front_matrix(inv, zs[:1])[0])


def test_criterion_13_one_call_returns_the_arrays_of_two():
    case = _recording("dihedral:3")
    zs = 0.55 * np.exp(1j * (0.15 + 0.1 * np.arange(8)))
    _, _, P = sc._tile_grids(case, zs)
    assert len(case.inverse.calls) == 1
    # the tile matrices themselves, each repeated for every point
    gs = tile_parameter_domain(case).elements[1:]
    assert np.array_equal(P, np.repeat(gs, len(zs), axis=0))


@pytest.mark.parametrize("check", [sc.check_partition_of_unity,
                                   sc.check_dx_dz], ids=["c04", "c05"])
def test_criteria_04_05_nine_family_table_equals_a_polyval_each(
        check, monkeypatch):
    _, seen = _spy(monkeypatch, sc, "_family_polyvals")
    assert check(sc._Run()).passed
    [((polys, z), _, got)] = seen
    assert got.shape == (len(sc._POLY_CASES), len(polys[0]), z.shape[1])
    for rows, family, zi in zip(got, polys, z, strict=True):
        for row, p in zip(rows, family, strict=True):
            assert np.array_equal(row, np.polyval(p, zi))
