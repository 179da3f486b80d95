"""Acceptance gate: one test per numbered self-check criterion.

Each test runs the corresponding check at its pinned tolerance and
prints the standard one-line PASS/FAIL record so the criterion status
is visible in the pytest -s output.
"""

import cmath
from types import SimpleNamespace

import numpy as np
import pytest

from schwarzfront import front as fr
from schwarzfront import selfcheck as sc
from schwarzfront.arrays import clip, flat, unflat
from schwarzfront.cases import resolve_case
from schwarzfront.equation import eval_q
from schwarzfront.modular import DomainError, LambdaInverse


def _run(check):
    r = check()
    print(r.line())
    assert r.passed, r.line() + (f" | {r.detail}" if r.detail else "")


def test_criterion_01_theta_nullwert_identity():
    _run(sc.check_theta_identity)


def test_criterion_02_lambda_series_and_special_values():
    _run(sc.check_lambda_series)


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


@pytest.mark.parametrize("check", [
    lambda: sc.check_oracle_equivalence(count=40),
    sc.check_geometry_roundtrips], ids=["07", "13"])
def test_criterion_fails_on_a_nan_residual(check, monkeypatch):
    monkeypatch.setattr(fr, "match_isometry", lambda *args: float("nan"))
    assert not check().passed


def test_criterion_14_mesh_export_roundtrip():
    _run(sc.check_export_roundtrip)


def test_full_battery_reports_no_failures():
    results = sc.run_all(quick=True)
    assert len(results) == 14
    assert all(r.passed for r in results), sc.report(results)


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


# --- criterion 6 draws its points in batches ------------------------------

def _scalar_representation_points(case, rng, count=100, h=1e-6):
    """Reference for criterion 6's draw: one point at a time, skipping a
    point where any scalar evaluation raises."""
    zs = []
    while len(zs) < count:
        if case.max_tiles is None:
            z = complex(rng.uniform(-0.8, 0.8), rng.uniform(0.5, 1.5))
        else:
            z = rng.uniform(0.2, 0.9) * cmath.exp(1j * rng.uniform(0.05, 1.0))
        try:
            _, s = fr.eval_front_matrix(case.inverse, z)
            fr.eval_front_matrix(case.inverse, z + h, sqrt_prev=s)
            fr.eval_front_matrix(case.inverse, z - h, sqrt_prev=s)
            x, _, _ = case.inverse.eval(z)
            eval_q(case.exponents, x)
        except (ValueError, RuntimeError):
            continue
        zs.append(z)
    return np.array(zs)


class _RefusingInverse:
    """The lambda inverse, refusing Re z > 0.2 (about 40% of the draws)."""

    def eval(self, z):
        shape, zf = np.shape(z), flat(z)
        values = LambdaInverse().eval(zf)
        values = clip(zf.real > 0.2, shape, DomainError,
                      lambda: "refused", *values)
        return unflat(shape, *(flat(v) for v in values))


def test_criterion_06_points_equal_scalar_draw_and_skip():
    fuchsian = resolve_case("fuchsian")
    refusing = SimpleNamespace(inverse=_RefusingInverse(),
                               exponents=fuchsian.exponents, max_tiles=None)
    cases = [resolve_case(n) for n in sc._FRONT_CASES] + [refusing]
    rng_a, rng_b = np.random.default_rng(17), np.random.default_rng(17)
    for case in cases:
        z = sc._representation_points(case, rng_a)[0]
        assert np.array_equal(z, _scalar_representation_points(case, rng_b))
        assert rng_a.bit_generator.state == rng_b.bit_generator.state
    assert len(z) == 100 and (z.real <= 0.2).all()
