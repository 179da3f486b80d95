"""Acceptance self-checks: measured quantities against fixed thresholds.

Each check returns a CheckResult; run_all() executes the whole battery.
The CLI renders them as a machine-readable report, and the acceptance
test suite asserts them one by one.
"""

from __future__ import annotations

import cmath
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np
import sympy as sp

from . import front as fr
from . import mesh as ms
from . import singular as sg
from .cases import resolve_case
from .elimination import S, V, fuchsian_elimination, swallowtail_t_exact
from .equation import eval_q, eval_q_derivatives
from .h3 import (H3Point, ball_to_lorentz,
                 hermitian_to_ball, hermitian_to_lorentz,
                 hermitian_to_upper_half_space, lorentz_to_ball,
                 lorentz_to_hermitian, upper_half_space_to_hermitian)
from .modular import eval_lambda, lambda_series_coeffs, theta_values
# unused here; kept because bench/spans.py wraps selfcheck.fuchsian_z_from_x
from .modular import fuchsian_z_from_x  # noqa: F401
from .tiling import tile_parameter_domain


@dataclass
class CheckResult:
    number: int
    name: str
    measured: float
    threshold: float
    passed: bool
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number:2d} | {self.name} | "
                f"measured={self.measured:.6g} threshold={self.threshold:g}"
                + (f" | {self.detail}" if self.detail else ""))


_POLY_CASES = ([f"dihedral:{n}" for n in range(1, 7)]
               + ["tetra", "octa", "icosa"])
# one case per family, for the checks of the front itself
_FRONT_CASES = ["dihedral:3", "tetra", "octa", "icosa", "fuchsian"]


def check_theta_identity() -> CheckResult:
    rng = np.random.default_rng(11)
    u = rng.uniform([-1.0, 0.5], [1.0, 2.5], (200, 2))
    tv = theta_values(u[:, 0] + 1j * u[:, 1])
    worst = float(np.max(abs(tv.theta3 ** 4 - tv.theta0 ** 4 - tv.theta2 ** 4)
                         / abs(tv.theta3 ** 4)))
    return CheckResult(1, "theta quartic identity", worst, 1e-12,
                       worst < 1e-12)


def check_lambda_series() -> CheckResult:
    want = [1, -16, 128, -704, 3072, -11488, 38400]
    got = lambda_series_coeffs(7)
    ok = [int(c) for c in got] == want and all(c == int(c) for c in got)
    return CheckResult(2, "lambda q-expansion coefficients",
                       0.0 if ok else 1.0, 0.5, ok,
                       detail=f"got {got}")


def check_lambda_derivatives() -> CheckResult:
    rng = np.random.default_rng(5)
    h = 1e-5
    u = rng.uniform([-0.8, 0.6], [0.8, 1.8], (50, 2))
    z = u[:, 0] + 1j * u[:, 1]
    _, xd, xdd = eval_lambda(z)
    xp, dp, _ = eval_lambda(z + h)
    xm, dm, _ = eval_lambda(z - h)
    worst = max(np.max(abs(xd - (xp - xm) / (2 * h)) / abs(xd)),
                np.max(abs(xdd - (dp - dm) / (2 * h)) / abs(xdd)))
    return CheckResult(3, "lambda derivative closed forms vs FD", worst,
                       1e-8, worst < 1e-8)


def check_partition_of_unity() -> CheckResult:
    rng = np.random.default_rng(7)
    worst = 0.0
    for name in _POLY_CASES:
        d = resolve_case(name).inverse.data
        u = rng.uniform(-1.5, 1.5, (100, 2))
        z = u[:, 0] + 1j * u[:, 1]
        t0 = d.A0 * np.polyval(d.f0, z) ** d.k0
        t1 = d.A1 * np.polyval(d.f1, z) ** d.k1
        ti = np.polyval(d.fInf, z) ** d.kInf
        scale = np.abs([t0, t1, ti]).max(axis=0).clip(min=1e-30)
        worst = max(worst, np.max(abs(t0 + t1 - ti) / scale))
    return CheckResult(4, "polyhedral partition of unity", worst, 1e-10,
                       worst < 1e-10)


def check_dx_dz() -> CheckResult:
    rng = np.random.default_rng(13)
    worst = 0.0
    for name in _POLY_CASES:
        inv = resolve_case(name).inverse
        d = inv.data
        num = d.A0 * np.poly1d(d.f0) ** d.k0
        den = np.poly1d(d.fInf) ** d.kInf
        dnum, dden = np.polyder(num), np.polyder(den)
        u = rng.uniform([0.15, 0.05], [1.2, 3.0], (40, 2))
        z = u[:, 0] * np.exp(1j * u[:, 1])
        _, xd, _ = inv.eval(z)          # NaN within POLE_MARGIN of a pole
        exact = (dnum(z) * den(z) - num(z) * dden(z)) / den(z) ** 2
        worst = max(worst, np.nanmax(abs(xd - exact) / abs(exact)))
    return CheckResult(5, "closed-form dx/dz vs polynomial derivative",
                       worst, 1e-10, worst < 1e-10)


def _representation_points(case, rng, count: int = 100, h: float = 1e-6):
    """The first `count` drawn points z where U(z), U(z +- h), x'(z) and
    q(x(z)) are all finite, with those values.

    Candidates are drawn in batches of the number still needed, so the
    points and the generator's state are those of drawing one point at a
    time and skipping the ones that fail.
    """
    inv, e = case.inverse, case.exponents
    if case.max_tiles is None:          # infinite group: upper half-plane
        low, high = [-0.8, 0.5], [0.8, 1.5]
    else:
        low, high = [0.2, 0.05], [0.9, 1.0]
    parts, need = [], count
    while need > 0:
        u = rng.uniform(low, high, (need, 2))
        if case.max_tiles is None:
            z = u[:, 0] + 1j * u[:, 1]
        else:
            z = u[:, 0] * np.exp(1j * u[:, 1])
        U, s = fr.eval_front_matrix(inv, z)
        Up, _ = fr.eval_front_matrix(inv, z + h, sqrt_prev=s)
        Um, _ = fr.eval_front_matrix(inv, z - h, sqrt_prev=s)
        x, xd, _ = inv.eval(z)
        q = eval_q(e, x).q
        ok = (np.isfinite(np.stack([U, Up, Um], axis=1)).all(axis=(1, 2, 3))
              & np.isfinite(xd) & np.isfinite(q))
        parts.append((z[ok], U[ok], Up[ok], Um[ok], xd[ok], q[ok]))
        need -= int(ok.sum())
    return tuple(np.concatenate(col) for col in zip(*parts))


def check_representation_formula() -> CheckResult:
    rng = np.random.default_rng(17)
    h = 1e-6
    worst_det, worst_ode = 0.0, 0.0
    for name in _FRONT_CASES:
        _, U, Up, Um, xd, q = _representation_points(resolve_case(name), rng,
                                                     h=h)
        worst_det = max(worst_det, np.max(abs(np.linalg.det(U) - 1.0)))
        dU = (Up - Um) / (2 * h)
        zero = np.zeros_like(xd)
        rhs = U @ np.stack([np.stack([zero, q * xd], axis=-1),
                            np.stack([xd, zero], axis=-1)], axis=-2)
        norm = np.linalg.norm(rhs, axis=(1, 2))
        worst_ode = max(worst_ode, np.max(np.linalg.norm(dU - rhs, axis=(1, 2))
                                          / np.maximum(1.0, norm)))
    worst = max(worst_det / 1e-10, worst_ode / 1e-7)
    return CheckResult(6, "representation formula det/ODE residual",
                       worst, 1.0, worst < 1.0,
                       detail=f"det={worst_det:.3g} ode={worst_ode:.3g}")


def _oracle_points(count):
    """x targets in a disk star-shaped around the basepoint, away from 0, 1;
    the basepoint first."""
    center = 0.5 + 0.45j
    radius = 0.3
    xs = [center]
    k = 0
    while len(xs) < count:
        k += 1
        r = radius * math.sqrt((k % 37) / 37.0 + 0.02)
        th = 2.399963229728653 * k      # golden-angle spiral
        xs.append(center + r * cmath.exp(1j * th))
    return np.array(xs)


def _oracle_grid(case, count):
    """(Ha, Hb): the closed-form and the ODE-transported H over the grid,
    each one array HermitianForm."""
    xs = _oracle_points(count)
    # one preimage and one front call for the grid; a point without a
    # preimage, or where the front fails, is NaN
    Ha = fr.eval_front_closed_form(case.inverse, case.z_from_x(xs)).H
    bad = ~np.isfinite(Ha.h)
    if bad.any():
        raise ValueError(f"closed form failed at x={xs[bad][0]}")
    # one solve for every segment x0 -> x; the basepoint's own segment
    # has length 0, so its U stays the identity
    U = fr.integrate_sl_form(case.exponents, [xs[0], xs])
    return Ha, fr.hermitian_of_solution(U)


def check_oracle_equivalence(count: int = 200) -> CheckResult:
    worst = 0.0
    details = []
    for name in _FRONT_CASES:
        case = resolve_case(name)
        if case.z_from_x is None:       # no x -> z preimage to compare
            continue
        Ha, Hb = _oracle_grid(case, count)
        _, resid = fr.match_isometry(Ha, Hb)
        details.append(f"{case.tag}:{resid:.3g}")
        worst = max(worst, resid)
    return CheckResult(7, "closed form vs ODE oracle", worst, 1e-6,
                       worst < 1e-6, detail=" ".join(details))


def check_fuchsian_swallowtail() -> CheckResult:
    e = resolve_case("fuchsian").exponents
    t_star = swallowtail_t_exact()
    x_newton = sg.swallowtail_by_newton(e, 0.5 + 0.35j)
    gap = abs(x_newton - complex(0.5, t_star))
    anchor = abs(t_star - math.sqrt((-3.0 + math.sqrt(17.0)) / 8.0))
    worst_id = 0.0
    for t in np.linspace(0.05, 0.9, 20):
        x = complex(0.5, t)
        Q, Qp, R, Rp = eval_q_derivatives(e, x)
        lhs = 2 * abs(R) ** 4 - x * (1 - x) * (2 * Rp * Q - R * Qp) \
            * R.conjugate() ** 2
        rhs = (t * t / 64.0) * (7 - 4 * t * t) ** 2 \
            * (21 + 440 * t * t - 560 * t ** 4 + 256 * t ** 6)
        worst_id = max(worst_id, abs(lhs - rhs) / abs(rhs))
    measured = max(gap / 1e-9, anchor / 1e-12, worst_id / 1e-10)
    return CheckResult(8, "Fuchsian swallowtail: two pipelines + identity",
                       measured, 1.0, measured < 1.0,
                       detail=f"gap={gap:.3g} id={worst_id:.3g}")


def check_elimination() -> CheckResult:
    d = fuchsian_elimination()
    printed = (256 * S ** 3 - 43 * S ** 2 + 1024 * S * V
               - sp.Rational(353, 2) * S + 340 * V - sp.Rational(1283, 16))
    exact = sp.simplify(d.G1 - printed) == 0
    v2 = sp.Poly(d.G1, V).degree() <= 1
    ok = exact and v2
    return CheckResult(9, "elimination G1 printed coefficients",
                       0.0 if ok else 1.0, 0.5, ok,
                       detail=f"exact={exact} linear_in_V={v2}")


def check_dihedral_curve() -> CheckResult:
    e = resolve_case("dihedral:3").exponents
    curve = sg.trace_singular_curve(e)
    asym = 0.0
    for x in curve.samples[::3]:
        xr = 1.0 - x.conjugate()
        corrected = sg._newton_to_curve(e, xr)
        asym = max(asym, abs(corrected - xr))
    sws = sg.find_swallowtails(e, curve)
    upper = [p for p in sws if p.x.imag > 0]
    ok = (curve.closed and asym < 1e-8 and len(upper) == 1
          and abs(upper[0].x.real - 0.5) < 1e-9)
    detail = (f"closed={curve.closed} asym={asym:.3g} "
              f"upper_swallowtails={len(upper)}")
    return CheckResult(10, "dihedral(3) singular curve", asym, 1e-8, ok,
                       detail=detail)


def check_local_models() -> CheckResult:
    rng = np.random.default_rng(23)
    worst = 0.0
    for s, t in rng.uniform(-1.5, 1.5, (1000, 2)):
        x, y = sg.local_model_cusp(s, t)
        worst = max(worst, abs(27 * y * y + 4 * x ** 3
                               - (s + 2 * t * t) ** 2 * (4 * s - t * t)))
    for u, v in rng.uniform(-1.5, 1.5, (1000, 2)):
        lhs = sg.swallowtail_canonical(u, v)
        st = sg.swallowtail_chart_source(u, v)
        rhs = sg.swallowtail_chart_target(*sg.local_model_swallowtail(*st))
        worst = max(worst, max(abs(a - b) for a, b in zip(lhs, rhs)))
    return CheckResult(11, "local model identities", worst, 1e-12,
                       worst < 1e-12)


def check_end_behavior() -> CheckResult:
    inv = resolve_case("dihedral:3").inverse
    rays = [
        [0.02 * cmath.exp(0.3j) * (0.82 ** k) for k in range(60)],
        [1.0 + 0.05 * cmath.exp(2.0j) * (0.82 ** k) for k in range(60)],
        [cmath.exp(1j * math.pi / 3) * (1 + 0.05 * (0.82 ** k)
                                        * cmath.exp(-1.2j))
         for k in range(60)],
        [0.03 * cmath.exp(0.9j) * (0.82 ** k) for k in range(60)],
        [1.0 + 0.04 * cmath.exp(-2.5j) * (0.82 ** k) for k in range(60)],
    ]
    worst_norm = 1.0
    all_monotone = True
    for zs in rays:
        # march toward the end until the target norm is cleared (or the
        # Hermitian form degenerates numerically, NaN, at the boundary)
        H = fr.eval_front_closed_form(inv, np.array(zs)).H
        norms = np.linalg.norm(np.stack(hermitian_to_ball(H).coords), axis=0)
        stop = np.flatnonzero(~(norms <= 1.0 - 2e-4))
        n = stop[0] + (norms[stop[0]] > 1.0 - 2e-4) if stop.size else len(zs)
        norms = norms[:n]
        # the ball norms increase on the last half of the march
        tail = norms[-max(2, int(0.5 * n)):]
        all_monotone = all_monotone and bool(np.all(np.diff(tail) > 0))
        worst_norm = min(worst_norm, norms[-1])
    ok = all_monotone and worst_norm > 1.0 - 1e-3
    return CheckResult(12, "end behavior along rays", 1.0 - worst_norm,
                       1e-3, ok, detail=f"monotone={all_monotone}")


def check_geometry_roundtrips() -> CheckResult:
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(100):
        z = complex(rng.normal(), rng.normal())
        t = abs(rng.normal()) + 0.1
        p = H3Point.upper_half_space(z, t)
        H = upper_half_space_to_hermitian(p)
        q = hermitian_to_upper_half_space(
            lorentz_to_hermitian(ball_to_lorentz(lorentz_to_ball(
                hermitian_to_lorentz(H)))))
        worst = max(worst, abs(q.coords[0] - z), abs(q.coords[1] - t))
    # monodromy equivariance per tile
    case = resolve_case("dihedral:3")
    inv = case.inverse
    tiles = tile_parameter_domain(case)
    zs = 0.55 * np.exp(1j * (0.15 + 0.1 * np.arange(8)))
    Ha = fr.eval_front_closed_form(inv, zs).H
    worst_tile = 0.0
    for g, word in tiles.elements:
        if word == "":
            continue
        Hb = fr.eval_front_closed_form(inv, g(zs)).H
        _, resid = fr.match_isometry(Hb, Ha)
        worst_tile = max(worst_tile, resid)
    measured = max(worst / 1e-10, worst_tile / 1e-6)
    return CheckResult(13, "chart round trips + monodromy equivariance",
                       measured, 1.0, measured < 1.0,
                       detail=f"charts={worst:.3g} tiles={worst_tile:.3g}")


def check_export_roundtrip() -> CheckResult:
    cfg = ms.JobConfig(case="dihedral:3", tiles=2, resolution=8,
                       with_singular=False)
    mesh = ms.build_mesh(cfg)
    ok = True
    detail = []
    with tempfile.TemporaryDirectory() as td:
        for fmt in ("obj", "ply"):
            p1 = os.path.join(td, f"a.{fmt}")
            p2 = os.path.join(td, f"b.{fmt}")
            ms.export_mesh(mesh, p1, fmt)
            ms.export_mesh(ms.build_mesh(cfg), p2, fmt)
            t1, t2 = open(p1).read(), open(p2).read()
            stable = t1 == t2
            verts = _parse_vertices(t1, fmt)
            lossless = (len(verts) >= len(mesh.vertices) and np.allclose(
                verts[:len(mesh.vertices)], mesh.vertices,
                rtol=0, atol=1e-9 * (1 + np.abs(mesh.vertices).max())))
            reprint = all(
                ms._fmt(a) == ms._fmt(b)
                for row, orig in zip(verts[:len(mesh.vertices)],
                                     mesh.vertices)
                for a, b in zip(row, orig))
            ok = ok and stable and lossless and reprint
            detail.append(f"{fmt}: stable={stable} lossless={lossless}")
    return CheckResult(14, "export round trip and determinism",
                       0.0 if ok else 1.0, 0.5, ok, detail=" ".join(detail))


def _parse_vertices(text: str, fmt: str) -> np.ndarray:
    rows = []
    if fmt == "obj":
        for line in text.splitlines():
            if line.startswith("v "):
                rows.append([float(tok) for tok in line.split()[1:4]])
    else:
        lines = text.splitlines()
        body = lines[lines.index("end_header") + 1:]
        nv = int(next(ln.split()[-1] for ln in lines
                      if ln.startswith("element vertex")))
        for ln in body[:nv]:
            rows.append([float(tok) for tok in ln.split()[:3]])
    return np.array(rows)


ALL_CHECKS = [check_theta_identity, check_lambda_series,
              check_lambda_derivatives, check_partition_of_unity,
              check_dx_dz, check_representation_formula,
              check_oracle_equivalence, check_fuchsian_swallowtail,
              check_elimination, check_dihedral_curve, check_local_models,
              check_end_behavior, check_geometry_roundtrips,
              check_export_roundtrip]


def run_all(quick: bool = False):
    results = []
    for chk in ALL_CHECKS:
        if quick and chk is check_oracle_equivalence:
            results.append(check_oracle_equivalence(count=40))
            continue
        results.append(chk())
    return results


def report(results) -> str:
    lines = ["# acceptance self-check",
             f"# checks={len(results)} "
             f"failed={sum(not r.passed for r in results)}"]
    lines += [r.line() for r in results]
    return "\n".join(lines) + "\n"
