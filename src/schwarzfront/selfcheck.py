"""Acceptance self-checks: measured quantities against fixed thresholds.

Every check is called as check(run), with the run's _Run, and returns a
CheckResult; run_all() executes the whole battery.  The CLI renders them
as a machine-readable report, and the acceptance test suite asserts them
one by one.

One rule holds for every check: it passes exactly when measured <
threshold.  A point it cannot evaluate is NaN, and a NaN fails the check.
The checks reduce their residuals by maxima and minima that keep a NaN
(_worst, np.max, np.min), and run_all silences numpy's warning for one.
A search that gives up (the ValueError of the swallowtail Newton in
criterion 8, or of the curve tracer or the swallowtail search in
criterion 10), or a condition the residual does not carry (criteria 10
and 12), measures NaN and fails its criterion, with the reason in the
detail; no check raises.
"""

from __future__ import annotations

import cmath
import math
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import front as fr
from . import mesh as ms
from . import singular as sg
from .cases import resolve_case
from .elimination import fuchsian_elimination, swallowtail_t_exact
from .equation import eval_q, eval_q_derivatives
from .h3 import (H3Point, HermitianForm, ball_to_lorentz,
                 hermitian_to_ball, hermitian_to_lorentz,
                 hermitian_to_upper_half_space, lorentz_to_ball,
                 lorentz_to_hermitian, upper_half_space_to_hermitian)
from .modular import eval_lambda, lambda_series_coeffs, theta_values
# unused here; kept because bench/spans.py wraps selfcheck.fuchsian_z_from_x
from .modular import fuchsian_z_from_x  # noqa: F401
from .polyhedral import _expand, horner_table
from .tiling import apply, tile_parameter_domain


@dataclass
class CheckResult:
    number: int
    name: str
    measured: float
    threshold: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.measured < self.threshold     # a NaN fails

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} criterion {self.number:2d} | {self.name} | "
                f"measured={self.measured:.6g} threshold={self.threshold:g}"
                + (f" | {self.detail}" if self.detail else ""))


_POLY_CASES = ([f"dihedral:{n}" for n in range(1, 7)]
               + ["tetra", "octa", "icosa"])
# one case per family, for the checks of the front itself
_FRONT_CASES = ["dihedral:3", "tetra", "octa", "icosa", "fuchsian"]


class _Run(dict):
    """One run of the battery: its quick flag, and each family's Case by
    name, resolved on first use, so a run resolves each family once."""

    def __init__(self, quick: bool = False):
        super().__init__()
        self.quick = quick

    def __missing__(self, name):
        self[name] = case = resolve_case(name)
        return case


def _harmonious(d):
    """The root > 1 of x^(d+1) = x + 1, by the fixed-point iteration
    x <- (1 + x)^(1/(d+1)), which contracts by a factor below 1/4."""
    x = 2.0
    for _ in range(60):
        x = (1.0 + x) ** (1.0 / (d + 1))
    return x


# alpha = (phi^-1, ..., phi^-d) for phi = _harmonious(d): the Kronecker
# sequence frac(1/2 + n alpha) fills the unit d-cube evenly from any n on
_ALPHA = {d: _harmonious(d) ** -np.arange(1.0, d + 1) for d in (2, 3)}
# terms owned by each draw; the battery's largest draw takes 1000
_SITE_TERMS = 1000


def _first_term(site, case=0):
    """First term of draw `case` (0-9) at draw site `site`, a number of
    each check's own.  Each draw owns the _SITE_TERMS terms from here on,
    so no two draws of the battery share a point."""
    return _SITE_TERMS * (10 * site + case)


def _kronecker(start, count, low, high):
    """Terms start, ..., start + count - 1 of the Kronecker sequence
    frac(1/2 + n alpha), scaled to the half-open box [low, high): a
    (count, d) array for a box of d = 2 or 3 sides.  Fixed points, spread
    more evenly than random draws, and no generator to seed or carry."""
    low, high = np.asarray(low, float), np.asarray(high, float)
    n = np.arange(start, start + count)[:, None]
    return low + (high - low) * ((0.5 + n * _ALPHA[low.size]) % 1.0)


def _worst(*residuals) -> float:
    """The largest entry of the residuals (scalars or arrays); NaN if any
    entry is NaN, where Python's max would drop it unless it came first."""
    return float(np.max([np.max(r) for r in residuals]))


def check_theta_identity(run) -> CheckResult:
    u = _kronecker(_first_term(11), 200, [-1.0, 0.5], [1.0, 2.5])
    tv = theta_values(u[:, 0] + 1j * u[:, 1])
    worst = _worst(abs(tv.theta3 ** 4 - tv.theta0 ** 4 - tv.theta2 ** 4)
                   / abs(tv.theta3 ** 4))
    return CheckResult(1, "theta quartic identity", worst, 1e-12)


def check_lambda_series(run) -> CheckResult:
    want = [1, -16, 128, -704, 3072, -11488, 38400]
    got = lambda_series_coeffs(7)
    return CheckResult(2, "lambda q-expansion coefficients",
                       0.0 if got == want else 1.0, 0.5,
                       detail=f"got {', '.join(map(str, got))}")


def check_lambda_derivatives(run) -> CheckResult:
    h = 1e-5
    u = _kronecker(_first_term(5), 50, [-0.8, 0.6], [0.8, 1.8])
    z = u[:, 0] + 1j * u[:, 1]
    # rows z, z + h and z - h, from one call
    x, xd, xdd = (v.reshape(3, -1) for v in eval_lambda(
        np.concatenate([z, z + h, z - h])))
    worst = _worst(abs(xd[0] - (x[1] - x[2]) / (2 * h)) / abs(xd[0]),
                   abs(xdd[0] - (xd[1] - xd[2]) / (2 * h)) / abs(xdd[0]))
    return CheckResult(3, "lambda derivative closed forms vs FD", worst,
                       1e-8)


def _family_polyvals(polys, z):
    """np.polyval(polys[i][j], z[i]) for every family i and polynomial j
    of the (F, N) points z: one (F, P, N) array from one Horner pass over
    the zero-padded horner_table of every family's polynomials."""
    table = horner_table([p for ps in polys for p in ps])
    # complex coefficients and z repeated for every polynomial, so each
    # step multiplies and adds arrays of one type and shape, the fastest of
    # numpy's loops; np.polyval adds a real coefficient as c + 0j too
    table = table.reshape(len(table), len(polys), -1, 1).astype(complex)
    return np.polyval(table, np.repeat(z[:, None, :], table.shape[2], 1))


def check_partition_of_unity(run) -> CheckResult:
    ds = [run[name].inverse.data for name in _POLY_CASES]
    u = [_kronecker(_first_term(7, i), 100, [-1.5, -1.5], [1.5, 1.5])
         for i in range(len(ds))]
    z = np.stack([v[:, 0] + 1j * v[:, 1] for v in u])
    worst = 0.0
    for d, (f0, f1, fi) in zip(ds, _family_polyvals(
            [(d.f0, d.f1, d.fInf) for d in ds], z)):
        t0 = d.A0 * f0 ** d.k0
        t1 = d.A1 * f1 ** d.k1
        ti = fi ** d.kInf
        scale = np.abs([t0, t1, ti]).max(axis=0).clip(min=1e-30)
        worst = _worst(worst, abs(t0 + t1 - ti) / scale)
    return CheckResult(4, "polyhedral partition of unity", worst, 1e-10)


def _dx_dz_reference(d):
    """x = A0 f0^k0 / fInf^kInf as its numerator and denominator and
    their derivatives, coefficient arrays highest degree first; the powers
    are the np.convolve products np.poly1d would form."""
    num = d.A0 * _expand([d.f0] * d.k0)
    den = _expand([d.fInf] * d.kInf)
    return num, den, np.polyder(num), np.polyder(den)


def check_dx_dz(run) -> CheckResult:
    invs = [run[name].inverse for name in _POLY_CASES]
    u = [_kronecker(_first_term(13, i), 40, [0.15, 0.05], [1.2, 3.0])
         for i in range(len(invs))]
    z = np.stack([v[:, 0] * np.exp(1j * v[:, 1]) for v in u])
    worst = 0.0
    for inv, zi, (num, den, dnum, dden) in zip(invs, z, _family_polyvals(
            [_dx_dz_reference(inv.data) for inv in invs], z)):
        _, xd, _ = inv.eval(zi)         # NaN within POLE_MARGIN of a pole
        exact = (dnum * den - num * dden) / den ** 2
        worst = _worst(worst, abs(xd - exact) / abs(exact))
    return CheckResult(5, "closed-form dx/dz vs polynomial derivative",
                       worst, 1e-10)


def _representation_points(case, start, h):
    """U(z), U(z +- h), x'(z) and q(x(z)) at the 100 points z of terms
    start, ..., start + 99 of the Kronecker sequence, from one inverse-map
    and one front_matrix call on z, z + h and z - h, U(z +- h) negated
    where that puts its sqrt(x') nearer the one at z; NaN where one fails."""
    if case.max_tiles is None:          # infinite group: upper half-plane
        u = _kronecker(start, 100, [-0.8, 0.5], [0.8, 1.5])
        z = u[:, 0] + 1j * u[:, 1]
    else:
        u = _kronecker(start, 100, [0.2, 0.05], [0.9, 1.0])
        z = u[:, 0] * np.exp(1j * u[:, 1])
    z = np.stack([z, z + h, z - h])
    x, xd, xdd = case.inverse.eval(z)
    U, s = fr.front_matrix(z, xd, xdd)
    with np.errstate(invalid="ignore"):     # NaN marks clipped points
        U[1:][abs(s[1:] - s[0]) > abs(s[1:] + s[0])] *= -1.0
    return (*U, xd[0], eval_q(case.exponents, x[0]).q)


def check_representation_formula(run) -> CheckResult:
    h = 1e-6
    worst_det, worst_ode = 0.0, 0.0
    for i, name in enumerate(_FRONT_CASES):
        U, Up, Um, xd, q = _representation_points(
            run[name], _first_term(17, i), h)
        det = U[:, 0, 0] * U[:, 1, 1] - U[:, 0, 1] * U[:, 1, 0]
        worst_det = _worst(worst_det, abs(det - 1.0))
        dU = (Up - Um) / (2 * h)
        zero = np.zeros_like(xd)
        rhs = U @ np.stack([np.stack([zero, q * xd], axis=-1),
                            np.stack([xd, zero], axis=-1)], axis=-2)
        norm = np.linalg.norm(rhs, axis=(1, 2))
        worst_ode = _worst(worst_ode, np.linalg.norm(dU - rhs, axis=(1, 2))
                           / np.maximum(1.0, norm))
    worst = _worst(worst_det / 1e-10, worst_ode / 1e-7)
    return CheckResult(6, "representation formula det/ODE residual",
                       worst, 1.0,
                       detail=f"det={worst_det:.3g} ode={worst_ode:.3g}")


def _oracle_points(count, c):
    """The basepoint, then count - 1 x targets uniform in area in the disk
    of radius 0.3 around it, away from 0 and 1, from draw c (0-9) of its
    site.  The whole disk lies within one series step of the basepoint."""
    center, radius = 0.5 + 0.45j, 0.3
    r2, th = _kronecker(_first_term(37, c), count - 1, [0.0, 0.0],
                        [radius ** 2, 2.0 * math.pi]).T
    return np.concatenate([[center], center + np.sqrt(r2) * np.exp(1j * th)])


def _oracle_grid(case, count, c):
    """(Ha, Hb, P): the closed-form and the ODE-transported H over the
    grid of draw c, each one array HermitianForm, and the closed-form U at
    the basepoint, where the transport starts at U = 1; so
    Ha = P Hb conj(P)^t.  Ha and P come from one inverse-map call."""
    xs = _oracle_points(count, c)
    # one preimage and one inverse-map call for the grid; a point without
    # a preimage, or where the front fails, is NaN
    zs = case.z_from_x(xs)
    _, xd, xdd = case.inverse.eval(zs)
    Ha = fr.front_hermitian(zs, xd, xdd)
    # one solve for every segment x0 -> x; the basepoint's own segment
    # has length 0, so its U stays the identity
    U = fr.integrate_sl_form(case.exponents, [xs[0], xs])
    P, _ = fr.front_matrix(zs[:1], xd[:1], xdd[:1])
    return Ha, fr.hermitian_of_solution(U), P


def check_oracle_equivalence(run) -> CheckResult:
    count = 40 if run.quick else 200
    worst = 0.0
    details = []
    for i, name in enumerate(_FRONT_CASES):
        case = run[name]
        if case.z_from_x is None:       # no x -> z preimage to compare
            continue
        resid = fr.match_isometry(*_oracle_grid(case, count, i))
        details.append(f"{name}={resid:.3g}")
        worst = _worst(worst, resid)
    return CheckResult(7, "closed form vs ODE oracle", worst, 1e-6,
                       detail=" ".join(details))


def check_fuchsian_swallowtail(run) -> CheckResult:
    name = "Fuchsian swallowtail: two pipelines + identity"
    e = run["fuchsian"].exponents
    t_star = swallowtail_t_exact()
    try:
        x_newton = sg.swallowtail_by_newton(e, 0.5 + 0.35j)
    except ValueError as exc:           # the Newton search gave up
        return CheckResult(8, name, math.nan, 1.0, detail=str(exc))
    gap = abs(x_newton - complex(0.5, t_star))
    anchor = abs(t_star - math.sqrt((-3.0 + math.sqrt(17.0)) / 8.0))
    # the identity on the line x = 1/2 + it
    t = np.linspace(0.05, 0.9, 20)
    x = 0.5 + 1j * t
    # the classifier's own second-order expression
    lhs = sg._singular_terms(x, *eval_q_derivatives(e, x))[4]
    rhs = (t * t / 64.0) * (7 - 4 * t * t) ** 2 \
        * (21 + 440 * t * t - 560 * t ** 4 + 256 * t ** 6)
    worst_id = _worst(abs(lhs - rhs) / abs(rhs))
    measured = _worst(gap / 1e-9, anchor / 1e-12, worst_id / 1e-10)
    return CheckResult(8, name, measured, 1.0,
                       detail=f"gap={gap:.3g} id={worst_id:.3g}")


def check_elimination(run) -> CheckResult:
    d = fuchsian_elimination()
    # 256 S^3 - 43 S^2 + 1024 S V - 353/2 S + 340 V - 1283/16,
    # as {(i, j): coefficient of S^i V^j}
    printed = {(3, 0): 256, (2, 0): -43, (1, 1): 1024,
               (1, 0): Fraction(-353, 2), (0, 1): 340,
               (0, 0): Fraction(-1283, 16)}
    exact = d.G1 == printed
    v2 = max(j for _, j in d.G1) <= 1
    return CheckResult(9, "elimination G1 printed coefficients",
                       0.0 if exact and v2 else 1.0, 0.5,
                       detail=f"exact={exact} linear_in_V={v2}")


def check_dihedral_curve(run) -> CheckResult:
    name = "dihedral(3) singular curve"
    e = run["dihedral:3"].exponents
    try:
        curve = sg.trace_singular_curve(e)
        sws = sg.find_swallowtails(e, curve)
    except ValueError as exc:           # the tracer or the search gave up
        return CheckResult(10, name, math.nan, 1e-8, detail=str(exc))
    # first-order distance of each mirrored sample from the curve
    x = 1.0 - curve.samples.conjugate()
    f, df = sg._singular_terms(x, *eval_q_derivatives(e, x))[:2]
    asym = float(np.max(np.abs(f) / np.abs(df)))
    upper = [p for p in sws if p.x.imag > 0]
    ok = (curve.closed and len(upper) == 1
          and abs(upper[0].x.real - 0.5) < 1e-9)
    detail = (f"closed={curve.closed} asym={asym:.3g} "
              f"upper_swallowtails={len(upper)}")
    if not ok:
        detail += "".join(f" upper_re_x={p.x.real}" for p in upper)
    return CheckResult(10, name, asym if ok else math.nan, 1e-8,
                       detail=detail)


def check_local_models(run) -> CheckResult:
    s, t = _kronecker(_first_term(23, 0), 1000, [-1.5, -1.5], [1.5, 1.5]).T
    x, y = sg.local_model_cusp(s, t)
    cusp = 27 * y * y + 4 * x ** 3 - (s + 2 * t * t) ** 2 * (4 * s - t * t)
    u, v = _kronecker(_first_term(23, 1), 1000, [-1.5, -1.5], [1.5, 1.5]).T
    lhs = sg.swallowtail_canonical(u, v)
    st = sg.swallowtail_chart_source(u, v)
    rhs = sg.swallowtail_chart_target(*sg.local_model_swallowtail(*st))
    worst = _worst(np.abs([cusp, *np.subtract(lhs, rhs)]))
    return CheckResult(11, "local model identities", worst, 1e-12)


def check_end_behavior(run) -> CheckResult:
    inv = run["dihedral:3"].inverse
    rays = [
        [0.02 * cmath.exp(0.3j) * (0.82 ** k) for k in range(60)],
        [1.0 + 0.05 * cmath.exp(2.0j) * (0.82 ** k) for k in range(60)],
        [cmath.exp(1j * math.pi / 3) * (1 + 0.05 * (0.82 ** k)
                                        * cmath.exp(-1.2j))
         for k in range(60)],
        [0.03 * cmath.exp(0.9j) * (0.82 ** k) for k in range(60)],
        [1.0 + 0.04 * cmath.exp(-2.5j) * (0.82 ** k) for k in range(60)],
    ]
    # the five rays in one call, a row each
    H = fr.eval_front_closed_form(inv, np.ravel(rays)).H
    ball = np.linalg.norm(np.stack(hermitian_to_ball(H).coords), axis=0)
    worst_norm = 1.0
    all_monotone = True
    for norms in ball.reshape(len(rays), -1):
        # march toward the end until the target norm is cleared, or the
        # form passes float64 reach (h + k >= 2 h3.RESOLUTION/eps, NaN); a
        # march clipped at its first point keeps that NaN, and fails
        stop = np.flatnonzero(~(norms <= 1.0 - 2e-4))
        n = (stop[0] + (norms[stop[0]] > 1.0 - 2e-4) if stop.size
             else len(norms))
        norms = norms[:max(n, 1)]
        # the ball norms increase on the last half of the march
        tail = norms[-max(2, int(0.5 * n)):]
        all_monotone = all_monotone and bool(np.all(np.diff(tail) > 0))
        worst_norm = float(np.min([worst_norm, norms[-1]]))
    measured = 1.0 - worst_norm if all_monotone else math.nan
    return CheckResult(12, "end behavior along rays", measured, 1e-3,
                       detail=f"monotone={all_monotone}")


def _tile_grids(case, zs):
    """(Hg, H, P) over every tile g but the identity and every z of zs:
    H(g z), H(z) and P = g, so Hg = P H conj(P)^t as U(g z) = +-g U(z)
    (see front).  Hg and H come from one inverse-map call on every g z
    and z."""
    gs = tile_parameter_domain(case).elements[1:]
    gz = apply(gs, zs)
    z = np.concatenate([gz.ravel(), np.tile(zs, len(gs))])
    _, xd, xdd = case.inverse.eval(z)
    both = fr.front_hermitian(z, xd, xdd)
    Hg, H = (HermitianForm(both.h[part], both.k[part], both.w[part])
             for part in (slice(gz.size), slice(gz.size, None)))
    return Hg, H, np.repeat(gs, len(zs), axis=0)


def check_geometry_roundtrips(run) -> CheckResult:
    r = _kronecker(_first_term(31), 100, [-3.0, -3.0, -3.0], [3.0, 3.0, 3.0])
    z, t = r[:, 0] + 1j * r[:, 1], abs(r[:, 2]) + 0.1
    H = upper_half_space_to_hermitian(H3Point.upper_half_space(z, t))
    q = hermitian_to_upper_half_space(
        lorentz_to_hermitian(ball_to_lorentz(lorentz_to_ball(
            hermitian_to_lorentz(H)))))
    worst = _worst(abs(q.coords[0] - z), abs(q.coords[1] - t))
    # monodromy equivariance over the tiles
    zs = 0.55 * np.exp(1j * (0.15 + 0.1 * np.arange(8)))
    worst_tile = fr.match_isometry(
        *_tile_grids(run["dihedral:3"], zs))
    measured = _worst(worst / 1e-10, worst_tile / 1e-6)
    return CheckResult(13, "chart round trips + monodromy equivariance",
                       measured, 1.0,
                       detail=f"charts={worst:.3g} tiles={worst_tile:.3g}")


def check_export_roundtrip(run) -> CheckResult:
    cfg = ms.JobConfig(case="dihedral:3", tiles=2, resolution=8,
                       with_singular=False)
    # one rebuild checks the determinism of both formats
    mesh, again = ms.build_mesh(cfg), ms.build_mesh(cfg)
    ok = True
    detail = []
    rows = ms._vertex_rows(mesh.vertices)
    with tempfile.TemporaryDirectory() as td:
        for fmt in ("obj", "ply"):
            p1, p2 = Path(td, f"a.{fmt}"), Path(td, f"b.{fmt}")
            ms.export_mesh(mesh, p1, fmt)
            ms.export_mesh(again, p2, fmt)
            t1, t2 = p1.read_text(), p2.read_text()
            stable = t1 == t2
            verts = _parse_vertices(t1, fmt)
            lossless = (len(verts) >= len(mesh.vertices) and np.allclose(
                verts[:len(mesh.vertices)], mesh.vertices,
                rtol=0, atol=1e-9 * (1 + np.abs(mesh.vertices).max())))
            # reprinted by the exporter's own row formatter
            reprint = ms._vertex_rows(verts[:len(mesh.vertices)]) == rows
            ok = ok and stable and lossless and reprint
            detail.append(f"{fmt}: stable={stable} lossless={lossless}")
    return CheckResult(14, "export round trip and determinism",
                       0.0 if ok else 1.0, 0.5, detail=" ".join(detail))


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
    run = _Run(quick)
    # a NaN is a failed point, reported by its check, not a warning
    with np.errstate(invalid="ignore"):
        return [chk(run) for chk in ALL_CHECKS]


def report(results) -> str:
    lines = ["# acceptance self-check",
             f"# checks={len(results)} "
             f"failed={sum(not r.passed for r in results)}"]
    lines += [r.line() for r in results]
    return "\n".join(lines) + "\n"
