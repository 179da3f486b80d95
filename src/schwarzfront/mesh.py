"""Surface meshing of the front over tiled parameter domains, plus export.

The front is evaluated on structured grids over copies of the base
triangle, converted to the requested chart of H^3, and written as ASCII
OBJ or PLY.  For the families with a known x -> z preimage, the
cuspidal edge is attached as a polyline record and the swallowtails as
point records, so viewers can overlay them without slivering the
triangulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# called through their modules, where bench/spans.py wraps them
from . import equation as eq
from . import singular as sg
from .cases import Case, resolve_case
from .front import eval_front_closed_form
from .h3 import hermitian_to_ball, hermitian_to_upper_half_space
# unused here; kept because bench/spans.py wraps mesh.fuchsian_z_from_x
from .modular import fuchsian_z_from_x  # noqa: F401
from .tiling import tile_parameter_domain

FLAG_NEAR_SINGULAR = 1
FLAG_CLIPPED = 2

# cap on Im z when sampling the cusp of the ideal triangle at infinity
FUCHSIAN_HEIGHT = 2.0
# a vertex with ||q| - 1| below this is flagged near the singular locus
NEAR_SINGULAR_TOL = 1e-2


@dataclass
class JobConfig:
    case: str = "dihedral"            # see cases.resolve_case
    n: int = 3
    tiles: int | None = None          # tile count; None = the whole group
    words: list | None = None         # explicit word list overrides tiles
    resolution: int = 16
    chart: str = "ball"               # "ball" | "uhs"
    fmt: str = "obj"                  # "obj" | "ply"
    out: str = "front.obj"
    ramification_margin: float = 1e-3
    boundary_margin: float = 1e-3
    with_singular: bool = True
    resolved: Case = field(init=False, repr=False)   # resolve_case(case, n)

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.chart not in ("ball", "uhs"):
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.fmt not in ("obj", "ply"):
            raise ValueError(f"unknown format {self.fmt!r}")
        for name in ("ramification_margin", "boundary_margin"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0")
        if self.words is not None and not self.words:
            raise ValueError("words must name at least one tile")
        self.resolved = resolve_case(self.case, self.n)
        cap = self.resolved.max_tiles
        if self.tiles is not None and self.tiles < 1:
            raise ValueError(f"tiles must be >= 1, got {self.tiles}")
        if self.tiles is not None and cap is not None and self.tiles > cap:
            raise ValueError(f"case {self.case} has at most {cap} tiles")
        if cap is None and self.tiles is None:
            raise ValueError(f"case {self.case} has infinitely many tiles; "
                             f"set a tile count (--tiles N)")


@dataclass
class SurfaceMesh:
    vertices: np.ndarray              # (N, 3) chart coordinates
    source_z: np.ndarray              # (N,) complex
    source_x: np.ndarray              # (N,) complex
    triangles: np.ndarray             # (M, 3) vertex indices
    flags: np.ndarray                 # (N,) int bit mask
    chart: str = "ball"
    polylines: list = field(default_factory=list)   # (name, (K, 3) array)
    markers: list = field(default_factory=list)     # (name, 3-vector)


def _grid_triangles(rows) -> np.ndarray:
    """Index triples for a structured grid given its rows: two triangles
    (a, a+1, d) and (a+1, d+1, d) per cell, cell by cell."""
    start = np.cumsum([0] + [len(row) for row in rows])
    tris = [np.zeros((0, 6), dtype=int)]
    for r in range(len(rows) - 1):
        a = start[r] + np.arange(min(len(rows[r]), len(rows[r + 1])) - 1)
        d = a - start[r] + start[r + 1]
        tris.append(np.stack([a, a + 1, d, a + 1, d + 1, d], axis=1))
    return np.concatenate(tris).reshape(-1, 3)


def sample_triangle(case, resolution: int,
                    ramification_margin: float = 1e-3,
                    boundary_margin: float = 1e-3):
    """z grid plus triangulation of the base triangle of a cases.Case.

    Returns (z array, triangle index array); a tile's grid is the image
    of this one under the tile's Moebius map.
    """
    R = int(resolution)
    tri = case.base
    if tri is None:
        # ideal triangle {0 < Re z < 1, |z - 1/2| > 1/2} clipped at cusps
        m = boundary_margin
        grid = (np.linspace(m, 1.0 - m, R)
                + 1j * np.geomspace(m, FUCHSIAN_HEIGHT, R)[:, None])
        rows = [row[np.abs(row - 0.5) > 0.5 + m] for row in grid]
        rows = [row for row in rows if len(row) >= 2]
    elif case.n is not None:
        # dihedral: fan bounded by the rays of argument 0 and pi/n and
        # the unit circle
        n = case.n
        rows = (np.linspace(ramification_margin, 1.0, R)[:, None]
                * np.exp(1j * np.linspace(0.0, math.pi / n, R)))
        # the arc's ends z = 1 and z = exp(i pi/n) are ramification points
        # (dx/dz = 0 at the roots of z^2n = 1): move both in by the margin
        rows[-1, [0, -1]] *= 1.0 - ramification_margin
    else:
        eps = max(ramification_margin, 1.0 / (4.0 * R))
        a = eps + (1.0 - 3.0 * eps) * np.arange(R)[:, None] / (R - 1)
        b = eps + (1.0 - 3.0 * eps) * np.arange(R) / (R - 1) \
            * (1.0 - a - eps) / max(1.0 - 2.0 * eps, 1e-12)
        rows = tri.v_inf * (1.0 - a - b) + tri.v_zero * a + tri.v_one * b
    if not len(rows):
        raise ValueError("tile sampling is empty after clipping; "
                         "reduce the margins or raise the resolution")
    return np.concatenate(list(rows)), _grid_triangles(rows)


def _chart_coords(H, chart: str) -> np.ndarray:
    """(N, 3) chart coordinates of an array HermitianForm, NaN if clipped."""
    if chart == "ball":
        return np.stack(hermitian_to_ball(H).coords, axis=-1)
    z, t = hermitian_to_upper_half_space(H).coords
    return np.stack([z.real, z.imag, t], axis=-1)


def build_mesh(cfg: JobConfig) -> SurfaceMesh:
    case = cfg.resolved
    tiles = tile_parameter_domain(case, max_count=cfg.tiles)
    chosen = tiles.elements
    if cfg.words is not None:
        by_word = {w: g for g, w in tiles.elements}
        missing = [w for w in cfg.words if w not in by_word]
        if missing:
            raise ValueError(f"unknown tile words: {missing}; "
                             f"available: {sorted(by_word)}")
        chosen = [(by_word[w], w) for w in cfg.words]

    # every tile of the job in one call per layer: the base triangle's
    # grid under each tile's matrix, one triangulation offset per tile
    z0, tris = sample_triangle(case, cfg.resolution,
                               cfg.ramification_margin, cfg.boundary_margin)
    (a, b), (c, d) = np.moveaxis([g.matrix for g, _ in chosen], 0, -1)
    zs = (a[:, None] * z0 + b[:, None]) / (c[:, None] * z0 + d[:, None])
    tris = tris + len(z0) * np.arange(len(chosen))[:, None, None]
    zs, tris = zs.ravel(), tris.reshape(-1, 3)
    # a point that fails in any layer is NaN
    fv = eval_front_closed_form(case.inverse, zs)
    p = _chart_coords(fv.H, cfg.chart)
    q = eq.eval_q(case.exponents, fv.x).q
    ok = np.isfinite(p).all(axis=1)
    near = np.abs(np.abs(q) - 1.0) < NEAR_SINGULAR_TOL
    mesh = SurfaceMesh(vertices=np.where(ok[:, None], p, 0.0),
                       source_z=zs,
                       source_x=np.where(ok, fv.x, np.nan),
                       triangles=tris[ok[tris].all(axis=1)],
                       flags=np.where(ok, near * FLAG_NEAR_SINGULAR,
                                      FLAG_CLIPPED),
                       chart=cfg.chart)

    if cfg.with_singular and case.z_from_x is not None:
        _attach_singular_overlay(mesh, cfg.chart, case)
    return mesh


def _front_points(case, xs, chart: str) -> np.ndarray:
    """Chart points of the front over xs, leaving out the points with no
    preimage or a clipped front."""
    zs = case.z_from_x(np.asarray(xs, dtype=complex))
    p = _chart_coords(eval_front_closed_form(case.inverse, zs).H, chart)
    return p[np.isfinite(p).all(axis=1)]


def _attach_singular_overlay(mesh: SurfaceMesh, chart: str, case):
    e = case.exponents
    curve = sg.trace_singular_curve(e)
    if not len(curve.samples):
        return
    pts = _front_points(case, curve.samples[::5], chart)
    if len(pts):
        mesh.polylines.append(("cuspidal-edge", pts))
    tails = [spc.x for spc in sg.find_swallowtails(e, curve)]
    mesh.markers += [("swallowtail", p)
                     for p in _front_points(case, tails, chart)]


# --- export -----------------------------------------------------------------

def _fmt(v: float) -> str:
    """Deterministic 12-significant-digit float formatting."""
    s = f"{float(v):.12g}"
    return "0" if s == "-0" else s


def export_mesh(mesh: SurfaceMesh, path: str, fmt: str = "obj") -> str:
    if fmt == "obj":
        text = _to_obj(mesh)
    elif fmt == "ply":
        text = _to_ply(mesh)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise OSError(f"cannot write mesh to {path}: {exc}") from exc
    return path


def _rows(pts) -> list:
    """'x y z' text of each row of a (K, 3) array, every coordinate as
    _fmt writes it (adding 0.0 turns -0.0 into 0.0)."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3) + 0.0
    return ["%.12g %.12g %.12g" % tuple(row) for row in pts.tolist()]


def _to_obj(mesh: SurfaceMesh) -> str:
    lines = [f"# front surface, chart={mesh.chart}",
             f"# vertices={len(mesh.vertices)} faces={len(mesh.triangles)}"]
    lines += ["v " + r for r in _rows(mesh.vertices)]
    lines += ["f %d %d %d" % tuple(f) for f in (mesh.triangles + 1).tolist()]
    nv = len(mesh.vertices)
    for name, pts in mesh.polylines:
        lines.append(f"# polyline {name}")
        lines += ["v " + r for r in _rows(pts)]
        lines.append("l " + " ".join(str(nv + i + 1)
                                     for i in range(len(pts))))
        nv += len(pts)
    for name, p in mesh.markers:
        nv += 1
        lines += [f"# marker {name}", "v " + _rows(p)[0], f"p {nv}"]
    return "\n".join(lines) + "\n"


def _to_ply(mesh: SurfaceMesh) -> str:
    poly_edges = []
    off = len(mesh.vertices)
    for _, pts in mesh.polylines:
        for i in range(len(pts) - 1):
            poly_edges.append((off + i, off + i + 1))
        off += len(pts)
    poly_rows = [r for _, pts in mesh.polylines for r in _rows(pts)]
    nv = len(mesh.vertices) + len(poly_rows) + len(mesh.markers)
    lines = ["ply", "format ascii 1.0",
             f"comment front surface, chart={mesh.chart}",
             f"element vertex {nv}",
             "property float64 x", "property float64 y",
             "property float64 z", "property int flags",
             f"element face {len(mesh.triangles)}",
             "property list uchar int vertex_indices",
             f"element edge {len(poly_edges)}",
             "property int vertex1", "property int vertex2",
             "end_header"]
    lines += [f"{r} {fl}"
              for r, fl in zip(_rows(mesh.vertices), mesh.flags.tolist())]
    lines += [r + " 4" for r in poly_rows]
    lines += [_rows(p)[0] + " 8" for _, p in mesh.markers]
    lines += ["3 %d %d %d" % tuple(f) for f in mesh.triangles.tolist()]
    lines += [f"{a} {b}" for a, b in poly_edges]
    return "\n".join(lines) + "\n"
