"""Surface meshing of the front over tiled parameter domains, plus export.

The front is evaluated on structured grids over copies of the base
triangle, converted to the requested chart of H^3, and written as ASCII
OBJ or PLY.  Singular curves and self-intersection points are attached
as polyline records so viewers can overlay them without slivering the
triangulation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# called through their modules, where bench/spans.py wraps them
from . import equation as eq
from . import singular as sg
from .cases import resolve_case
from .equation import TAG_DIHEDRAL, TAG_FUCHSIAN_INF, SingularPointError
from .front import RamificationError, eval_front_closed_form
from .h3 import hermitian_to_ball, hermitian_to_upper_half_space
# unused here; kept because bench/spans.py wraps mesh.fuchsian_z_from_x
from .modular import fuchsian_z_from_x  # noqa: F401
from .polyhedral import PoleError
from .tiling import base_triangle, tile_parameter_domain

FLAG_NEAR_SINGULAR = 1
FLAG_CLIPPED = 2


@dataclass
class JobConfig:
    case: str = TAG_DIHEDRAL          # see cases.resolve_case
    n: int = 3
    tiles: int | None = None          # tile count; None = all enumerable
    words: list | None = None         # explicit word list overrides tiles
    resolution: int = 16
    chart: str = "ball"               # "ball" | "uhs"
    fmt: str = "obj"                  # "obj" | "ply"
    out: str = "front.obj"
    ramification_margin: float = 1e-3
    boundary_margin: float = 1e-3
    fuchsian_height: float = 2.0      # cap on Im z when sampling cusps
    with_singular: bool = True
    near_singular_tol: float = 1e-2
    max_word_length: int = 12

    def __post_init__(self):
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.chart not in ("ball", "uhs"):
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.fmt not in ("obj", "ply"):
            raise ValueError(f"unknown format {self.fmt!r}")
        cap = resolve_case(self.case, self.n).max_tiles
        if self.tiles is not None and cap is not None and self.tiles > cap:
            raise ValueError(f"case {self.case} has at most {cap} tiles")


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


def _grid_triangles(mask_rows):
    """Index triples for a structured grid given per-row column counts."""
    tris = []
    offset = [0]
    for m in mask_rows:
        offset.append(offset[-1] + len(m))
    for r in range(len(mask_rows) - 1):
        cols = min(len(mask_rows[r]), len(mask_rows[r + 1]))
        for c in range(cols - 1):
            a = offset[r] + c
            b = offset[r] + c + 1
            d = offset[r + 1] + c
            e = offset[r + 1] + c + 1
            tris.append((a, b, d))
            tris.append((b, e, d))
    return tris


def sample_triangle(case: str, tile, resolution: int, n: int = 3,
                    ramification_margin: float = 1e-3,
                    boundary_margin: float = 1e-3,
                    fuchsian_height: float = 2.0):
    """z grid plus triangulation for one tile.

    tile is a Mobius element from tile_parameter_domain (identity for the
    base triangle).  Returns (z array, triangle index array).
    """
    R = int(resolution)
    rows = []
    if case == TAG_DIHEDRAL:
        # fan bounded by the rays of argument 0 and pi/n and the unit circle
        radii = np.linspace(ramification_margin, 1.0, R)
        angs = np.linspace(0.0, math.pi / n, R)
        for r in radii:
            rows.append([r * cmath.exp(1j * a) for a in angs])
    elif case == TAG_FUCHSIAN_INF:
        # ideal triangle {0 < Re z < 1, |z - 1/2| > 1/2} clipped at cusps
        m = boundary_margin
        res = np.linspace(m, 1.0 - m, R)
        hts = np.geomspace(m, fuchsian_height, R)
        for t in hts:
            row = []
            for s in res:
                z = complex(s, t)
                if abs(z - 0.5) > 0.5 + m:
                    row.append(z)
            if len(row) >= 2:
                rows.append(row)
    else:
        tri = base_triangle(case, n)
        v0, v1, v2 = tri.v_inf, tri.v_zero, tri.v_one
        eps = max(ramification_margin, 1.0 / (4.0 * R))
        for i in range(R):
            a = eps + (1.0 - 3.0 * eps) * i / (R - 1)
            row = []
            for j in range(R):
                b = eps + (1.0 - 3.0 * eps) * j / (R - 1) * (1.0 - a - eps) \
                    / max(1.0 - 2.0 * eps, 1e-12)
                c = 1.0 - a - b
                row.append(v0 * c + v1 * a + v2 * b)
            rows.append(row)
    tris = _grid_triangles(rows)
    zs = np.array([z for row in rows for z in row])
    if tile is not None:
        zs = np.array([tile(z) for z in zs])
    if len(zs) == 0:
        raise ValueError("tile sampling is empty after clipping; "
                         "reduce the margins or raise the resolution")
    return zs, np.array(tris, dtype=int)


def _chart_point(H, chart: str):
    if chart == "ball":
        return np.asarray(hermitian_to_ball(H).coords, dtype=float)
    p = hermitian_to_upper_half_space(H)
    z, t = p.coords
    return np.array([z.real, z.imag, t])


def build_mesh(cfg: JobConfig) -> SurfaceMesh:
    case = resolve_case(cfg.case, cfg.n)
    tiles = tile_parameter_domain(case.tag, case.n,
                                  max_count=cfg.tiles,
                                  max_word_length=cfg.max_word_length)
    chosen = tiles.elements
    if cfg.words is not None:
        by_word = {w: g for g, w in tiles.elements}
        missing = [w for w in cfg.words if w not in by_word]
        if missing:
            raise ValueError(f"unknown tile words: {missing}; "
                             f"available: {sorted(by_word)}")
        chosen = [(by_word[w], w) for w in cfg.words]

    verts, zsrc, xsrc, flags, faces = [], [], [], [], []
    for g, word in chosen:
        zs, tris = sample_triangle(case.tag, g, cfg.resolution, case.n,
                                   cfg.ramification_margin,
                                   cfg.boundary_margin, cfg.fuchsian_height)
        base = len(verts)
        ok = np.ones(len(zs), dtype=bool)
        for idx, z in enumerate(zs):
            flag = 0
            try:
                fv = eval_front_closed_form(case.inverse, z)
                p = _chart_point(fv.H, cfg.chart)
            except (PoleError, RamificationError, ValueError):
                ok[idx] = False
                p = np.zeros(3)
                fv = None
                flag = FLAG_CLIPPED
            if fv is not None:
                try:
                    if abs(abs(eq.eval_q(case.exponents, fv.x).q) - 1.0) \
                       < cfg.near_singular_tol:
                        flag |= FLAG_NEAR_SINGULAR
                except SingularPointError:
                    pass
            verts.append(p)
            zsrc.append(complex(z))
            xsrc.append(fv.x if fv is not None else complex("nan"))
            flags.append(flag)
        for a, b, c in tris:
            if ok[a] and ok[b] and ok[c]:
                faces.append((base + a, base + b, base + c))

    mesh = SurfaceMesh(vertices=np.array(verts, dtype=float),
                       source_z=np.array(zsrc),
                       source_x=np.array(xsrc),
                       triangles=np.array(faces, dtype=int),
                       flags=np.array(flags, dtype=int),
                       chart=cfg.chart)

    if cfg.with_singular and case.z_from_x is not None:
        _attach_singular_overlay(mesh, cfg.chart, case)
    return mesh


def _attach_singular_overlay(mesh: SurfaceMesh, chart: str, case):
    e = case.exponents
    curve = sg.trace_singular_curve(e)
    if not len(curve.samples):
        return
    pts = []
    for x in curve.samples[::5]:
        try:
            fv = eval_front_closed_form(case.inverse, case.z_from_x(x))
            pts.append(_chart_point(fv.H, chart))
        except (ValueError, PoleError, RamificationError):
            continue
    if pts:
        mesh.polylines.append(("cuspidal-edge", np.array(pts)))
    for spc in sg.find_swallowtails(e, curve):
        try:
            fv = eval_front_closed_form(case.inverse, case.z_from_x(spc.x))
            mesh.markers.append(("swallowtail", _chart_point(fv.H, chart)))
        except (ValueError, PoleError, RamificationError):
            continue


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


def _to_obj(mesh: SurfaceMesh) -> str:
    lines = [f"# front surface, chart={mesh.chart}",
             f"# vertices={len(mesh.vertices)} faces={len(mesh.triangles)}"]
    for v in mesh.vertices:
        lines.append("v " + " ".join(_fmt(c) for c in v))
    for f in mesh.triangles:
        lines.append(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}")
    nv = len(mesh.vertices)
    for name, pts in mesh.polylines:
        lines.append(f"# polyline {name}")
        for p in pts:
            lines.append("v " + " ".join(_fmt(c) for c in p))
        lines.append("l " + " ".join(str(nv + i + 1)
                                     for i in range(len(pts))))
        nv += len(pts)
    for name, p in mesh.markers:
        lines.append(f"# marker {name}")
        lines.append("v " + " ".join(_fmt(c) for c in p))
        nv += 1
        lines.append(f"p {nv}")
    return "\n".join(lines) + "\n"


def _to_ply(mesh: SurfaceMesh) -> str:
    poly_pts = [p for _, pts in mesh.polylines for p in pts]
    poly_edges = []
    off = len(mesh.vertices)
    for _, pts in mesh.polylines:
        for i in range(len(pts) - 1):
            poly_edges.append((off + i, off + i + 1))
        off += len(pts)
    marker_pts = [p for _, p in mesh.markers]
    nv = len(mesh.vertices) + len(poly_pts) + len(marker_pts)
    header = ["ply", "format ascii 1.0",
              f"comment front surface, chart={mesh.chart}",
              f"element vertex {nv}",
              "property float64 x", "property float64 y",
              "property float64 z", "property int flags",
              f"element face {len(mesh.triangles)}",
              "property list uchar int vertex_indices",
              f"element edge {len(poly_edges)}",
              "property int vertex1", "property int vertex2",
              "end_header"]
    lines = list(header)
    for v, fl in zip(mesh.vertices, mesh.flags):
        lines.append(" ".join(_fmt(c) for c in v) + f" {int(fl)}")
    for p in poly_pts:
        lines.append(" ".join(_fmt(c) for c in p) + " 4")
    for p in marker_pts:
        lines.append(" ".join(_fmt(c) for c in p) + " 8")
    for f in mesh.triangles:
        lines.append(f"3 {f[0]} {f[1]} {f[2]}")
    for a, b in poly_edges:
        lines.append(f"{a} {b}")
    return "\n".join(lines) + "\n"
