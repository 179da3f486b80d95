"""Surface meshing of the front over tiled parameter domains, plus export.

The front is evaluated on structured grids over copies of the base
triangle, converted to the requested chart of H^3, and written as ASCII
OBJ or PLY.  The inverse map x and q(x) are evaluated once, on the base
triangle's grid: x is automorphic, x(g z) = x(z), so the surface
vertices reach each tile g through the chain rule
(front.eval_front_on_tiles), and the near-singular flag, which reads x
alone, is the base grid's.  Criterion 13 of selfcheck checks that
identity by evaluating x directly at g z.

For the families with a known x -> z preimage, the cuspidal edge is
attached as a polyline record and the swallowtails as point records, so
viewers can overlay them without slivering the triangulation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# called through their modules, where bench/spans.py wraps them
from . import equation as eq
from . import singular as sg
from .cases import Case, resolve_case
from .front import eval_front_closed_form, eval_front_on_tiles
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
        # wider margins sample outside the base triangle: a polyhedral
        # grid closes on the triangle's centroid at 1/3, and the Fuchsian
        # grid's real range [m, 1 - m] closes at 1/2
        for name, top in (("ramification_margin", 1.0 / 3.0),
                          ("boundary_margin", 0.5)):
            if not 0.0 <= getattr(self, name) < top:
                raise ValueError(f"{name} must be >= 0 and below {top:.4g}")
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
    complete: bool = True             # False when the tile count cut
                                      # the group short
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

    # x is evaluated once, on the base triangle's grid; every tile's
    # vertices follow from it by the chain rule, with the front and the
    # chart in one call for the whole job and one triangulation offset
    # per tile
    z0, tris = sample_triangle(case, cfg.resolution,
                               cfg.ramification_margin, cfg.boundary_margin)
    fv = eval_front_on_tiles(case.inverse, z0, [g.matrix for g, _ in chosen])
    tris = tris + len(z0) * np.arange(len(chosen))[:, None, None]
    zs, tris = fv.z.ravel(), tris.reshape(-1, 3)
    # a point that fails in any layer is NaN
    p = _chart_coords(fv.H, cfg.chart).reshape(-1, 3)
    # the flag reads x alone: each row of fv.x is x on the base grid
    q = eq.eval_q(case.exponents, fv.x[0]).q
    near = np.tile(np.abs(np.abs(q) - 1.0) < NEAR_SINGULAR_TOL, len(chosen))
    ok = np.isfinite(p).all(axis=1)
    mesh = SurfaceMesh(vertices=np.where(ok[:, None], p, 0.0),
                       source_z=zs,
                       source_x=np.where(ok, fv.x.ravel(), np.nan),
                       triangles=tris[ok[tris].all(axis=1)],
                       flags=np.where(ok, near * FLAG_NEAR_SINGULAR,
                                      FLAG_CLIPPED),
                       chart=cfg.chart, complete=tiles.complete)

    if cfg.with_singular and case.z_from_x is not None:
        _attach_singular_overlay(mesh, cfg.chart, case)
    return mesh


def _attach_singular_overlay(mesh: SurfaceMesh, chart: str, case):
    """The cuspidal edge as a polyline and the swallowtails as markers.
    Their preimages and front values are one array call for both; points
    with no preimage or a clipped front are left out."""
    e = case.exponents
    curve = sg.trace_singular_curve(e)
    edge = curve.samples[::5]
    tails = [spc.x for spc in sg.find_swallowtails(e, curve)]
    zs = case.z_from_x(np.concatenate([edge, tails]))
    p = _chart_coords(eval_front_closed_form(case.inverse, zs).H, chart)
    ok, n = np.isfinite(p).all(axis=1), len(edge)
    if ok[:n].any():
        mesh.polylines.append(("cuspidal-edge", p[:n][ok[:n]]))
    mesh.markers += [("swallowtail", q) for q in p[n:][ok[n:]]]


# --- export -----------------------------------------------------------------

def export_mesh(mesh: SurfaceMesh, path: str, fmt: str = "obj") -> str:
    if fmt == "obj":
        text = _to_obj(mesh)
    elif fmt == "ply":
        text = _to_ply(mesh)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def _rows(row_fmt: str, rows) -> str:
    """row_fmt once per row of the 2-D array rows, each line ending in a
    newline, all formatted in one % pass."""
    return (row_fmt + "\n") * len(rows) % tuple(np.ravel(rows).tolist())


def _vertex_rows(pts, head: str = "", flags=None) -> str:
    """'x y z' lines, 12 significant digits a coordinate, for the rows of
    pts ((K, 3), or one 3-vector), after head and, if flags is given,
    followed by each row's flag.  Adding 0.0 turns -0.0 into 0.0, which
    prints as 0."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3) + 0.0
    if flags is None:
        return _rows(head + "%.12g %.12g %.12g", pts)
    return _rows(head + "%.12g %.12g %.12g %d", np.column_stack([pts, flags]))


def _to_obj(mesh: SurfaceMesh) -> str:
    nv = len(mesh.vertices)
    parts = [f"# front surface, chart={mesh.chart}\n"
             f"# vertices={nv} faces={len(mesh.triangles)}\n",
             _vertex_rows(mesh.vertices, "v "),
             _rows("f %d %d %d", mesh.triangles + 1)]
    for name, pts in mesh.polylines:
        ids = range(nv + 1, nv + len(pts) + 1)
        parts += [f"# polyline {name}\n", _vertex_rows(pts, "v "),
                  "l " + " ".join(map(str, ids)) + "\n"]
        nv += len(pts)
    for name, p in mesh.markers:
        nv += 1
        parts += [f"# marker {name}\n", _vertex_rows(p, "v "), f"p {nv}\n"]
    return "".join(parts)


def _to_ply(mesh: SurfaceMesh) -> str:
    # vertex rows: the surface with its flags, then the polyline points
    # flagged 4 and the markers flagged 8; an edge joins consecutive
    # points of a polyline
    pts = [mesh.vertices] + [p for _, p in mesh.polylines] \
        + [np.reshape([p for _, p in mesh.markers], (-1, 3))]
    flags = [mesh.flags] + [np.full(len(p), 4) for _, p in mesh.polylines] \
        + [np.full(len(mesh.markers), 8)]
    ends = np.cumsum([len(p) for p in pts])
    edges = np.concatenate([np.zeros((0, 2), dtype=int)] + [
        off + np.stack([np.arange(len(p) - 1), np.arange(1, len(p))], axis=1)
        for off, (_, p) in zip(ends, mesh.polylines)])
    header = ["ply", "format ascii 1.0",
              f"comment front surface, chart={mesh.chart}",
              f"element vertex {ends[-1]}",
              "property float64 x", "property float64 y",
              "property float64 z", "property int flags",
              f"element face {len(mesh.triangles)}",
              "property list uchar int vertex_indices",
              f"element edge {len(edges)}",
              "property int vertex1", "property int vertex2",
              "end_header", ""]
    return "".join(["\n".join(header),
                    _vertex_rows(np.concatenate(pts), "",
                                 np.concatenate(flags)),
                    _rows("3 %d %d %d", mesh.triangles),
                    _rows("%d %d", edges)])
