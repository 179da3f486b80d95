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

The ASCII rows are formatted on whole columns (_rows), byte for byte the
text of Python's %-formatting.
"""

from __future__ import annotations

import math
import re
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
        check_tile_count(self.case, self.resolved, self.tiles)
        cap = self.resolved.max_tiles
        if self.tiles is not None and cap is not None and self.tiles > cap:
            raise ValueError(f"case {self.case} has at most {cap} tiles")


def check_tile_count(text: str, case: Case, tiles):
    """ValueError for a count below 1, or none for an infinite group."""
    if tiles is not None and tiles < 1:
        raise ValueError(f"tiles must be >= 1, got {tiles}")
    if tiles is None and case.max_tiles is None:
        raise ValueError(f"case {text} has infinitely many tiles; "
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


# The rows are formatted a column at a time.  Each value becomes a few
# fixed-width blocks of ASCII bytes padded with NUL bytes; the row's
# literal text goes between them, and deleting every NUL leaves the text
# of (row_fmt + "\n") % row.  Words of 4 bytes carry the digits.

# _P10[i] is 10^(i - 300) rounded once
_P10 = np.array([float(f"1e{k}") for k in range(-300, 310)])
_I10 = 10 ** np.arange(19, dtype=np.int64)


def _quad_tables():
    """'0000', '0001', ... '9999' as words, and each one's trailing
    zeros."""
    digits = np.empty((10000, 4), np.uint8)
    zeros = np.zeros(10000, np.intp)
    for j, p in enumerate([1000, 100, 10, 1]):
        digits[:, j] = 48 + np.arange(10000, dtype=np.int16) // p % 10
        zeros[::10 ** (j + 1)] += 1
    return digits.view(np.uint32).ravel(), zeros


_QUADS, _QUAD_TZ = _quad_tables()


def _masks(rows, width):
    """One mask of width bytes per set of kept byte positions, as words."""
    return np.array([[255 * (i in r) for i in range(width)] for r in rows],
                    np.uint8).view(np.uint32)


# %.12g writes the 12 significant digits d of a value, rounded, with
# trailing zeros dropped; d[last] is the last nonzero one.  For an
# exponent e from -4 to 11 the point follows d[e] (leading zeros for
# e < 0); otherwise it follows d[0], and _G_EXP[e + 300] comes after.
# The text is cut from the 20 bytes '\0\0.-', '0000' and d, in which the
# digit string '0000' + d starts at byte 4: the sign and integer part
# are _G_INT[2 (e + 4) + negative] of them, the point and fraction
# _G_FRAC[13 (e + 4) + last + 1], with e = 0 for the exponent form.
_G_HEAD = np.frombuffer(b"\0\0.-0000", np.uint32)
_G_INT = _masks([({3} if neg else set()) | set(range(8 + min(e, 0), 9 + e))
                 for e in range(-4, 12) for neg in (0, 1)], 20)
_G_FRAC = _masks([set(range(9 + e, 9 + last)) | ({2} if last > e else set())
                  for e in range(-4, 12) for last in range(-1, 12)], 20)
_G_EXP = np.array([("" if -4 <= e < 12 else f"e{e:+03d}").encode()
                   for e in range(-300, 301)], "S8").view(np.uint64)
# %d of an integer below 1e4k is cut from the word '\0\0.-' and k words
# of digits: _D_LEAD[k][2 nd + negative] keeps the '-' and the last nd
_D_LEAD = [None] + [_masks([({3} if neg else set())
                            | set(range(4 * k + 4 - nd, 4 * k + 4))
                            for nd in range(4 * k + 1) for neg in (0, 1)],
                           4 * k + 4) for k in range(1, 6)]


def _g_blocks(x) -> list:
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 1e-290) & (a < 1e290)
    a[~fast] = 1.0
    # s = a 10^(11 - e) holds the digits in [1e11, 1e12), two roundings
    # (at most 2.3e-4) off, so rint rounds as %.12g does unless s is near
    # a half; Python writes those, NaN, infinities and values beyond
    # 1e+-290, and a zero is m = 0.  log10 misses e by one only within
    # ulps of a power of ten, where s rounds to 1e11 or 1e12 either way
    e = np.floor(np.log10(a)).astype(np.intp)
    s = a * _P10[311 - e]
    m = np.rint(s)
    fast &= np.abs(s - np.floor(s) - 0.5) > 3e-4
    up = m == 1e12
    m[up] = 1e11
    e += up
    m, e = np.where(fast, m, 0.0).astype(np.int64), np.where(fast, e, 0)
    hi, lo = np.divmod(m, 10 ** 8)
    mid, lo = np.divmod(lo, 10 ** 4)
    last = 11 - _QUAD_TZ[lo]
    i = np.flatnonzero(lo == 0)
    last[i] = 7 - np.where(mid[i] > 0, _QUAD_TZ[mid[i]], 4 + _QUAD_TZ[hi[i]])
    fixed = (e >= -4) & (e < 12)
    ef = np.where(fixed, e, 0)
    z = np.empty((len(x), 5), np.uint32)
    z[:, :2] = _G_HEAD
    z[:, 2], z[:, 3], z[:, 4] = _QUADS[hi], _QUADS[mid], _QUADS[lo]
    whole = (z & _G_INT.take(2 * (ef + 4) + np.signbit(x), axis=0)) \
        .view(np.uint8)
    frac = (z & _G_FRAC.take(13 * (ef + 4) + last + 1, axis=0)).view(np.uint8)
    # the sign and integer part lie in bytes 3 to 8 + e, the point and
    # fraction in 2 to 19; Python's text fills both blocks in turn
    whole, frac = whole[:, 3:9 + ef.max(initial=0)], frac[:, 2:]
    for i in np.flatnonzero(~fast & ~zero):
        text = np.frombuffer(b"%.12g" % x[i], np.uint8)
        head, rest = text[:whole.shape[1]], text[whole.shape[1]:]
        whole[i], frac[i] = 0, 0
        whole[i, :len(head)], frac[i, :len(rest)] = head, rest
    blocks = [whole, frac]
    if not fixed.all():
        blocks.append(_G_EXP.take(e + 300).view(np.uint8).reshape(-1, 8))
    return blocks


def _d_blocks(v) -> list:
    a = np.abs(v)
    k = 1
    while k < 5 and a.max(initial=0) >= _I10[4 * k]:
        k += 1
    words = np.empty((len(v), k + 1), np.uint32)
    words[:, 0] = _G_HEAD[0]
    r = a
    for i in range(k, 1, -1):
        r, q = np.divmod(r, 10 ** 4)
        words[:, i] = _QUADS[q]
    words[:, 1] = _QUADS[r]
    nd = 1 + np.searchsorted(_I10[1:4 * k], a, side="right")
    words &= _D_LEAD[k].take(2 * nd + (v < 0), axis=0)
    return [words.view(np.uint8)]


def _s_blocks(col) -> list:
    return [col.view(np.uint8).reshape(len(col), -1)]


_SPEC = re.compile(r"%\.12g|%d|%s")
_ROW_CHUNK = 2048
# each conversion's column type and its blocks
_BLOCKS = {"%.12g": (float, _g_blocks), "%d": (np.int64, _d_blocks),
           "%s": (bytes, _s_blocks)}


def _rows(row_fmt: str, *cols) -> str:
    """(row_fmt + "\n") % row for each row, joined; row_fmt's k-th
    conversion (%.12g, %d or %s) takes its values from the column cols[k].
    Rows are built _ROW_CHUNK at a time, so that their arrays stay small,
    and the columns of one conversion are formatted together."""
    lits = [np.frombuffer(t.encode(), np.uint8)[None]
            for t in _SPEC.split(row_fmt + "\n")]
    specs = _SPEC.findall(row_fmt)
    kinds = {spec: [k for k, s in enumerate(specs) if s == spec]
             for spec in set(specs)}
    cols = [np.asarray(c, dtype=_BLOCKS[s][0]) for c, s in zip(cols, specs)]
    text = []
    for start in range(0, len(cols[0]), _ROW_CHUNK):
        part = [c[start:start + _ROW_CHUNK] for c in cols]
        n = len(part[0])
        fields = {}
        for spec, ks in kinds.items():
            blocks = _BLOCKS[spec][1](np.concatenate([part[k] for k in ks]))
            fields.update((k, [b[i * n:(i + 1) * n] for b in blocks])
                          for i, k in enumerate(ks))
        row = lits[:1]
        for k, lit in enumerate(lits[1:]):
            row += fields[k] + [lit]
        out = np.empty((n, sum(b.shape[1] for b in row)), np.uint8)
        at = 0
        for b in row:
            out[:, at:at + b.shape[1]] = b
            at += b.shape[1]
        text.append(out.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(text)


def _vertex_rows(pts, head: str = "", flags=None) -> str:
    """'x y z' lines, 12 significant digits a coordinate, for the rows of
    pts ((K, 3), or one 3-vector), after head and, if flags is given,
    followed by each row's flag.  Adding 0.0 turns -0.0 into 0.0, which
    prints as 0."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3) + 0.0
    if flags is None:
        return _rows(head + "%.12g %.12g %.12g", *pts.T)
    return _rows(head + "%.12g %.12g %.12g %d", *pts.T, flags)


def _to_obj(mesh: SurfaceMesh) -> str:
    nv = len(mesh.vertices)
    parts = [f"# front surface, chart={mesh.chart}\n"
             f"# vertices={nv} faces={len(mesh.triangles)}\n",
             _vertex_rows(mesh.vertices, "v "),
             _rows("f %d %d %d", *(mesh.triangles + 1).T)]
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
                    _rows("3 %d %d %d", *mesh.triangles.T),
                    _rows("%d %d", *edges.T)])
