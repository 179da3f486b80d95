"""Surface meshing of the front over tiled parameter domains, plus export.

The front is evaluated on structured grids over copies of the base
triangle, converted to the requested chart of H^3, and written as ASCII
OBJ or PLY.  The base grid (sample_triangle) is read from the case's
three mirrors: a finite family's is a fan whose sides lie on them, the
ideal triangle's a rectangle between its two line mirrors, cut by its
arc.  The inverse map x and q(x) are evaluated once, on the base
triangle's grid: x is automorphic, x(g z) = x(z), so the surface
vertices reach each tile g through the chain rule
(front.eval_front_on_tiles), and the near-singular flag, which reads x
alone, is the base grid's.  Criterion 13 of selfcheck checks that
identity by evaluating x directly at g z.

For the families with a known x -> z preimage, the cuspidal edge is
attached as a polyline record and the swallowtails as point records, so
viewers can overlay them without slivering the triangulation.

The ASCII rows are formatted on whole columns (_rows), byte for byte the
text of Python's %-formatting.  Each integer of a face, edge or flag
column is formatted once per distinct value, into one table of vertex
indices (_index_table) that the rows gather from, and the rows stay bytes
until they reach the file, so every line ends in LF on every platform.
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
from .tiling import check_tile_count, tile_parameter_domain

FLAG_NEAR_SINGULAR = 1
FLAG_CLIPPED = 2

# cap on Im z when sampling the cusp of the ideal triangle at infinity
FUCHSIAN_HEIGHT = 2.0
# the margins of the base grid (see sample_triangle): the first row of a
# finite family's fan lies at RAMIFICATION_MARGIN of the way to its arc
# in |z|^k, k the order of the vertex at 0; the arc's two corners move
# in by CORNER_MARGIN of their radius (at 1e-3 the vertex at each
# order-3 corner of tetra, octa and icosa clipped in every tile); the
# ideal triangle's grid keeps BOUNDARY_MARGIN from its cusps and arcs
RAMIFICATION_MARGIN = 1e-3
CORNER_MARGIN = 5e-3
BOUNDARY_MARGIN = 1e-3
# a vertex with ||q| - 1| below this is flagged near the singular locus
NEAR_SINGULAR_TOL = 1e-2


@dataclass
class JobConfig:
    case: str = "dihedral:3"          # see cases.resolve_case
    n: int | None = None              # n of a bare "dihedral"
    tiles: int | None = None          # tile count; None = the whole group
    words: list | None = None         # distinct tile words; override tiles
    resolution: int = 16
    chart: str = "ball"               # "ball" | "uhs"
    fmt: str = "obj"                  # "obj" | "ply"
    out: str | None = None            # None = front.<fmt>; not ''; a .obj
                                      # or .ply suffix must be fmt's
    with_singular: bool = True
    resolved: Case = field(init=False, repr=False)   # resolve_case(case, n)

    def __post_init__(self):
        if type(self.resolution) is not int:     # nor a bool
            raise ValueError(f"resolution must be an int, "
                             f"got {self.resolution!r}")
        if self.resolution < 8:
            raise ValueError("resolution must be >= 8")
        if self.chart not in ("ball", "uhs"):
            raise ValueError(f"unknown chart {self.chart!r}")
        if self.fmt not in ("obj", "ply"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.out is None:
            self.out = f"front.{self.fmt}"
        elif not isinstance(self.out, str):
            raise ValueError(f"out must be a str, got {self.out!r}")
        elif not self.out:          # export would open '' at the end
            raise ValueError(f"out must name a file, got {self.out!r}")
        suffix = self.out[-4:].lower()
        if suffix in (".obj", ".ply") and suffix != "." + self.fmt:
            raise ValueError(f"out {self.out!r} ends in {suffix}, but the "
                             f"format is {self.fmt}")
        words = self.words
        if words is not None:
            # a bare str would be read as one word per character
            if (not isinstance(words, (list, tuple))
                    or not all(isinstance(w, str) for w in words)):
                raise ValueError(f"words must be a list of str, got {words!r}")
            if not words:
                raise ValueError("words must name at least one tile")
            if len(set(words)) < len(words):
                twice = sorted({w for w in words if words.count(w) > 1})
                raise ValueError(f"words name a tile more than once: {twice}")
        if type(self.with_singular) is not bool:
            raise ValueError(f"with_singular must be a bool, "
                             f"got {self.with_singular!r}")
        self.resolved = resolve_case(self.case, self.n)
        check_tile_count(self.resolved, self.tiles)


@dataclass
class SurfaceMesh:
    vertices: np.ndarray              # (N, 3) chart coordinates
    source_z: np.ndarray              # (N,) complex
    triangles: np.ndarray             # (M, 3) vertex indices
    flags: np.ndarray                 # (N,) int bit mask
    chart: str = "ball"
    complete: bool = True             # False when the tile count cut
                                      # the group short
    polylines: list = field(default_factory=list)   # (name, (K, 3) array)
    markers: list = field(default_factory=list)     # (name, 3-vector)


def sample_triangle(case, resolution: int):
    """z grid plus triangulation of the base triangle of a cases.Case.

    Returns (z array, triangle index array); a tile's grid is the image
    of this one under the tile's Moebius map.  Each cell (a, a+1, d, d+1)
    of an R x R grid is cut into (a, a+1, d) and (a+1, d+1, d).  A finite
    family's grid is a fan: rays from its vertex z = 0 between the mirrors
    arg z = 0 and arg z = phi, ending on the circle of case.mirrors[2], at
    radius fractions uniform in |z|^k, k = pi/phi the vertex's order.  The
    ideal triangle's grid is a rectangle between its line mirrors 0 and 1,
    of which it keeps the cells that lie wholly outside the circle of
    mirror 2 grown by BOUNDARY_MARGIN, and the points they use.  R >= 2.
    """
    R = int(resolution)
    # mirror 2 is the circle |z - c|^2 = |c|^2 + b
    c, b = case.mirrors[2].matrix[0]
    if case.max_tiles is None:
        # mirrors 0 and 1 are z -> -conj(z) + b, fixing Re z = Re b / 2
        lo, hi = (mirror.matrix[0, 1].real / 2.0
                  for mirror in case.mirrors[:2])
        m = BOUNDARY_MARGIN
        z = (np.linspace(lo + m, hi - m, R)
             + 1j * np.geomspace(m, FUCHSIAN_HEIGHT, R)[:, None])
        out = np.abs(z - c) <= math.sqrt(abs(c) ** 2 + b.real) + m
    else:
        # mirror 1 is z -> e^{2i phi} conj(z), phi in (0, pi]: on
        # dihedral:1 it is mirror 0 again, and phi = pi
        phi = (np.angle(-case.mirrors[1].matrix[0, 0]) + math.pi) / 2.0
        # 0 lies inside mirror 2, and the ray of angle theta meets it at
        # rho = p + sqrt(p^2 + b)
        ray = np.exp(1j * np.linspace(0.0, phi, R))
        p = (c * ray.conj()).real
        rho = p + np.sqrt(p * p + b.real)
        frac = np.linspace(RAMIFICATION_MARGIN, 1.0, R) ** (phi / math.pi)
        z = frac[:, None] * (rho * ray)
        z[-1, [0, -1]] *= 1.0 - CORNER_MARGIN
        out = np.zeros((R, R), dtype=bool)
    # a cell is kept when none of its corners is out; a is its first
    cut = out[:-1, :-1] | out[:-1, 1:] | out[1:, :-1] | out[1:, 1:]
    a = (R * np.arange(R - 1)[:, None] + np.arange(R - 1))[~cut]
    tris = (a[:, None] + [0, 1, R, 1, R + 1, R]).reshape(-1, 3)
    used = np.zeros(R * R, dtype=bool)
    used[tris] = True
    return z.ravel()[used], (np.cumsum(used) - 1)[tris]


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
        row = {w: k for k, w in enumerate(tiles.words)}
        missing = [w for w in cfg.words if w not in row]
        if missing:
            raise ValueError(f"unknown tile words: {missing}; "
                             f"available: {sorted(row)}")
        chosen = chosen[[row[w] for w in cfg.words]]

    # x is evaluated once, on the base triangle's grid; every tile's
    # vertices follow from it by the chain rule, with the front and the
    # chart in one call for the whole job and one triangulation offset
    # per tile
    z0, tris = sample_triangle(case, cfg.resolution)
    fv = eval_front_on_tiles(case.inverse, z0, chosen)
    tris = tris + len(z0) * np.arange(len(chosen))[:, None, None]
    zs, tris = fv.z.ravel(), tris.reshape(-1, 3)
    # a point that fails in any layer is NaN
    p = _chart_coords(fv.H, cfg.chart).reshape(-1, 3)
    # the flag reads x alone: each row of fv.x is x on the base grid.  Near
    # a pole (|x| ~ 1e77 on dihedral:26) w*w overflows and q reads -0, its
    # limit: q -> 0 as |x| -> inf, so such a point is not near |q| = 1
    with np.errstate(over="ignore"):
        q = eq.eval_q(case.exponents, fv.x[0]).q
    near = np.tile(np.abs(np.abs(q) - 1.0) < NEAR_SINGULAR_TOL, len(chosen))
    ok = np.isfinite(p).all(axis=1)
    mesh = SurfaceMesh(vertices=np.where(ok[:, None], p, 0.0),
                       source_z=zs,
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
        data = _to_obj(mesh)
    elif fmt == "ply":
        data = _to_ply(mesh)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(data)
    return path


# The rows are formatted a column at a time.  Each value becomes a few
# fixed-width blocks of ASCII bytes padded with NUL bytes; the row's
# literal text goes between them, and deleting every NUL leaves the text
# of (row_fmt + "\n") % row.  Words of 4 bytes carry the digits.

# _P10[i] is 10^(i - 300) rounded once
_P10 = np.array([float(f"1e{k}") for k in range(-300, 310)])


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


def _s_blocks(col) -> list:
    return [col.view(np.uint8).reshape(len(col), -1)]


_SPEC = re.compile(r"%\.12g|%s")
_ROW_CHUNK = 2048
# each conversion's column type and its blocks
_BLOCKS = {"%.12g": (float, _g_blocks), "%s": (bytes, _s_blocks)}


def _rows(row_fmt: str, *cols) -> bytes:
    """(row_fmt + "\n") % row for each row, joined, as ASCII bytes;
    row_fmt's k-th conversion (%.12g or %s) takes its values from the
    column cols[k].  A %s column holds bytes, whose NUL bytes are dropped;
    the writers' integer columns are %s columns gathered from
    _index_table.  Rows are built _ROW_CHUNK at a time, so that their
    arrays stay small, and the columns of one conversion are formatted
    together."""
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
        text.append(out.tobytes().translate(None, b"\0"))
    return b"".join(text)


def _index_table(n: int) -> np.ndarray:
    """'%d' % i for i = 0 .. n - 1 as an S array, each entry's digits
    NUL-padded on the left to the width of n - 1's.  An integer column of
    the writers is a gather from it, a %s column of _rows, so each value
    is formatted once however many rows hold it."""
    width = len(str(max(n - 1, 0)))
    k = -(-width // 4)
    words = np.empty((n, k), np.uint32)
    r = np.arange(n)
    for j in range(k - 1, 0, -1):
        r, q = np.divmod(r, 10 ** 4)
        words[:, j] = _QUADS[q]
    words[:, 0] = _QUADS[r]
    digits = np.ascontiguousarray(words.view(np.uint8)[:, 4 * k - width:])
    # digit p of i < 10^(width - 1 - p) is a leading zero
    for p in range(width - 1):
        digits[:10 ** (width - 1 - p), p] = 0
    return digits.view(f"S{width}").ravel()


def _vertex_rows(pts, head: str = "", flags=None) -> bytes:
    """'x y z' lines, 12 significant digits a coordinate, for the rows of
    pts ((K, 3), or one 3-vector), after head and, if flags is given (an
    S column, see _index_table), followed by each row's flag.  Adding 0.0
    turns -0.0 into 0.0, which prints as 0."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 3) + 0.0
    if flags is None:
        return _rows(head + "%.12g %.12g %.12g", *pts.T)
    return _rows(head + "%.12g %.12g %.12g %s", *pts.T, flags)


def _to_obj(mesh: SurfaceMesh) -> bytes:
    nv = len(mesh.vertices)
    # ids[i] is i + 1, the OBJ index of vertex i
    ids = _index_table(nv + 1)[1:]
    parts = [f"# front surface, chart={mesh.chart}\n"
             f"# vertices={nv} faces={len(mesh.triangles)}\n".encode(),
             _vertex_rows(mesh.vertices, "v "),
             _rows("f %s %s %s", *ids[mesh.triangles].T)]
    for name, pts in mesh.polylines:
        line = " ".join(map(str, range(nv + 1, nv + len(pts) + 1)))
        parts += [f"# polyline {name}\n".encode(), _vertex_rows(pts, "v "),
                  f"l {line}\n".encode()]
        nv += len(pts)
    for name, p in mesh.markers:
        nv += 1
        parts += [f"# marker {name}\n".encode(), _vertex_rows(p, "v "),
                  f"p {nv}\n".encode()]
    return b"".join(parts)


def _to_ply(mesh: SurfaceMesh) -> bytes:
    # vertex rows: the surface with its flags, then the polyline points
    # flagged 4 and the markers flagged 8; an edge joins consecutive
    # points of a polyline
    pts = [mesh.vertices] + [p for _, p in mesh.polylines] \
        + [np.reshape([p for _, p in mesh.markers], (-1, 3))]
    flags = np.concatenate(
        [mesh.flags] + [np.full(len(p), 4) for _, p in mesh.polylines]
        + [np.full(len(mesh.markers), 8)])
    ends = np.cumsum([len(p) for p in pts])
    edges = np.concatenate([np.zeros((0, 2), dtype=int)] + [
        off + np.stack([np.arange(len(p) - 1), np.arange(1, len(p))], axis=1)
        for off, (_, p) in zip(ends, mesh.polylines)])
    # every index and flag is an entry of one table
    ids = _index_table(max(ends[-1], flags.max(initial=0) + 1))
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
    return b"".join(["\n".join(header).encode(),
                     _vertex_rows(np.concatenate(pts), "", ids[flags]),
                     _rows("3 %s %s %s", *ids[mesh.triangles].T),
                     _rows("%s %s", *ids[edges].T)])
