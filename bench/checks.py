"""Structural checks of the CLI's outputs.

A job fails when one of these checks fails.  The parsers here are the
benchmark's own; they read the OBJ/PLY/TSV text the CLI wrote and compare
it with the summary the CLI printed and with the reference build, whose
vertices are passed in as written (see as_written).
"""

from __future__ import annotations

import math
import re

import numpy as np

FLAG_CLIPPED = 2
FLAG_POLYLINE = 4
FLAG_MARKER = 8

_SUMMARY = re.compile(r"wrote (.+): (\d+) vertices, (\d+) triangles, "
                      r"(\d+) polylines, (\d+) markers")
_LOCUS = re.compile(r"wrote (.+): (\d+) samples, closed=(True|False)")
_SWALLOWTAIL = re.compile(r"swallowtail at x = (\S+) ([+-]\S+)i")
TSV_HEADER = "x_re\tx_im\tclass\t|q|\tRe(Q3Rb2)\tIm(Q3Rb2)"


class CheckError(Exception):
    """An output failed a structural check."""


def _require(cond, msg):
    if not cond:
        raise CheckError(msg)


def surface_summary(stdout):
    """(vertices, triangles, polylines, markers) printed by `surface`."""
    m = _SUMMARY.search(stdout)
    _require(m is not None, f"no surface summary in {stdout!r}")
    return tuple(int(g) for g in m.groups()[1:])


def as_written(v):
    """Coordinates as the exporter writes them: 12 significant digits."""
    return np.array([[float(f"{c:.12g}") for c in row] for row in v])


def _inside_chart(v, chart):
    if not np.all(np.isfinite(v)):
        return False
    if chart == "ball":
        return bool(np.all(np.einsum("ij,ij->i", v, v) < 1.0))
    return bool(np.all(v[:, 2] > 0.0))


def _parse_obj(lines):
    verts, faces, polys, points = [], [], [], []
    counts = None
    chart = None
    for ln in lines:
        if ln.startswith("v "):
            verts.append(ln.split()[1:4])
        elif ln.startswith("f "):
            faces.append(ln.split()[1:])
        elif ln.startswith("l "):
            polys.append([int(t) for t in ln.split()[1:]])
        elif ln.startswith("p "):
            points.append(int(ln.split()[1]))
        elif ln.startswith("# vertices="):
            a, b = ln[2:].split()
            counts = (int(a.split("=")[1]), int(b.split("=")[1]))
        elif ln.startswith("# front surface, chart="):
            chart = ln.split("=", 1)[1]
    return verts, faces, polys, points, counts, chart


def check_obj(text, summary, chart, ref_vertices, ref_flags):
    """Check an OBJ file; returns the number of clipped surface vertices."""
    nv, nt, npoly, nmark = summary
    verts, faces, polys, points, counts, file_chart = _parse_obj(
        text.splitlines())
    _require(counts == (nv, nt), f"header counts {counts} != {(nv, nt)}")
    _require(file_chart == chart, f"chart {file_chart} != {chart}")
    _require(len(faces) == nt, f"{len(faces)} faces, expected {nt}")
    _require(len(polys) == npoly, f"{len(polys)} polylines != {npoly}")
    _require(len(points) == nmark, f"{len(points)} markers != {nmark}")
    extra = sum(len(p) for p in polys) + nmark
    _require(len(verts) == nv + extra,
             f"{len(verts)} vertex records, expected {nv + extra}")
    v = np.array(verts, dtype=float).reshape(-1, 3)
    f = np.array(faces, dtype=np.int64).reshape(-1, 3)
    _require(f.size == 0 or (f.min() >= 1 and f.max() <= nv),
             "face index out of range")
    idx = [i for p in polys for i in p] + points
    _require(all(nv < i <= len(verts) for i in idx),
             "polyline or marker index out of range")
    _check_vertices(v[:nv], v[nv:], chart, ref_vertices, ref_flags)
    return int(np.count_nonzero(ref_flags & FLAG_CLIPPED))


def check_ply(text, summary, chart, ref_vertices, ref_flags):
    """Check a PLY file; returns the number of clipped surface vertices."""
    nv, nt, npoly, nmark = summary
    lines = text.splitlines()
    _require("end_header" in lines, "no end_header")
    head = lines[:lines.index("end_header")]
    body = lines[len(head) + 1:]
    _require(f"comment front surface, chart={chart}" in head, "chart comment")
    _require("property int flags" in head, "no flags property")
    elements = {}
    for ln in head:
        if ln.startswith("element "):
            _, name, n = ln.split()
            elements[name] = int(n)
    n_all = elements.get("vertex", -1)
    n_face = elements.get("face", -1)
    n_edge = elements.get("edge", -1)
    _require(n_face == nt, f"{n_face} faces, expected {nt}")
    _require(len(body) == n_all + n_face + n_edge, "body length")
    rows = np.array([ln.split() for ln in body[:n_all]], dtype=float)
    _require(rows.shape == (n_all, 4), "vertex records need x y z flags")
    flags = rows[:, 3].astype(np.int64)
    n_poly = int(np.count_nonzero(flags == FLAG_POLYLINE))
    _require(int(np.count_nonzero(flags == FLAG_MARKER)) == nmark,
             "marker count")
    _require(n_all == nv + n_poly + nmark, "vertex element count")
    _require(n_edge == n_poly - npoly, "edge count")
    _require(np.array_equal(flags[:nv], ref_flags), "flags differ from "
             "the reference build")
    f = np.array([ln.split() for ln in body[n_all:n_all + n_face]],
                 dtype=np.int64).reshape(-1, 4)
    _require(np.all(f[:, 0] == 3), "non-triangular face")
    _require(f.size == 0 or (f[:, 1:].min() >= 0 and f[:, 1:].max() < nv),
             "face index out of range")
    e = np.array([ln.split() for ln in body[n_all + n_face:]],
                 dtype=np.int64).reshape(-1, 2)
    _require(e.size == 0 or (e.min() >= nv and e.max() < n_all),
             "edge index out of range")
    _check_vertices(rows[:nv, :3], rows[nv:, :3], chart, ref_vertices,
                    ref_flags)
    return int(np.count_nonzero(ref_flags & FLAG_CLIPPED))


def _check_vertices(surface, overlay, chart, ref_vertices, ref_flags):
    _require(surface.shape == ref_vertices.shape,
             f"{len(surface)} surface vertices, reference has "
             f"{len(ref_vertices)}")
    _require(np.array_equal(surface, ref_vertices, equal_nan=True),
             "surface vertices differ from the reference build")
    kept = (ref_flags & FLAG_CLIPPED) == 0
    _require(_inside_chart(surface[kept], chart),
             f"unclipped vertex outside the {chart} chart")
    _require(_inside_chart(overlay, chart),
             f"overlay vertex outside the {chart} chart")


def check_surface(path, fmt, stdout, chart, ref_vertices, ref_flags):
    """Check one `surface` output; returns (vertices, clipped)."""
    summary = surface_summary(stdout)
    with open(path) as fh:
        text = fh.read()
    check = check_obj if fmt == "obj" else check_ply
    clipped = check(text, summary, chart, ref_vertices, ref_flags)
    return summary[0], clipped


def check_locus(path, stdout, tol):
    """Check one `singular-locus` TSV; returns (rows, swallowtails)."""
    m = _LOCUS.search(stdout)
    _require(m is not None, f"no locus summary in {stdout!r}")
    with open(path) as fh:
        lines = fh.read().splitlines()
    _require(lines and lines[0] == TSV_HEADER, "TSV header")
    rows = lines[1:]
    _require(len(rows) == int(m.group(2)),
             f"{len(rows)} rows, summary says {m.group(2)}")
    for ln in rows:
        cols = ln.split("\t")
        _require(len(cols) == 6, f"row {ln!r}")
        absq = float(cols[3])
        _require(math.isfinite(absq) and abs(absq - 1.0) <= tol,
                 f"|q| = {absq} is not within {tol} of 1")
    tails = [complex(float(a), float(b))
             for a, b in _SWALLOWTAIL.findall(stdout)]
    return len(rows), tails


def check_selfcheck(rc, stdout):
    _require(rc == 0, f"selfcheck returned {rc}")
    _require(re.search(r"^# checks=\d+ failed=0$", stdout, re.M) is not None,
             "selfcheck report does not say failed=0")
