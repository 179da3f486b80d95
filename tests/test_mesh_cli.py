import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schwarzfront
from schwarzfront import cli, mesh, selfcheck
from schwarzfront import singular as sg
from schwarzfront.cases import resolve_case
from schwarzfront.equation import TAG_DIHEDRAL, TAG_FUCHSIAN_INF, eval_q
from schwarzfront.front import eval_front_closed_form
from schwarzfront.h3 import hermitian_to_ball, hermitian_to_upper_half_space
from schwarzfront.tiling import tile_parameter_domain


# --- minimal ASCII parsers used to round-trip the exports ---------------

def parse_obj(text: str):
    verts, faces, lines_, points = [], [], [], []
    for raw in text.splitlines():
        parts = raw.split()
        if not parts or parts[0].startswith("#"):
            continue
        if parts[0] == "v":
            verts.append([float(c) for c in parts[1:4]])
        elif parts[0] == "f":
            faces.append([int(i) - 1 for i in parts[1:]])
        elif parts[0] == "l":
            lines_.append([int(i) - 1 for i in parts[1:]])
        elif parts[0] == "p":
            points.append(int(parts[1]) - 1)
    return (np.array(verts), np.array(faces, dtype=int),
            lines_, points)


def parse_ply(text: str):
    lines = text.splitlines()
    assert lines[0] == "ply" and lines[1] == "format ascii 1.0"
    counts, order = {}, []
    i = 2
    while lines[i] != "end_header":
        parts = lines[i].split()
        if parts[0] == "element":
            counts[parts[1]] = int(parts[2])
            order.append(parts[1])
        i += 1
    i += 1
    data = {}
    for name in order:
        rows = lines[i:i + counts[name]]
        i += counts[name]
        if name == "vertex":
            arr = np.array([[float(c) for c in r.split()] for r in rows])
            data["vertex"] = arr[:, :3]
            data["flags"] = arr[:, 3].astype(int)
        elif name == "face":
            data["face"] = np.array(
                [[int(c) for c in r.split()[1:]] for r in rows], dtype=int)
        elif name == "edge":
            data["edge"] = np.array(
                [[int(c) for c in r.split()] for r in rows], dtype=int)
    return data


# --- sampling and configuration -----------------------------------------

def test_dihedral_sampling_grid_size():
    zs, tris = mesh.sample_triangle(resolve_case("dihedral:3"), 8)
    assert len(zs) == 64
    assert len(tris) == 2 * 7 * 7
    assert np.all(np.abs(zs) <= 1.0 + 1e-12)


def test_fuchsian_sampling_avoids_boundary_circle():
    zs, _ = mesh.sample_triangle(resolve_case(TAG_FUCHSIAN_INF), 12)
    assert np.all(np.abs(zs - 0.5) > 0.5)
    assert np.all(zs.imag > 0)


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_sampling_avoids_ramification_points(n):
    # dx/dz vanishes at the roots of z^2n = 1, two of which are corners
    # of every dihedral tile
    margin = mesh.JobConfig.ramification_margin
    roots = np.exp(1j * np.pi * np.arange(2 * n) / n)
    case = resolve_case(TAG_DIHEDRAL, n)
    for g, _ in tile_parameter_domain(case).elements:
        zs, _ = mesh.sample_triangle(case, 16, ramification_margin=margin)
        zs = g(zs)
        dist = np.abs(zs[:, None] - roots[None, :]).min()
        assert dist >= margin * (1.0 - 1e-9)


def test_dihedral_mesh_has_no_ramification_clips():
    # the only dihedral clips left are at the pole end |z| = margin and
    # where det H loses to cancellation (h k > 1e13)
    m = mesh.build_mesh(mesh.JobConfig(case="dihedral:6", resolution=16,
                                       with_singular=False))
    case = resolve_case("dihedral:6")
    _, xd, _ = case.inverse.eval(m.source_z)
    assert np.abs(xd).min() >= 1e-3


def test_job_config_rejects_bad_input():
    for tiles in (0, -3):
        with pytest.raises(ValueError, match="tiles must be >= 1"):
            mesh.JobConfig(case="dihedral:3", tiles=tiles)
    # a margin at or past its bound samples outside the base triangle
    for key, top in (("ramification_margin", 1.0 / 3.0),
                     ("boundary_margin", 0.5)):
        for value in (-1e-3, math.inf, math.nan, top, 0.6, 2.0):
            with pytest.raises(ValueError, match=f"{key} must be >= 0"):
                mesh.JobConfig(case="dihedral:3", **{key: value})
        assert getattr(mesh.JobConfig(case="fuchsian", tiles=1,
                                      **{key: 0.3}), key) == 0.3
    for words in (None, ["", "21"]):
        with pytest.raises(ValueError, match="infinitely many tiles"):
            mesh.JobConfig(case="fuchsian", words=words)
    with pytest.raises(ValueError, match="at least one tile"):
        mesh.JobConfig(case="fuchsian", words=[])
    assert mesh.JobConfig(case="fuchsian", tiles=3).tiles == 3


def _fresh_python(args, cwd):
    """Run `python args` in a new interpreter that imports this package."""
    src = str(Path(schwarzfront.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_import_leaves_scipy_and_sympy_unloaded(tmp_path):
    # neither is a run-time dependency: the ODE oracle sums power series
    # and the elimination is exact integer arithmetic; both stay test-only
    # references
    code = ("import sys, schwarzfront.cli; "
            "print([m for m in ('scipy', 'sympy') if m in sys.modules])")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("block", [None, "sympy", "scipy"])
def test_cli_verify_commands_run_without_sympy(tmp_path, block):
    # the elimination is exact integer arithmetic and the ODE oracle sums
    # power series, so singular-locus and selfcheck import neither sympy nor
    # scipy, and need neither to be importable
    code = ("import sys\n"
            + (f"sys.modules[{block!r}] = None\n" if block else "")
            + "from schwarzfront.cli import main\n"
            "rcs = [main(['singular-locus', '--case', 'fuchsian']),\n"
            "       main(['selfcheck', '--quick'])]\n"
            "print('RESULT', rcs, [sys.modules.get(m, 'absent')\n"
            "                      for m in ('scipy', 'sympy')])\n")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    result = proc.stdout.strip().splitlines()[-1]
    seen = ["None" if m == block else "'absent'" for m in ("scipy", "sympy")]
    assert result == f"RESULT [0, 0] [{', '.join(seen)}]"


@pytest.mark.parametrize("argv", [["surface", "--case", "fuchsian"],
                                  ["tiles", "--case", "fuchsian"]])
def test_cli_infinite_group_needs_a_tile_count(tmp_path, argv):
    # without a tile count these used to enumerate without end; the time
    # budget turns a hang into a failure
    proc = _fresh_python(["-m", "schwarzfront.cli", *argv], tmp_path)
    assert proc.returncode != 0
    assert "infinitely many tiles" in proc.stderr
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["surface", "--case", "dihedral:3", "--tiles", "0"], "tiles must be"),
    (["surface", "--case", "dihedral:3", "--tol-boundary-margin", "-0.1"],
     "boundary_margin must be >= 0"),
    (["tiles", "--case", "dihedral:3", "--tiles", "-3"], "tiles must be"),
    # past the boundary, a non-finite margin ends in a traceback from
    # sample_triangle, and a NaN or non-positive tolerance classes every
    # sample NotSingular with exit 0
    (["surface", "--case", "fuchsian", "--tiles", "1",
      "--tol-boundary-margin", "inf"], "^error: boundary_margin must be"),
    (["surface", "--case", "dihedral:3", "--tol-ramification-margin", "nan"],
     "^error: ramification_margin must be"),
    (["singular-locus", "--case", "dihedral:3", "--tol-classify", "nan"],
     "^error: --tol-classify must be > 0"),
    (["singular-locus", "--case", "dihedral:3", "--tol-classify", "0"],
     "^error: --tol-classify must be > 0"),
    # margins past the base triangle used to exit 0 with a mesh outside it
    (["surface", "--case", "dihedral:3", "--tiles", "1",
      "--tol-ramification-margin", "2"],
     "^error: ramification_margin must be >= 0 and below 0.3333"),
    (["surface", "--case", "tetra", "--tol-ramification-margin", "0.5"],
     "^error: ramification_margin must be"),
    (["surface", "--case", "fuchsian", "--tiles", "1",
      "--tol-boundary-margin", "0.6"],
     "^error: boundary_margin must be >= 0 and below 0.5"),
    # a --case that is no family used to end in a traceback from
    # singular-locus and tiles
    (["singular-locus", "--case", "foo"], "^error: unknown case 'foo'"),
    (["tiles", "--case", "dihedral:x"],
     "^error: dihedral case must be written dihedral:n with n >= 1$"),
    (["singular-locus", "--case", "dihedral:0"],
     "^error: dihedral case must be written"),
    (["tiles", "--case", "foo"], "^error: unknown case 'foo'"),
    (["surface", "--case", "dihedral:²"],
     "^error: dihedral case must be written"),
])
def test_cli_rejects_bad_input(tmp_path, argv, message):
    out = tmp_path / "out.obj"
    if argv[0] == "surface":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit, match=message):
        cli.main(argv)
    assert not out.exists()


@pytest.mark.parametrize("line, message", [
    ("tol-classify=nan", "--tol-classify must be > 0"),
    ("tol-classify=-1e-8", "--tol-classify must be > 0"),
    ("tol-classify=abc", "tol-classify=abc in .* is not a valid float"),
])
def test_cli_config_file_rejects_bad_tolerance(tmp_path, line, message):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"case=dihedral:3\n{line}\n")
    with pytest.raises(SystemExit, match="^error: " + message):
        cli.main(["singular-locus", "--config", str(cfg)])


def test_job_config_validation():
    with pytest.raises(ValueError):
        mesh.JobConfig(resolution=4)
    with pytest.raises(ValueError):
        mesh.JobConfig(chart="klein")
    with pytest.raises(ValueError):
        mesh.JobConfig(fmt="stl")
    with pytest.raises(ValueError):
        mesh.JobConfig(case="tetrahedral", tiles=100)
    with pytest.raises(ValueError, match="unknown case"):
        mesh.JobConfig(case="cube")
    with pytest.raises(ValueError, match="at most 6 tiles"):
        mesh.JobConfig(case=TAG_DIHEDRAL, n=3, tiles=7)
    assert mesh.JobConfig(case="dihedral:3", tiles=6).tiles == 6


# --- mesh construction ---------------------------------------------------

@pytest.fixture(scope="module")
def dihedral_mesh():
    cfg = mesh.JobConfig(case=TAG_DIHEDRAL, n=3, tiles=2, resolution=8)
    return mesh.build_mesh(cfg)


def test_mesh_shape_invariants(dihedral_mesh):
    m = dihedral_mesh
    assert m.vertices.shape == (len(m.source_z), 3)
    assert m.flags.shape == (len(m.vertices),)
    assert m.triangles.min() >= 0
    assert m.triangles.max() < len(m.vertices)


def test_mesh_vertices_inside_ball(dihedral_mesh):
    good = dihedral_mesh.flags & mesh.FLAG_CLIPPED == 0
    norms = np.linalg.norm(dihedral_mesh.vertices[good], axis=1)
    assert np.all(norms < 1.0)


def test_mesh_has_singular_overlay(dihedral_mesh):
    names = [name for name, _ in dihedral_mesh.polylines]
    assert "cuspidal-edge" in names
    assert len(dihedral_mesh.markers) == 2
    for _, pts in dihedral_mesh.polylines:
        assert np.all(np.linalg.norm(pts, axis=1) < 1.0)
    for _, p in dihedral_mesh.markers:
        assert np.linalg.norm(p) < 1.0


def test_upper_half_space_chart():
    cfg = mesh.JobConfig(case=TAG_DIHEDRAL, n=3, tiles=1, resolution=8,
                         chart="uhs", with_singular=False)
    m = mesh.build_mesh(cfg)
    good = m.flags & mesh.FLAG_CLIPPED == 0
    assert np.all(m.vertices[good][:, 2] > 0.0)


def _per_tile_mesh(text, tiles, chart, resolution):
    """Reference mesh built one tile at a time: vertices, flags, faces."""
    case = resolve_case(text)
    tol = mesh.NEAR_SINGULAR_TOL
    verts, flags, faces, base = [], [], [], 0
    for g, _ in tile_parameter_domain(case, max_count=tiles).elements:
        zs, tris = mesh.sample_triangle(case, resolution)
        zs = g(zs)
        fv = eval_front_closed_form(case.inverse, zs)
        if chart == "ball":
            p = np.stack(hermitian_to_ball(fv.H).coords, axis=-1)
        else:
            w, t = hermitian_to_upper_half_space(fv.H).coords
            p = np.stack([w.real, w.imag, t], axis=-1)
        ok = np.isfinite(p).all(axis=1)
        near = np.abs(np.abs(eval_q(case.exponents, fv.x).q) - 1.0) < tol
        verts.append(np.where(ok[:, None], p, 0.0))
        flags.append(np.where(ok, near * mesh.FLAG_NEAR_SINGULAR,
                              mesh.FLAG_CLIPPED))
        faces.append(tris[ok[tris].all(axis=1)] + base)
        base += len(zs)
    return np.concatenate(verts), np.concatenate(flags), np.concatenate(faces)


@pytest.mark.parametrize("chart", ["ball", "uhs"])
@pytest.mark.parametrize("text, tiles", [("dihedral:3", 6), ("icosa", 60),
                                         ("fuchsian", 40)])
def test_one_call_mesh_matches_per_tile_evaluation(text, tiles, chart):
    m = mesh.build_mesh(mesh.JobConfig(case=text, tiles=tiles, resolution=8,
                                       chart=chart, with_singular=False))
    verts, flags, faces = _per_tile_mesh(text, tiles, chart, 8)
    assert np.array_equal(m.flags, flags)
    assert np.array_equal(m.triangles, faces)
    scale = np.maximum(1.0, np.linalg.norm(verts, axis=1))
    assert (np.linalg.norm(m.vertices - verts, axis=1) <= 1e-9 * scale).all()


# --- export round trips --------------------------------------------------

def test_obj_round_trip(dihedral_mesh, tmp_path):
    path = tmp_path / "front.obj"
    mesh.export_mesh(dihedral_mesh, str(path), fmt="obj")
    verts, faces, lines_, points = parse_obj(path.read_text())
    nv = len(dihedral_mesh.vertices)
    npoly = sum(len(p) for _, p in dihedral_mesh.polylines)
    assert len(verts) == nv + npoly + len(dihedral_mesh.markers)
    assert np.allclose(verts[:nv], dihedral_mesh.vertices, atol=1e-9)
    assert np.array_equal(faces, dihedral_mesh.triangles)
    assert len(lines_) == len(dihedral_mesh.polylines)
    assert len(points) == len(dihedral_mesh.markers)


def test_ply_round_trip(dihedral_mesh, tmp_path):
    path = tmp_path / "front.ply"
    mesh.export_mesh(dihedral_mesh, str(path), fmt="ply")
    data = parse_ply(path.read_text())
    nv = len(dihedral_mesh.vertices)
    assert np.allclose(data["vertex"][:nv], dihedral_mesh.vertices,
                       atol=1e-9)
    assert np.array_equal(data["flags"][:nv], dihedral_mesh.flags)
    assert np.array_equal(data["face"], dihedral_mesh.triangles)
    npoly = sum(len(p) for _, p in dihedral_mesh.polylines)
    assert len(data["edge"]) == npoly - len(dihedral_mesh.polylines)


def test_export_is_deterministic(dihedral_mesh, tmp_path):
    p1, p2 = tmp_path / "a.obj", tmp_path / "b.obj"
    mesh.export_mesh(dihedral_mesh, str(p1), fmt="obj")
    mesh.export_mesh(dihedral_mesh, str(p2), fmt="obj")
    assert p1.read_bytes() == p2.read_bytes()


def test_export_empty_overlay(tmp_path):
    cfg = mesh.JobConfig(case=TAG_DIHEDRAL, n=3, tiles=1, resolution=8,
                         with_singular=False, fmt="ply")
    m = mesh.build_mesh(cfg)
    path = tmp_path / "bare.ply"
    mesh.export_mesh(m, str(path), fmt="ply")
    data = parse_ply(path.read_text())
    assert len(data["vertex"]) == len(m.vertices)
    assert "edge" not in data or len(data["edge"]) == 0


# --- exporter bytes against a per-row reference ---------------------------

def _ref_row(p):
    """One 'x y z' row as the exporter writes it, formatted on its own."""
    return "%.12g %.12g %.12g" % tuple(np.asarray(p, dtype=float) + 0.0)


def _ref_obj(m):
    lines = [f"# front surface, chart={m.chart}",
             f"# vertices={len(m.vertices)} faces={len(m.triangles)}"]
    lines += ["v " + _ref_row(p) for p in m.vertices]
    lines += ["f %d %d %d" % tuple(f) for f in (m.triangles + 1).tolist()]
    nv = len(m.vertices)
    for name, pts in m.polylines:
        lines.append(f"# polyline {name}")
        lines += ["v " + _ref_row(p) for p in pts]
        lines.append("l " + " ".join(str(nv + i + 1)
                                     for i in range(len(pts))))
        nv += len(pts)
    for name, p in m.markers:
        nv += 1
        lines += [f"# marker {name}", "v " + _ref_row(p), f"p {nv}"]
    return "\n".join(lines) + "\n"


def _ref_ply(m):
    edges, off = [], len(m.vertices)
    for _, pts in m.polylines:
        edges += [(off + i, off + i + 1) for i in range(len(pts) - 1)]
        off += len(pts)
    rows = [f"{_ref_row(p)} {f}" for p, f in zip(m.vertices, m.flags)]
    rows += [_ref_row(p) + " 4" for _, pts in m.polylines for p in pts]
    rows += [_ref_row(p) + " 8" for _, p in m.markers]
    lines = ["ply", "format ascii 1.0",
             f"comment front surface, chart={m.chart}",
             f"element vertex {len(rows)}",
             "property float64 x", "property float64 y",
             "property float64 z", "property int flags",
             f"element face {len(m.triangles)}",
             "property list uchar int vertex_indices",
             f"element edge {len(edges)}",
             "property int vertex1", "property int vertex2",
             "end_header"] + rows
    lines += ["3 %d %d %d" % tuple(f) for f in m.triangles.tolist()]
    lines += [f"{a} {b}" for a, b in edges]
    return "\n".join(lines) + "\n"


def _hand_mesh(triangles, polylines, markers):
    # -0.0 entries, two clipped rows written as (0, 0, 0), an exponent
    vertices = np.array([[-0.0, 0.5, 1.0 / 3.0], [0.0, 0.0, 0.0],
                         [1e-20, -0.0, 2.5e17], [0.0, 0.0, 0.0]])
    flags = np.array([0, mesh.FLAG_CLIPPED, mesh.FLAG_NEAR_SINGULAR,
                      mesh.FLAG_CLIPPED])
    faces = np.array(triangles, dtype=int).reshape(-1, 3)
    return mesh.SurfaceMesh(vertices=vertices, source_z=np.zeros(4, complex),
                            source_x=np.zeros(4, complex), triangles=faces,
                            flags=flags, chart="uhs", polylines=polylines,
                            markers=markers)


@pytest.mark.parametrize("triangles, polylines, markers", [
    ([[0, 2, 1], [2, 3, 0]],
     [("cuspidal-edge", np.array([[-0.0, 1.0, 2.0], [0.1, -0.2, 7e-9],
                                  [3.0, 4.0, -0.0]]))],
     [("swallowtail", np.array([-0.0, 0.25, 1.0])),
      ("swallowtail", np.array([1.0, 2.0, 3.0]))]),
    ([], [], []),
    ([], [("short", np.array([[1.0, 2.0, 3.0]]))], [])])
def test_export_bytes_match_per_row_reference(triangles, polylines, markers):
    m = _hand_mesh(triangles, polylines, markers)
    obj, ply = mesh._to_obj(m), mesh._to_ply(m)
    assert obj == _ref_obj(m)
    assert ply == _ref_ply(m)
    # no blank line where a block is empty
    assert "\n\n" not in obj and "\n\n" not in ply
    assert "-0 " not in obj and " -0\n" not in obj


def _hard_floats(rng, n):
    """Values at every edge of %.12g: each decade of float64, both signs,
    powers of ten and their neighbours, near-halves of the 12th digit,
    runs of nines that round to a new digit, short dyadic fractions, the
    ends of fixed-point notation, zeros, NaN, infinities, subnormals."""
    scale = 10.0 ** rng.integers(-300, 300, n)
    sign = rng.choice([-1.0, 1.0], n)
    p10 = 10.0 ** rng.integers(-300, 300, n)
    near_half = (rng.integers(10 ** 11, 10 ** 12, n) + 0.5) \
        * 10.0 ** rng.integers(-20, 5, n)
    nines = (1e12 - rng.random(n)) * 10.0 ** rng.integers(-30, 30, n)
    ends = np.array([1e-4, 1e11, 1e12, 99999999999.99, 999999999999.5,
                     1e-290, 1e290, 5e-324, 2.2250738585072014e-308,
                     0.5, 2.5, 1 / 3])
    return np.concatenate([
        rng.standard_normal(n), sign * rng.random(n) * scale, sign * p10,
        np.nextafter(p10, 0.0), np.nextafter(p10, np.inf), sign * near_half,
        sign * nines, rng.integers(-10 ** 6, 10 ** 6, n)
        / 2.0 ** rng.integers(0, 60, n),
        ends, np.nextafter(ends, 0.0), np.nextafter(ends, np.inf), -ends,
        [0.0, -0.0, np.nan, np.inf, -np.inf, np.finfo(float).max]])


def test_rows_write_floats_as_percent_formatting():
    x = _hard_floats(np.random.default_rng(5), 4000)
    assert mesh._rows("%.12g", x) == "".join("%.12g\n" % v for v in x)


def test_rows_write_ints_and_strings_as_percent_formatting():
    rng = np.random.default_rng(6)
    big = np.iinfo(np.int64).max
    ints = np.concatenate([rng.integers(-10 ** 5, 10 ** 5, 2000),
                           rng.integers(-big, big, 2000),
                           [0, -1, 9, 10, -9999, 10 ** 4, big, -big]])
    assert mesh._rows("%d", ints) == "".join("%d\n" % v for v in ints)
    # literals around and between the conversions, as the writers use them
    x = _hard_floats(rng, 20)
    cls = rng.choice([sg.CUSPIDAL_EDGE, sg.SWALLOWTAIL, ""], len(x))
    row = "v %.12g\t%s %d;"
    assert (mesh._rows(row, x, cls, ints[:len(x)])
            == "".join((row + "\n") % r for r in zip(x, cls, ints)))
    assert mesh._rows(row, [], [], []) == ""


# --- command line --------------------------------------------------------

def test_parse_case():
    assert cli.parse_case("dihedral:5") == (TAG_DIHEDRAL, 5)
    assert cli.parse_case("fuchsian")[0] == TAG_FUCHSIAN_INF
    import argparse
    for bad in ("dihedral", "cube", "dihedral:0", "dihedral:x", "tetra:3",
                ""):
        with pytest.raises(argparse.ArgumentTypeError):
            cli.parse_case(bad)


def test_cli_tiles(capsys):
    assert cli.main(["tiles", "--case", "dihedral:3"]) == 0
    out = capsys.readouterr().out
    assert len(out.strip().splitlines()) >= 6


def test_cli_surface(tmp_path):
    out = tmp_path / "surf.obj"
    rc = cli.main(["surface", "--case", "dihedral:3", "--tiles", "1",
                   "--resolution", "8", "--out", str(out)])
    assert rc == 0
    verts, faces, _, _ = parse_obj(out.read_text())
    assert len(verts) > 0 and len(faces) > 0


@pytest.mark.parametrize("argv, complete", [
    (["--case", "dihedral:3"], True),               # the whole group
    (["--case", "dihedral:3", "--tiles", "6"], True),
    (["--case", "dihedral:3", "--tiles", "2"], False),
    (["--case", "fuchsian", "--tiles", "40"], False),
])
def test_cli_surface_reports_whether_tiles_cut_the_group(tmp_path, capsys,
                                                         argv, complete):
    out = tmp_path / "surf.obj"
    assert cli.main(["surface", *argv, "--resolution", "8", "--no-singular",
                     "--out", str(out)]) == 0
    line = capsys.readouterr().out.strip()
    # the summary keeps its prefix and ends with the tiling's completeness
    assert re.fullmatch(rf"wrote {re.escape(str(out))}: \d+ vertices, "
                        rf"\d+ triangles, 0 polylines, 0 markers "
                        rf"\(complete={complete}\)", line)


def test_cli_surface_default_out_follows_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["surface", "--case", "dihedral:3", "--tiles", "1",
                   "--resolution", "8", "--format", "ply"])
    assert rc == 0
    assert (tmp_path / "front.ply").read_text().startswith("ply\n")
    assert not (tmp_path / "front.obj").exists()


def test_surface_job_resolves_its_case_once(tmp_path, monkeypatch):
    calls = []
    resolve = mesh.resolve_case

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(mesh, "resolve_case", counting)
    rc = cli.main(["surface", "--case", "fuchsian", "--tiles", "3",
                   "--resolution", "8", "--out", str(tmp_path / "f.obj")])
    assert rc == 0 and calls == [("fuchsian", 3)]


def test_cli_singular_locus(tmp_path, capsys):
    out = tmp_path / "locus.tsv"
    rc = cli.main(["singular-locus", "--case", "fuchsian",
                   "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("x_re\tx_im\tclass")
    assert len(rows) == 1 + 512
    assert f"wrote {out}: 512 samples, closed=True" in capsys.readouterr().out


@pytest.mark.parametrize("text", [f"dihedral:{n}" for n in range(1, 9)]
                         + ["tetra", "octa", "icosa", "fuchsian"])
def test_cli_locus_table_matches_per_row_reference(tmp_path, capsys, text):
    # the table is written in one % pass; each row formatted on its own
    e = resolve_case(text).exponents
    curve = sg.trace_singular_curve(e)
    spc = sg.classify_point(e, curve.samples)
    rows = ["x_re\tx_im\tclass\t|q|\tRe(Q3Rb2)\tIm(Q3Rb2)"]
    for x, cls, absq, zeta in zip(curve.samples.tolist(), spc.cls.tolist(),
                                  spc.abs_q.tolist(), spc.QRbar2.tolist()):
        rows.append(f"{x.real:.12g}\t{x.imag:.12g}\t{cls}\t{absq:.12g}\t"
                    f"{zeta.real:.12g}\t{zeta.imag:.12g}")
    table = "\n".join(rows) + "\n"
    tails = "".join(f"swallowtail at x = {p.x.real:.12g} {p.x.imag:+.12g}i\n"
                    for p in sg.find_swallowtails(e, curve))
    out = tmp_path / "locus.tsv"
    assert cli.main(["singular-locus", "--case", text, "--out", str(out)]) == 0
    assert out.read_text() == table
    assert capsys.readouterr().out == \
        f"wrote {out}: 512 samples, closed=True\n" + tails
    assert cli.main(["singular-locus", "--case", text]) == 0
    assert capsys.readouterr().out == table + tails


def test_cli_singular_locus_reports_a_failed_sampler(tmp_path, monkeypatch):
    monkeypatch.setattr(sg, "_nearest", lambda a, b: np.zeros(
        np.broadcast_shapes(a.shape, b.shape), int))
    out = tmp_path / "locus.tsv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["singular-locus", "--case", "dihedral:3",
                  "--out", str(out)])
    message = str(exc.value.code)
    assert message.startswith("error: ") and "permutation" in message
    assert "\n" not in message
    assert not out.exists()


def test_cli_tiles_out_writes_the_table(tmp_path, capsys):
    assert cli.main(["tiles", "--case", "dihedral:3"]) == 0
    table = capsys.readouterr().out
    out = tmp_path / "tiles.txt"
    assert cli.main(["tiles", "--case", "dihedral:3", "--out", str(out)]) == 0
    assert out.read_text() == table
    assert capsys.readouterr().out == \
        f"wrote {out}: {table.splitlines()[0]}\n"


def test_cli_tiles_out_from_config_file(tmp_path, capsys):
    out = tmp_path / "tiles.txt"
    cfg = tmp_path / "tiles.cfg"
    cfg.write_text(f"case=fuchsian\ntiles=5\nout={out}\n")
    assert cli.main(["tiles", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.startswith(f"wrote {out}: 5 elements")
    assert len(out.read_text().splitlines()) == 1 + 5


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("case=dihedral:3\nresolution=8\ntiles=1\n"
                   "format=ply\n# comment\n")
    out = tmp_path / "surf.ply"
    rc = cli.main(["surface", "--config", str(cfg), "--out", str(out),
                   "--format", "ply"])
    assert rc == 0
    assert out.read_text().startswith("ply")


@pytest.mark.parametrize("argv, path", [
    (["surface", "--config", "{tmp}/none.cfg"], "none.cfg"),
    (["surface", "--config", "{tmp}/bad.cfg"],
     "bad.cfg:2: expected key=value"),
    (["surface", "--case", "dihedral:3", "--tiles", "1", "--resolution", "8",
      "--out", "{tmp}/missing/front.obj"], "missing/front.obj"),
    (["singular-locus", "--case", "dihedral:3",
      "--out", "{tmp}/missing/locus.tsv"], "missing/locus.tsv"),
    (["tiles", "--case", "dihedral:3", "--out", "{tmp}/missing/tiles.txt"],
     "missing/tiles.txt"),
    (["selfcheck", "--quick", "--out", "{tmp}/missing/report.txt"],
     "missing/report.txt"),
    (["surface", "--config", "{tmp}/latin.cfg"], "latin.cfg:2: not UTF-8"),
    (["selfcheck", "--quick", "--out", "{tmp}/adir"],
     "Is a directory: '{tmp}/adir'"),
    (["surface", "--case", "dihedral:3", "--tiles", "1", "--resolution", "8",
      "--out", "{tmp}/adir"], "Is a directory: '{tmp}/adir'"),
    (["tiles", "--case", "dihedral:3", "--out", "{tmp}/adir"],
     "Is a directory: '{tmp}/adir'"),
])
def test_cli_file_errors_end_in_one_message(tmp_path, monkeypatch, capsys,
                                            argv, path):
    # a config that cannot be read, or an --out in a missing directory, used
    # to end in a traceback; and an --out was tried only after the work,
    # so selfcheck printed its whole report first (an --out that names a
    # directory still was, until it was checked up front too)
    (tmp_path / "bad.cfg").write_text("case=dihedral:3\nresolution\n")
    (tmp_path / "latin.cfg").write_bytes(b"case=dihedral:3\n\xff\xfe\n")
    (tmp_path / "adir").mkdir()

    def no_work(*args, **kwargs):
        raise AssertionError("work started before the paths were checked")

    for owner, name in [(cli, "build_mesh"), (cli, "tile_parameter_domain"),
                        (sg, "trace_singular_curve"), (selfcheck, "run_all")]:
        monkeypatch.setattr(owner, name, no_work)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    path = path.replace("{tmp}", str(tmp_path))
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert re.match(r"error: .*" + re.escape(path), str(exc.value.code))
    assert "\n" not in str(exc.value.code)
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "missing").exists()


def test_read_config_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("resolution\n")
    with pytest.raises(ValueError):
        cli.read_config(str(bad))


def test_cli_config_file_format_key(tmp_path):
    # the README's job.cfg, with no --format flag on the command line
    cfg = tmp_path / "job.cfg"
    cfg.write_text("# job.cfg\ncase=dihedral:3\nresolution=8\ntiles=1\n"
                   "format=ply\n")
    out = tmp_path / "front.ply"
    assert cli.main(["surface", "--config", str(cfg), "--out", str(out)]) == 0
    assert out.read_text().startswith("ply\n")


def test_cli_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("case=dihedral:3\nresolutoin=8\n")
    out = tmp_path / "front.obj"
    with pytest.raises(SystemExit, match="unknown key 'resolutoin'"):
        cli.main(["surface", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()
