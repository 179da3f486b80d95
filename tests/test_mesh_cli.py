import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schwarzfront
from schwarzfront import cli, mesh
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
    for key in ("ramification_margin", "boundary_margin"):
        with pytest.raises(ValueError, match=f"{key} must be >= 0"):
            mesh.JobConfig(case="dihedral:3", **{key: -1e-3})
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
    # both are imported where they are used (the ODE oracle, the
    # elimination), so the surface commands do not pay for them at start
    code = ("import sys, schwarzfront.cli; "
            "print([m for m in ('scipy', 'sympy') if m in sys.modules])")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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
])
def test_cli_rejects_bad_input(tmp_path, argv, message):
    out = tmp_path / "out.obj"
    if argv[0] == "surface":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit, match=message):
        cli.main(argv)
    assert not out.exists()


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


def test_cli_singular_locus(tmp_path):
    out = tmp_path / "locus.tsv"
    rc = cli.main(["singular-locus", "--case", "fuchsian",
                   "--out", str(out)])
    assert rc == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0].startswith("x_re\tx_im\tclass")
    assert len(rows) > 100


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("case=dihedral:3\nresolution=8\ntiles=1\n"
                   "format=ply\n# comment\n")
    out = tmp_path / "surf.ply"
    rc = cli.main(["surface", "--config", str(cfg), "--out", str(out),
                   "--format", "ply"])
    assert rc == 0
    assert out.read_text().startswith("ply")


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
