import numpy as np
import pytest

from schwarzfront import cli, mesh
from schwarzfront.equation import TAG_DIHEDRAL, TAG_FUCHSIAN_INF


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
    zs, tris = mesh.sample_triangle(TAG_DIHEDRAL, None, 8, n=3)
    assert len(zs) == 64
    assert len(tris) == 2 * 7 * 7
    assert np.all(np.abs(zs) <= 1.0 + 1e-12)


def test_fuchsian_sampling_avoids_boundary_circle():
    zs, _ = mesh.sample_triangle(TAG_FUCHSIAN_INF, None, 12)
    assert np.all(np.abs(zs - 0.5) > 0.5)
    assert np.all(zs.imag > 0)


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
