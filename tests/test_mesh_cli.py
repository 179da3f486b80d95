import os
import re
import subprocess
import sys
import warnings
from dataclasses import replace
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
from schwarzfront.tiling import Reflection, apply, tile_parameter_domain


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


def test_ideal_triangle_grid_is_read_from_its_mirrors():
    # the same triangle moved 2 to the right has the same grid moved too
    case = resolve_case(TAG_FUCHSIAN_INF)
    moved = replace(case, mirrors=(Reflection.line(2.0, 1.0j),
                                   Reflection.line(3.0, 1.0j),
                                   Reflection.circle(2.5, 0.5)))
    zs, tris = mesh.sample_triangle(case, 16)
    zm, tm = mesh.sample_triangle(moved, 16)
    assert np.array_equal(tm, tris)
    assert np.abs(zm - (zs + 2.0)).max() < 1e-14


@pytest.mark.parametrize("n", range(1, 9))
def test_dihedral_sampling_avoids_ramification_points(n):
    # dx/dz vanishes at the roots of z^2n = 1, two of which are corners
    # of every dihedral tile
    margin = mesh.RAMIFICATION_MARGIN
    roots = np.exp(1j * np.pi * np.arange(2 * n) / n)
    case = resolve_case(TAG_DIHEDRAL, n)
    for g in tile_parameter_domain(case).elements:
        zs, _ = mesh.sample_triangle(case, 16)
        zs = apply(g, zs)[0]
        dist = np.abs(zs[:, None] - roots[None, :]).min()
        assert dist >= margin * (1.0 - 1e-9)


def test_dihedral_mesh_has_no_ramification_clips():
    # the fan's rows are uniform in |z|^n, so its first row keeps |x| far
    # below float64 reach, and the arc's corners keep CORNER_MARGIN from
    # the ramification points, where x' = 0
    m = mesh.build_mesh(mesh.JobConfig(case="dihedral:6", resolution=16,
                                       with_singular=False))
    case = resolve_case("dihedral:6")
    _, xd, _ = case.inverse.eval(m.source_z)
    assert np.abs(xd).min() >= 1e-3


# finite families sampled by the fan, and the angle pi/k of each base
# triangle at its vertex z = 0
FAN_CASES = {**{f"dihedral:{n}": n for n in (1, 2, 3, 6, 12, 25, 50)},
             "tetra": 2, "octa": 4, "icosa": 5}


def _in_base_triangle(text, z):
    case = resolve_case(text)
    if case.max_tiles is None:
        return (z.real > 0) & (z.real < 1) & (np.abs(z - 0.5) > 0.5)
    # mirror 2 is the circle |z - c|^2 = |c|^2 + b
    c, b = case.mirrors[2].matrix[0]
    return ((np.angle(z) >= 0) & (np.angle(z) <= np.pi / FAN_CASES[text])
            & (np.abs(z - c) ** 2 <= abs(c) ** 2 + b.real))


@pytest.mark.parametrize("text", FAN_CASES)
@pytest.mark.parametrize("resolution", [8, 16, 24])
def test_fan_sides_lie_on_the_mirrors(text, resolution):
    case = resolve_case(text)
    R = resolution
    z = mesh.sample_triangle(case, R)[0].reshape(R, R)
    for mirror, side in zip(case.mirrors, [z[:, 0], z[:, -1], z[-1, 1:-1]]):
        assert np.abs(mirror(side) - side).max() < 1e-15


@pytest.mark.parametrize("text", [*FAN_CASES, "fuchsian"])
@pytest.mark.parametrize("resolution", [8, 12, 16, 24])
def test_faces_lie_inside_the_base_triangle(text, resolution):
    # a face of the ideal triangle's grid that joined the points on both
    # sides of the half-disk |z - 1/2| <= 1/2 would have its centroid there
    zs, tris = mesh.sample_triangle(resolve_case(text), resolution)
    assert _in_base_triangle(text, zs[tris].mean(axis=1)).all()


@pytest.mark.parametrize("chart", ["ball", "uhs"])
@pytest.mark.parametrize("text", FAN_CASES)
@pytest.mark.parametrize("resolution", [8, 16])
def test_finite_families_clip_no_vertex(text, resolution, chart):
    m = mesh.build_mesh(mesh.JobConfig(case=text, resolution=resolution,
                                       chart=chart, with_singular=False))
    assert m.complete
    assert np.count_nonzero(m.flags & mesh.FLAG_CLIPPED) == 0


@pytest.mark.parametrize("text, tiles, picks", [
    ("tetra", None, [5, 0, 11, 3]),
    ("icosa", None, [59, 1, 30, 2]),
    ("fuchsian", 40, [39, 0, 17, 4]),
])
def test_words_build_is_the_whole_build_tile_by_tile(text, tiles, picks):
    # words select rows of the tiling: each chosen tile, in the given
    # order, is the whole build's tile bit for bit, its faces offset to
    # the new rows
    def build(words):
        return mesh.build_mesh(mesh.JobConfig(
            case=text, tiles=tiles, words=words, resolution=8,
            with_singular=False))

    all_words = tile_parameter_domain(resolve_case(text),
                                      max_count=tiles).words
    whole, part = build(None), build([all_words[k] for k in picks])
    nz = len(whole.vertices) // len(all_words)
    rows = np.concatenate([np.arange(k * nz, (k + 1) * nz) for k in picks])
    for field in ("vertices", "flags", "source_z"):
        got, want = getattr(part, field), getattr(whole, field)[rows]
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    tris = whole.triangles
    assert np.array_equal(part.triangles, np.concatenate(
        [tris[tris[:, 0] // nz == k] + nz * (i - k)
         for i, k in enumerate(picks)]))


def test_job_config_rejects_bad_input():
    for tiles in (0, -3):
        with pytest.raises(ValueError, match="tiles must be >= 1"):
            mesh.JobConfig(case="dihedral:3", tiles=tiles)
    # a count or resolution is an int, as resolve_case's n is: 3.0 and 2.5
    # used to fail deep in tiling, True built one tile and 8.7 became 8
    for tiles in (3.0, 2.5, True):
        with pytest.raises(ValueError,
                           match=rf"^tiles must be an int, got {tiles!r}$"):
            mesh.JobConfig(case="tetra", tiles=tiles)
    for resolution in (8.7, 16.0, True):
        with pytest.raises(ValueError, match=rf"^resolution must be an int, "
                           rf"got {resolution!r}$"):
            mesh.JobConfig(case="tetra", resolution=resolution)
    for words in (None, ["", "21"]):
        with pytest.raises(ValueError, match="infinitely many tiles"):
            mesh.JobConfig(case="fuchsian", words=words)
    with pytest.raises(ValueError, match="at least one tile"):
        mesh.JobConfig(case="fuchsian", words=[])
    # a repeated word used to export coincident copies of its tile
    for words, twice in ((["21", "21"], "'21'"),
                         (["", "1", "", "1"], "'', '1'")):
        with pytest.raises(ValueError, match=rf"^words name a tile more "
                           rf"than once: \[{twice}\]$"):
            mesh.JobConfig(case="tetra", words=words)
    assert mesh.JobConfig(case="fuchsian", tiles=3).tiles == 3
    # an .obj or .ply suffix names the format, and must be fmt's
    for fmt, out in (("obj", "x.ply"), ("ply", "x.obj"), ("obj", "X.PLY")):
        with pytest.raises(ValueError, match=f"^out '{out}' ends in "
                           rf"\.{out[-3:].lower()}, but the format is {fmt}$"):
            mesh.JobConfig(case="dihedral:3", fmt=fmt, out=out)
    cfg = mesh.JobConfig(case="dihedral:3", out="x.obj.txt")
    assert cfg.out == "x.obj.txt"
    # a value of the wrong type is named: None used to die in .strip(), 3
    # in a slice, '21' was read as the words '2' and '1', and 'no' drew
    # the overlay
    for kwargs, message in (
            (dict(case=None), "case must be a str, got None"),
            (dict(case=3), "case must be a str, got 3"),
            (dict(out=3), "out must be a str, got 3"),
            (dict(words="21"), "words must be a list of str, got '21'"),
            (dict(words=["21", 3]),
             r"words must be a list of str, got \['21', 3\]"),
            (dict(with_singular="no"),
             "with_singular must be a bool, got 'no'"),
            (dict(with_singular=1), "with_singular must be a bool, got 1"),
            # export_mesh used to die on it after the whole build
            (dict(out=""), "out must name a file, got ''")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mesh.JobConfig(**{"case": "tetra", **kwargs})


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


def test_cli_commands_leave_numpy_random_unloaded(tmp_path):
    # selfcheck draws its points from a Kronecker sequence, so no command
    # pays numpy.random's import time and memory
    code = ("import sys\n"
            "from schwarzfront.cli import main\n"
            "rcs = [main(['surface', '--case', 'fuchsian', '--tiles', '20',\n"
            "             '--resolution', '8']),\n"
            "       main(['singular-locus', '--case', 'dihedral:3']),\n"
            "       main(['selfcheck', '--quick'])]\n"
            "print('RESULT', rcs, 'numpy.random' in sys.modules)\n")
    proc = _fresh_python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "RESULT [0, 0, 0] False"


class _NoLapack:
    def __getattr__(self, name):
        raise AssertionError(f"numpy.linalg reached LAPACK ({name})")


_FAMILIES = ["dihedral:3", "tetra", "octa", "icosa", "fuchsian"]


@pytest.mark.parametrize("argv", [
    *(["surface", "--case", c, "--resolution", "8", "--format", fmt]
      + (["--tiles", "40"] if c == "fuchsian" else [])
      for c in _FAMILIES for fmt in ("obj", "ply")),
    *(["singular-locus", "--case", c] for c in _FAMILIES),
    ["tiles", "--case", "icosa"],
    ["selfcheck"], ["selfcheck", "--quick"]], ids=" ".join)
def test_cli_commands_call_no_lapack(monkeypatch, tmp_path, argv):
    # poles, the swallowtail Newton step and criterion 6's det U are read
    # off values the code holds, so numpy's LAPACK module stays untouched
    linalg = getattr(np.linalg, "_linalg", None) or np.linalg.linalg
    monkeypatch.setattr(linalg, "_umath_linalg", _NoLapack())
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0


def test_cli_help_wraps_to_the_terminal_width(monkeypatch, capsys):
    widths = {}
    for columns in (60, 200):
        monkeypatch.setenv("COLUMNS", str(columns))
        with pytest.raises(SystemExit) as exc:
            cli.main(["surface", "--help"])
        assert exc.value.code == 0
        lines = capsys.readouterr().out.splitlines()
        widths[columns] = max(map(len, lines))
        assert widths[columns] <= columns - 2
    assert widths[200] > 60 - 2


def test_cli_builds_one_parser_a_process(monkeypatch, tmp_path):
    # the parser depends on no input: the first main() call builds it, a
    # refused call leaves it fit for the next, and import builds none
    monkeypatch.chdir(tmp_path)
    cli._build_parser.cache_clear()
    assert cli.main(["singular-locus", "--case", "tetra", "--out",
                     "a.tsv"]) == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(["singular-locus", "--case", "tetra", "--tiles", "3"])
    assert exc.value.code == 2
    assert cli.main(["singular-locus", "--case", "tetra", "--out",
                     "b.tsv"]) == 0
    assert cli.main(["tiles", "--case", "tetra"]) == 0
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)
    assert Path("a.tsv").read_bytes() == Path("b.tsv").read_bytes()
    proc = _fresh_python(["-c", "import schwarzfront.cli as c; "
                          "print(c._build_parser.cache_info().misses)"],
                         tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


@pytest.mark.parametrize("argv", [["surface", "--case", "fuchsian"],
                                  ["tiles", "--case", "fuchsian"]])
def test_cli_infinite_group_needs_a_tile_count(tmp_path, argv):
    # without a tile count these used to enumerate without end; the time
    # budget turns a hang into a failure
    proc = _fresh_python(["-m", "schwarzfront.cli", *argv], tmp_path)
    assert proc.returncode != 0
    assert "infinitely many tiles" in proc.stderr
    assert not list(tmp_path.iterdir())


# each row carries the id it was first collected under, so that a row
# keeps its name when other rows are added or dropped
_BAD_INPUT = [
    (0, ["surface", "--case", "dihedral:3", "--tiles", "0"], "tiles must be"),
    (2, ["tiles", "--case", "dihedral:3", "--tiles", "-3"], "tiles must be"),
    # a --case that is no family used to end in a traceback from
    # singular-locus and tiles
    (10, ["singular-locus", "--case", "foo"], "^error: unknown case 'foo'"),
    (11, ["tiles", "--case", "dihedral:x"],
     "^error: dihedral case must be written dihedral:n with n >= 1$"),
    (12, ["singular-locus", "--case", "dihedral:0"],
     "^error: dihedral case must be written"),
    (13, ["tiles", "--case", "foo"], "^error: unknown case 'foo'"),
    (14, ["surface", "--case", "dihedral:²"],
     "^error: dihedral case must be written"),
    # a --words entry that names no tile, found by the tiling itself
    (15, ["surface", "--case", "fuchsian", "--tiles", "10",
          "--words", "12,99"],
     r"^error: unknown tile words: \['99'\]; available: \['', '12', "),
    # --out out.obj with --format ply used to write PLY text to out.obj
    (16, ["surface", "--case", "dihedral:3", "--format", "ply"],
     r"^error: out '.*out\.obj' ends in \.obj, but the format is ply$"),
    # --words 21,21 used to write two coincident copies of one tile
    (17, ["surface", "--case", "tetra", "--words", "21,21",
          "--resolution", "8"],
     r"^error: words name a tile more than once: \['21'\]$"),
]


@pytest.mark.parametrize("argv, message", [
    pytest.param(argv, message, id=f"argv{row}-{message}")
    for row, argv, message in _BAD_INPUT
])
def test_cli_rejects_bad_input(tmp_path, argv, message):
    out = tmp_path / "out.obj"
    if argv[0] == "surface":
        argv = argv + ["--out", str(out)]
    with pytest.raises(SystemExit, match=message):
        cli.main(argv)
    assert not out.exists()


# a family has one name: the long spellings are no case, and a bare
# dihedral is no case on any command (surface and a config file used to
# read it as dihedral:3)
@pytest.mark.parametrize("text", ["dihedral", "tetrahedral", "octahedral",
                                  "icosahedral", "fuchsian-inf-inf-inf"])
@pytest.mark.parametrize("command", ["surface", "tiles", "singular-locus"])
@pytest.mark.parametrize("via", ["flag", "config"])
def test_cli_refuses_a_case_that_is_no_family_name(tmp_path, capsys, via,
                                                   command, text):
    out = tmp_path / "out"
    argv = [command, "--out", str(out)]
    if command == "surface":
        argv += ["--tiles", "1", "--resolution", "8"]
    if via == "flag":
        argv += ["--case", text]
    else:
        cfg = tmp_path / "job.cfg"
        cfg.write_text(f"case={text}\n")
        argv += ["--config", str(cfg)]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    # one line of text, which Python prints before it exits with status 1
    assert exc.value.code == "error: " + (
        "dihedral case must be written dihedral:n with n >= 1"
        if text == "dihedral" else f"unknown case '{text}'; expected "
        f"dihedral:n, tetra, octa, icosa or fuchsian")
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_cli_bare_dihedral_surface_is_one_error_line(tmp_path):
    proc = _fresh_python(["-m", "schwarzfront.cli", "surface", "--case",
                          "dihedral", "--tiles", "1", "--resolution", "8",
                          "--out", "bare.obj"], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr == ("error: dihedral case must be written "
                           "dihedral:n with n >= 1\n")
    assert proc.stdout == "" and not list(tmp_path.iterdir())


@pytest.mark.parametrize("command", ["surface", "tiles"])
def test_cli_refuses_a_tile_count_above_the_group_order(tmp_path, command):
    # one rule for both commands (tiles used to list the 12 elements and
    # exit 0)
    out = tmp_path / "out"
    with pytest.raises(SystemExit,
                       match="^error: case tetra has at most 12 tiles$"):
        cli.main([command, "--case", "tetra", "--tiles", "100",
                  "--out", str(out)])
    assert not out.exists()


def test_cli_config_file_rejects_a_value_that_does_not_parse(tmp_path,
                                                              capsys):
    # the line is the flag --tiles=abc, refused in argparse's words
    cfg = tmp_path / "job.cfg"
    cfg.write_text("case=dihedral:3\ntiles=abc\n")
    out = tmp_path / "tiles.txt"
    with pytest.raises(SystemExit) as exc:
        cli.main(["tiles", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert ("error: argument --tiles: invalid int value: 'abc'"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.parametrize("command, flag", [
    ("surface", "--tol-ramification-margin"),
    ("surface", "--tol-boundary-margin"),
    ("singular-locus", "--tol-classify"),
])
def test_cli_refuses_the_removed_tolerance_flags_and_keys(
        tmp_path, capsys, command, flag):
    # the margins and the classification tolerance are module constants
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--case", "dihedral:3", flag, "0.3",
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err
    key = flag[2:]
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"case=dihedral:3\n{key}=0.3\n")
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", str(cfg),
                  "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}=0.3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_job_config_validation():
    with pytest.raises(ValueError):
        mesh.JobConfig(resolution=4)
    with pytest.raises(ValueError):
        mesh.JobConfig(chart="klein")
    with pytest.raises(ValueError):
        mesh.JobConfig(fmt="stl")
    with pytest.raises(ValueError, match="^case tetra has at most 12 tiles$"):
        mesh.JobConfig(case="tetra", tiles=100)
    with pytest.raises(ValueError, match="unknown case"):
        mesh.JobConfig(case="cube")
    # the message names the case as users write it
    with pytest.raises(ValueError,
                       match="^case dihedral:3 has at most 6 tiles$"):
        mesh.JobConfig(case=TAG_DIHEDRAL, n=3, tiles=7)
    assert mesh.JobConfig(case="dihedral:3", tiles=6).tiles == 6
    # a bare dihedral needs its n (the default n = 3 used to fill it in)
    with pytest.raises(ValueError, match="^dihedral case must be written"):
        mesh.JobConfig(case="dihedral")
    default = mesh.JobConfig().resolved
    assert (default.tag, default.n) == ("dihedral", 3)
    # the default output path follows the format
    assert mesh.JobConfig(case="dihedral:3").out == "front.obj"
    assert mesh.JobConfig(case="dihedral:3", fmt="ply").out == "front.ply"


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
    for g in tile_parameter_domain(case, max_count=tiles).elements:
        zs, tris = mesh.sample_triangle(case, resolution)
        zs = apply(g, zs)[0]
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


def test_export_refuses_an_unknown_format_and_writes_nothing(
        dihedral_mesh, tmp_path):
    path = tmp_path / "front.stl"
    with pytest.raises(ValueError, match="unknown format 'stl'"):
        mesh.export_mesh(dihedral_mesh, str(path), fmt="stl")
    assert not path.exists()


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
                            triangles=faces, flags=flags, chart="uhs",
                            polylines=polylines, markers=markers)


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
    assert obj == _ref_obj(m).encode()
    assert ply == _ref_ply(m).encode()
    # no blank line where a block is empty
    assert b"\n\n" not in obj and b"\n\n" not in ply
    assert b"-0 " not in obj and b" -0\n" not in obj


# Each integer the writers put in a face, edge or flag column is an entry
# of one index table; each of these meshes uses its last entry.

def test_export_bytes_match_reference_across_index_widths():
    # OBJ's 1-based indices reach 10, 100 and 1,000, and the overlay adds
    # the edge rows and the flags 4 and 8
    m = mesh.build_mesh(mesh.JobConfig(case="dihedral:3", resolution=16))
    assert len(m.vertices) == 1536 and m.polylines and m.markers
    assert mesh._to_obj(m) == _ref_obj(m).encode()
    assert mesh._to_ply(m) == _ref_ply(m).encode()


def test_export_bytes_match_reference_without_faces():
    # the cuspidal edge ends the vertex rows, so its last edge holds the
    # largest index
    m = mesh.build_mesh(mesh.JobConfig(case="dihedral:3", tiles=1,
                                       resolution=8))
    m = replace(m, triangles=m.triangles[:0], markers=[])
    ply = mesh._to_ply(m)
    assert b"element face 0\n" in ply and m.polylines
    assert mesh._to_obj(m) == _ref_obj(m).encode()
    assert ply == _ref_ply(m).encode()


def test_export_bytes_match_reference_without_edges():
    m = mesh.build_mesh(mesh.JobConfig(case="tetra", tiles=3, resolution=8,
                                       with_singular=False))
    ply = mesh._to_ply(m)
    assert b"element edge 0\n" in ply
    assert ply == _ref_ply(m).encode()
    assert mesh._to_obj(m) == _ref_obj(m).encode()


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
    assert mesh._rows("%.12g", x) == "".join("%.12g\n" % v
                                             for v in x).encode()


@pytest.mark.parametrize("n", [0, 1, 2, 10, 11, 10 ** 4, 10 ** 4 + 1,
                               10 ** 5 + 1])
def test_index_table_writes_each_index_as_percent_formatting(n):
    # each entry is as wide as n - 1's digits, up to two words of four
    ids = mesh._index_table(n)
    assert ids.dtype.itemsize == len(str(max(n - 1, 0)))
    assert mesh._rows("%s", ids) == "".join("%d\n" % i
                                            for i in range(n)).encode()


def test_rows_write_ints_and_strings_as_percent_formatting():
    # the writers' integers are %s columns gathered from the index table
    rng = np.random.default_rng(6)
    ints = np.concatenate([rng.integers(0, 10 ** 5, 2000),
                           [0, 9, 10, 9999, 10 ** 4, 10 ** 5 - 1]])
    ids = mesh._index_table(10 ** 5)
    assert mesh._rows("%s", ids[ints]) == "".join("%d\n" % v
                                                  for v in ints).encode()
    # literals around and between the conversions, as the writers use them
    x = _hard_floats(rng, 20)
    cls = rng.choice([sg.CUSPIDAL_EDGE, sg.SWALLOWTAIL, ""], len(x))
    row = "v %.12g\t%s %s;"
    assert (mesh._rows(row, x, cls, ids[ints[:len(x)]])
            == "".join("v %.12g\t%s %d;\n" % r
                       for r in zip(x, cls, ints)).encode())
    assert mesh._rows(row, [], [], []) == b""


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


@pytest.mark.parametrize("n", [26, 30, 50])
def test_large_dihedral_surface_has_every_tile_and_no_warning(n):
    # words of up to n letters; near the pole of x, |x| passes 1e77 on
    # the base grid, where q = -Q/(4w^2) overflows
    cfg = mesh.JobConfig(case=f"dihedral:{n}", resolution=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        m = mesh.build_mesh(cfg)
    z0, _ = mesh.sample_triangle(cfg.resolved, 8)
    assert m.complete and len(m.vertices) == 2 * n * len(z0)


def test_cli_surface_default_out_follows_format(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["surface", "--case", "dihedral:3", "--tiles", "1",
                   "--resolution", "8", "--format", "ply"])
    assert rc == 0
    assert (tmp_path / "front.ply").read_text().startswith("ply\n")
    assert not (tmp_path / "front.obj").exists()
    # an empty --out is no path (JobConfig refuses out=''): the default
    rc = cli.main(["surface", "--case", "dihedral:3", "--tiles", "1",
                   "--resolution", "8", "--out", ""])
    assert rc == 0 and (tmp_path / "front.obj").stat().st_size > 0


def test_surface_job_resolves_its_case_once(tmp_path, monkeypatch):
    calls = []
    resolve = mesh.resolve_case

    def counting(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(mesh, "resolve_case", counting)
    rc = cli.main(["surface", "--case", "fuchsian", "--tiles", "3",
                   "--resolution", "8", "--out", str(tmp_path / "f.obj")])
    assert rc == 0 and calls == [("fuchsian", None)]


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


def test_cli_selfcheck_out_writes_the_report_it_prints(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert cli.main(["selfcheck", "--quick", "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("# acceptance self-check\n")
    assert out.read_text() == printed


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


def test_cli_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "job.cfg"
    cfg.write_text("case=dihedral:3\nresolutoin=8\n")
    out = tmp_path / "front.obj"
    with pytest.raises(SystemExit) as exc:
        cli.main(["surface", "--config", str(cfg), "--out", str(out)])
    assert exc.value.code == 2
    assert ("unrecognized arguments: --resolutoin=8"
            in capsys.readouterr().err)
    assert not out.exists()


# each line is bad for each command; resolution=8 is added for the
# commands that have no --resolution
_BAD_LINES = ["tiles=abc", "resolution=x", "chart=klein", "format=stl",
              "resolutoin=8", "res=8"]


@pytest.mark.parametrize("command, line", [
    (command, line)
    for command in ("surface", "tiles", "singular-locus")
    for line in _BAD_LINES + ["resolution=8"] * (command != "surface")
])
def test_cli_config_line_fails_as_its_flag_does(tmp_path, capsys, command,
                                                 line):
    # a line key=value is the flag --key=value: one parser casts, checks
    # choices and refuses unknown keys and abbreviations for both
    out = tmp_path / "out"
    cfg = tmp_path / "job.cfg"
    cfg.write_text(line + "\n")
    errs = []
    for extra in ([f"--{line}"], ["--config", str(cfg)]):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--case", "dihedral:3", *extra,
                      "--out", str(out)])
        assert exc.value.code == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert "error: " in errs[0]
    assert not out.exists()


# (command, key, file value, flag value, parsed file value, parsed flag value)
_EVERY_KEY = [
    ("surface", "case", "tetra", "dihedral:3", "tetra", "dihedral:3"),
    ("surface", "tiles", "2", "3", 2, 3),
    ("surface", "words", ",21", ",31", ["", "21"], ["", "31"]),
    ("surface", "resolution", "8", "9", 8, 9),
    ("surface", "chart", "ball", "uhs", "ball", "uhs"),
    ("surface", "format", "obj", "ply", "obj", "ply"),
    ("surface", "out", "a.obj", "b.obj", "a.obj", "b.obj"),
    ("tiles", "case", "tetra", "octa", "tetra", "octa"),
    ("tiles", "tiles", "2", "3", 2, 3),
    ("tiles", "out", "a.txt", "b.txt", "a.txt", "b.txt"),
    ("singular-locus", "case", "tetra", "octa", "tetra", "octa"),
    ("singular-locus", "out", "a.tsv", "b.tsv", "a.tsv", "b.tsv"),
]


@pytest.mark.parametrize("command, key, in_file, flag, from_file, from_flag",
                         _EVERY_KEY)
def test_cli_flag_wins_over_config_line_for_every_key(
        tmp_path, monkeypatch, command, key, in_file, flag, from_file,
        from_flag):
    seen = []
    monkeypatch.setattr(cli, "cmd_" + command.replace("-", "_"),
                        lambda args: seen.append(args) or 0)
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"{key}={in_file}\n")
    assert cli.main([command, "--config", str(cfg)]) == 0
    assert cli.main([command, "--config", str(cfg), f"--{key}", flag]) == 0
    assert cli.main([command, f"--{key}", flag, "--config", str(cfg)]) == 0
    assert [getattr(args, key) for args in seen] == \
        [from_file, from_flag, from_flag]


def test_cli_config_file_cannot_name_another(tmp_path):
    # --config=other.cfg would be read as a flag and then lose to the
    # command line's own --config, so the line is refused rather than
    # ignored
    (tmp_path / "other.cfg").write_text("case=dihedral:3\n")
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"config={tmp_path / 'other.cfg'}\n")
    out = tmp_path / "tiles.txt"
    with pytest.raises(SystemExit,
                       match=r"^error: config= in .*job\.cfg: "):
        cli.main(["tiles", "--config", str(cfg), "--out", str(out)])
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["surface", "--case", "dihedral:3", "--res", "8"],
    ["tiles", "--cas", "dihedral:3"],
    ["singular-locus", "--case", "dihedral:3", "--ou", "x.tsv"],
])
def test_cli_refuses_abbreviated_flags(tmp_path, monkeypatch, capsys, argv):
    # a flag has one spelling, as its config key does
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]} " in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
