"""Command-line pipeline for building and exporting front surfaces.

Subcommands:
  surface         build a mesh over selected tiles and export OBJ/PLY
  singular-locus  trace the singular curve and write a classification table
  selfcheck       run the acceptance battery and print the report
  tiles           list enumerable group elements for a case
"""

from __future__ import annotations

import argparse
import errno
import functools
import os
import sys

from . import singular as sg
from .cases import resolve_case
# eval_q and eval_q_derivatives are unused here; bench/spans.py wraps
# them under these names
from .equation import eval_q, eval_q_derivatives  # noqa: F401
from .mesh import JobConfig, _rows, build_mesh, export_mesh
from .tiling import check_tile_count, tile_parameter_domain


def parse_case(text: str):
    """'dihedral:n' | 'tetra' | 'octa' | 'icosa' | 'fuchsian' -> (tag, n)."""
    try:
        case = resolve_case(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return case.tag, case.n


def read_config(path: str) -> dict:
    """Flat key=value file of UTF-8 text; blank lines and # comments
    ignored.  Each line is decoded on its own, so that an error names it."""
    out = {}
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, 1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise ValueError(f"{path}:{lineno}: not UTF-8 text") from None
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _check_out(path):
    """Refuse an output path that is a directory or lies in a missing one,
    in open()'s words, before any work is done; create nothing."""
    if not path:
        return
    if os.path.isdir(path):
        err = IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    elif not os.path.isdir(os.path.dirname(path) or "."):
        err = FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    else:
        return
    raise SystemExit(f"error: {err}")


def _write(text, out, summary):
    """text into the file out, then the line `wrote out: summary`; text to
    stdout when there is no out."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}: {summary}")
    else:
        sys.stdout.write(text)


@functools.cache
def _build_parser():
    # the parser depends on no input, so a process builds it once, on its
    # first main() call, not at import; argparse's HelpFormatter reads the
    # terminal width when it formats help.  No parser takes an
    # abbreviation, so a flag and a config key have one spelling.
    p = argparse.ArgumentParser(
        prog="schwarzfront", allow_abbrev=False,
        description="Flat-front images of the hypergeometric Schwarz map "
                    "in hyperbolic 3-space")
    sub = p.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    def common(sp):
        sp.add_argument("--case", default=None,
                        help="dihedral:n | tetra | octa | icosa | fuchsian")
        sp.add_argument("--config", default=None,
                        help="file of key=value lines, each read as the "
                             "flag --key=value; flags override it")
        sp.add_argument("--out", default=None,
                        help="output path (surface default: front.<format>)")

    s = add("surface", help="build and export a surface mesh")
    common(s)
    s.add_argument("--tiles", type=int, default=None,
                   help="number of tiles (default: all of a finite group)")
    s.add_argument("--words", default=None,
                   type=lambda text: [w.strip() for w in text.split(",")],
                   help="comma-separated distinct tile words, e.g. ',21,31'")
    s.add_argument("--resolution", type=int, default=None)
    s.add_argument("--chart", choices=("ball", "uhs"), default=None)
    s.add_argument("--format", choices=("obj", "ply"), default=None,
                   help="default obj; an --out ending in .obj or .ply "
                        "must name it")
    s.add_argument("--no-singular", action="store_true",
                   help="skip the singular-curve overlay")

    common(add("singular-locus",
               help="trace the singular curve, classify, export"))

    c = add("selfcheck", help="run the acceptance battery")
    c.add_argument("--quick", action="store_true",
                   help="smaller grids for the slow checks")
    c.add_argument("--out", default=None,
                   help="write the report here as well as stdout")

    t = add("tiles", help="list group elements for a case")
    common(t)
    t.add_argument("--tiles", type=int, default=None,
                   help="stop after this many elements (fuchsian needs it)")
    return p


def _or_exit(fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError (input the job cannot use)
    turned into one error line."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def _case(args) -> str:
    """The --case text; without one the command ends in one error line."""
    if args.case is None:
        raise SystemExit("error: --case is required (or put case= in "
                         "the config file)")
    return args.case


def _job_config(args) -> JobConfig:
    kwargs = dict(case=_case(args), tiles=args.tiles, words=args.words,
                  resolution=args.resolution, chart=args.chart,
                  fmt=args.format, out=args.out or None)
    # only what a flag or the config file set: JobConfig has the defaults
    cfg = _or_exit(JobConfig, with_singular=not args.no_singular,
                   **{k: v for k, v in kwargs.items() if v is not None})
    _check_out(cfg.out)
    return cfg


def cmd_surface(args) -> int:
    cfg = _job_config(args)
    mesh = _or_exit(build_mesh, cfg)    # e.g. a --words entry that is no tile
    path = export_mesh(mesh, cfg.out, cfg.fmt)
    print(f"wrote {path}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.triangles)} triangles, "
          f"{len(mesh.polylines)} polylines, {len(mesh.markers)} markers "
          f"(complete={mesh.complete})")
    return 0


def cmd_singular_locus(args) -> int:
    e = _or_exit(resolve_case, _case(args)).exponents
    _check_out(args.out)
    curve = _or_exit(sg.trace_singular_curve, e)
    tails = _or_exit(sg.find_swallowtails, e, curve)
    spc = sg.classify_point(e, curve.samples)
    x, zeta = curve.samples, spc.QRbar2
    text = ("x_re\tx_im\tclass\t|q|\tRe(Q3Rb2)\tIm(Q3Rb2)\n"
            + _rows("%.12g\t%.12g\t%s\t%.12g\t%.12g\t%.12g", x.real,
                    x.imag, spc.cls, spc.abs_q, zeta.real,
                    zeta.imag).decode("ascii"))
    _write(text, args.out,
           f"{len(curve.samples)} samples, closed={curve.closed}")
    for spc in tails:
        print(f"swallowtail at x = {spc.x.real:.12g} "
              f"{spc.x.imag:+.12g}i")
    return 0


def cmd_selfcheck(args) -> int:
    from . import selfcheck as sc
    _check_out(args.out)
    results = sc.run_all(quick=args.quick)
    text = sc.report(results)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if all(r.passed for r in results) else 1


def cmd_tiles(args) -> int:
    case = _or_exit(resolve_case, _case(args))
    _or_exit(check_tile_count, case, args.tiles)
    _check_out(args.out)
    ts = tile_parameter_domain(case, max_count=args.tiles)
    summary = f"{len(ts.elements)} elements (complete={ts.complete})"
    rows = [summary]
    for m, word in zip(ts.elements, ts.words):
        label = word if word else "(identity)"
        rows.append(f"{label}\t[[{m[0, 0]:.6g}, {m[0, 1]:.6g}], "
                    f"[{m[1, 0]:.6g}, {m[1, 1]:.6g}]]")
    _write("\n".join(rows) + "\n", args.out, summary)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    handlers = {"surface": cmd_surface,
                "singular-locus": cmd_singular_locus,
                "selfcheck": cmd_selfcheck,
                "tiles": cmd_tiles}
    try:
        if getattr(args, "config", None):
            # each line is the flag --key=value, read after the subcommand
            # and ahead of the command line's flags, so that those win
            lines = _or_exit(read_config, args.config)
            if "config" in lines:
                raise SystemExit(f"error: config= in {args.config}: a config "
                                 f"file cannot name another")
            at = argv.index(args.command) + 1
            args = parser.parse_args(
                argv[:at] + [f"--{k.replace('_', '-')}={v}"
                             for k, v in lines.items()] + argv[at:])
        return handlers[args.command](args)
    except OSError as exc:      # a config or output path that cannot be used
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
