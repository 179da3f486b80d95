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
import os
import sys

from . import singular as sg
from .cases import resolve_case
# eval_q and eval_q_derivatives are unused here; bench/spans.py wraps
# them under these names
from .equation import eval_q, eval_q_derivatives  # noqa: F401
from .mesh import JobConfig, _rows, build_mesh, check_tile_count, export_mesh
from .tiling import tile_parameter_domain


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


def _build_parser():
    p = argparse.ArgumentParser(
        prog="schwarzfront",
        description="Flat-front images of the hypergeometric Schwarz map "
                    "in hyperbolic 3-space")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--case", default=None,
                        help="dihedral:n | tetra | octa | icosa | fuchsian")
        sp.add_argument("--config", default=None,
                        help="key=value config file; flags override it")
        sp.add_argument("--out", default=None,
                        help="output path (surface default: front.<format>)")

    s = sub.add_parser("surface", help="build and export a surface mesh")
    common(s)
    s.add_argument("--tiles", type=int, default=None,
                   help="number of tiles (default: all of a finite group)")
    s.add_argument("--words", default=None,
                   help="comma-separated tile words, e.g. ',21,31'")
    s.add_argument("--resolution", type=int, default=None)
    s.add_argument("--chart", choices=("ball", "uhs"), default=None)
    s.add_argument("--format", choices=("obj", "ply"), default=None)
    s.add_argument("--tol-ramification-margin", type=float, default=None)
    s.add_argument("--tol-boundary-margin", type=float, default=None)
    s.add_argument("--no-singular", action="store_true",
                   help="skip the singular-curve overlay")

    g = sub.add_parser("singular-locus",
                       help="trace the singular curve, classify, export")
    common(g)
    g.add_argument("--tol-classify", type=float, default=None)

    c = sub.add_parser("selfcheck", help="run the acceptance battery")
    c.add_argument("--quick", action="store_true",
                   help="smaller grids for the slow checks")
    c.add_argument("--out", default=None,
                   help="write the report here as well as stdout")

    t = sub.add_parser("tiles", help="list group elements for a case")
    common(t)
    t.add_argument("--tiles", type=int, default=None,
                   help="stop after this many elements (fuchsian needs it)")
    return p


class _Options:
    """Flag values, falling back to the --config file; flags win.

    Config keys are the long flag names without the dashes ("format",
    "tol-classify"); an underscore may stand for a dash.  check() rejects
    any key the command did not ask for.
    """

    def __init__(self, args):
        self.args, self.asked = args, set()
        try:
            raw = read_config(args.config) if args.config else {}
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        self.file = {k.replace("_", "-"): v for k, v in raw.items()}

    def get(self, key, default=None, cast=str):
        self.asked.add(key)
        val = getattr(self.args, key.replace("-", "_"))
        if val is None and key in self.file:
            try:
                val = cast(self.file[key])
            except ValueError:
                raise SystemExit(f"error: {key}={self.file[key]} in "
                                 f"{self.args.config} is not a valid "
                                 f"{cast.__name__}") from None
        return default if val is None else val

    def case_text(self):
        text = self.get("case")
        if text is None:
            raise SystemExit("error: --case is required (or put case= in "
                             "the config file)")
        return text

    def case(self):
        """The resolved case; one that is not a family ends in one error
        line, as JobConfig's errors do for surface."""
        try:
            return resolve_case(self.case_text())
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None

    def check(self):
        unknown = sorted(set(self.file) - self.asked)
        if unknown:
            raise SystemExit(f"error: unknown key {unknown[0]!r} in "
                             f"{self.args.config}; expected one of "
                             f"{', '.join(sorted(self.asked))}")


def _job_config(args) -> JobConfig:
    opts = _Options(args)
    words = opts.get("words")
    if isinstance(words, str):
        words = [w.strip() for w in words.split(",")]
    fmt = opts.get("format", "obj")
    kwargs = dict(
        case=opts.case_text(),
        tiles=opts.get("tiles", None, int),
        words=words,
        resolution=opts.get("resolution", 16, int),
        chart=opts.get("chart", "ball"),
        fmt=fmt,
        out=opts.get("out") or f"front.{fmt}",
        ramification_margin=opts.get("tol-ramification-margin",
                                     JobConfig.ramification_margin, float),
        boundary_margin=opts.get("tol-boundary-margin",
                                 JobConfig.boundary_margin, float),
        with_singular=not args.no_singular,
    )
    opts.check()
    try:
        cfg = JobConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    _check_out(cfg.out)
    return cfg


def cmd_surface(args) -> int:
    cfg = _job_config(args)
    mesh = build_mesh(cfg)
    path = export_mesh(mesh, cfg.out, cfg.fmt)
    print(f"wrote {path}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.triangles)} triangles, "
          f"{len(mesh.polylines)} polylines, {len(mesh.markers)} markers "
          f"(complete={mesh.complete})")
    return 0


def cmd_singular_locus(args) -> int:
    opts = _Options(args)
    case = opts.case()
    tol = opts.get("tol-classify", 1e-8, float)
    out = opts.get("out")
    opts.check()
    if not tol > 0.0:
        raise SystemExit(f"error: --tol-classify must be > 0, got {tol}")
    _check_out(out)
    e = case.exponents
    try:
        curve = sg.trace_singular_curve(e)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    spc = sg.classify_point(e, curve.samples, tol=tol)
    x, zeta = curve.samples, spc.QRbar2
    text = ("x_re\tx_im\tclass\t|q|\tRe(Q3Rb2)\tIm(Q3Rb2)\n"
            + _rows("%.12g\t%.12g\t%s\t%.12g\t%.12g\t%.12g", x.real,
                    x.imag, spc.cls, spc.abs_q, zeta.real, zeta.imag))
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}: {len(curve.samples)} samples, "
              f"closed={curve.closed}")
    else:
        sys.stdout.write(text)
    for spc in sg.find_swallowtails(e, curve):
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
    opts = _Options(args)
    case = opts.case()
    max_count = opts.get("tiles", None, int)
    out = opts.get("out")
    opts.check()
    try:
        check_tile_count(opts.case_text(), case, max_count)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None
    _check_out(out)
    ts = tile_parameter_domain(case, max_count=max_count)
    summary = f"{len(ts.elements)} elements (complete={ts.complete})"
    rows = [summary]
    for g, word in ts.elements:
        label = word if word else "(identity)"
        m = g.matrix
        rows.append(f"{label}\t[[{m[0, 0]:.6g}, {m[0, 1]:.6g}], "
                    f"[{m[1, 0]:.6g}, {m[1, 1]:.6g}]]")
    text = "\n".join(rows) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
        print(f"wrote {out}: {summary}")
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"surface": cmd_surface,
                "singular-locus": cmd_singular_locus,
                "selfcheck": cmd_selfcheck,
                "tiles": cmd_tiles}
    try:
        return handlers[args.command](args)
    except OSError as exc:      # a config or output path that cannot be used
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
