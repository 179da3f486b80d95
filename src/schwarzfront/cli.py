"""Command-line pipeline for building and exporting front surfaces.

Subcommands:
  surface         build a mesh over selected tiles and export OBJ/PLY
  singular-locus  trace the singular curve and write a classification table
  selfcheck       run the acceptance battery and print the report
  tiles           list enumerable group elements for a case
"""

from __future__ import annotations

import argparse
import sys

from . import singular as sg
from .cases import resolve_case
# eval_q and eval_q_derivatives are unused here; bench/spans.py wraps
# them under these names
from .equation import eval_q, eval_q_derivatives  # noqa: F401
from .mesh import JobConfig, build_mesh, export_mesh
from .tiling import tile_parameter_domain


def parse_case(text: str):
    """'dihedral:n' | 'tetra' | 'octa' | 'icosa' | 'fuchsian' -> (tag, n)."""
    try:
        case = resolve_case(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return case.tag, case.n


def read_config(path: str) -> dict:
    """Flat key=value file; blank lines and # comments ignored."""
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out


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
        raw = read_config(args.config) if args.config else {}
        self.file = {k.replace("_", "-"): v for k, v in raw.items()}

    def get(self, key, default=None, cast=str):
        self.asked.add(key)
        val = getattr(self.args, key.replace("-", "_"))
        if val is None and key in self.file:
            val = cast(self.file[key])
        return default if val is None else val

    def case(self):
        text = self.get("case")
        if text is None:
            raise SystemExit("error: --case is required (or put case= in "
                             "the config file)")
        return text

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
        case=opts.case(),
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
        return JobConfig(**kwargs)
    except ValueError as exc:
        raise SystemExit(f"error: {exc}") from None


def cmd_surface(args) -> int:
    cfg = _job_config(args)
    mesh = build_mesh(cfg)
    path = export_mesh(mesh, cfg.out, cfg.fmt)
    print(f"wrote {path}: {len(mesh.vertices)} vertices, "
          f"{len(mesh.triangles)} triangles, "
          f"{len(mesh.polylines)} polylines, {len(mesh.markers)} markers")
    return 0


def cmd_singular_locus(args) -> int:
    opts = _Options(args)
    case = resolve_case(opts.case())
    tol = opts.get("tol-classify", 1e-8, float)
    out = opts.get("out")
    opts.check()
    e = case.exponents
    curve = sg.trace_singular_curve(e)
    if not len(curve.samples):
        print("no singular curve found in the default search box")
        return 1
    spc = sg.classify_point(e, curve.samples, tol=tol)
    rows = ["x_re\tx_im\tclass\t|q|\tRe(Q3Rb2)\tIm(Q3Rb2)"]
    for x, cls, absq, zeta in zip(curve.samples.tolist(), spc.cls.tolist(),
                                  spc.abs_q.tolist(), spc.QRbar2.tolist()):
        rows.append(f"{x.real:.12g}\t{x.imag:.12g}\t{cls}\t{absq:.12g}\t"
                    f"{zeta.real:.12g}\t{zeta.imag:.12g}")
    text = "\n".join(rows) + "\n"
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
    results = sc.run_all(quick=args.quick)
    text = sc.report(results)
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return 0 if all(r.passed for r in results) else 1


def cmd_tiles(args) -> int:
    opts = _Options(args)
    case = resolve_case(opts.case())
    max_count = opts.get("tiles", None, int)
    opts.check()
    if max_count is not None and max_count < 1:
        raise SystemExit(f"error: --tiles must be >= 1, got {max_count}")
    if max_count is None and case.max_tiles is None:
        raise SystemExit(f"error: case {opts.case()} has infinitely many "
                         f"tiles; give --tiles N")
    ts = tile_parameter_domain(case, max_count=max_count)
    print(f"{len(ts.elements)} elements (complete={ts.complete})")
    for g, word in ts.elements:
        label = word if word else "(identity)"
        m = g.matrix
        print(f"{label}\t[[{m[0, 0]:.6g}, {m[0, 1]:.6g}], "
              f"[{m[1, 0]:.6g}, {m[1, 1]:.6g}]]")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"surface": cmd_surface,
                "singular-locus": cmd_singular_locus,
                "selfcheck": cmd_selfcheck,
                "tiles": cmd_tiles}
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
