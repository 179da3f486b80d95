"""Benchmark of the schwarzfront command line.

Run from the repository root:

    python3 bench/run.py --workload poly-surface --seed 1 --seconds 15 --trace 0

Each workload is a closed loop: one client in this process runs CLI jobs
back to back through ``schwarzfront.cli.main(argv)`` for ``--seconds``
seconds and checks every output.  The seed picks each job's free choices;
the program sees only the argv.  With ``--trace 0`` the run reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
jobs and reports the per-module metrics from the traced ones.  The last
line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  See bench/README.md for the workloads and metrics.
"""

import os

# One BLAS thread, set before numpy is imported here or in the probes.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from checks import (FLAG_CLIPPED, as_written, check_locus, check_selfcheck,
                    check_surface)
from reference import (SWALLOWTAIL_FUCHSIAN_TOL, SWALLOWTAIL_NEWTON_TOL,
                       FrontReference, fuchsian_swallowtails, vertex_error,
                       vertex_tolerance)
from spans import SELFCHECK_COUNT, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

PROBES = 3              # fresh-interpreter set-ups per run; setup_s is their median
REF_POINTS = 64         # mpmath-checked vertices per distinct surface job
CLASSIFY_TOL = 1e-8     # the CLI's default --tol-classify
POLY_FAMILIES = ("tetra", "octa", "icosa")
# exponent differences (mu0, mu1, muInf) = 1/k of each polyhedral family
_ORDERS = {"tetra": (2, 3, 3), "octa": (3, 2, 4), "icosa": (3, 2, 5)}


# --- jobs ---------------------------------------------------------------

@dataclass
class Call:
    argv: list
    before: object = None       # run untimed before the call


@dataclass
class SurfaceJob:
    family: str
    chart: str
    fmt: str
    path: str
    resolution: int
    words: list = None
    tiles: int = None
    ref_written: object = None  # reference vertices as the exporter writes them
    ref_flags: object = None
    ref_checked: int = 0
    ref_missed: int = 0

    def calls(self):
        sel = (["--words", ",".join(self.words)] if self.words is not None
               else ["--tiles", str(self.tiles)])
        return [Call(["surface", "--case", self.family, *sel,
                      "--resolution", str(self.resolution),
                      "--chart", self.chart, "--format", self.fmt,
                      "--out", self.path])]


@dataclass
class VerifyJob:
    n: int                      # the round's dihedral:n
    cases: list
    paths: dict
    clear: object

    def calls(self):
        return ([Call(["singular-locus", "--case", c, "--out", self.paths[c]])
                 for c in self.cases]
                + [Call(["selfcheck", "--quick"], before=self.clear)])


@dataclass
class Outcome:
    seconds: float
    error: str = None
    counts: dict = field(default_factory=dict)


def run_calls(cli, calls):
    """Run a job's CLI calls; returns (job seconds, [(rc, stdout)], error)."""
    total = 0.0
    results = []
    for call in calls:
        if call.before is not None:
            call.before()
        buf = io.StringIO()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(call.argv)
        except (Exception, SystemExit) as exc:
            total += perf_counter() - t0
            return total, results, f"{' '.join(call.argv[:3])}: {exc!r}"
        total += perf_counter() - t0
        results.append((rc, buf.getvalue()))
    return total, results, None


# --- workloads ------------------------------------------------------------

class SurfaceWorkload:
    """Shared reference build and checks of the two surface workloads."""

    item = "vertices"

    def __init__(self, jobs):
        self.jobs = jobs

    def prepare(self, accuracy, rng):
        """Reference builds (and mpmath checks) outside the timed loop."""
        from schwarzfront.cli import parse_case
        from schwarzfront.mesh import JobConfig, build_mesh
        for job in self.jobs:
            tag, n = parse_case(job.family)
            mesh = build_mesh(JobConfig(
                case=tag, n=n or 3, words=job.words, tiles=job.tiles,
                resolution=job.resolution, chart=job.chart, fmt=job.fmt,
                out=job.path, with_singular=False))
            job.ref_written = as_written(mesh.vertices)
            job.ref_flags = mesh.flags.astype(int)
            if not accuracy:
                continue
            ref = FrontReference(job.family)
            tol = vertex_tolerance(job.chart)
            kept = [i for i, f in enumerate(job.ref_flags)
                    if not f & FLAG_CLIPPED]
            for i in rng.sample(kept, min(self.ref_points, len(kept))):
                want = ref.vertex(mesh.source_z[i], job.chart)
                err = vertex_error(want, mesh.vertices[i], job.chart)
                job.ref_checked += 1
                job.ref_missed += not err <= tol

    def check(self, job, results):
        (rc, stdout), = results
        if rc != 0:
            raise RuntimeError(f"surface returned {rc}")
        vertices, clipped = check_surface(job.path, job.fmt, stdout,
                                          job.chart, job.ref_written,
                                          job.ref_flags)
        return {"items": vertices, "clipped": clipped}

    def accuracy(self, outcomes):
        return (sum(j.ref_checked for j in self.jobs),
                sum(j.ref_missed for j in self.jobs))


class PolySurface(SurfaceWorkload):
    """Few tiles of a finite group; every vertex is a polyhedral point."""

    cycles = 6      # 36 jobs

    def __init__(self, cli, rng, tmp, tiny):
        words = {fam: _tile_words(cli, fam) for fam in POLY_FAMILIES}
        jobs = []
        families = [rng.choice(POLY_FAMILIES)] if tiny else POLY_FAMILIES
        for fam in families:
            # one ball and one uhs job per family, formats drawn by seed
            pairs = zip(rng.sample(["ball", "uhs"], 2),
                        rng.sample(["obj", "ply"], 2))
            for chart, fmt in list(pairs)[:1 if tiny else 2]:
                jobs.append(SurfaceJob(
                    family=fam, chart=chart, fmt=fmt,
                    path=str(tmp / f"job{len(jobs)}.{fmt}"),
                    resolution=8 if tiny else 16,
                    words=rng.sample(words[fam], 2 if tiny else 12)))
        rng.shuffle(jobs)
        super().__init__(jobs)
        self.ref_points = 4 if tiny else REF_POINTS
        self.warmup = min(jobs, key=lambda j: POLY_FAMILIES.index(j.family))


class FuchsianSurface(SurfaceWorkload):
    """Many tiles from deep words of the (oo, oo, oo) group, overlay on."""

    cycles = 3      # 12 jobs

    def __init__(self, cli, rng, tmp, tiny):
        if tiny:
            tiles = [12]
        else:
            # one N in each quarter of 300..500, the outer and the inner
            # pair mirrored about 400, so every run has the same spread of
            # job sizes around a median N of 400
            u0, u1 = rng.randint(0, 50), rng.randint(0, 49)
            tiles = [300 + u0, 350 + u1, 450 - u1, 500 - u0]
        charts = rng.sample(["ball", "uhs"] * 2, 4)
        fmts = rng.sample(["obj", "ply"] * 2, 4)
        jobs = [SurfaceJob(family="fuchsian", chart=c, fmt=f, tiles=n,
                           resolution=8, path=str(tmp / f"job{i}.{f}"))
                for i, (n, c, f) in enumerate(zip(tiles, charts, fmts))]
        rng.shuffle(jobs)
        super().__init__(jobs)
        self.ref_points = 4 if tiny else REF_POINTS
        self.warmup = min(jobs, key=lambda j: j.tiles)


class Verify:
    """Scalar verification rounds: five singular-locus calls and selfcheck."""

    item = "curve_samples"
    cycles = 2      # 14 rounds

    def __init__(self, cli, rng, tmp, tiny):
        from schwarzfront.elimination import fuchsian_elimination
        ns = list(range(2, 9))
        rng.shuffle(ns)
        self.jobs = []
        for n in ns[:1] if tiny else ns:
            cases = (["fuchsian"] if tiny else
                     [f"dihedral:{n}", "tetra", "octa", "icosa", "fuchsian"])
            rng.shuffle(cases)
            paths = {c: str(tmp / f"{c.replace(':', '')}.tsv")
                     for c in cases}
            self.jobs.append(VerifyJob(n, cases, paths,
                                       fuchsian_elimination.cache_clear))
        self.warmup = min(self.jobs, key=lambda j: j.n)
        self.refs = {}

    def prepare(self, accuracy, rng):
        self.refs["fuchsian"] = fuchsian_swallowtails()

    def _reference(self, case, tails):
        """Swallowtails by singular.swallowtail_by_newton, started from the
        first printed ones of this case (the Fuchsian ones are exact)."""
        if case not in self.refs:
            from schwarzfront.equation import exponents_from_mu
            from schwarzfront.singular import swallowtail_by_newton
            if case.startswith("dihedral:"):
                k = (2, 2, int(case.split(":")[1]))
            else:
                k = _ORDERS[case]
            e = exponents_from_mu(*(Fraction(1, ki) for ki in k))
            self.refs[case] = [swallowtail_by_newton(e, x) for x in tails]
        return self.refs[case]

    def check(self, job, results):
        counts = {"items": 0, "checked": 0, "missed": 0}
        for case, (rc, stdout) in zip(job.cases, results):
            if rc != 0:
                raise RuntimeError(f"singular-locus {case} returned {rc}")
            rows, tails = check_locus(job.paths[case], stdout, CLASSIFY_TOL)
            counts["items"] += rows
            tol = (SWALLOWTAIL_FUCHSIAN_TOL if case == "fuchsian"
                   else SWALLOWTAIL_NEWTON_TOL)
            want = self._reference(case, tails)
            unmatched = list(want)
            for x in tails:
                near = [w for w in unmatched if abs(w - x) <= tol]
                if near:
                    unmatched.remove(near[0])
            checked = max(len(want), len(tails))
            matched = len(want) - len(unmatched)
            counts["checked"] += checked
            counts["missed"] += checked - matched
        check_selfcheck(*results[-1])
        return counts

    def accuracy(self, outcomes):
        return (sum(o.counts.get("checked", 0) for o in outcomes),
                sum(o.counts.get("missed", 0) for o in outcomes))


def _tile_words(cli, family):
    """Tile words of a finite family, read from `schwarzfront tiles`."""
    _, results, err = run_calls(cli, [Call(["tiles", "--case", family])])
    if err:
        raise RuntimeError(f"tiles --case {family} failed: {err}")
    words = []
    for line in results[0][1].splitlines()[1:]:
        label = line.split("\t", 1)[0]
        words.append("" if label == "(identity)" else label)
    return words


WORKLOADS = {"poly-surface": PolySurface, "fuchsian-surface": FuchsianSurface,
             "verify": Verify}


# --- measurement ------------------------------------------------------------

def setup_probes(job, count):
    """Spawn fresh interpreters that import the CLI and run the warm-up job.

    Returns the wall times from spawn to ready and the peak RSS of each.
    """
    spec = json.dumps([c.argv for c in job.calls()])
    times, rss = [], []
    for _ in range(count):
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, str(BENCH / "probe.py"),
                                 spec], cwd=ROOT, stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            rc = proc.wait()
        if rc != 0 or not line.strip():
            raise RuntimeError(f"set-up probe failed (exit {rc})")
        reply = json.loads(line)
        times.append(t1 - t0)
        rss.append(reply["maxrss_kb"] / 1024.0)
    return times, rss


def run_job(cli, workload, job):
    seconds, results, err = run_calls(cli, job.calls())
    if err is not None:
        return Outcome(seconds, error=err)
    try:
        counts = workload.check(job, results)
    except Exception as exc:        # any failed check fails the job
        return Outcome(seconds, error=f"check: {exc!r}")
    return Outcome(seconds, counts=counts)


def timed_loop(cli, workload, seconds, tracer=None):
    """Run jobs back to back for `seconds`, in whole cycles of the jobs.

    Every run ends on a complete cycle of the distinct jobs, so each run
    holds the same mix of job sizes, and runs at least `workload.cycles`
    cycles.  That minimum is more than `seconds` of work at the speed the
    benchmark was defined at, so the job count, and with it the percentile
    job_tail_s reports, does not change with small speed changes of the
    machine; it also gives job_tail_s at least 11 jobs.  With a tracer,
    each step runs the job untraced and traced, in alternating order.
    Returns (untraced outcomes, traced outcomes).
    """
    plain, traced = [], []
    jobs = workload.jobs
    # a traced step runs two jobs, so half the cycles give as many jobs
    cycles = workload.cycles if tracer is None else -(-workload.cycles // 2)
    min_steps = cycles * len(jobs)
    t_start = perf_counter()
    i = 0
    while True:
        job = jobs[i % len(jobs)]
        if tracer is None:
            plain.append(run_job(cli, workload, job))
        else:
            for use_tracer in ((False, True) if i % 2 == 0 else (True, False)):
                if use_tracer:
                    tracer.install()
                    try:
                        traced.append(run_job(cli, workload, job))
                    finally:
                        tracer.restore()
                else:
                    plain.append(run_job(cli, workload, job))
        i += 1
        elapsed = perf_counter() - t_start
        if i % len(jobs) == 0 and i >= min_steps and elapsed >= seconds:
            return plain, traced


def _ratio(a, b):
    return a / b if b else 0.0


def tail(times):
    """(value, percentile): the highest percentile with 10 jobs beyond it."""
    s = sorted(times)
    k = max(len(s) - 11, 0)
    return s[k], 100.0 * (k + 1) / len(s)


def end_to_end(workload, outcomes, probe_times, probe_rss):
    times = [o.seconds for o in outcomes]
    total = sum(times)
    items = sum(o.counts.get("items", 0) for o in outcomes)
    failed = sum(o.error is not None for o in outcomes)
    checked, missed = workload.accuracy(outcomes)
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": (statistics.median(probe_times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "peak_rss_mb": (statistics.median(probe_rss), "MB"),
        # 1 - ref_miss_frac: gated in this form because it is never 0
        "ref_hit_frac": (_ratio(checked - missed, checked), "ratio"),
    }
    # job_tail_s is reported, not gated: with 12 to 36 jobs a run its
    # percentile is p17 to p72 and its run-to-run spread on a shared
    # two-core host exceeds the largest bound a gated metric may have.
    report = dict(metrics)
    report["job_tail_s"] = (tail_s, "s")
    report[f"{workload.item}_per_s"] = (_ratio(items, total), "1/s")
    report["failed_frac"] = (failed / len(outcomes), "ratio")
    if workload.item == "vertices":
        clipped = sum(o.counts.get("clipped", 0) for o in outcomes)
        report["clipped_frac"] = (_ratio(clipped, items), "ratio")
    report["ref_miss_frac"] = (_ratio(missed, checked), "ratio")
    notes = {"job_tail_s": f"p{tail_pct:.1f} of {len(times)} jobs",
             "setup_s": f"median of {len(probe_times)} fresh processes",
             "peak_rss_mb": "median over the set-up processes",
             "ref_miss_frac": f"{missed} of {checked} checked points"}
    return metrics, report, notes


# --- per-layer metrics ------------------------------------------------------

def per_layer(tracer, traced, plain):
    """Per-job means of the per-module metrics from the traced jobs."""
    jobs = max(len(traced), 1)
    times = tracer.key_times()
    c = tracer.counts

    def self_s(key):
        return times.get(key, (0.0, 0.0, 0))[0]

    def calls(key):
        return times.get(key, (0.0, 0.0, 0))[2]

    m = {}

    def put(name, total, unit, per_job=True):
        m[name] = (total / jobs if per_job else total, unit)

    for layer, errors in (("polyhedral", "pole_errors"), ("modular", None),
                          ("front", "ramification_errors"),
                          ("h3", "not_pd_errors")):
        points = c.get(f"{layer}.points", 0)
        put(f"{layer}.points", points, "count/job")
        put(f"{layer}.self_s", self_s(layer), "s/job")
        put(f"{layer}.points_per_s", _ratio(points, self_s(layer)), "1/s",
            per_job=False)
        if errors:
            put(f"{layer}.{errors}", c.get(f"{layer}.{errors}", 0),
                "count/job")
        if layer == "modular":
            put("modular.preimage.calls", calls("modular.preimage"),
                "count/job")
            put("modular.preimage.evals",
                tracer.child_count("modular", "modular.preimage"),
                "count/job")
            put("modular.preimage.failures",
                c.get("modular.preimage.failures", 0), "count/job")
            put("modular.preimage.self_s", self_s("modular.preimage"),
                "s/job")
        if layer == "front":
            put("front.oracle.calls", calls("front.oracle"), "count/job")
            put("front.oracle.self_s", self_s("front.oracle"), "s/job")
            put("front.match.self_s", self_s("front.match"), "s/job")
    put("tiling.calls", calls("tiling"), "count/job")
    put("tiling.tiles", c.get("tiling.tiles", 0), "count/job")
    put("tiling.self_s", self_s("tiling"), "s/job")
    put("tiling.tiles_per_s", _ratio(c.get("tiling.tiles", 0),
                                     self_s("tiling")), "1/s", per_job=False)
    put("tiling.incomplete", c.get("tiling.incomplete", 0), "count/job")
    put("equation.calls", calls("equation"), "count/job")
    put("equation.self_s", self_s("equation"), "s/job")
    samples = c.get("singular.trace.samples", 0)
    put("singular.trace.calls", calls("singular.trace"), "count/job")
    put("singular.trace.samples", samples, "count/job")
    put("singular.trace.self_s", self_s("singular.trace"), "s/job")
    put("singular.trace.samples_per_s",
        _ratio(samples, self_s("singular.trace")), "1/s", per_job=False)
    put("singular.trace.open", c.get("singular.trace.open", 0), "count/job")
    put("singular.classify.calls", calls("singular.classify"), "count/job")
    put("singular.classify.self_s", self_s("singular.classify"), "s/job")
    put("singular.swallowtail.self_s", self_s("singular.swallowtail"),
        "s/job")
    put("singular.swallowtail.found", c.get("singular.swallowtail.found", 0),
        "count/job")
    put("elimination.self_s", self_s("elimination"), "s/job")
    put("mesh.sample.self_s", self_s("mesh.sample"), "s/job")
    put("mesh.build.self_s", self_s("mesh.build"), "s/job")
    put("mesh.vertices", c.get("mesh.build.vertices", 0), "count/job")
    put("mesh.clipped", c.get("mesh.build.clipped", 0), "count/job")
    put("mesh.export.self_s", self_s("mesh.export"), "s/job")
    put("mesh.export.bytes", c.get("mesh.export.bytes", 0), "B/job")
    put("mesh.export.mb_per_s",
        _ratio(c.get("mesh.export.bytes", 0), self_s("mesh.export")) / 1e6,
        "MB/s", per_job=False)
    for i in range(1, SELFCHECK_COUNT + 1):
        key = f"selfcheck.c{i:02d}"
        put(f"{key}_s", times.get(key, (0.0, 0.0, 0))[1], "s/job")
    put("cli.self_s", self_s("cli"), "s/job")
    traced_p50 = statistics.median(o.seconds for o in traced)
    plain_p50 = statistics.median(o.seconds for o in plain)
    put("trace.job_p50_s", traced_p50, "s", per_job=False)
    put("trace.overhead_frac", (traced_p50 - plain_p50) / plain_p50,
        "ratio", per_job=False)
    put("trace.unmeasured", len(tracer.unmeasured), "count", per_job=False)
    return m


# --- entry point --------------------------------------------------------------

def _metric_json(metrics):
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def _env_line():
    import numpy
    import scipy
    import sympy
    import mpmath
    return (f"env: python={sys.version.split()[0]} numpy={numpy.__version__} "
            f"scipy={scipy.__version__} sympy={sympy.__version__} "
            f"mpmath={mpmath.__version__} nproc={os.cpu_count()}")


def run(workload_name, seed, seconds, trace, tiny=False):
    """Run one workload; prints the report and returns the result object."""
    if not (SRC / "schwarzfront" / "__init__.py").is_file():
        raise FileNotFoundError(f"no schwarzfront sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from schwarzfront import cli
    rng = random.Random(seed)
    tmp = Path(tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT))
    try:
        workload = WORKLOADS[workload_name](cli, rng, tmp, tiny)
        if tiny:
            workload.cycles = 1
        probes = ([], [])
        if not trace:
            probes = setup_probes(workload.warmup, 1 if tiny else PROBES)
        workload.prepare(accuracy=not trace, rng=rng)
        run_job(cli, workload, workload.warmup)     # failures show in the loop
        tracer = Tracer() if trace else None
        plain, traced = timed_loop(cli, workload, seconds, tracer)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    outcomes = plain + traced
    failed = [o for o in outcomes if o.error is not None]
    print(f"{workload_name} seed={seed} trace={trace}: {len(outcomes)} jobs, "
          f"{len(failed)} failed")
    for o in failed[:5]:
        print(f"  failed: {o.error}")
    print(_env_line())
    if trace:
        metrics = per_layer(tracer, traced, plain)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"{workload_name}.spans.npz")
        with open(OUT / f"{workload_name}.trace.json", "w") as fh:
            json.dump({"workload": workload_name, "seed": seed,
                       "traced_jobs": len(traced),
                       "unmeasured": tracer.unmeasured,
                       "metrics": _metric_json(metrics)}, fh, indent=1)
        for name in tracer.unmeasured:
            print(f"  unmeasured: {name}")
    else:
        metrics, report, notes = end_to_end(workload, plain, *probes)
        for name, (value, unit) in report.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"  {name} = {value:.6g} {unit}{note}")
    result = {"correct": not failed, "attempted": len(outcomes),
              "failed": len(failed), "metrics": _metric_json(metrics)}
    print(json.dumps(result))
    return result


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=list(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        run(args.workload, args.seed, args.seconds, args.trace)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
