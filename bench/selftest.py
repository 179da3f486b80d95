"""Quick self-test of the benchmark itself (not part of the timed runs).

    python3 bench/selftest.py

It checks BENCHMARK.json against the benchmark contract, checks the
mpmath reference against the package at a few ordinary points and its
coefficient tables against the package's tables, then runs one tiny job
per workload with tracing off and on.  Each run's last line must be the
result object with exactly the named metrics and units, and the summary
lines must name every end-to-end metric of the workload.  Exits 1 on the
first failure.
"""

import contextlib
import io
import json
import re
import sys

import run

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
_SUMMARY = {"setup_s": "s", "job_p50_s": "s", "job_tail_s": "s",
            "peak_rss_mb": "MB", "failed_frac": "ratio",
            "ref_miss_frac": "ratio"}
_SURFACE_SUMMARY = {"vertices_per_s": "1/s", "clipped_frac": "ratio"}
_VERIFY_SUMMARY = {"curve_samples_per_s": "1/s"}


def fail(msg):
    print(f"FAIL {msg}")
    sys.exit(1)


def check_spec():
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("workloads differ from run.WORKLOADS")
    names = [w["name"] for w in spec["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in spec[group]:
            names.append(m["name"])
            if not _NAME.match(m["name"]) or not _UNIT.match(m["unit"]):
                fail(f"bad metric name or unit: {m}")
            if m["better"] not in ("higher", "lower"):
                fail(f"bad direction: {m}")
            want = {"name", "unit", "better"} | (
                {"bound"} if group == "end_to_end" else set())
            if set(m) != want:
                fail(f"metric keys: {m}")
    if len(names) != len(set(names)):
        fail("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if not all(0 < b <= 0.25 for b in bounds.values()):
        fail(f"bounds out of range: {bounds}")
    if bounds.get("setup_s") != max(bounds.values()):
        fail("setup_s must exist and have the largest bound")
    if not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds")
    return spec


def check_reference():
    import numpy as np
    from reference import FrontReference, polyhedral_tables
    from schwarzfront.cli import parse_case
    from schwarzfront.front import eval_front_closed_form
    from schwarzfront.h3 import (hermitian_to_ball,
                                 hermitian_to_upper_half_space)
    from schwarzfront.modular import LambdaInverse
    from schwarzfront.polyhedral import PolyhedralInverse, build_polyhedral
    for fam, (A0, k0, f0, ki, fi) in polyhedral_tables().items():
        d = build_polyhedral(parse_case(fam)[0])
        for ours, theirs in ((f0, d.f0), (fi, d.fInf)):
            if not np.allclose([float(c) for c in ours], theirs, rtol=1e-13,
                               atol=1e-13):
                fail(f"{fam}: reference table differs from the package")
        if (k0, ki) != (d.k0, d.kInf) or abs(float(A0) - d.A0) > 1e-13:
            fail(f"{fam}: reference exponents or constant differ")
    points = {"tetra": 0.21 + 0.13j, "octa": 0.3 + 0.1j,
              "icosa": 0.25 + 0.05j, "fuchsian": 0.37 + 0.61j}
    for fam, z in points.items():
        inv = (LambdaInverse() if fam == "fuchsian"
               else PolyhedralInverse(parse_case(fam)[0]))
        H = eval_front_closed_form(inv, z).H
        zu, t = hermitian_to_upper_half_space(H).coords
        for chart, got in (("ball", hermitian_to_ball(H).coords),
                           ("uhs", (zu.real, zu.imag, t))):
            want = FrontReference(fam).vertex(z, chart)
            err = max(abs(float(w) - g) / max(1.0, abs(g))
                      for w, g in zip(want, got))
            if err > 1e-9:
                fail(f"{fam} {chart}: reference differs by {err:.3g}")


def check_run(spec, workload, trace):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.run(workload, seed=0, seconds=0, trace=trace, tiny=True)
    lines = buf.getvalue().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload}: tiny run failed: {lines[:3]}")
    if not (type(result["attempted"]) is int and result["attempted"] >= 1):
        fail(f"{workload}: attempted {result['attempted']!r}")
    group = "per_layer" if trace else "end_to_end"
    want = {m["name"]: m["unit"] for m in spec[group]}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace}: metrics differ: "
             f"{sorted(set(got) ^ set(want))}")
    for name, m in got.items():
        if set(m) != {"value", "unit"} or m["unit"] != want[name] or \
           not isinstance(m["value"], (int, float)):
            fail(f"{workload}: metric {name}: {m}")
    if trace:
        if got["trace.unmeasured"]["value"] != 0:
            fail(f"{workload}: unmeasured wrap targets: {lines}")
        check_restored()
        return
    summary = dict(_SUMMARY, **(_VERIFY_SUMMARY if workload == "verify"
                                else _SURFACE_SUMMARY))
    for name, unit in summary.items():
        if not any(re.match(rf"\s+{re.escape(name)} = \S+ {re.escape(unit)}"
                            rf"(\s|$)", ln) for ln in lines):
            fail(f"{workload}: summary line for {name} [{unit}] missing")


def check_restored():
    from schwarzfront import front, h3, mesh, selfcheck
    if mesh.eval_front_closed_form is not front.eval_front_closed_form or \
       hasattr(front.eval_front_closed_form, "__wrapped__") or \
       hasattr(h3.HermitianForm.__post_init__, "__wrapped__") or \
       any(hasattr(c, "__wrapped__") for c in selfcheck.ALL_CHECKS):
        fail("wrappers were not restored after the traced run")


def main():
    spec = check_spec()
    sys.path.insert(0, str(run.SRC))
    check_reference()
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
            print(f"ok {w['name']} trace={trace}")
    print("selftest passed")


if __name__ == "__main__":
    main()
