"""Span recorder for the traced benchmark run.

The benchmark wraps the public functions of each schwarzfront module from
its own files; nothing in the package changes.  Each wrapper is installed
at the name the caller looks up (``mesh.eval_front_closed_form`` as well
as ``front.eval_front_closed_form``) and restored afterwards.  A target
that no longer exists is reported as unmeasured instead of failing.

One span per wrapped call records its start, end, parent span and key.
Spans stay in memory (flat arrays) and are summarised and written out when
the run ends.  A key's self time is its spans' duration minus the time
covered by their direct child spans.
"""

from __future__ import annotations

import importlib
import os
from array import array
from time import perf_counter

import numpy as np


def _size(z):
    """Number of z values in an argument: 1 for a scalar, size for arrays."""
    size = getattr(z, "size", None)
    if size is not None:
        return int(size)
    if isinstance(z, (list, tuple)):
        return len(z)
    return 1


class Wrap:
    """One wrapped function: its key, the names callers use, its counters.

    points: index of the positional argument holding z (counts its size).
    errors: {counter: "module.ExceptionClass"} counted when raised.
    result: function(result) -> {counter: increment}.
    """

    def __init__(self, key, names, points=None, errors=None, result=None):
        self.key = key
        self.names = names
        self.points = points
        self.errors = errors or {}
        self.result = result


def _tiles(ts):
    return {"tiles": len(ts.elements), "incomplete": int(not ts.complete)}


def _curve(curve):
    return {"samples": len(curve.samples), "open": int(not curve.closed)}


def _found(points):
    return {"found": len(points)}


def _mesh(mesh):
    from schwarzfront import mesh as ms
    clipped = np.count_nonzero(np.asarray(mesh.flags) & ms.FLAG_CLIPPED)
    return {"vertices": len(mesh.vertices), "clipped": int(clipped)}


def _bytes(path):
    return {"bytes": os.path.getsize(path)}


_CHARTS = ["mesh.hermitian_to_ball", "mesh.hermitian_to_upper_half_space",
           "front.hermitian_to_ball", "selfcheck.hermitian_to_ball",
           "selfcheck.hermitian_to_upper_half_space",
           "selfcheck.hermitian_to_lorentz", "singular.hermitian_to_lorentz"]
_EVAL_Q = ["equation.eval_q", "front.eval_q", "singular.eval_q",
           "selfcheck.eval_q", "cli.eval_q", "equation.eval_q_derivatives",
           "singular.eval_q_derivatives", "selfcheck.eval_q_derivatives",
           "cli.eval_q_derivatives"]

WRAPS = [
    Wrap("polyhedral", ["polyhedral.PolyhedralInverse.eval"], points=1,
         errors={"pole_errors": "polyhedral.PoleError"}),
    Wrap("modular", ["modular.LambdaInverse.eval"], points=1),
    Wrap("modular", ["selfcheck.theta_values"], points=0),
    Wrap("modular.preimage", ["mesh.fuchsian_z_from_x",
                              "selfcheck.fuchsian_z_from_x",
                              "modular.fuchsian_z_from_x"],
         errors={"failures": "builtins.ValueError"}),
    Wrap("front", ["mesh.eval_front_closed_form",
                   "front.eval_front_closed_form",
                   "front.eval_front_matrix"], points=1,
         errors={"ramification_errors": "front.RamificationError"}),
    Wrap("front.oracle", ["front.integrate_sl_form"]),
    Wrap("front.match", ["front.match_isometry"]),
    Wrap("h3", ["h3.HermitianForm.__post_init__"],
         errors={"not_pd_errors": "h3.NotPositiveDefiniteError"}),
    Wrap("h3", _CHARTS, points=0),
    Wrap("tiling", ["mesh.tile_parameter_domain", "cli.tile_parameter_domain",
                    "selfcheck.tile_parameter_domain"], result=_tiles),
    Wrap("equation", _EVAL_Q),
    Wrap("singular.trace", ["singular.trace_singular_curve"], result=_curve),
    Wrap("singular.classify", ["singular.classify_point"]),
    Wrap("singular.swallowtail", ["singular.find_swallowtails"],
         result=_found),
    Wrap("singular.swallowtail", ["singular.swallowtail_by_newton"]),
    Wrap("elimination", ["elimination.fuchsian_elimination",
                         "selfcheck.fuchsian_elimination"]),
    Wrap("mesh.sample", ["mesh.sample_triangle"]),
    Wrap("mesh.build", ["mesh.build_mesh", "cli.build_mesh"], result=_mesh),
    Wrap("mesh.export", ["mesh.export_mesh", "cli.export_mesh"],
         result=_bytes),
    Wrap("cli", ["cli.main"]),
]

SELFCHECK_COUNT = 14


def _resolve(dotted):
    """'module.Attr.attr' under schwarzfront -> (owner object, attr name)."""
    parts = dotted.split(".")
    if parts[0] == "builtins":
        return importlib.import_module("builtins"), parts[1]
    owner = importlib.import_module("schwarzfront." + parts[0])
    for p in parts[1:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _lookup(dotted):
    owner, attr = _resolve(dotted)
    return getattr(owner, attr)


class Tracer:
    """Records spans of wrapped calls; install()/restore() patch the names."""

    def __init__(self):
        self.keys = []
        self._key_id = {}
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.kinds = array("l")
        self._stack = []
        self.counts = {}
        self.unmeasured = []
        self._patches = []

    def _kid(self, key):
        if key not in self._key_id:
            self._key_id[key] = len(self.keys)
            self.keys.append(key)
        return self._key_id[key]

    def _count(self, name, n):
        self.counts[name] = self.counts.get(name, 0) + n

    def wrapper(self, key, fn, points=None, errors=(), result=None):
        kid = self._kid(key)
        starts, ends, parents, kinds = (self.starts, self.ends, self.parents,
                                        self.kinds)
        stack = self._stack
        count = self._count
        points_name = key + ".points"
        errors = tuple((key + "." + n, cls) for n, cls in errors)

        def traced(*args, **kwargs):
            if points is not None and len(args) > points:
                count(points_name, _size(args[points]))
            idx = len(starts)
            parents.append(stack[-1] if stack else -1)
            kinds.append(kid)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                for name, cls in errors:
                    if isinstance(exc, cls):
                        count(name, 1)
                raise
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if result is not None:
                for name, n in result(out).items():
                    count(key + "." + name, n)
            return out

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Install every wrapper; targets that do not resolve are recorded."""
        self.unmeasured = []
        for w in WRAPS:
            errors = []
            for name, dotted in w.errors.items():
                try:
                    errors.append((name, _lookup(dotted)))
                except (ImportError, AttributeError):
                    self.unmeasured.append(f"{w.key}.{name} ({dotted})")
            for dotted in w.names:
                try:
                    owner, attr = _resolve(dotted)
                    fn = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.unmeasured.append(dotted)
                    continue
                self._patch(owner, attr, self.wrapper(
                    w.key, fn, w.points, errors, w.result))
        self._install_selfcheck()

    def _install_selfcheck(self):
        """Wrap each check of the battery as selfcheck.cNN.

        run_all iterates ALL_CHECKS and compares entries by identity with
        the module's check functions, so both names get the same wrapper.
        """
        try:
            sc = importlib.import_module("schwarzfront.selfcheck")
            checks = list(sc.ALL_CHECKS)
        except (ImportError, AttributeError):
            self.unmeasured.append("selfcheck.ALL_CHECKS")
            return
        wrapped = []
        for i, fn in enumerate(checks):
            w = self.wrapper(f"selfcheck.c{i + 1:02d}", fn)
            wrapped.append(w)
            name = getattr(fn, "__name__", None)
            if name and getattr(sc, name, None) is fn:
                self._patch(sc, name, w)
        self._patch(sc, "ALL_CHECKS", wrapped)
        self.unmeasured += [f"selfcheck.c{i:02d}"
                            for i in range(len(checks) + 1,
                                           SELFCHECK_COUNT + 1)]

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # --- summary --------------------------------------------------------

    def arrays(self):
        return (np.array(self.starts, dtype=float),
                np.array(self.ends, dtype=float),
                np.array(self.parents, dtype=np.int64),
                np.array(self.kinds, dtype=np.int64))

    def key_times(self):
        """{key: (self seconds, inclusive seconds, span count)}."""
        starts, ends, parents, kinds = self.arrays()
        dur = ends - starts
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        self_t = dur - child
        out = {}
        for kid, key in enumerate(self.keys):
            m = kinds == kid
            out[key] = (float(self_t[m].sum()), float(dur[m].sum()),
                        int(m.sum()))
        return out

    def child_count(self, key, parent_key):
        """Spans of key whose direct parent is a span of parent_key."""
        if key not in self._key_id or parent_key not in self._key_id:
            return 0
        _, _, parents, kinds = self.arrays()
        k, p = self._key_id[key], self._key_id[parent_key]
        m = (kinds == k) & (parents >= 0)
        return int(np.count_nonzero(kinds[parents[m]] == p))

    def write(self, path):
        starts, ends, parents, kinds = self.arrays()
        np.savez(path, start=starts, end=ends, parent=parents, kind=kinds,
                 keys=np.array(self.keys))
