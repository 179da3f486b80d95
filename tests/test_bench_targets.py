"""The benchmark's span recorder wraps package names from bench/spans.py;
a name that stops resolving leaves its layer unmeasured.  These tests
catch that here, without running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

_SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", _SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets(spans):
    for w in spans.WRAPS:
        yield from w.names
        yield from w.errors.values()


def test_every_wrap_target_resolves(spans):
    missing = []
    for dotted in _targets(spans):
        try:
            owner, attr = spans._resolve(dotted)
            getattr(owner, attr)
        except (ImportError, AttributeError):
            missing.append(dotted)
    assert missing == []


def test_every_selfcheck_criterion_is_wrapped(spans):
    from schwarzfront import selfcheck
    assert len(selfcheck.ALL_CHECKS) == spans.SELFCHECK_COUNT
