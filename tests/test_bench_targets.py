"""The benchmark's span recorder wraps package names from bench/spans.py;
a name that stops resolving leaves its layer unmeasured.  These tests
catch that here, without running the benchmark."""

import ast
import importlib.util
from pathlib import Path

import pytest

_ROOT = Path(__file__).resolve().parent.parent
_SPANS = _ROOT / "bench" / "spans.py"


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


def test_every_unused_import_is_a_wrap_target(spans):
    # an import kept only for bench/spans.py sits on its own line under
    # `# noqa: F401`, so that these lines can be deleted together
    targets = set(_targets(spans))
    stray = []
    for path in sorted((_ROOT / "src" / "schwarzfront").glob("*.py")):
        text = path.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ImportFrom) or not any(
                    "# noqa: F401" in line
                    for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            assert node.lineno == node.end_lineno, (path.name, node.lineno)
            names = (f"{path.stem}.{a.asname or a.name}" for a in node.names)
            stray += [name for name in names if name not in targets]
    assert stray == []


def _imports(tree, lines):
    """(name, line) for each name an import statement binds, but those of
    __future__ imports and of statements marked `# noqa: F401`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [a.asname or a.name for a in node.names]
        else:
            continue
        if not any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
            yield from ((name, node.lineno) for name in names)


def test_every_import_is_used():
    # no linter runs on the package, so a module that keeps an import it
    # no longer reads (say `math` after a deletion) fails here; the
    # package __init__ imports only to re-export
    unused = []
    for path in sorted((_ROOT / "src" / "schwarzfront").glob("*.py")):
        if path.name == "__init__.py":
            continue
        text = path.read_text()
        tree = ast.parse(text)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in _imports(tree, text.splitlines())
                   if name not in used]
    assert unused == []
