"""The benchmark's own files import kwslab names from outside the package,
so a renamed or deleted name they import must fail here, not in a benchmark
run."""

import ast
import importlib
import pathlib

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted([*PERFBENCH.glob("*.py"), *PERFBENCH.glob("tests/*.py")])


def kwslab_imports(source: str) -> list[tuple[str, str | None]]:
    """(module, name) of each `from kwslab... import name`, and (module, None)
    of each `import kwslab...`, anywhere in the source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "kwslab":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(a.name, None) for a in node.names if a.name.split(".")[0] == "kwslab"]
    return found


def resolves(module: str, name: str | None) -> bool:
    try:
        mod = importlib.import_module(module)
        if name is not None and not hasattr(mod, name):
            importlib.import_module(f"{module}.{name}")  # a submodule
    except ImportError:
        return False
    return True


def test_checker_flags_a_missing_name():
    source = "def f():\n    from kwslab.metrics import RunReport, AccuracyMatrix\nimport kwslab.nope\n"
    found = kwslab_imports(source)
    assert found == [("kwslab.nope", None), ("kwslab.metrics", "RunReport"),
                     ("kwslab.metrics", "AccuracyMatrix")]
    assert [resolves(*f) for f in found] == [False, True, False]


def test_benchmark_files_import_kwslab():
    assert sum(len(kwslab_imports(p.read_text(encoding="utf-8"))) for p in SOURCES) > 0


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(PERFBENCH)))
def test_every_kwslab_name_the_benchmark_imports_resolves(path):
    missing = [f for f in kwslab_imports(path.read_text(encoding="utf-8")) if not resolves(*f)]
    assert missing == []
