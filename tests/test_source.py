"""Static checks over the package source."""

import ast
import pathlib

import pytest

from kwslab.config import _KEY_TABLE

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kwslab"


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; `__all__` counts as a read."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_checker_flags_unused_imports():
    source = "from __future__ import annotations\nimport os\nimport os.path\nfrom a import b as c, d\nd()\n"
    assert unused_imports(source) == ["c (line 4)", "os (line 3)"]
    assert unused_imports("import numpy as np\n__all__ = ['np']\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def config_key_errors(source: str) -> list[str]:
    """`ConfigError(<config key>, ...)` calls: a key's accepted values are
    decided by its entry in config._KEY_TABLE, and nowhere else."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "ConfigError"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value in _KEY_TABLE
        ):
            found.append(f"{node.args[0].value} (line {node.lineno})")
    return found


def test_checker_flags_config_key_errors():
    source = 'ConfigError("nr.xi", "x")\nConfigError("pcl.alpha", "y")\nConfigError(name, "z")\n'
    assert config_key_errors(source) == ["nr.xi (line 1)"]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "config.py"), ids=lambda p: p.name
)
def test_config_keys_are_checked_only_in_config(path):
    assert config_key_errors(path.read_text(encoding="utf-8")) == []


def attributes_read(source: str) -> set[str]:
    """Names read as `x.name` anywhere in the source."""
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_config_keys(sources: list[str]) -> list[str]:
    """Keys of config._KEY_TABLE whose field no source reads."""
    read = set().union(*(attributes_read(s) for s in sources))
    return [key for key, (path, _, _) in _KEY_TABLE.items() if path[-1] not in read]


def test_checker_flags_unread_config_keys():
    assert "nr.xi" in unread_config_keys(["cfg.nr.lam\nx.xi = 1\n"])
    assert "nr.xi" not in unread_config_keys(["cfg.nr.xi\n"])


def test_every_config_key_is_read_outside_config():
    sources = [p.read_text(encoding="utf-8") for p in SRC.glob("*.py") if p.name != "config.py"]
    assert unread_config_keys(sources) == []
