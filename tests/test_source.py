"""Static checks over the package source."""

import ast
import collections
import pathlib
import sys

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


def write_opens(source: str) -> list[str]:
    """`open(...)` and `wave.open(...)` calls whose mode may write (any mode
    but a literal one without "w", "a", "x" or "+"), unless they wrap a file
    that `replace_on_success` opened. The package writes files only through
    `fileio.replace_on_success`, so each is whole or absent."""
    tree = ast.parse(source)
    handles = {
        item.optional_vars.id
        for node in ast.walk(tree) if isinstance(node, ast.With)
        for item in node.items
        if isinstance(item.optional_vars, ast.Name)
        and isinstance(item.context_expr, ast.Call)
        and ast.unparse(item.context_expr.func).endswith("replace_on_success")
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or ast.unparse(node.func) not in ("open", "wave.open"):
            continue
        if node.args and isinstance(node.args[0], ast.Name) and node.args[0].id in handles:
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
        if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+")):
            found.append((node.lineno, f"{ast.unparse(node.func)} (line {node.lineno})"))
    return [text for _, text in sorted(found)]


def test_checker_flags_write_mode_opens():
    source = (
        'open(p)\nopen(p, "rb")\nwave.open(p, mode="r")\nos.open(p, flags)\n'
        'open(p, "w")\nwave.open(fh, "wb")\nopen(p, mode="a")\nopen(p, mode)\nopen(p, "r+")\n'
        'with replace_on_success(p, "wb") as out, wave.open(out, "wb") as wf:\n    pass\n'
    )
    assert write_opens(source) == [
        "open (line 5)", "wave.open (line 6)", "open (line 7)", "open (line 8)", "open (line 9)",
    ]


@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "fileio.py"), ids=lambda p: p.name
)
def test_files_are_written_only_through_fileio(path):
    assert write_opens(path.read_text(encoding="utf-8")) == []


THREAD_MODULES = ("multiprocessing", "threading", "concurrent")
PROCESS_CALLS = ("os.fork", "os.waitpid", "os.kill")


def process_code(source: str) -> list[str]:
    """Imports of a module that starts threads or processes, and uses of
    the calls that fork, reap or signal a process. The package starts no
    thread (the premise of `trainer._set_allocator_policy`), and only
    `procs.py` forks, reaps or kills."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [ast.unparse(node)]
        else:
            continue
        for name in names:
            if name.split(".")[0] in THREAD_MODULES or name in PROCESS_CALLS:
                found.append(f"{name} (line {node.lineno})")
    return found


def test_checker_flags_process_code():
    source = (
        "import os, multiprocessing.pool\nfrom concurrent import futures\n"
        "from os import fork\npid = os.fork()\nos.waitpid(pid, 0)\nos.getpid()\n"
    )
    assert process_code(source) == [
        "multiprocessing.pool (line 1)", "concurrent (line 2)", "concurrent.futures (line 2)",
        "os.fork (line 3)", "os.fork (line 4)", "os.waitpid (line 5)",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_only_procs_forks_and_nothing_starts_threads(path):
    found = process_code(path.read_text(encoding="utf-8"))
    if path.name == "procs.py":
        found = [name for name in found if name.split(" ")[0] not in PROCESS_CALLS]
    assert found == []


# Each stream builder and the one function that may call it.
STREAM_BUILDERS = {
    "stream_for": "FeatureCache.__init__",
    "synth_stream": "stream_for",
    "split_corpus_dir": "stream_for",
}


def stream_builds(source: str) -> list[str]:
    """Calls of a stream builder from anywhere but its one caller: only
    `FeatureCache.__init__` calls `trainer.stream_for`, and only
    `stream_for` calls `synth_stream` and `split_corpus_dir`. So each
    feature cache builds, and for a WAV corpus checks, its stream once,
    and nothing else in the package builds one."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        elif isinstance(node, ast.Call):
            name = ast.unparse(node.func).split(".")[-1]
            if STREAM_BUILDERS.get(name, scope) != scope:
                found.append(f"{name} in {scope or 'the module'} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "")
    return found


def test_checker_flags_a_second_stream_build():
    source = (
        "def stream_for(seed, cfg):\n    return synth_stream(cfg.synth, seed)\n"
        "class FeatureCache:\n    def __init__(self, seed, cfg):\n"
        "        self.stream = trainer.stream_for(seed, cfg)\n"
        "def check(cfg):\n    def build(seed):\n        return stream_for(seed, cfg)\n"
        "corpus = taskstream.split_corpus_dir(root, 0)\n"
    )
    assert stream_builds(source) == [
        "stream_for in check.build (line 8)", "split_corpus_dir in the module (line 9)",
    ]


def test_checker_flags_a_sweep_check_that_builds_each_stream():
    """A sweep's stream check that also built each seed's stream, as the
    cli once did before the seed's cache built it again."""
    cli = (SRC / "cli.py").read_text(encoding="utf-8") + (
        "\n\ndef _require_one_stream_per_seed(cfgs):\n"
        "    stream_of_seed = {cfg.seed: cfg.stream for cfg in cfgs}\n"
        "    for seed, stream_cfg in stream_of_seed.items():\n"
        "        stream_for(seed, stream_cfg)\n"
    )
    assert [text.split(" (")[0] for text in stream_builds(cli)] == [
        "stream_for in _require_one_stream_per_seed",
    ]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_each_feature_cache_builds_its_stream_once(path):
    assert stream_builds(path.read_text(encoding="utf-8")) == []


def blas_pin_order_errors(init_source: str, procs_source: str) -> list[str]:
    """Why `procs`'s BLAS pin might not be set before numpy loads: an import
    in `__init__.py` that comes before `from . import procs`, or a module
    outside the standard library that `procs` imports. BLAS reads its thread
    count once, when numpy loads it, so a reordered import would silently
    undo the pin."""
    found = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None \
                and [alias.name for alias in node.names] == ["procs"]:
            break
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            found.append(f"__init__.py imports before procs (line {node.lineno})")
    else:
        found.append("__init__.py does not import procs on its own line")
    for node in ast.walk(ast.parse(procs_source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["." * node.level + (node.module or "")]
        else:
            continue
        found += [f"procs.py imports {name} (line {node.lineno})" for name in names
                  if name.split(".")[0] not in sys.stdlib_module_names]
    return found


def test_checker_flags_imports_that_could_load_numpy_before_the_pin():
    pin = "from __future__ import annotations\nfrom . import procs\n"
    assert blas_pin_order_errors(pin + "from .config import x\n", "import os\n") == []
    assert blas_pin_order_errors("import numpy\n" + pin, "import os.path\nfrom . import seeding\n"
                                 "from numpy import ndarray\n") == [
        "__init__.py imports before procs (line 1)",
        "procs.py imports . (line 2)", "procs.py imports numpy (line 3)",
    ]
    assert blas_pin_order_errors("from . import procs, config\n", "") == [
        "__init__.py imports before procs (line 1)", "__init__.py does not import procs on its own line",
    ]


def test_procs_pins_blas_before_any_module_loads_numpy():
    assert blas_pin_order_errors((SRC / "__init__.py").read_text(encoding="utf-8"),
                                 (SRC / "procs.py").read_text(encoding="utf-8")) == []


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


# Public names no code in the package reads, each kept for a reason.
SURFACE_ALLOWED = {
    "reports_equivalent": "testing API: report equality up to timings; perfbench imports it",
    "square": "criterion-1 gradient suite: an op the gradcheck tests compose losses from",
    "tensor_sum": "criterion-1 gradient suite: reduces an op's output to a scalar loss",
    "scale": "criterion-1 gradient suite: the constant-factor op",
    "TaskStream.load_manifest": "resume (ROADMAP item 8) reloads a run's stream.json",
    "load_checkpoint": "resume (ROADMAP item 8) reads the per-task checkpoints",
    "ParameterVector.set_grad_vector": "perfbench/tracer.py counts it in COPY_METHODS",
}


def global_reads(node) -> collections.Counter:
    """Names read under `node`: `x.name` attributes, and bare names that no
    enclosing function binds (an argument or an assignment shadows a global)."""
    reads = collections.Counter()

    def visit(node, local):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            local = local | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            local |= {a.arg for a in (args.vararg, args.kwarg) if a is not None}
            local |= {
                n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(node, frozenset())
    return reads


def public_definitions(tree):
    """(qualified name, node) of each public top-level function and class,
    and of each public method."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unread_public_names(sources: list[str]) -> list[str]:
    """Public definitions read nowhere outside their own body and not in any `__all__`."""
    trees = [ast.parse(s) for s in sources]
    reads = sum((global_reads(t) for t in trees), collections.Counter())
    exported = set()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported.update(ast.literal_eval(node.value))
    return sorted(
        qualname
        for tree in trees
        for qualname, node in public_definitions(tree)
        if node.name not in exported and reads[node.name] <= global_reads(node)[node.name]
    )


def test_checker_flags_unread_public_names():
    lib = (
        "def used(x):\n    return helper(x)\n"
        "def helper(helper):\n    return helper\n"  # its argument shadows it
        "def recursive(n):\n    return recursive(n - 1)\n"
        "def exported():\n    pass\n"
        "def _private():\n    pass\n"
        "class Box:\n    def get(self):\n        return self.put()\n"
        "    def put(self):\n        pass\n"
        "__all__ = ['exported']\n"
    )
    assert unread_public_names([lib, "used(1)\n"]) == ["Box", "Box.get", "recursive"]


@pytest.fixture(scope="module")
def package_sources():
    return [p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]


def test_checker_flags_a_readded_test_only_function(package_sources):
    dsp = SRC / "dsp.py"
    readded = dsp.read_text(encoding="utf-8") + (
        "\n\ndef save_feature_csv(path, feat):\n"
        "    np.savetxt(path, feat, delimiter=\",\", fmt=\"%.17g\")\n"
    )
    sources = [readded if p == dsp else p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))]
    assert "save_feature_csv" in unread_public_names(sources)
    assert "save_feature_csv" not in unread_public_names(package_sources)


def test_every_public_name_is_read_exported_or_allowed(package_sources):
    """The allow-list is exact: a name that gains a caller leaves it."""
    assert unread_public_names(package_sources) == sorted(SURFACE_ALLOWED)
