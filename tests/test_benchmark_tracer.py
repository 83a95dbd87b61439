"""The benchmark's tracer patches kwslab by name from outside the package,
so a renamed or deleted name it looks up must fail here, not in a benchmark
run."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_installs_and_restores_every_patch():
    tracer = load_tracer_module().Tracer()
    try:
        with tracer:
            patches = list(tracer._patches)
            assert patches
            for owner, attr, original in patches:
                assert vars(owner)[attr] is not original, attr
    finally:
        tracer.uninstall()  # also undoes an install that failed halfway
    for owner, attr, original in patches:
        assert vars(owner)[attr] is original, attr
