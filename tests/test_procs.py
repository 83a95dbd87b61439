"""The BLAS thread count importing kwslab sets (`kwslab.procs`), read back
from numpy's own OpenBLAS."""

import ctypes
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from conftest import BLAS_THREADS_SET_BY_CALLER
from kwslab import procs

SRC = str(pathlib.Path(procs.__file__).resolve().parent.parent)
GETTER = "scipy_openblas_get_num_threads64_"


def blas_threads() -> int:
    """OpenBLAS's thread count, from the getter numpy's bundled OpenBLAS
    exports; skips where numpy's BLAS does not export it."""
    try:
        # dlsym on an extension's handle also searches the libraries it links
        getter = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), GETTER)
    except AttributeError:
        pytest.skip(f"numpy's BLAS does not export {GETTER}")
    getter.argtypes, getter.restype = (), ctypes.c_int
    return getter()


def test_the_test_process_runs_blas_on_one_thread():
    if BLAS_THREADS_SET_BY_CALLER:
        pytest.skip("the caller set a BLAS thread count, which wins")
    assert blas_threads() == 1


@pytest.mark.parametrize("caller_sets, threads", [
    ({}, 1),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2),
    ({"OMP_NUM_THREADS": "2"}, 2),
])
def test_importing_kwslab_pins_blas_unless_the_caller_set_a_count(caller_sets, threads):
    """A fresh interpreter imports kwslab, then numpy: with none of the
    three variables set BLAS runs one thread, and a count the caller set,
    through either variable, is kept."""
    blas_threads()  # skips here, before any child, where the getter is missing
    if threads > procs.usable_cpus():
        pytest.skip("OpenBLAS runs no more threads than there are CPUs")
    env = {k: v for k, v in os.environ.items() if k not in procs._BLAS_THREAD_VARS}
    code = (
        "import ctypes, kwslab, numpy as np\n"
        f"getter = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), {GETTER!r})\n"
        "print(getter())\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, env={**env, **caller_sets, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) == threads
