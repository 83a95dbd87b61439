import os
import sys

import hypothesis
import pytest

# Read before `import kwslab`, which sets a BLAS thread count where the
# caller set none.
BLAS_THREADS_SET_BY_CALLER = bool(
    {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"} & os.environ.keys()
)

import kwslab  # before any test module loads numpy, so tests run BLAS on one thread

sys.path.insert(0, os.path.dirname(__file__))

hypothesis.settings.register_profile(
    "kwslab", deadline=None, max_examples=50, derandomize=True
)
hypothesis.settings.load_profile("kwslab")

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

# smallest stream that still exercises pretrain + two incremental tasks
MICRO_FLAT = {
    "stream.pretrain_keywords": 3,
    "stream.tasks": 2,
    "stream.keywords_per_task": 2,
    "synth.keywords": 7,
    "synth.clips": 6,
    "sgd.pretrain_epochs": 2,
    "sgd.epochs": 2,
    "sgd.batch_size": 8,
    "ewc.lambda": 5.0,
}


def micro_config(**overrides):
    from kwslab.config import config_from_mapping

    flat = dict(MICRO_FLAT)
    flat.update(overrides)
    return config_from_mapping(flat)


@pytest.fixture(scope="session")
def micro_run(tmp_path_factory):
    """Run (and cache) one micro training run per distinct config."""
    from kwslab import trainer

    cache = {}

    def get(strategy, **overrides):
        key = (strategy, tuple(sorted(overrides.items())))
        if key not in cache:
            out = tmp_path_factory.mktemp(f"micro_{strategy}")
            cfg = micro_config(strategy=strategy, out_dir=str(out), **overrides)
            cache[key] = (trainer.run(cfg), str(out))
        return cache[key]

    return get


def log_extractions(monkeypatch, path):
    """Make every process, forked extraction helpers included, append one
    `<pid> <clip uri>` line to `path` per clip it extracts. Returns a
    function that reads the log as (pid, uri) pairs."""
    from kwslab import trainer

    real_mfcc = trainer.mfcc

    def logging_mfcc(clip, *args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()} {clip.source_id}\n")
        return real_mfcc(clip, *args, **kwargs)

    monkeypatch.setattr(trainer, "mfcc", logging_mfcc)

    def read():
        if not os.path.exists(path):
            return []
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        return [(int(pid), uri) for pid, uri in (line.split(" ", 1) for line in lines)]

    return read


def forbid_extraction_in_tasks(monkeypatch, extracted):
    """Make `trainer._train_task` assert that this process extracts no clip
    while it trains a task, so `epoch_seconds` times training only;
    `extracted` reads a `log_extractions` log."""
    from kwslab import trainer

    real_train_task = trainer._train_task

    def extracted_here():
        return [uri for pid, uri in extracted() if pid == os.getpid()]

    def checked_train_task(*args, **kwargs):
        before = extracted_here()
        rows = real_train_task(*args, **kwargs)
        assert extracted_here() == before
        return rows

    monkeypatch.setattr(trainer, "_train_task", checked_train_task)


def record_forks(monkeypatch):
    """Record the pid of every child that `os.fork` makes from now on."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def assert_reaped(pids):
    """Every pid names a process that has ended and been reaped (a zombie
    still takes signal 0)."""
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
