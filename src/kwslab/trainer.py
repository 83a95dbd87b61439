"""Sequential training orchestration.

One run = pretrain on task 0, then each incremental task in order, with the
strategy hooks wired into every step:

    backward(task loss) -> g_kws
    g, penalty = post_batch(g_kws)   (anchor penalty gradient, or GEM projection)
    delta = Sgd.step(g)
    post_step(g_kws, delta)          (path-integral accounting, or EWC's proximal pull)
    logged loss = task loss + penalty

After each task the strategy consolidates, and every learned task is
evaluated with eval-mode batch norm into that task's row of the accuracy
matrix R. `metrics.build_report` derives every summary field from R and the
rows each task hands back, and the footprint fields from the strategy's
`accounting()`. A non-finite loss saves the parameters being trained as
`diagnostic_task<t>.ckpt`, then raises `NanLossError`. A seed and a stream
section name a stream: the `FeatureCache` built from the pair builds it,
once. Its first barrier forks helper processes through `procs`, one per
further usable CPU, to extract its clips' features. Before each task the run
waits at the cache's barrier, `require(t)`, until every clip of tasks 0..t
is in, so a run trains task 0 while the helpers extract the later tasks,
and `epoch_seconds` covers training only. The cache also holds one task-0
state per pretraining class (`Strategy.pretrained_by`): an Si's for the
global-head strategies and a Pcl's for pcl and standalone.
`FeatureCache.pretraining` trains a class's state on its first call and
keeps its task-0 handle's named segments; every run restores a copy of them
into its own task-0 handle. A sweep that forks its runs calls it in the
parent first, so each child only restores. Training and eval run in one
process on one BLAS thread unless the caller set a count (`procs`), so a
run is bit-reproducible for a fixed config on any CPU count, up to its
wall-clock timings.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import json
import math
import mmap
import os
import platform
import time
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import procs
from .autodiff import Segment, Sgd, Tensor
from .config import RunConfig, StreamConfig, config_hash, config_to_flat
from .dsp import FEATURE_SHAPE, mfcc, pad_or_trim
from .errors import EmptyDataError, NanError, NanLossError, StreamMismatchError
from .metrics import RunReport, build_report, emit_report
from .seeding import rng_for
from .strategies import Strategy, TrainContext, make_strategy, strategy_class
from .taskstream import ClipRef, TaskSpec, TaskStream, split_corpus_dir, synth_stream

EVAL_BATCH = 64


def stream_for(seed: int, stream_cfg: StreamConfig) -> TaskStream:
    """The task stream that a seed and a config's stream section name."""
    if stream_cfg.source == "dir":
        return split_corpus_dir(stream_cfg.corpus_dir, seed, stream_cfg.layout)
    return synth_stream(stream_cfg.synth, seed, stream_cfg.layout)


def stream_fingerprint(stream: TaskStream) -> str:
    blob = json.dumps(stream.to_manifest(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# (mallopt parameter from glibc's malloc.h, value): M_MMAP_THRESHOLD 32 MiB
# and M_TRIM_THRESHOLD 256 MiB, the two values measured (setting only one of
# them does not stop the page faults).
_MALLOC_POLICY = ((-3, 32 << 20), (-1, 256 << 20))


def _set_allocator_policy() -> bool:
    """Keep freed memory in the process between steps. glibc's defaults
    hand each step's large temporaries (MFCC frames, conv and BN
    activations) back to the kernel, and the next step page-faults them in
    again. On glibc this sets an mmap threshold of 32 MiB and a trim
    threshold of 256 MiB for the whole process; `FeatureCache`'s extraction
    helpers are forked after it is set, so they inherit it. No malloc arena
    cap is set: the package starts no threads, so the main arena is the
    only one. Elsewhere it does nothing. No computed number depends on it.
    Returns whether every `mallopt` call succeeded."""
    if platform.libc_ver()[0] != "glibc":
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _MALLOC_POLICY])


class FeatureCache:
    """The stream that `(seed, stream_cfg)` names, built, checked and
    fingerprinted once, and the MFCC features of its train and test clips
    by clip URI. Building the cache maps no block, loads no clip and forks
    nothing: its first barrier does that.

    `require(t)` is the barrier: it returns once every clip of tasks 0..t
    is in, and `__call__` waits the same way for a row that is not in yet.
    The first barrier sets the process's allocator policy
    (`_set_allocator_policy`), then maps a float64 block of shape
    [n_clips, *dsp.FEATURE_SHAPE], one shared anonymous mmap with a row
    per clip in stream order, so rows [0, end of task t) hold every clip
    of tasks 0..t. It forks one helper per further usable CPU through
    `procs`; each writes its rows into the block in stream order and
    reports each finished row on its pipe. Task 0's rows are striped over
    this process and the helpers, and the later rows over the helpers
    alone, so a run trains task 0 while the helpers extract the later
    tasks. `mfcc` is a pure function of its clip, so every row is bit for
    bit what a one-at-a-time extraction gives, whatever the CPU count.
    With one usable CPU, or where processes cannot fork, there are no
    helpers, and this process extracts each task's rows at its barrier.

    A helper that ends without reporting all its rows, killed or raising
    (a WAV stream's files were checked when it was built), hands them back
    to this process, which extracts them itself. The helpers end once
    every row is in; `close()` kills and reaps any still alive, and a
    barrier that raises closes the cache first. A closed cache still
    serves every clip: its missing rows are extracted here.

    A sweep forks a run only once the last task is in, so forked runs
    inherit a complete block and no helper. One cache serves every run
    whose config names its pair, on exactly the clips it extracted; a clip
    outside the stream is a `StreamMismatchError`. It also holds the
    task-0 states those runs adopt (`pretraining`).
    """

    def __init__(self, seed: int, stream_cfg: StreamConfig):
        self.seed, self.stream_cfg = seed, stream_cfg
        self.stream = stream_for(seed, stream_cfg)
        self.stream_fingerprint = stream_fingerprint(self.stream)
        self._pretrained: dict[tuple, tuple[list[Segment], list[dict], list[float]]] = {}
        self._row: dict[str, int] = {}
        self._refs: list[ClipRef] = []
        self._task_end: list[int] = []  # rows [0, end) hold every clip of tasks 0..t
        for task in self.stream.tasks:
            for ref in (*task.train, *task.test):
                if ref.uri not in self._row:
                    self._row[ref.uri] = len(self._refs)
                    self._refs.append(ref)
            self._task_end.append(len(self._refs))
        self._block: np.ndarray | None = None  # what `__call__` hands out, from the first barrier
        self._ready = 0  # rows [0, ready) are done
        self._helpers = procs.Workers()  # each tagged with the rows it was given

    def _start(self) -> None:
        """The first barrier's work: set the allocator policy, map the block
        and fork the helpers."""
        _set_allocator_policy()
        n = len(self._refs)
        shape = (n, *FEATURE_SHAPE)
        # mmap's default on Unix is MAP_SHARED: a helper's writes land here
        shared = mmap.mmap(-1, max(1, math.prod(shape) * 8))
        self._writable = np.ndarray(shape, dtype=np.float64, buffer=shared)
        self._block = self._writable.view()
        self._block.flags.writeable = False
        self._done = np.zeros(n, dtype=bool)
        self._mine = np.ones(n, dtype=bool)  # rows this process extracts
        self._start_helpers(procs.usable_cpus() - 1)

    def _extract(self, i: int) -> None:
        self._writable[i] = mfcc(pad_or_trim(self.stream.load_clip(self._refs[i]))).T

    def _start_helpers(self, count: int) -> None:
        """Fork up to `count` helpers. Task 0's rows go round-robin to this
        process and the helpers, the later rows round-robin to the helpers.
        A helper that cannot be forked leaves its rows to this process."""
        n0, n = self._task_end[0], len(self._refs)
        count = min(count, n - n0) if procs.CAN_FORK else 0
        for h in range(1, count + 1):
            rows = [*range(h, n0, count + 1), *range(n0 + h - 1, n, count)]
            try:
                self._helpers.start(functools.partial(self._helper, rows), rows)
            except OSError:  # fork refused: EAGAIN or ENOMEM
                continue
            self._mine[rows] = False

    def _helper(self, rows: list[int], fd: int) -> None:
        """A forked helper's body: extract `rows` in order into the block and
        report each on `fd` as a 4-byte index. A write this short is atomic
        on a pipe, and every read takes a multiple of its size, so no read
        splits a report. The helper holds no pipe's read end, so its writes
        fail once the parent is gone."""
        for i in rows:
            self._extract(i)
            os.write(fd, np.int32(i).tobytes())

    def _read_helpers(self, timeout: float | None) -> None:
        """Read every report the helpers have written, waiting up to
        `timeout` seconds (None: until one has written or ended). A helper
        that has ended is reaped, and its unreported rows come back here.
        A helper can run ahead of its last read by a pipe buffer of
        reports (16384 rows on Linux) before its writes block."""
        for fd in self._helpers.ready(timeout):
            data = os.read(fd, 1 << 16)
            if not data:
                rows, _ = self._helpers.end(fd)
                self._mine[rows] = True
            self._done[np.frombuffer(data, dtype=np.int32)] = True

    def require(self, task_id: int) -> None:
        """Return once every clip of tasks 0..`task_id` is in the block."""
        self._wait_for(self._task_end[task_id])

    def _wait_for(self, end: int) -> None:
        """Return once rows [0, end) are in, extracting this process's rows
        among them and reading the helpers' reports."""
        try:
            if self._block is None:
                self._start()
            self._read_helpers(0)
            while True:
                while self._ready < end and self._done[self._ready]:
                    self._ready += 1
                if self._ready >= end:
                    break
                todo = self._mine[self._ready:end] & ~self._done[self._ready:end]
                if todo.any():
                    i = self._ready + int(np.argmax(todo))
                    self._extract(i)
                    self._done[i] = True
                else:
                    self._read_helpers(None)
        except BaseException:
            self.close()
            raise
        if self._ready == len(self._refs):
            self.close()

    def close(self) -> None:
        """Kill and reap every helper still alive. The rows they had not
        reported are extracted here if they are asked for."""
        for rows in self._helpers.close():
            self._mine[rows] = True

    def pretraining(self, cfg: RunConfig) -> tuple[list[Segment], list[dict], list[float]]:
        """The task-0 state that a run of `cfg` adopts, by its strategy's
        pretraining class and `_pretraining_key`: the trained task-0
        handle's segments (weights, running statistics and, for an Si, the
        path integral), with the training-log and epoch-time rows. The
        first call for a (class, key) waits for task 0's rows, outside the
        epoch clock, then trains it with a new object of the class; the
        segments are taken from that dropped producer and are never
        written."""
        cls = strategy_class(cfg.strategy).pretrained_by
        key = (cls, _pretraining_key(cfg))
        if key not in self._pretrained:
            self.require(0)
            producer, task = cls(TrainContext(cfg=cfg, features=self)), self.stream.task(0)
            log, seconds = _train_task(producer, task)
            # the producer is dropped and `restore_into` copies, so no copy here
            state = [Segment(s.name, Tensor(s.tensor.data), s.trainable)
                     for s in producer.before_task(task).params.segments]
            self._pretrained[key] = (state, log, seconds)
        return self._pretrained[key]

    def __call__(self, ref: ClipRef) -> np.ndarray:
        row = self._row.get(ref.uri)
        if row is None:
            raise StreamMismatchError(
                f"clip {ref.uri!r} is not in the feature cache of stream "
                f"{self.stream_fingerprint}"
            )
        if row >= self._ready:
            self._wait_for(row + 1)
        return self._block[row]


def _chunks(seq, size: int):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def evaluate(logits: Callable[[np.ndarray], np.ndarray], task: TaskSpec,
             ctx: TrainContext) -> float:
    """Top-1 accuracy on the task's test split, labeled by `task.local_label`;
    ties go to the lowest index. The forwards run under `autodiff.no_grad`,
    so eval records no graph and holds no activation past its op."""
    refs = task.test
    if not refs:
        raise EmptyDataError(f"task {task.task_id} has no test samples")
    correct = 0
    with ad.no_grad():
        for batch in _chunks(refs, EVAL_BATCH):
            x, y = ctx.batch(batch, lambda ref: task.local_label(ref.keyword))
            pred = np.argmax(logits(x), axis=1)
            correct += int(np.sum(pred == y))
    return correct / len(refs)


def _write_diagnostic(params: ad.ParameterVector, out_dir: str | None, task_id: int) -> str | None:
    if not out_dir:
        return None
    path = os.path.join(out_dir, f"diagnostic_task{task_id}.ckpt")
    os.makedirs(out_dir, exist_ok=True)
    ad.save_checkpoint(path, params, meta={"task": task_id, "reason": "nan"})
    return path


def _train_task(strategy: Strategy, task: TaskSpec) -> tuple[list[dict], list[float]]:
    ctx, cfg = strategy.ctx, strategy.ctx.cfg
    handle = strategy.before_task(task)
    data = strategy.augment_data(task)
    if not data:
        raise EmptyDataError(f"task {task.task_id} has no training samples")

    epochs = cfg.sgd.pretrain_epochs if task.is_pretrain else cfg.sgd.epochs
    sgd = Sgd(handle.params, cfg.sgd, lr_scale=handle.lr_scale)
    training_log, epoch_seconds = [], []

    for epoch in range(epochs):
        t0 = time.perf_counter()
        order = rng_for(cfg.seed, f"shuffle|{task.task_id}|{epoch}").permutation(len(data))
        shuffled = [data[i] for i in order]
        batch_losses = []
        for batch in _chunks(shuffled, cfg.sgd.batch_size):
            x, y = ctx.batch(batch, handle.label_of)
            handle.params.zero_grad()
            try:
                logits = handle.forward(x)
                loss = ad.softmax_cross_entropy(logits, y)
                ad.backward(loss)
            except NanError as exc:
                path = _write_diagnostic(handle.params, cfg.out_dir, task.task_id)
                where = f"; diagnostic checkpoint at {path}" if path else ""
                raise NanLossError(
                    f"non-finite loss on task {task.task_id} epoch {epoch}{where}"
                ) from exc
            g_kws = handle.params.grad_vector()
            g, penalty = strategy.post_batch(g_kws)
            delta = sgd.step(g)
            strategy.post_step(g_kws, delta)
            batch_losses.append(float(loss.data) + penalty)

        epoch_seconds.append(time.perf_counter() - t0)
        entry = {
            "task": task.task_id,
            "epoch": epoch,
            "loss": float(np.mean(batch_losses)),
        }
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0 and epoch + 1 < epochs:
            entry["task_acc"] = evaluate(strategy.eval_logits(task.task_id), task, ctx)
        training_log.append(entry)
    return training_log, epoch_seconds


# Config keys that cannot change how task 0 trains: every other key, one
# added later included, is part of `_pretraining_key`.
_NOT_PRETRAINING_KEYS = ("strategy", "out_dir", "sgd.epochs")
_NOT_PRETRAINING_SECTIONS = ("metrics.", "ewc.", "si.", "nr.", "gem.", "pcl.")


def _pretraining_key(cfg: RunConfig) -> tuple:
    return tuple(sorted(
        (key, value) for key, value in config_to_flat(cfg).items()
        if key not in _NOT_PRETRAINING_KEYS and not key.startswith(_NOT_PRETRAINING_SECTIONS)
    ))


def _save_task_checkpoints(strategy: Strategy, task_id: int) -> None:
    out_dir = strategy.ctx.cfg.out_dir
    if not out_dir:
        return
    ckpt_dir = os.path.join(out_dir, "checkpoints", f"task{task_id}")
    os.makedirs(ckpt_dir, exist_ok=True)
    for name, params in strategy.checkpoint_items():
        ad.save_checkpoint(
            os.path.join(ckpt_dir, f"{name}.ckpt"), params, meta={"task": task_id, "name": name}
        )


def run(cfg: RunConfig, features: FeatureCache | None = None) -> RunReport:
    """Train and evaluate one config; `features` may be a cache shared with
    other runs on the config's stream, and is otherwise built here and
    closed when the run returns or raises. Task 0 is always adopted from
    the cache's state for the run's pretraining class."""
    cfg.validate()
    if features is None:
        features = FeatureCache(cfg.seed, cfg.stream)
        try:
            return _run_on(cfg, features)
        finally:
            features.close()
    if (features.seed, features.stream_cfg) != (cfg.seed, cfg.stream):
        raise StreamMismatchError(
            f"feature cache is for seed {features.seed} and {features.stream_cfg}, "
            f"config names seed {cfg.seed} and {cfg.stream}"
        )
    return _run_on(cfg, features)


def _run_on(cfg: RunConfig, features: FeatureCache) -> RunReport:
    stream = features.stream
    ctx = TrainContext(cfg=cfg, features=features)
    strategy = make_strategy(ctx)

    n = len(stream.tasks)
    R = np.full((n, n), np.nan)
    extra_params_by_task: list[int] = []
    training_log: list = []
    epoch_seconds: list[float] = []

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        stream.save_manifest(os.path.join(cfg.out_dir, "stream.json"))

    for task in stream.tasks:
        t = task.task_id
        features.require(t)  # outside the epoch clock
        if task.is_pretrain:
            state, rows, seconds = features.pretraining(cfg)
            ad.restore_into(strategy.before_task(task).params, state)
            rows, seconds = [dict(row) for row in rows], list(seconds)
        else:
            rows, seconds = _train_task(strategy, task)
        training_log += rows
        epoch_seconds += seconds
        strategy.after_task(task)
        R[t, : t + 1] = [
            evaluate(strategy.eval_logits(k), stream.task(k), ctx) for k in range(t + 1)
        ]
        accounting = strategy.accounting()
        extra_params_by_task.append(accounting.extra_params)
        _save_task_checkpoints(strategy, t)

    report = build_report(
        R,
        cfg.include_pretrain,
        extra_params_by_task,
        epoch_seconds,
        strategy=cfg.strategy,
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        stream_fingerprint=features.stream_fingerprint,
        buffer_bytes=accounting.buffer_bytes,
        training_log=training_log,
        extras=accounting.extras,
        config_flat={k: v for k, v in config_to_flat(cfg).items() if k != "out_dir"},
    )
    if cfg.out_dir:
        emit_report(report, cfg.out_dir)
    return report
