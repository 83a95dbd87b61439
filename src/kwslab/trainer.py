"""Sequential training orchestration.

One run = pretrain on task 0, then each incremental task in order, with the
strategy hooks wired into every step:

    backward(task loss) -> g
    g += penalty gradient          (anchor-based strategies)
    g  = post_batch(g)             (gradient projection)
    apply SGD step -> delta
    post_step(task-loss g, delta)  (path-integral accounting)

After each task the strategy consolidates, every learned task is evaluated
with eval-mode batch norm, and the accuracy matrix row is written exactly
once. Features for every clip of the stream are extracted before the first
task, so `epoch_seconds` covers training only. A run is single-threaded end
to end and bit-reproducible for a fixed config; only wall-clock timings
differ between repeats.
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import numpy as np

from . import autodiff as ad
from .autodiff import Sgd, SgdConfig, Tensor
from .config import RunConfig, config_hash, config_to_flat
from .dsp import FrontendConfig, mfcc, pad_or_trim
from .errors import EmptyDataError, NanError, NanLossError, StreamMismatchError
from .metrics import AccuracyMatrix, RunReport, emit_report, summary_metrics
from .seeding import rng_for
from .strategies import EvalHandle, Strategy, TrainContext, make_strategy
from .taskstream import ClipRef, TaskSpec, TaskStream, split_corpus_dir, synth_stream

EVAL_BATCH = 64


def build_stream_from_config(cfg: RunConfig) -> TaskStream:
    if cfg.stream.source == "dir":
        return split_corpus_dir(cfg.stream.corpus_dir, cfg.seed, cfg.stream.layout)
    return synth_stream(cfg.stream.synth, cfg.seed, cfg.stream.layout)


def stream_fingerprint(stream: TaskStream) -> str:
    blob = json.dumps(stream.to_manifest(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class FeatureCache:
    """MFCC features keyed by clip URI, computed on first use.

    One cache serves every run on the same stream; `stream_fingerprint`
    says which stream that is.
    """

    def __init__(self, stream: TaskStream, frontend: FrontendConfig = FrontendConfig()):
        self.stream = stream
        self.frontend = frontend
        self.stream_fingerprint = stream_fingerprint(stream)
        self._cache: dict[str, np.ndarray] = {}

    def __call__(self, ref: ClipRef) -> np.ndarray:
        hit = self._cache.get(ref.uri)
        if hit is None:
            clip = pad_or_trim(self.stream.load_clip(ref))
            feat = mfcc(clip, self.frontend)
            hit = np.ascontiguousarray(feat.data.T)  # [n_mfcc, n_frames]
            self._cache[ref.uri] = hit
        return hit

    def shape(self, sample_ref: ClipRef) -> tuple[int, int]:
        arr = self(sample_ref)
        return arr.shape[0], arr.shape[1]

    def materialize(self) -> None:
        """Extract the features of every train and test clip of every task."""
        for task in self.stream.tasks:
            for ref in (*task.train, *task.test):
                self(ref)


def _chunks(seq, size: int):
    for i in range(0, len(seq), size):
        yield seq[i : i + size]


def evaluate(handle: EvalHandle, task: TaskSpec, ctx: TrainContext) -> float:
    """Top-1 accuracy on the task's test split; ties go to the lowest index."""
    refs = task.test
    if not refs:
        raise EmptyDataError(f"task {task.task_id} has no test samples")
    correct = 0
    for batch in _chunks(refs, EVAL_BATCH):
        x, y = ctx.batch(batch, handle.label_of)
        logits = handle.forward(x)
        pred = np.argmax(logits, axis=1)
        correct += int(np.sum(pred == y))
    return correct / len(refs)


def _write_diagnostic(strategy: Strategy, out_dir: str | None, task_id: int) -> str | None:
    if not out_dir:
        return None
    path = os.path.join(out_dir, f"diagnostic_task{task_id}.ckpt")
    os.makedirs(out_dir, exist_ok=True)
    items = strategy.checkpoint_items()
    if items:
        ad.save_checkpoint(path, items[0][1], dtype="<f8", meta={"task": task_id, "reason": "nan"})
        return path
    return None


def _train_task(
    cfg: RunConfig,
    ctx: TrainContext,
    strategy: Strategy,
    task: TaskSpec,
    training_log: list,
    epoch_seconds: list,
) -> None:
    handle = strategy.before_task(task)
    data = strategy.augment_data(task)
    if not data:
        raise EmptyDataError(f"task {task.task_id} has no training samples")

    epochs = cfg.sgd.pretrain_epochs if task.is_pretrain else cfg.sgd.epochs
    sgd = Sgd(handle.params, cfg.sgd, lr_scale=handle.lr_scale)

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
                path = _write_diagnostic(strategy, cfg.out_dir, task.task_id)
                where = f"; diagnostic checkpoint at {path}" if path else ""
                raise NanLossError(
                    f"non-finite loss on task {task.task_id} epoch {epoch}{where}"
                ) from exc
            g_kws = handle.params.grad_vector()
            penalty = strategy.penalty_value()
            pg = strategy.penalty_grad()
            g = g_kws if pg is None else g_kws + pg
            g = strategy.post_batch(g)
            handle.params.set_grad_vector(g)
            delta = sgd.step()
            strategy.post_step(g_kws, delta)
            batch_losses.append(float(loss.data) + penalty)

        epoch_seconds.append(time.perf_counter() - t0)
        entry = {
            "task": task.task_id,
            "epoch": epoch,
            "loss": float(np.mean(batch_losses)),
        }
        if cfg.eval_every and (epoch + 1) % cfg.eval_every == 0 and epoch + 1 < epochs:
            entry["task_acc"] = evaluate(strategy.eval_handle(task.task_id), task, ctx)
        training_log.append(entry)


def _save_task_checkpoints(strategy: Strategy, out_dir: str | None, task_id: int) -> None:
    if not out_dir:
        return
    ckpt_dir = os.path.join(out_dir, "checkpoints", f"task{task_id}")
    os.makedirs(ckpt_dir, exist_ok=True)
    for name, params in strategy.checkpoint_items():
        ad.save_checkpoint(
            os.path.join(ckpt_dir, f"{name}.ckpt"), params, dtype="<f8",
            meta={"task": task_id, "name": name},
        )


def run(cfg: RunConfig, features: FeatureCache | None = None) -> RunReport:
    """Train and evaluate one config; `features` may be a cache shared with
    other runs on the same stream."""
    cfg.validate()
    stream = build_stream_from_config(cfg)
    if features is None:
        features = FeatureCache(stream)
    elif features.stream_fingerprint != stream_fingerprint(stream):
        raise StreamMismatchError(
            f"feature cache is for stream {features.stream_fingerprint}, "
            f"config builds stream {stream_fingerprint(stream)}"
        )
    features.materialize()
    feature_shape = features.shape(stream.tasks[0].train[0])
    ctx = TrainContext(cfg=cfg, stream=stream, features=features, feature_shape=feature_shape)
    strategy = make_strategy(ctx)

    matrix = AccuracyMatrix(len(stream.tasks))
    acc_by_task: list[float] = []
    extra_params_by_task: list[int] = []
    training_log: list = []
    epoch_seconds: list[float] = []

    if cfg.out_dir:
        os.makedirs(cfg.out_dir, exist_ok=True)
        stream.save_manifest(os.path.join(cfg.out_dir, "stream.json"))

    for task in stream.tasks:
        _train_task(cfg, ctx, strategy, task, training_log, epoch_seconds)
        strategy.after_task(task)
        row = []
        for k in range(task.task_id + 1):
            a = evaluate(strategy.eval_handle(k), stream.task(k), ctx)
            matrix.record(task.task_id, k, a)
            row.append(a)
        acc_by_task.append(float(np.mean(row)))
        extra_params_by_task.append(strategy.extra_params())
        _save_task_checkpoints(strategy, cfg.out_dir, task.task_id)

    both = summary_metrics(matrix)
    headline = both["incl_pretrain"] if cfg.include_pretrain else both["excl_pretrain"]
    report = RunReport(
        strategy=cfg.strategy,
        seed=cfg.seed,
        config_hash=config_hash(cfg),
        stream_fingerprint=features.stream_fingerprint,
        matrix=matrix.as_lists(),
        acc=headline["acc"],
        la=headline["la"],
        bwt=headline["bwt"],
        metrics_incl_pretrain=both["incl_pretrain"],
        metrics_excl_pretrain=both["excl_pretrain"],
        extra_params=strategy.extra_params(),
        buffer_bytes=strategy.buffer_bytes(),
        acc_by_task=acc_by_task,
        extra_params_by_task=extra_params_by_task,
        training_log=training_log,
        epoch_seconds=epoch_seconds,
        tt_mean_epoch_seconds=float(np.mean(epoch_seconds)) if epoch_seconds else 0.0,
        extras=strategy.report_extras(),
        config_flat={k: v for k, v in config_to_flat(cfg).items() if k != "out_dir"},
    )
    if cfg.out_dir:
        emit_report(report, cfg.out_dir)
    return report
