import dataclasses
import json
import os

import numpy as np
import pytest

from kwslab import autodiff as ad
from kwslab import trainer
from kwslab.autodiff import Sgd, Tensor
from kwslab.errors import EmptyDataError, NanLossError, StreamMismatchError
from kwslab.metrics import load_report, reports_equivalent
from kwslab.seeding import rng_for
from kwslab.strategies import EvalHandle, FineTune, TrainContext
from kwslab.trainer import FeatureCache, evaluate, stream_fingerprint

from conftest import micro_config


def micro_ctx(**overrides):
    cfg = micro_config(**overrides)
    stream = trainer.build_stream_from_config(cfg)
    features = FeatureCache(stream)
    shape = features.shape(stream.tasks[0].train[0])
    return TrainContext(cfg=cfg, stream=stream, features=features, feature_shape=shape)


# -- evaluation --------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return micro_ctx()


def test_evaluate_constant_logits_tie_to_lowest(ctx):
    task = ctx.stream.task(1)
    handle = EvalHandle(
        forward=lambda x: np.zeros((x.shape[0], task.n_keywords)),
        label_of=lambda ref: task.local_label(ref.keyword),
    )
    expected = sum(1 for r in task.test if task.local_label(r.keyword) == 0) / len(task.test)
    assert evaluate(handle, task, ctx) == expected


def test_evaluate_perfect_predictor(ctx):
    task = ctx.stream.task(1)
    labels = {r.uri: task.local_label(r.keyword) for r in task.test}
    order = [r.uri for r in task.test]

    def forward(x):
        # the trainer batches refs in order, so replay labels positionally
        took = order[: x.shape[0]]
        del order[: x.shape[0]]
        out = np.zeros((x.shape[0], task.n_keywords))
        for i, uri in enumerate(took):
            out[i, labels[uri]] = 1.0
        return out

    assert evaluate(EvalHandle(forward=forward, label_of=lambda r: labels[r.uri]), task, ctx) == 1.0


def test_evaluate_empty_test_split(ctx):
    task = dataclasses.replace(ctx.stream.task(1), test=[])
    handle = EvalHandle(forward=lambda x: np.zeros((1, 2)), label_of=lambda r: 0)
    with pytest.raises(EmptyDataError):
        evaluate(handle, task, ctx)


# -- fingerprints ----------------------------------------------------------------------

def test_stream_fingerprint_stability(ctx):
    a = stream_fingerprint(ctx.stream)
    b = stream_fingerprint(trainer.build_stream_from_config(micro_config()))
    assert a == b
    c = stream_fingerprint(trainer.build_stream_from_config(micro_config(seed=1)))
    assert a != c
    assert len(a) == 16


# -- features -----------------------------------------------------------------------------

def test_run_rejects_feature_cache_of_another_stream():
    other = FeatureCache(trainer.build_stream_from_config(micro_config(seed=1)))
    with pytest.raises(StreamMismatchError):
        trainer.run(micro_config(strategy="finetune"), features=other)


def test_features_are_extracted_before_the_first_task(monkeypatch):
    """No MFCC work lands inside a task, so epoch_seconds times training only."""
    calls = []
    real_mfcc, real_train_task = trainer.mfcc, trainer._train_task

    def counting_mfcc(*args, **kwargs):
        calls.append(1)
        return real_mfcc(*args, **kwargs)

    def checked_train_task(*args, **kwargs):
        before = len(calls)
        real_train_task(*args, **kwargs)
        assert len(calls) == before

    monkeypatch.setattr(trainer, "mfcc", counting_mfcc)
    monkeypatch.setattr(trainer, "_train_task", checked_train_task)
    cfg = micro_config(strategy="nr")
    trainer.run(cfg)
    stream = trainer.build_stream_from_config(cfg)
    assert len(calls) == sum(len(t.train) + len(t.test) for t in stream.tasks)


# -- single-task training loop ----------------------------------------------------------

def test_first_epoch_replay_matches_trainer(ctx):
    """The documented recipe (derived shuffle seed, chunked batches, plain SGD)
    reproduces the trainer's logged first-epoch loss bit for bit."""
    report = trainer.run(micro_config(strategy="finetune"))

    strategy = FineTune(ctx)
    task = ctx.stream.task(0)
    handle = strategy.before_task(task)
    data = list(task.train)
    sgd = Sgd(handle.params, ctx.cfg.sgd)

    order = rng_for(ctx.cfg.seed, "shuffle|0|0").permutation(len(data))
    shuffled = [data[i] for i in order]
    losses = []
    for start in range(0, len(shuffled), ctx.cfg.sgd.batch_size):
        batch = shuffled[start : start + ctx.cfg.sgd.batch_size]
        x, y = ctx.batch(batch, handle.label_of)
        handle.params.zero_grad()
        loss = ad.softmax_cross_entropy(handle.forward(x), y)
        ad.backward(loss)
        sgd.step()
        losses.append(float(loss.data))

    assert report.training_log[0] == {"task": 0, "epoch": 0, "loss": float(np.mean(losses))}


def test_run_is_deterministic():
    a = trainer.run(micro_config(strategy="finetune"))
    b = trainer.run(micro_config(strategy="finetune"))
    assert reports_equivalent(a, b)
    assert a.matrix == b.matrix


def test_seed_changes_the_run():
    a = trainer.run(micro_config(strategy="finetune"))
    b = trainer.run(micro_config(strategy="finetune", seed=1))
    assert not reports_equivalent(a, b)
    assert a.stream_fingerprint != b.stream_fingerprint


def test_penalty_is_logged_into_batch_loss(ctx):
    class Bumped(FineTune):
        def penalty_value(self):
            return 0.125

        def penalty_grad(self):
            return None

    log_a, log_b = [], []
    trainer._train_task(ctx.cfg, ctx, Bumped(ctx), ctx.stream.task(0), log_a, [])
    trainer._train_task(ctx.cfg, ctx, FineTune(ctx), ctx.stream.task(0), log_b, [])
    for bumped, plain in zip(log_a, log_b):
        assert bumped["loss"] == pytest.approx(plain["loss"] + 0.125, abs=1e-12)


def test_empty_augmented_data_rejected(ctx):
    class Starved(FineTune):
        def augment_data(self, task):
            return []

    with pytest.raises(EmptyDataError):
        trainer._train_task(ctx.cfg, ctx, Starved(ctx), ctx.stream.task(0), [], [])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_writes_diagnostic(tmp_path):
    cfg = micro_config(
        strategy="finetune", out_dir=str(tmp_path), **{"sgd.weight_decay": 1e307}
    )
    with pytest.raises(NanLossError):
        trainer.run(cfg)
    assert os.path.exists(tmp_path / "diagnostic_task0.ckpt")


# -- full runs and artifacts --------------------------------------------------------------

def test_run_writes_artifacts(micro_run):
    report, out = micro_run("finetune")
    assert load_report(out) == report
    assert os.path.exists(os.path.join(out, "stream.json"))
    for t in range(3):
        assert os.path.exists(os.path.join(out, "checkpoints", f"task{t}", "model.ckpt"))

    with open(os.path.join(out, "report.json")) as fh:
        doc = json.load(fh)
    assert doc["strategy"] == "finetune"
    assert "out_dir" not in doc["config_flat"]


def test_report_shapes(micro_run):
    report, _ = micro_run("finetune")
    assert len(report.matrix) == 3
    assert [sum(v is not None for v in row) for row in report.matrix] == [1, 2, 3]
    for t, row in enumerate(report.matrix):
        vals = [v for v in row if v is not None]
        assert report.acc_by_task[t] == pytest.approx(float(np.mean(vals)))
    assert report.extra_params_by_task == [0, 0, 0]
    assert report.acc == pytest.approx(float(np.mean([v for v in report.matrix[2]])))
    assert len(report.epoch_seconds) == 2 + 2 + 2
    assert report.tt_mean_epoch_seconds == pytest.approx(float(np.mean(report.epoch_seconds)))
    # both conventions are reported; the headline follows the config default
    assert report.metrics_incl_pretrain["acc"] == report.acc
    assert report.metrics_excl_pretrain["acc"] is not None


def test_eval_every_logs_midtask_accuracy(micro_run):
    report, _ = micro_run("finetune", eval_every=1)
    by_task = {}
    for entry in report.training_log:
        by_task.setdefault(entry["task"], []).append("task_acc" in entry)
    # 2 epochs per task: epoch 0 gets a mid-task eval, the final epoch defers
    # to the end-of-task matrix row
    for t, flags in by_task.items():
        assert flags == [True, False]


def test_exclude_pretrain_headline(micro_run):
    report, _ = micro_run("finetune", **{"metrics.include_pretrain": False})
    assert report.acc == report.metrics_excl_pretrain["acc"]
    assert report.bwt == report.metrics_excl_pretrain["bwt"]
