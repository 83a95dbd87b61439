import dataclasses
import json
import os
import platform
import signal
from collections import Counter

import numpy as np
import pytest

from kwslab import autodiff as ad
from kwslab import procs, strategies, trainer
from kwslab.autodiff import Segment, Sgd, Tensor
from kwslab.config import STRATEGIES
from kwslab.dsp import FEATURE_SHAPE, read_wav
from kwslab.errors import (
    CorpusError,
    EmptyDataError,
    NanError,
    NanLossError,
    StreamMismatchError,
    WavFormatError,
)
from kwslab.metrics import load_report, reports_equivalent, summary
from kwslab.seeding import rng_for
from kwslab.strategies import FineTune, Si, Strategy, TrainContext
from kwslab.taskstream import ClipRef, SynthConfig, TaskStream, materialize_synth
from kwslab.trainer import EVAL_BATCH, FeatureCache, evaluate, stream_fingerprint

from conftest import (
    assert_reaped,
    forbid_extraction_in_tasks,
    log_extractions,
    micro_config,
    record_forks,
)


def micro_stream(**overrides):
    cfg = micro_config(**overrides)
    return trainer.stream_for(cfg.seed, cfg.stream)


def micro_cache(**overrides):
    cfg = micro_config(**overrides)
    return FeatureCache(cfg.seed, cfg.stream)


def micro_ctx(**overrides):
    return TrainContext(cfg=micro_config(**overrides), features=micro_cache(**overrides))


# -- evaluation --------------------------------------------------------------------

@pytest.fixture(scope="module")
def ctx():
    return micro_ctx()


def test_evaluate_constant_logits_tie_to_lowest(ctx):
    task = ctx.stream.task(1)
    logits = lambda x: np.zeros((x.shape[0], task.n_keywords))
    expected = sum(1 for r in task.test if task.local_label(r.keyword) == 0) / len(task.test)
    assert evaluate(logits, task, ctx) == expected


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

    assert evaluate(forward, task, ctx) == 1.0


def test_evaluate_empty_test_split(ctx):
    task = dataclasses.replace(ctx.stream.task(1), test=[])
    with pytest.raises(EmptyDataError):
        evaluate(lambda x: np.zeros((1, 2)), task, ctx)


def test_evaluate_records_no_graph_and_gives_the_graph_forwards_logits(ctx):
    """Eval forwards run under no_grad: no output has a graph, no grad slot
    moves, and the logits at EVAL_BATCH are bit for bit those of a forward
    that records a graph."""
    model = FineTune(ctx).model
    task = ctx.stream.task(0)
    task = dataclasses.replace(task, test=(task.test * EVAL_BATCH)[: EVAL_BATCH + 3])
    segments = model.params.segments
    for i, seg in enumerate(segments):
        seg.tensor.grad = np.full(seg.tensor.shape, float(i))
    slots = [seg.tensor.grad for seg in segments]
    outs = []

    def logits(x):
        outs.append((x, model(Tensor(x), training=False)))
        return outs[-1][1].data

    evaluate(logits, task, ctx)
    assert [x.shape[0] for x, _ in outs] == [EVAL_BATCH, 3]
    for x, out in outs:
        assert not out.requires_grad and out._parents == () and out._backward is None
        graph = model(Tensor(x), training=False)
        assert graph._parents
        assert np.array_equal(out.data, graph.data)
    for i, (seg, slot) in enumerate(zip(segments, slots)):
        assert seg.tensor.grad is slot
        assert np.array_equal(slot, np.full(seg.tensor.shape, float(i)))


# -- allocator policy --------------------------------------------------------------------

@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the policy is glibc's mallopt")
def test_allocator_policy_is_set_on_glibc():
    assert trainer._set_allocator_policy() is True


def test_allocator_policy_is_a_no_op_off_glibc(monkeypatch):
    def no_cdll(*args, **kwargs):
        raise AssertionError("ctypes.CDLL called off glibc")

    monkeypatch.setattr(trainer.platform, "libc_ver", lambda *args, **kwargs: ("", ""))
    monkeypatch.setattr(trainer.ctypes, "CDLL", no_cdll)
    assert trainer._set_allocator_policy() is False


def test_feature_cache_sets_the_allocator_policy_before_the_first_clip(monkeypatch):
    """Building a cache sets no policy, maps no block, loads no clip and
    forks nothing; its first barrier sets the policy before it maps the
    block and loads the first clip."""
    events = []
    real_load_clip, real_mmap = TaskStream.load_clip, trainer.mmap.mmap

    def load_clip(self, ref):
        events.append("clip")
        return real_load_clip(self, ref)

    def mapping(*args, **kwargs):
        events.append("map")
        return real_mmap(*args, **kwargs)

    monkeypatch.setattr(trainer, "_set_allocator_policy", lambda: events.append("policy"))
    monkeypatch.setattr(TaskStream, "load_clip", load_clip)
    monkeypatch.setattr(trainer.mmap, "mmap", mapping)
    forks = record_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)
    cache = micro_cache()
    assert events == [] and forks == []
    cache.require(0)
    assert events[:2] == ["policy", "map"]
    assert events.count("policy") == events.count("map") == 1 and "clip" in events
    assert len(forks) == 1
    cache.close()
    assert_reaped(forks)


# -- fingerprints ----------------------------------------------------------------------

def test_stream_fingerprint_stability(ctx):
    a = stream_fingerprint(ctx.stream)
    b = stream_fingerprint(micro_stream())
    assert a == b
    c = stream_fingerprint(micro_stream(seed=1))
    assert a != c
    assert len(a) == 16


# -- features -----------------------------------------------------------------------------

def test_run_rejects_feature_cache_of_another_stream(monkeypatch):
    """The cache names its stream by seed and stream section; `run` compares
    that pair with its config's and builds no stream of its own."""
    other = micro_cache(seed=1)
    built = []
    monkeypatch.setattr(trainer, "synth_stream", lambda *args: built.append(args))
    with pytest.raises(StreamMismatchError, match="seed 1 .* seed 0"):
        trainer.run(micro_config(strategy="finetune"), features=other)
    with pytest.raises(StreamMismatchError):
        trainer.run(micro_config(strategy="finetune", seed=1, **{"synth.snr_db": 5.0}),
                    features=other)
    assert built == []


def test_pretrained_task0_states_are_copied_segments():
    """The cache keeps each class's task 0 as the named arrays a checkpoint
    holds, with no grad slot and no strategy object: after a lone run, and
    after every strategy has run on the cache."""
    features = micro_cache()

    def states():
        for entry in features._pretrained.values():
            assert not any(isinstance(part, Strategy) for part in entry)
            state = entry[0]
            assert isinstance(state, list)
            assert all(isinstance(seg, Segment) and seg.tensor.grad is None for seg in state)
            yield [seg.name for seg in state]

    trainer.run(micro_config(strategy="si"), features=features)
    (si_names,) = states()
    assert si_names[-1] == "si_path"
    for strategy in STRATEGIES:
        trainer.run(micro_config(strategy=strategy), features=features)
    assert len(list(states())) == 2


def _clip_uris(stream):
    return Counter(ref.uri for task in stream.tasks for ref in (*task.train, *task.test))


def test_features_are_extracted_before_the_first_task(monkeypatch, tmp_path):
    """No MFCC work lands inside a task in the run's process, so
    epoch_seconds times training only; across the process tree each clip is
    extracted once."""
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forbid_extraction_in_tasks(monkeypatch, extracted)
    cfg = micro_config(strategy="nr")
    trainer.run(cfg)
    stream = trainer.stream_for(cfg.seed, cfg.stream)
    assert Counter(uri for _, uri in extracted()) == _clip_uris(stream)


def test_feature_cache_is_complete_when_built(monkeypatch, tmp_path):
    """Building the cache and requiring its last task extracts each train
    and test clip once, across the process tree, and reaps every helper; a
    run on that cache extracts nothing more."""
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forks = record_forks(monkeypatch)
    cfg = micro_config(strategy="finetune")
    cache = FeatureCache(cfg.seed, cfg.stream)
    cache.require(len(cache.stream.tasks) - 1)
    assert_reaped(forks)
    assert Counter(uri for _, uri in extracted()) == _clip_uris(cache.stream)
    before = extracted()
    trainer.run(cfg, features=cache)
    assert extracted() == before


def _stream_refs(stream):
    """Each clip of the stream once, in stream order."""
    seen = {}
    for task in stream.tasks:
        for ref in (*task.train, *task.test):
            seen.setdefault(ref.uri, ref)
    return list(seen.values())


def _set_cpus(monkeypatch, n):
    monkeypatch.setattr(procs.os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.fixture(scope="module")
def wav_corpus(tmp_path_factory):
    """A WAV corpus with the micro stream's shape."""
    root = tmp_path_factory.mktemp("wav_corpus")
    materialize_synth(SynthConfig(n_keywords=7, clips_per_keyword=6), seed=0, out_dir=root)
    return str(root)


def _dir_config(corpus):
    return micro_config(**{"stream.source": "dir", "stream.corpus_dir": corpus})


@pytest.mark.parametrize("source", ["synth", "dir"])
def test_feature_rows_at_four_cpus_match_one_at_a_time_extraction(monkeypatch, wav_corpus, source):
    _set_cpus(monkeypatch, 4)
    cfg = micro_config() if source == "synth" else _dir_config(wav_corpus)
    cache = FeatureCache(cfg.seed, cfg.stream)
    stream = cache.stream
    refs = _stream_refs(stream)
    assert cache._block is None
    cache.require(0)
    assert cache._block.shape == (len(refs), *FEATURE_SHAPE)
    for ref in refs:
        expected = trainer.mfcc(trainer.pad_or_trim(stream.load_clip(ref))).T
        assert np.array_equal(cache(ref), expected)


@pytest.mark.parametrize("cpus", [1, 4])
def test_extraction_helpers_follow_the_cpu_count_and_are_reaped(monkeypatch, tmp_path, cpus):
    """One helper per further CPU, forked at the first barrier, each
    extracting some rows, and none at 1 CPU; every helper is reaped once
    the last task is in."""
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forks = record_forks(monkeypatch)
    _set_cpus(monkeypatch, cpus)
    cache = micro_cache()
    assert forks == [] and extracted() == []
    cache.require(0)
    assert len(forks) == cpus - 1
    cache.require(len(cache.stream.tasks) - 1)
    assert_reaped(forks)
    assert {pid for pid, _ in extracted()} == {os.getpid(), *forks}


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _raise():
    raise ValueError("a helper-only fault")


@pytest.mark.parametrize("fault", [_kill_self, _raise], ids=["SIGKILL", "raises"])
def test_a_helper_that_dies_hands_its_rows_back(monkeypatch, tmp_path, fault):
    """A helper killed, or whose `mfcc` raises, in the middle of its rows
    reports nothing more; this process extracts the rows it left, and
    every row is still bit for bit a one-at-a-time extraction."""
    cfg = micro_config()
    refs = _stream_refs(trainer.stream_for(cfg.seed, cfg.stream))
    parent, real_mfcc = os.getpid(), trainer.mfcc
    victim = refs[-3].uri

    def dying_mfcc(clip, *args, **kwargs):
        if os.getpid() != parent and clip.source_id == victim:
            fault()
        return real_mfcc(clip, *args, **kwargs)

    monkeypatch.setattr(trainer, "mfcc", dying_mfcc)
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forks = record_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)
    cache = FeatureCache(cfg.seed, cfg.stream)
    cache.require(len(cache.stream.tasks) - 1)
    assert len(forks) == 1
    assert_reaped(forks)
    by_parent = {uri for pid, uri in extracted() if pid == parent}
    assert {victim, refs[-2].uri, refs[-1].uri} <= by_parent
    monkeypatch.undo()
    for ref in refs:
        expected = trainer.mfcc(trainer.pad_or_trim(cache.stream.load_clip(ref))).T
        assert np.array_equal(cache(ref), expected)


def test_a_closed_cache_extracts_what_is_missing_itself(monkeypatch, tmp_path):
    extracted = log_extractions(monkeypatch, tmp_path / "extracted.log")
    forks = record_forks(monkeypatch)
    _set_cpus(monkeypatch, 2)
    cache = micro_cache()
    cache.require(0)
    assert len(forks) == 1
    cache.close()
    assert_reaped(forks)
    cache.require(len(cache.stream.tasks) - 1)
    assert len(forks) == 1
    assert set(Counter(uri for _, uri in extracted())) == set(_clip_uris(cache.stream))


def test_cpu_count_falls_back_without_an_affinity_mask(monkeypatch):
    monkeypatch.delattr(procs.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(procs.os, "cpu_count", lambda: 3)
    assert procs.usable_cpus() == 3
    monkeypatch.setattr(procs.os, "cpu_count", lambda: None)
    assert procs.usable_cpus() == 1


def test_first_corrupt_wav_in_stream_order_is_raised(monkeypatch, tmp_path):
    """Rows 5 and 6 are corrupt. Building the stream raises row 5's error,
    exactly as `read_wav` raises it, before any clip is loaded; so does a
    cache on 4 CPUs, before it forks a helper."""
    corpus = tmp_path / "corpus"
    materialize_synth(SynthConfig(n_keywords=7, clips_per_keyword=6), seed=0, out_dir=corpus)
    cfg = _dir_config(str(corpus))
    refs = _stream_refs(trainer.stream_for(cfg.seed, cfg.stream))
    (corpus / refs[5].uri).write_bytes(b"not a wav file")
    wav = corpus / refs[6].uri
    wav.write_bytes(wav.read_bytes()[:-2])  # an even cut: whole samples, but fewer
    with pytest.raises(WavFormatError) as read_error:
        read_wav(os.path.join(str(corpus), refs[5].uri))

    loads, forks = [], record_forks(monkeypatch)
    monkeypatch.setattr(TaskStream, "load_clip", lambda self, ref: loads.append(ref))
    _set_cpus(monkeypatch, 4)
    for build in (trainer.stream_for, FeatureCache):
        with pytest.raises(WavFormatError) as err:
            build(cfg.seed, cfg.stream)
        assert str(err.value) == str(read_error.value)
    assert forks == [] and loads == []


def test_an_empty_split_is_a_corpus_error_before_any_clip_is_read(monkeypatch, tmp_path):
    """With one clip per keyword every test split is empty."""
    materialize_synth(SynthConfig(n_keywords=7, clips_per_keyword=1), seed=0, out_dir=tmp_path)
    loads = []
    monkeypatch.setattr(TaskStream, "load_clip", lambda self, ref: loads.append(ref))
    with pytest.raises(CorpusError, match="task 0 .* has no test clips"):
        trainer.run(_dir_config(str(tmp_path)))
    assert loads == []


def test_a_clip_outside_the_stream_is_a_stream_mismatch(ctx):
    outside = ClipRef(keyword="kw99", uri="synth:99:0")
    with pytest.raises(StreamMismatchError) as err:
        ctx.features(outside)
    assert outside.uri in str(err.value) and ctx.features.stream_fingerprint in str(err.value)


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
        sgd.step(handle.params.grad_vector())
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
        def post_batch(self, g_kws):
            return g_kws, 0.125

    log_a, _ = trainer._train_task(Bumped(ctx), ctx.stream.task(0))
    log_b, _ = trainer._train_task(FineTune(ctx), ctx.stream.task(0))
    for bumped, plain in zip(log_a, log_b):
        assert bumped["loss"] == pytest.approx(plain["loss"] + 0.125, abs=1e-12)


def test_post_batch_is_the_one_gradient_seam(monkeypatch):
    """post_batch gets the handle's task-loss gradient; Sgd applies the
    gradient it returns; post_step sees the same task-loss gradient and the
    applied update; the logged loss is the task loss plus the returned
    penalty."""
    ctx = micro_ctx(**{"sgd.momentum": 0.0})
    grads, losses, steps = [], [], []
    real_grad_vector, real_loss = ad.ParameterVector.grad_vector, ad.softmax_cross_entropy

    def recording_grad_vector(params):
        grads.append(real_grad_vector(params))
        return grads[-1]

    def recording_loss(logits, y):
        losses.append(real_loss(logits, y))
        return losses[-1]

    class Recording(FineTune):
        def post_batch(self, g_kws):
            g = 0.5 * g_kws + 1e-3
            steps.append({"g_kws": g_kws, "g": g, "theta": self.model.params.flatten()})
            return g, 0.25

        def post_step(self, g_kws, delta):
            steps[-1].update(post_g_kws=g_kws, delta=delta, after=self.model.params.flatten())

    monkeypatch.setattr(ad.ParameterVector, "grad_vector", recording_grad_vector)
    monkeypatch.setattr(ad, "softmax_cross_entropy", recording_loss)
    log, _ = trainer._train_task(Recording(ctx), ctx.stream.task(0))

    assert len(steps) == len(grads) == len(losses) > 0
    lr = ctx.cfg.sgd.learning_rate
    for step, grad in zip(steps, grads):
        assert step["g_kws"] is grad and step["post_g_kws"] is grad
        np.testing.assert_array_equal(step["delta"], -lr * step["g"])
        np.testing.assert_array_equal(step["after"], step["theta"] + step["delta"])
    per_epoch = len(losses) // len(log)
    for epoch, row in enumerate(log):
        batch = losses[epoch * per_epoch : (epoch + 1) * per_epoch]
        assert row["loss"] == float(np.mean([float(loss.data) + 0.25 for loss in batch]))


def test_anchor_penalty_is_evaluated_once_per_step(ctx, monkeypatch):
    si = Si(ctx)
    trainer._train_task(si, ctx.stream.task(0))
    si.after_task(ctx.stream.task(0))

    calls = {"penalty": 0, "step": 0}
    real_penalty, real_step = strategies.quadratic_penalty, Sgd.step

    def counting_penalty(*args):
        calls["penalty"] += 1
        return real_penalty(*args)

    def counting_step(*args):
        calls["step"] += 1
        return real_step(*args)

    monkeypatch.setattr(strategies, "quadratic_penalty", counting_penalty)
    monkeypatch.setattr(Sgd, "step", counting_step)
    trainer._train_task(si, ctx.stream.task(1))
    assert calls["step"] > 0
    assert calls["penalty"] == calls["step"]


def test_empty_augmented_data_rejected(ctx):
    class Starved(FineTune):
        def augment_data(self, task):
            return []

    with pytest.raises(EmptyDataError):
        trainer._train_task(Starved(ctx), ctx.stream.task(0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_abort_writes_diagnostic(tmp_path):
    cfg = micro_config(
        strategy="finetune", out_dir=str(tmp_path), **{"sgd.weight_decay": 1e307}
    )
    with pytest.raises(NanLossError):
        trainer.run(cfg)
    assert os.path.exists(tmp_path / "diagnostic_task0.ckpt")


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_a_nan_abort_saves_the_parameters_being_trained(tmp_path, monkeypatch, strategy):
    """A NaN forced in task 1's first step leaves a diagnostic checkpoint of
    every segment of the parameters task 1 trains: for standalone its task-1
    network, with a head over task 1's 2 keywords; for pcl the encoder and
    its task-1 sub-network."""
    real_sgd, real_train_task, real_loss = trainer.Sgd, trainer._train_task, ad.softmax_cross_entropy
    trained, task_ids = [], []

    def recording_sgd(params, *args, **kwargs):
        trained.append(params)
        return real_sgd(params, *args, **kwargs)

    def tracking_train_task(strategy, task):
        task_ids.append(task.task_id)
        return real_train_task(strategy, task)

    def loss(logits, y):
        if task_ids[-1] == 1:
            raise NanError("forced")
        return real_loss(logits, y)

    monkeypatch.setattr(trainer, "Sgd", recording_sgd)
    monkeypatch.setattr(trainer, "_train_task", tracking_train_task)
    monkeypatch.setattr(ad, "softmax_cross_entropy", loss)
    with pytest.raises(NanLossError, match="task 1 epoch 0; diagnostic checkpoint at"):
        trainer.run(micro_config(strategy=strategy, out_dir=str(tmp_path)))
    meta, saved = ad.load_checkpoint(tmp_path / "diagnostic_task1.ckpt")
    assert meta["task"] == 1 and meta["reason"] == "nan"
    assert [(seg.name, seg.tensor.data.tobytes()) for seg in saved] == [
        (seg.name, seg.tensor.data.tobytes()) for seg in trained[-1].segments]
    shapes = {seg.name: seg.tensor.data.shape for seg in saved}
    if strategy == "standalone":
        assert shapes["head.w"] == (2, 48)
    if strategy == "pcl":
        assert "head.w" not in shapes and shapes["sub.head.w"][0] == 2


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


@pytest.mark.parametrize("include", [True, False])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_report_shapes(micro_run, strategy, include):
    report, _ = micro_run(strategy, **({} if include else {"metrics.include_pretrain": False}))
    assert len(report.matrix) == 3
    assert [sum(v is not None for v in row) for row in report.matrix] == [1, 2, 3]
    for t, row in enumerate(report.matrix):
        vals = [v for v in row if v is not None]
        assert report.acc_by_task[t] == pytest.approx(float(np.mean(vals)))
    assert report.extra_params == report.extra_params_by_task[-1]
    if strategy == "finetune":
        assert report.extra_params_by_task == [0, 0, 0]
    final = report.matrix[2] if include else report.matrix[2][1:]
    assert report.acc == pytest.approx(float(np.mean(final)))
    assert len(report.epoch_seconds) == 2 + 2 + 2
    assert report.tt_mean_epoch_seconds == pytest.approx(float(np.mean(report.epoch_seconds)))
    # both conventions are reported; the headline follows metrics.include_pretrain
    assert report.metrics_incl_pretrain == summary(report.matrix, include_pretrain=True)
    assert report.metrics_excl_pretrain == summary(report.matrix, include_pretrain=False)
    headline = report.metrics_incl_pretrain if include else report.metrics_excl_pretrain
    assert {"acc": report.acc, "la": report.la, "bwt": report.bwt} == headline


def test_eval_every_logs_midtask_accuracy(micro_run):
    report, _ = micro_run("finetune", eval_every=1)
    by_task = {}
    for entry in report.training_log:
        by_task.setdefault(entry["task"], []).append("task_acc" in entry)
    # 2 epochs per task: epoch 0 gets a mid-task eval, the final epoch defers
    # to the end-of-task matrix row
    for t, flags in by_task.items():
        assert flags == [True, False]


@pytest.mark.parametrize("strategy", ["finetune", "pcl", "standalone"])
def test_midtask_evaluation_leaves_training_unchanged(micro_run, strategy):
    """Evaluating between epochs reads the running statistics and never
    writes them, so training goes on exactly as without it."""
    plain, _ = micro_run(strategy)
    probed, _ = micro_run(strategy, eval_every=1)
    assert any("task_acc" in entry for entry in probed.training_log)
    assert probed.matrix == plain.matrix
    assert [e["loss"] for e in probed.training_log] == [e["loss"] for e in plain.training_log]
