import numpy as np
import pytest

from kwslab import dsp, taskstream
from kwslab.errors import CorpusError, UnknownTaskError
from kwslab.taskstream import (
    ClipRef,
    StreamLayout,
    SynthConfig,
    TaskStream,
    materialize_synth,
    render_clip,
    split_corpus_dir,
    split_refs,
    synth_stream,
)

SMALL_LAYOUT = StreamLayout(n_pretrain_keywords=3, n_tasks=2, keywords_per_task=2)
SMALL_SYNTH = SynthConfig(n_keywords=7, clips_per_keyword=6)


def default_stream(seed=0):
    return synth_stream(SynthConfig(), seed)


# -- stream structure -----------------------------------------------------------

def test_default_stream_layout():
    stream = default_stream()
    assert len(stream.tasks) == 6
    assert stream.layout.n_tasks == 5
    assert stream.tasks[0].is_pretrain
    assert stream.tasks[0].n_keywords == 15
    for t in stream.tasks[1:]:
        assert not t.is_pretrain
        assert t.n_keywords == 3
    assert stream.n_keywords == 30


def test_keyword_sets_disjoint_and_cover_selection():
    stream = default_stream()
    seen = []
    for t in stream.tasks:
        for kw in t.keywords:
            assert kw not in seen
            seen.append(kw)
    assert sorted(seen) == sorted(stream.keyword_order)
    assert len(seen) == 30


def test_train_test_disjoint_within_every_task():
    stream = synth_stream(SMALL_SYNTH, 3, SMALL_LAYOUT)
    for t in stream.tasks:
        train_uris = {r.uri for r in t.train}
        test_uris = {r.uri for r in t.test}
        assert train_uris.isdisjoint(test_uris)
        assert train_uris and test_uris


def test_same_seed_reproduces_stream():
    assert default_stream(5).to_manifest() == default_stream(5).to_manifest()


def test_different_seeds_change_grouping_not_structure():
    a, b = default_stream(0), default_stream(1)
    assert a.keyword_order != b.keyword_order
    assert [t.n_keywords for t in a.tasks] == [t.n_keywords for t in b.tasks]


def test_stream_needs_enough_keywords():
    with pytest.raises(CorpusError):
        synth_stream(SynthConfig(n_keywords=29), 0)


def test_task_lookup():
    stream = synth_stream(SMALL_SYNTH, 0, SMALL_LAYOUT)
    assert stream.task(2).task_id == 2
    with pytest.raises(UnknownTaskError):
        stream.task(3)
    with pytest.raises(UnknownTaskError):
        stream.task(-1)


def test_local_and_global_labels():
    stream = synth_stream(SMALL_SYNTH, 0, SMALL_LAYOUT)
    task = stream.task(1)
    assert [task.local_label(kw) for kw in task.keywords] == [0, 1]
    with pytest.raises(UnknownTaskError):
        task.local_label("nope")
    # global ids follow the selection order across tasks
    assert [stream.global_label(kw) for kw in stream.keyword_order] == list(range(7))


# -- splitting -------------------------------------------------------------------

def refs(n, kw="kw"):
    return [ClipRef(kw, f"{kw}/clip{i:04d}.wav") for i in range(n)]


def test_split_80_20_counts():
    train, test = split_refs(refs(10), seed=0, train_frac=0.8)
    assert len(train) == 8 and len(test) == 2


def test_split_round_half_up():
    train, test = split_refs(refs(6), seed=0, train_frac=0.8)
    assert len(train) == 5 and len(test) == 1  # 4.8 rounds to 5
    train, test = split_refs(refs(5), seed=1, train_frac=0.5)
    assert len(train) == 3 and len(test) == 2  # 2.5 rounds up


def test_split_keeps_one_sample_per_side():
    train, test = split_refs(refs(2), seed=0, train_frac=0.99)
    assert len(train) == 1 and len(test) == 1


def test_split_deterministic_and_input_order_invariant():
    pool = refs(20)
    a = split_refs(pool, seed=7, train_frac=0.8)
    b = split_refs(list(reversed(pool)), seed=7, train_frac=0.8)
    assert a == b
    c = split_refs(pool, seed=8, train_frac=0.8)
    assert a != c  # 20 clips, different seed reranks almost surely


def test_split_partitions_input():
    pool = refs(13)
    train, test = split_refs(pool, seed=3, train_frac=0.8)
    assert sorted(r.uri for r in train + test) == sorted(r.uri for r in pool)


# -- synthetic audio ----------------------------------------------------------------

def test_render_clip_contract():
    cfg = SynthConfig()
    clip = render_clip(cfg, seed=0, template_idx=4, clip_idx=2)
    assert clip.samples.size == dsp.CLIP_SAMPLES
    assert np.all(np.isfinite(clip.samples))
    assert np.abs(clip.samples).max() <= 0.9 + 1e-12


def test_render_clip_bitwise_deterministic():
    cfg = SynthConfig()
    a = render_clip(cfg, seed=5, template_idx=1, clip_idx=3)
    b = render_clip(cfg, seed=5, template_idx=1, clip_idx=3)
    assert a.samples.tobytes() == b.samples.tobytes()
    c = render_clip(cfg, seed=5, template_idx=1, clip_idx=4)
    assert a.samples.tobytes() != c.samples.tobytes()
    d = render_clip(cfg, seed=6, template_idx=1, clip_idx=3)
    assert a.samples.tobytes() != d.samples.tobytes()


def test_templates_are_distinct():
    cfg = SynthConfig()
    clips = [render_clip(cfg, 0, i, 0).samples for i in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            assert not np.array_equal(clips[i], clips[j])


def test_load_clip_synth_uri():
    stream = synth_stream(SMALL_SYNTH, 0, SMALL_LAYOUT)
    ref = stream.tasks[0].train[0]
    clip = stream.load_clip(ref)
    assert clip.samples.size == dsp.CLIP_SAMPLES
    again = stream.load_clip(ref)
    assert clip.samples.tobytes() == again.samples.tobytes()


# -- manifest round trip -------------------------------------------------------------

def test_manifest_round_trip(tmp_path):
    stream = synth_stream(SMALL_SYNTH, 9, SMALL_LAYOUT)
    doc = stream.to_manifest()
    back = TaskStream.from_manifest(doc)
    assert back.to_manifest() == doc

    path = tmp_path / "stream.json"
    stream.save_manifest(path)
    loaded = TaskStream.load_manifest(path)
    assert loaded.to_manifest() == doc
    # the reloaded stream still loads audio
    clip = loaded.load_clip(loaded.tasks[1].test[0])
    assert clip.samples.size == dsp.CLIP_SAMPLES


# -- directory corpus -----------------------------------------------------------------

def test_materialize_and_dir_stream(tmp_path):
    cfg = SynthConfig(n_keywords=4, clips_per_keyword=5)
    count = materialize_synth(cfg, seed=2, out_dir=tmp_path)
    assert count == 20
    wavs = sorted(tmp_path.rglob("*.wav"))
    assert len(wavs) == 20

    layout = StreamLayout(n_pretrain_keywords=2, n_tasks=1, keywords_per_task=2)
    stream = split_corpus_dir(tmp_path, seed=2, layout=layout)
    assert stream.kind == "dir"
    assert len(stream.tasks) == 2
    for t in stream.tasks:
        assert len(t.train) == 2 * 4 and len(t.test) == 2 * 1

    clip = stream.load_clip(stream.tasks[0].train[0])
    assert clip.samples.size == dsp.CLIP_SAMPLES


def test_dir_stream_missing_directory():
    with pytest.raises(CorpusError):
        split_corpus_dir("/nonexistent/corpus", seed=0)


def test_dir_stream_not_enough_keywords(tmp_path):
    cfg = SynthConfig(n_keywords=3, clips_per_keyword=2)
    materialize_synth(cfg, seed=0, out_dir=tmp_path)
    layout = StreamLayout(n_pretrain_keywords=2, n_tasks=1, keywords_per_task=2)
    with pytest.raises(CorpusError):
        split_corpus_dir(tmp_path, seed=0, layout=layout)
