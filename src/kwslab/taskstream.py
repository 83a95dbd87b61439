"""Sequential task protocol: one pretraining task plus T incremental tasks.

Streams come from a directory of per-keyword WAV folders or from a synthetic
generator whose "keywords" are distinct frequency/chirp templates. Both paths
share the same layout logic, the same hash-rank 80/20 split, and the same
JSON manifest, so a run is exactly reproducible from (corpus, seed, config).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from .dsp import (CLIP_SAMPLES, SAMPLE_RATE, AudioClip, check_wav, hz_to_mel, mel_to_hz,
                  read_wav, write_wav)
from .errors import CorpusError, UnknownTaskError
from .fileio import replace_on_success
from .seeding import derive_seed, rng_for


@dataclass(frozen=True)
class ClipRef:
    """A loadable sample reference: keyword label + source URI.

    URIs are either a corpus-relative WAV path ("keyword/clip.wav") or a
    synthetic descriptor ("synth:<template>:<clip>").
    """

    keyword: str
    uri: str


@dataclass
class TaskSpec:
    task_id: int
    keywords: list[str]
    train: list[ClipRef]
    test: list[ClipRef]
    is_pretrain: bool = False

    @property
    def n_keywords(self) -> int:
        return len(self.keywords)

    def local_label(self, keyword: str) -> int:
        try:
            return self.keywords.index(keyword)
        except ValueError:
            raise UnknownTaskError(
                f"keyword {keyword!r} does not belong to task {self.task_id}"
            ) from None


@dataclass(frozen=True)
class StreamLayout:
    n_pretrain_keywords: int = 15
    n_tasks: int = 5
    keywords_per_task: int = 3
    train_frac: float = 0.8

    @property
    def total_keywords(self) -> int:
        return self.n_pretrain_keywords + self.n_tasks * self.keywords_per_task


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic keyword corpus: mel-spaced tone/chirp templates plus noise.

    Templates differ in fundamental frequency, chirp direction, and harmonic
    weights; clips of one template differ by seeded jitter, phase, gain, and
    additive noise, so classes stay separable by construction.
    """

    n_keywords: int = 30
    clips_per_keyword: int = 24
    snr_db: float = 10.0
    f_lo: float = 300.0
    f_hi: float = 6000.0
    chirp: float = 0.3
    freq_jitter: float = 0.01


def synth_keyword_name(idx: int) -> str:
    return f"kw{idx:02d}"


def _synth_template(cfg: SynthConfig, idx: int):
    """Deterministic per-keyword signature: (f0, chirp rate, harmonic weights)."""
    if cfg.n_keywords == 1:
        f0 = mel_to_hz(0.5 * (hz_to_mel(cfg.f_lo) + hz_to_mel(cfg.f_hi)))
    else:
        m_lo, m_hi = hz_to_mel(cfg.f_lo), hz_to_mel(cfg.f_hi)
        f0 = float(mel_to_hz(m_lo + (m_hi - m_lo) * idx / (cfg.n_keywords - 1)))
    chirp = (idx % 3 - 1) * cfg.chirp
    weights = [
        1.0,
        0.55 if (idx // 3) % 2 == 0 else 0.15,
        0.35 if (idx // 6) % 2 == 0 else 0.05,
    ]
    # silence any harmonic that could alias, even at maximum jitter and chirp
    ceiling = 0.95 * SAMPLE_RATE / 2
    margin = (1.0 + 3.0 * cfg.freq_jitter) * (1.0 + abs(chirp) / 2.0)
    for h in (2, 3):
        if h * f0 * margin >= ceiling:
            weights[h - 1] = 0.0
    return f0, chirp, tuple(weights)


def render_clip(cfg: SynthConfig, seed: int, template_idx: int, clip_idx: int) -> AudioClip:
    rng = rng_for(seed, f"synth|{template_idx}|{clip_idx}")
    f0, chirp, weights = _synth_template(cfg, template_idx)
    n = CLIP_SAMPLES
    t = np.arange(n) / SAMPLE_RATE

    f_clip = f0 * (1.0 + cfg.freq_jitter * float(rng.standard_normal()))
    inst = f_clip * (1.0 + chirp * (t - 0.5))
    phase = 2.0 * np.pi * np.cumsum(inst) / SAMPLE_RATE

    x = np.zeros(n)
    for h, w in enumerate(weights, start=1):
        if w > 0.0:
            x += w * np.sin(h * phase + rng.uniform(0.0, 2.0 * np.pi))

    fade = int(0.05 * SAMPLE_RATE)
    env = np.ones(n)
    ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(fade) / fade))
    env[:fade] = ramp
    env[-fade:] = ramp[::-1]
    x *= env * rng.uniform(0.7, 1.0)

    rms = np.sqrt(np.mean(x * x))
    noise_rms = rms / (10.0 ** (cfg.snr_db / 20.0))
    x = x + rng.normal(0.0, noise_rms, n)
    peak = np.max(np.abs(x))
    if peak > 0:
        x = 0.9 * x / peak
    return AudioClip(samples=x, source_id=f"synth:{template_idx}:{clip_idx}")


@dataclass
class TaskStream:
    """Ordered tasks plus everything needed to reload the samples."""

    tasks: list[TaskSpec]
    seed: int
    layout: StreamLayout
    kind: str  # "dir" | "synth"
    root: str | None = None
    synth: SynthConfig | None = None
    keyword_order: list[str] = field(default_factory=list)

    def task(self, task_id: int) -> TaskSpec:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise UnknownTaskError(f"no task with id {task_id}")

    def global_label(self, keyword: str) -> int:
        try:
            return self.keyword_order.index(keyword)
        except ValueError:
            raise UnknownTaskError(f"keyword {keyword!r} is not in this stream") from None

    @property
    def n_keywords(self) -> int:
        return len(self.keyword_order)

    def load_clip(self, ref: ClipRef) -> AudioClip:
        if self.kind == "synth":
            assert self.synth is not None
            _, tmpl, clip = ref.uri.split(":")
            return render_clip(self.synth, self.seed, int(tmpl), int(clip))
        assert self.root is not None
        return read_wav(os.path.join(self.root, ref.uri), source_id=ref.uri)

    # -- manifest -----------------------------------------------------------

    def to_manifest(self) -> dict:
        return {
            "seed": self.seed,
            "kind": self.kind,
            "root": self.root,
            "synth": None if self.synth is None else vars(self.synth).copy(),
            "layout": vars(self.layout).copy(),
            "keyword_order": list(self.keyword_order),
            "tasks": [
                {
                    "task_id": t.task_id,
                    "keywords": list(t.keywords),
                    "is_pretrain": t.is_pretrain,
                    "train": [[r.keyword, r.uri] for r in t.train],
                    "test": [[r.keyword, r.uri] for r in t.test],
                }
                for t in self.tasks
            ],
        }

    def save_manifest(self, path) -> None:
        with replace_on_success(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_manifest(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def from_manifest(cls, doc: dict) -> "TaskStream":
        tasks = [
            TaskSpec(
                task_id=td["task_id"],
                keywords=list(td["keywords"]),
                train=[ClipRef(k, u) for k, u in td["train"]],
                test=[ClipRef(k, u) for k, u in td["test"]],
                is_pretrain=td["is_pretrain"],
            )
            for td in doc["tasks"]
        ]
        return cls(
            tasks=tasks,
            seed=doc["seed"],
            layout=StreamLayout(**doc["layout"]),
            kind=doc["kind"],
            root=doc.get("root"),
            synth=None if doc.get("synth") is None else SynthConfig(**doc["synth"]),
            keyword_order=list(doc["keyword_order"]),
        )

    @classmethod
    def load_manifest(cls, path) -> "TaskStream":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_manifest(json.load(fh))


def split_refs(
    refs: list[ClipRef], seed: int, train_frac: float
) -> tuple[list[ClipRef], list[ClipRef]]:
    """Hash-rank split: stable across runs and machines for a fixed seed.

    Exactly round-half-up(train_frac * n) clips train; with two or more clips
    at least one lands on each side.
    """
    ranked = sorted(refs, key=lambda r: (derive_seed(seed, r.uri), r.uri))
    n = len(ranked)
    n_train = int(np.floor(train_frac * n + 0.5))
    if n >= 2:
        n_train = min(max(n_train, 1), n - 1)
    return ranked[:n_train], ranked[n_train:]


def build_stream(
    refs_by_keyword: dict[str, list[ClipRef]],
    seed: int,
    layout: StreamLayout,
    kind: str,
    root: str | None = None,
    synth: SynthConfig | None = None,
) -> TaskStream:
    keywords = sorted(refs_by_keyword)
    need = layout.total_keywords
    if len(keywords) < need:
        raise CorpusError(
            f"stream layout needs {need} keywords, corpus has {len(keywords)}"
        )
    for kw in keywords:
        if not refs_by_keyword[kw]:
            raise CorpusError(f"keyword {kw!r} has no clips")

    perm = rng_for(seed, "stream|keywords").permutation(len(keywords))
    chosen = [keywords[i] for i in perm[:need]]

    tasks: list[TaskSpec] = []
    groups = [chosen[: layout.n_pretrain_keywords]]
    off = layout.n_pretrain_keywords
    for _ in range(layout.n_tasks):
        groups.append(chosen[off : off + layout.keywords_per_task])
        off += layout.keywords_per_task

    for task_id, kws in enumerate(groups):
        train: list[ClipRef] = []
        test: list[ClipRef] = []
        for kw in kws:
            tr, te = split_refs(refs_by_keyword[kw], seed, layout.train_frac)
            train.extend(tr)
            test.extend(te)
        for side, refs in (("train", train), ("test", test)):
            if not refs:
                raise CorpusError(
                    f"task {task_id} ({', '.join(kws)}) has no {side} clips; "
                    "a keyword with 2 or more clips puts one on each side"
                )
        tasks.append(
            TaskSpec(
                task_id=task_id,
                keywords=list(kws),
                train=train,
                test=test,
                is_pretrain=(task_id == 0),
            )
        )

    return TaskStream(
        tasks=tasks,
        seed=seed,
        layout=layout,
        kind=kind,
        root=root,
        synth=synth,
        keyword_order=list(chosen),
    )


def split_corpus_dir(corpus_dir, seed: int, layout: StreamLayout = StreamLayout()) -> TaskStream:
    """Stream over `<corpus_dir>/<keyword>/<clip>.wav` folders. Its clips
    are checked (`dsp.check_wav`) in stream order, so the first bad one
    raises the error `read_wav` would raise for it before any is read."""
    corpus_dir = os.fspath(corpus_dir)
    if not os.path.isdir(corpus_dir):
        raise CorpusError(f"{corpus_dir}: not a directory")
    refs: dict[str, list[ClipRef]] = {}
    for kw in sorted(os.listdir(corpus_dir)):
        kw_dir = os.path.join(corpus_dir, kw)
        if not os.path.isdir(kw_dir):
            continue
        clips = [
            ClipRef(kw, f"{kw}/{name}")
            for name in sorted(os.listdir(kw_dir))
            if name.lower().endswith(".wav")
        ]
        if clips:
            refs[kw] = clips
    stream = build_stream(refs, seed, layout, kind="dir", root=corpus_dir)
    for uri in dict.fromkeys(ref.uri for task in stream.tasks for ref in (*task.train, *task.test)):
        path = os.path.join(corpus_dir, uri)
        with open(path, "rb") as fh:
            check_wav(fh, path)
    return stream


def synth_stream(
    cfg: SynthConfig, seed: int, layout: StreamLayout = StreamLayout()
) -> TaskStream:
    if cfg.n_keywords < layout.total_keywords:
        raise CorpusError(
            f"stream layout needs {layout.total_keywords} keywords, "
            f"synth config provides {cfg.n_keywords}"
        )
    refs = {
        synth_keyword_name(i): [
            ClipRef(synth_keyword_name(i), f"synth:{i}:{j}")
            for j in range(cfg.clips_per_keyword)
        ]
        for i in range(cfg.n_keywords)
    }
    return build_stream(refs, seed, layout, kind="synth", synth=cfg)


def materialize_synth(cfg: SynthConfig, seed: int, out_dir) -> int:
    """Render every synthetic clip to `<out>/<keyword>/clipNNNN.wav`; returns count."""
    out_dir = os.fspath(out_dir)
    count = 0
    for i in range(cfg.n_keywords):
        kw_dir = os.path.join(out_dir, synth_keyword_name(i))
        os.makedirs(kw_dir, exist_ok=True)
        for j in range(cfg.clips_per_keyword):
            clip = render_clip(cfg, seed, i, j)
            write_wav(os.path.join(kw_dir, f"clip{j:04d}.wav"), clip.samples)
            count += 1
    return count
