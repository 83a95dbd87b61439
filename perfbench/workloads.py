"""The benchmark's workloads: what each one runs and the inputs it generates.

Each workload is one call of the public CLI. Its seed becomes the run's
`seed` key; the program sees only the config written here, plus the WAV
corpus for `frontend-dir`.

- sweep6: `kwslab sweep` of the six compared strategies with the acceptance
  knobs on the default synthetic stream. Epochs are scaled by 1/5 from the
  package defaults (15 -> 3, 30 -> 6), the same factor for pretraining and
  tasks, so pretraining stays at about 2/3 of the sample-steps while a sweep
  fits the run time. Training steps still dominate. The only workload where
  work repeats across runs (rendering, MFCC, task-0 pretraining) and where
  GEM projection runs.
- frontend-dir: one finetune run over a 30-keyword x 96-clip WAV corpus with
  one epoch per task, so MFCC and WAV reading outweigh training.
- pcl-long: one pcl run over 60 keywords in 15 tasks at default epochs:
  narrow sub-network convs, and evaluation and checkpoints that grow with
  the number of tasks squared.

`ewc` is in no workload: at package defaults it aborts with NanLossError on
task 5 of the default stream. Its workload arrives with that fix, as a
separate benchmark change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass, field

SWEEP_STRATEGIES = ("standalone", "pcl", "nr", "gem", "si", "finetune")
CORPUS_KEYWORDS = 30
CORPUS_CLIPS = 96


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" | "sweep"
    flat: dict  # config keys shared by every run of the workload
    strategies: tuple[str, ...]
    slot_s: float  # share of --seconds given to one untraced repeat
    clips_per_keyword: int = 24
    corpus: bool = False
    layout: dict = field(default_factory=lambda: {"pretrain": 15, "tasks": 5, "per_task": 3})

    def repeats(self, seconds: float) -> int:
        """Untraced repeats in one benchmark run: fixed by --seconds, not by speed,
        so `attempted` and `fail_rate` do not change when the program gets faster."""
        return max(1, int(seconds // self.slot_s))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep6",
            command="sweep",
            flat={
                "pcl.encoder_lr_scale": 0.1,
                "si.lambda": 0.5,
                "sgd.epochs": 3,
                "sgd.pretrain_epochs": 6,
            },
            strategies=SWEEP_STRATEGIES,
            slot_s=40.0,
        ),
        Workload(
            name="frontend-dir",
            command="run",
            flat={
                "strategy": "finetune",
                "stream.source": "dir",
                "sgd.epochs": 1,
                "sgd.pretrain_epochs": 1,
            },
            strategies=("finetune",),
            slot_s=13.0,
            clips_per_keyword=CORPUS_CLIPS,
            corpus=True,
        ),
        Workload(
            name="pcl-long",
            command="run",
            flat={
                "strategy": "pcl",
                "pcl.encoder_lr_scale": 0.1,
                "synth.keywords": 60,
                "stream.tasks": 15,
            },
            strategies=("pcl",),
            slot_s=30.0,
            layout={"pretrain": 15, "tasks": 15, "per_task": 3},
        ),
    )
}


def write_inputs(wl: Workload, seed: int, in_dir: str, corpus_dir: str | None) -> str:
    """Write the config (run) or manifest (sweep) for one seed; returns its path."""
    os.makedirs(in_dir, exist_ok=True)
    flat = dict(wl.flat, seed=seed)
    if wl.corpus:
        flat["stream.corpus_dir"] = corpus_dir
    if wl.command == "sweep":
        doc = {"base": flat, "strategies": list(wl.strategies), "seeds": [seed]}
        path = os.path.join(in_dir, "sweep.json")
    else:
        doc = flat
        path = os.path.join(in_dir, "run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def make_corpus(seed: int, corpus_root: str) -> tuple[str, str]:
    """Render the frontend-dir WAV corpus for `seed` with kwslab's materialize_synth.

    Returns the corpus directory and a digest over every file's path and
    bytes. A finished corpus is marked with its digest and reused; any other
    seed's corpus under `corpus_root` is removed first, so at most one sits
    on disk.
    """
    from kwslab.taskstream import SynthConfig, materialize_synth

    out_dir = os.path.join(corpus_root, f"seed{seed}")
    marker = os.path.join(out_dir, "COMPLETE")
    if os.path.isfile(marker):
        with open(marker, encoding="utf-8") as fh:
            return out_dir, fh.read().strip()
    shutil.rmtree(corpus_root, ignore_errors=True)
    materialize_synth(
        SynthConfig(n_keywords=CORPUS_KEYWORDS, clips_per_keyword=CORPUS_CLIPS), seed, out_dir)
    digest = corpus_digest(out_dir)
    with open(marker, "w", encoding="utf-8") as fh:
        fh.write(digest + "\n")
    os.sync()  # finish the corpus writeback before anything is timed
    return out_dir, digest


def corpus_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if not name.endswith(".wav"):
                continue
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
