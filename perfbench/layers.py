"""Per-layer metrics computed from one traced child's spans.

The layers are kwslab's modules. Which end-to-end metric each should move,
and on which workload, is written down in README.md. Self time is a span's
duration minus the time its direct children cover; the program is
single-threaded, so children never overlap and no wait time exists.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import BWD_OPS, COPY_METHODS, OPS
from workloads import SWEEP_STRATEGIES

# (strategy, hook) pairs where the strategy overrides the identity default
HOOK_METRICS = (
    [(s, "before_task") for s in SWEEP_STRATEGIES]
    + [(s, "after_task") for s in SWEEP_STRATEGIES if s != "finetune"]
    + [("nr", "augment_data"), ("si", "penalty_value"), ("si", "penalty_grad"),
       ("si", "post_step"), ("gem", "post_batch")]
)


def metric_units() -> dict[str, str]:
    """Every per-layer metric, in print order, with its unit."""
    m = {}
    for op in OPS:
        m[f"autodiff.{op}.fwd_s"] = "s"
        m[f"autodiff.{op}.calls"] = "count"
        m[f"autodiff.{op}.fwd_ms.p50"] = "ms"
        m[f"autodiff.{op}.fwd_ms.p99"] = "ms"
    for op in BWD_OPS:
        m[f"autodiff.{op}.bwd_s"] = "s"
    m["autodiff.backward.s"] = "s"
    m["autodiff.Sgd.step.s"] = "s"
    m["autodiff.ParameterVector.copies_per_step"] = "copies/step"
    m["autodiff.save_checkpoint.s"] = "s"
    m["autodiff.save_checkpoint.bytes"] = "bytes"
    m["dsp.mfcc.s"] = "s"
    m["dsp.mfcc.calls"] = "count"
    m["dsp.mfcc.ms.p50"] = "ms"
    m["dsp.mfcc.ms.p99"] = "ms"
    m["dsp.mfcc.calls_per_clip"] = "calls/clip"
    m["taskstream.load_clip.s"] = "s"
    m["taskstream.load_clip.calls"] = "count"
    m["taskstream.load_clip.calls_per_clip"] = "calls/clip"
    m["taskstream.build.s"] = "s"
    for strategy, hook in HOOK_METRICS:
        m[f"strategies.{strategy}.{hook}.s"] = "s"
        m[f"strategies.{strategy}.{hook}.calls"] = "count"
    m["strategies.gem_project.s"] = "s"
    m["strategies.gem_project.calls"] = "count"
    m["strategies.gem_project.projected_share"] = "ratio"
    m["strategies.gem_project.iters.p50"] = "iters"
    m["strategies.gem_project.iters.p99"] = "iters"
    for strategy in SWEEP_STRATEGIES:
        m[f"trainer.run.s.{strategy}"] = "s"
    m["trainer.pretrain_tasks"] = "count"
    m["trainer.pretrain_sample_steps"] = "count"
    m["trainer.evaluate.s"] = "s"
    m["trainer.evaluate.calls"] = "count"
    m["trainer.features.s"] = "s"
    m["trainer.self_s"] = "s"
    m["trainer.epoch_feature_share"] = "ratio"
    m["trainer.tt_mean_epoch_seconds"] = "s"
    m["metrics.emit_report.s"] = "s"
    m["cli.sweep.self_s"] = "s"
    m["trace.overhead"] = "ratio"
    return m


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def _inside_epoch(spans, idx) -> bool:
    """A feature miss inside the trainer's epoch loop: reached through a
    training batch, not through evaluation or a task-boundary hook."""
    in_batch = False
    p = spans[idx][3]
    while p >= 0:
        name = spans[p][0]
        if name == "trainer.run":
            break
        if name == "strategies.TrainContext.batch":
            in_batch = True
        elif name == "trainer.evaluate" or name.endswith((".before_task", ".after_task")):
            return False
        p = spans[p][3]
    return in_batch


def layer_metrics(trace: dict, traced_reports: list[dict], untraced_reports: list[dict],
                  traced_wall: float, untraced_wall: float) -> dict[str, float]:
    spans = trace["spans"]
    counts = trace["counts"]
    by_name: dict[str, list[int]] = defaultdict(list)
    covered = defaultdict(float)
    for i, (name, start, end, parent, _, _) in enumerate(spans):
        by_name[name].append(i)
        if parent >= 0:
            covered[parent] += end - start
    durs = {name: [spans[i][2] - spans[i][1] for i in idx] for name, idx in by_name.items()}

    def total(name):
        return float(sum(durs.get(name, ())))

    def calls(name):
        return len(durs.get(name, ()))

    def self_time(name):
        return float(sum(spans[i][2] - spans[i][1] - covered[i] for i in by_name.get(name, ())))

    def attrs(name):
        return [spans[i][5] for i in by_name.get(name, ())]

    m: dict[str, float] = {}
    for op in OPS:
        ms = [d * 1e3 for d in durs.get(f"autodiff.{op}", ())]
        m[f"autodiff.{op}.fwd_s"] = total(f"autodiff.{op}")
        m[f"autodiff.{op}.calls"] = calls(f"autodiff.{op}")
        m[f"autodiff.{op}.fwd_ms.p50"] = _pct(ms, 50)
        m[f"autodiff.{op}.fwd_ms.p99"] = _pct(ms, 99)
    for op in BWD_OPS:
        m[f"autodiff.{op}.bwd_s"] = total(f"autodiff.{op}.bwd")
    m["autodiff.backward.s"] = total("autodiff.backward")
    m["autodiff.Sgd.step.s"] = total("autodiff.Sgd.step")
    copies = sum(counts.get(f"ParameterVector.{name}", 0) for name in COPY_METHODS)
    steps = calls("autodiff.Sgd.step")
    m["autodiff.ParameterVector.copies_per_step"] = copies / steps if steps else 0.0
    m["autodiff.save_checkpoint.s"] = total("autodiff.save_checkpoint")
    m["autodiff.save_checkpoint.bytes"] = sum(a["bytes"] for a in attrs("autodiff.save_checkpoint"))

    mfcc_ms = [d * 1e3 for d in durs.get("dsp.mfcc", ())]
    mfcc_clips = {a["clip"] for a in attrs("dsp.mfcc")}
    m["dsp.mfcc.s"] = total("dsp.mfcc")
    m["dsp.mfcc.calls"] = calls("dsp.mfcc")
    m["dsp.mfcc.ms.p50"] = _pct(mfcc_ms, 50)
    m["dsp.mfcc.ms.p99"] = _pct(mfcc_ms, 99)
    m["dsp.mfcc.calls_per_clip"] = calls("dsp.mfcc") / len(mfcc_clips) if mfcc_clips else 0.0
    load_clips = {a["clip"] for a in attrs("taskstream.load_clip")}
    m["taskstream.load_clip.s"] = total("taskstream.load_clip")
    m["taskstream.load_clip.calls"] = calls("taskstream.load_clip")
    m["taskstream.load_clip.calls_per_clip"] = (
        calls("taskstream.load_clip") / len(load_clips) if load_clips else 0.0)
    m["taskstream.build.s"] = total("taskstream.build")

    for strategy, hook in HOOK_METRICS:
        name = f"strategies.{strategy}.{hook}"
        m[f"{name}.s"] = total(name)
        m[f"{name}.calls"] = calls(name)
    gem = attrs("strategies.gem_project")
    iters = [a["iters"] for a in gem if a["projected"]]
    m["strategies.gem_project.s"] = total("strategies.gem_project")
    m["strategies.gem_project.calls"] = len(gem)
    m["strategies.gem_project.projected_share"] = len(iters) / len(gem) if gem else 0.0
    m["strategies.gem_project.iters.p50"] = _pct(iters, 50)
    m["strategies.gem_project.iters.p99"] = _pct(iters, 99)

    runs = {spans[i][4]: spans[i] for i in by_name.get("trainer.run", ())}
    for strategy in SWEEP_STRATEGIES:
        m[f"trainer.run.s.{strategy}"] = float(sum(
            s[2] - s[1] for s in runs.values() if s[5]["strategy"] == strategy))
    pretrain = [spans[i] for name, idx in by_name.items() if name.endswith(".augment_data")
                for i in idx if spans[i][5]["pretrain"]]
    m["trainer.pretrain_tasks"] = len(pretrain)
    m["trainer.pretrain_sample_steps"] = sum(
        s[5]["size"] * runs[s[4]][5]["pretrain_epochs"] for s in pretrain)
    m["trainer.evaluate.s"] = total("trainer.evaluate")
    m["trainer.evaluate.calls"] = calls("trainer.evaluate")
    m["trainer.features.s"] = total("trainer.features")
    m["trainer.self_s"] = self_time("trainer.run")

    in_epochs = sum(spans[i][2] - spans[i][1] for i in by_name.get("trainer.features", ())
                    if _inside_epoch(spans, i))
    epoch_total = sum(sum(r["epoch_seconds"]) for r in traced_reports)
    m["trainer.epoch_feature_share"] = in_epochs / epoch_total if epoch_total else 0.0
    epochs = [e for r in untraced_reports for e in r["epoch_seconds"]]
    m["trainer.tt_mean_epoch_seconds"] = float(np.mean(epochs)) if epochs else 0.0
    m["metrics.emit_report.s"] = total("metrics.emit_report")
    m["cli.sweep.self_s"] = self_time("cli.sweep")
    m["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return m
