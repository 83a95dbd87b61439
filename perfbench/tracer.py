"""Span tracer for kwslab, installed from outside the package.

`Tracer.install()` replaces the public functions and methods that the
per-layer metrics need with timing wrappers; `uninstall()` puts every
original object back. Nothing in `kwslab` is edited: layers are timed only
at the calls into them. A function imported by name into another module is
replaced in every kwslab module that holds it, because that is where its
caller looks it up (`kwslab.trainer.mfcc`, `kwslab.cli.run_training`).

A span is `[name, start, end, parent, run, attrs]`: perf_counter seconds,
the index of the enclosing span (-1 at top level), the index of the
enclosing `trainer.run` call (-1 outside a run) and a small dict or None.
Spans stay in memory until `dump()` writes them at the end of the child.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

OPS = ("conv1d", "batch_norm", "relu", "add", "dense", "global_avg_pool", "softmax_cross_entropy")
BWD_OPS = ("conv1d", "batch_norm")
HOOKS = (
    "before_task", "augment_data", "penalty_value", "penalty_grad",
    "post_batch", "post_step", "after_task",
)
COPY_METHODS = ("flatten", "unflatten", "grad_vector", "set_grad_vector")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._run = -1
        self._n_runs = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def open(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._run, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; `name` is a string or a function of the call args.

        `after(span, args, result)` runs once the span has closed and may add
        attributes from the arguments or the result.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name if isinstance(name, str) else name(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after is not None:
                after(tracer.spans[idx], args, out)
            return out

        return wrapper

    def counted(self, key: str, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -----------------------------------------------------------

    @staticmethod
    def _kwslab_modules():
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == "kwslab" or name.startswith("kwslab."))]

    def _replace_everywhere(self, original, wrapper) -> None:
        """Rebind every kwslab module attribute that holds `original`."""
        for module in self._kwslab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def _patch_method(self, cls, attr: str, wrapper) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from kwslab import autodiff, cli, dsp, metrics, strategies, taskstream, trainer

        for op in OPS:
            after = self._wrap_backward(op) if op in BWD_OPS else None
            fn = getattr(autodiff, op)
            self._replace_everywhere(fn, self.timed(f"autodiff.{op}", fn, after))
        self._replace_everywhere(
            autodiff.backward, self.timed("autodiff.backward", autodiff.backward))
        self._patch_method(autodiff.Sgd, "step",
                           self.timed("autodiff.Sgd.step", autodiff.Sgd.__dict__["step"]))
        self._replace_everywhere(
            autodiff.save_checkpoint,
            self.timed("autodiff.save_checkpoint", autodiff.save_checkpoint, _checkpoint_bytes))
        for name in COPY_METHODS:
            cls = autodiff.ParameterVector
            self._patch_method(cls, name, self.counted(f"ParameterVector.{name}", cls.__dict__[name]))

        self._replace_everywhere(dsp.mfcc, self.timed("dsp.mfcc", dsp.mfcc, _clip_id))
        self._patch_method(taskstream.TaskStream, "load_clip", self.timed(
            "taskstream.load_clip", taskstream.TaskStream.load_clip, _ref_uri))
        for name in ("synth_stream", "split_corpus_dir"):
            fn = getattr(taskstream, name)
            self._replace_everywhere(fn, self.timed("taskstream.build", fn))

        for cls in _strategy_classes(strategies):
            for hook in HOOKS:
                if hook not in cls.__dict__:
                    continue
                if cls is strategies.Strategy and hook != "augment_data":
                    continue  # identity defaults; their call cost stays in trainer self time
                after = _augment_size if hook == "augment_data" else None
                self._patch_method(cls, hook, self.timed(
                    functools.partial(_hook_name, hook), cls.__dict__[hook], after))
        self._replace_everywhere(strategies.gem_project, self.timed(
            "strategies.gem_project", strategies.gem_project, _gem_info))
        self._patch_method(strategies.TrainContext, "batch", self.timed(
            "strategies.TrainContext.batch", strategies.TrainContext.batch))

        self._replace_everywhere(trainer.run, self._wrap_run(trainer.run))
        self._replace_everywhere(
            trainer.evaluate, self.timed("trainer.evaluate", trainer.evaluate))
        self._patch_method(trainer.FeatureCache, "__call__",
                           self._wrap_feature_miss(trainer.FeatureCache.__call__))
        self._replace_everywhere(
            metrics.emit_report, self.timed("metrics.emit_report", metrics.emit_report))
        self._replace_everywhere(cli.cmd_sweep, self.timed("cli.sweep", cli.cmd_sweep))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- special wrappers ---------------------------------------------------

    def _wrap_backward(self, op: str):
        def after(span, args, out):
            bwd = out._backward
            if bwd is not None:
                out._backward = self.timed(f"autodiff.{op}.bwd", bwd)
        return after

    def _wrap_run(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(cfg, *args, **kwargs):
            outer = tracer._run
            tracer._run = tracer._n_runs
            tracer._n_runs += 1
            idx = tracer.open("trainer.run", {
                "strategy": cfg.strategy, "pretrain_epochs": cfg.sgd.pretrain_epochs})
            try:
                return fn(cfg, *args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._run = outer

        return wrapper

    def _wrap_feature_miss(self, fn):
        """Feature-cache calls that reach the clip loader; hits leave no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open("trainer.features")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if len(tracer.spans) == idx + 1:
                    tracer.spans.pop()

        return wrapper

    # -- output -------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh, separators=(",", ":"))


def _strategy_classes(module):
    base = module.Strategy
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)]


def _hook_name(hook: str, args) -> str:
    return f"strategies.{args[0].name}.{hook}"


def _checkpoint_bytes(span, args, out):
    span[5] = {"bytes": os.path.getsize(args[0])}


def _clip_id(span, args, out):
    span[5] = {"clip": args[0].source_id}


def _ref_uri(span, args, out):
    span[5] = {"clip": args[1].uri}


def _augment_size(span, args, out):
    span[5] = {"size": len(out), "pretrain": bool(args[1].is_pretrain)}


def _gem_info(span, args, out):
    info = out[1]
    span[5] = {"projected": bool(info["projected"]), "iters": int(info["iters"])}
