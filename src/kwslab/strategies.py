"""Continual-learning strategies behind one lifecycle seam.

The trainer drives every strategy through the same hooks: before_task hands
back what to train (model view, parameter vector, labeling), augment_data may
mix in replayed samples, post_batch turns each step's task-loss gradient into
the gradient the optimizer applies and the penalty value the logged loss adds
(SI's anchor penalty adds its gradient, GEM projects), post_step observes
the applied update (EWC pulls toward its anchor there), after_task
consolidates state, and eval_logits routes evaluation for any learned task.
Hooks a strategy does not need keep their identity defaults. Every route is
one forward that states its batch-norm mode. A strategy reports what it
holds beyond the base network through one hook, accounting. The feature
layout is `dsp`'s to decide.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterVector, Segment, Tensor
from .config import RunConfig, scaling_config
from .dsp import FEATURE_SHAPE
from .errors import EmptyDataError, UnknownTaskError
from .models import Column, SubNet, TcResNet8, count_parameters, instantiate_subnet
from .seeding import derive_seed, rng_for
from .taskstream import ClipRef, TaskSpec, TaskStream

# bytes of one clip's features, as a rehearsal buffer would store them
SAMPLE_BYTES = math.prod(FEATURE_SHAPE) * np.dtype(np.float64).itemsize


@dataclass
class TrainContext:
    """Trainer-owned services a strategy may use."""

    cfg: RunConfig
    features: Callable[[ClipRef], np.ndarray]  # a trainer.FeatureCache: FEATURE_SHAPE rows

    @property
    def stream(self) -> TaskStream:  # the stream whose clips `features` extracted
        return self.features.stream

    def batch(self, refs: list[ClipRef], label_of: Callable[[ClipRef], int]):
        if not refs:
            raise EmptyDataError("empty batch")
        x = np.stack([self.features(r) for r in refs])
        y = np.array([label_of(r) for r in refs], dtype=np.int64)
        return x, y


@dataclass
class TrainHandle:
    """What the trainer optimizes for one task."""

    forward: Callable[[np.ndarray], Tensor]  # train-mode logits
    params: ParameterVector
    label_of: Callable[[ClipRef], int]
    lr_scale: np.ndarray | None = None


@dataclass(frozen=True)
class Accounting:
    """What a strategy holds beyond the base network: trainable parameters,
    bytes of stored feature data, and its own report fields."""

    extra_params: int = 0
    buffer_bytes: int = 0
    extras: dict = field(default_factory=dict)


def _model_handle(model: TcResNet8, label_of: Callable[[ClipRef], int]) -> TrainHandle:
    """Train the whole of `model`."""
    return TrainHandle(
        forward=lambda x: model(Tensor(x), training=True), params=model.params, label_of=label_of
    )


def _local_labels(task: TaskSpec) -> Callable[[ClipRef], int]:
    return lambda ref: task.local_label(ref.keyword)


class Strategy:
    name = "base"
    # The class that trains the task 0 every run of this strategy adopts, by
    # restoring its task-0 handle's segments by name: one that trains task 0
    # exactly as this strategy would.
    pretrained_by: type[Strategy]

    def __init__(self, ctx: TrainContext):
        self.ctx = ctx

    # -- lifecycle ----------------------------------------------------------

    def before_task(self, task: TaskSpec) -> TrainHandle:
        raise NotImplementedError

    def augment_data(self, task: TaskSpec) -> list[ClipRef]:
        return list(task.train)

    def post_batch(self, g_kws: np.ndarray) -> tuple[np.ndarray, float]:
        """(the gradient Sgd applies, the penalty value the logged loss adds)."""
        return g_kws, 0.0

    def post_step(self, g_kws: np.ndarray, delta: np.ndarray) -> None:
        pass

    def after_task(self, task: TaskSpec) -> None:
        pass

    def eval_logits(self, task_id: int) -> Callable[[np.ndarray], np.ndarray]:
        """Eval-mode logits over the task's keywords, in `task.keywords` order."""
        raise NotImplementedError

    # -- accounting ---------------------------------------------------------

    def accounting(self) -> Accounting:
        return Accounting()

    def checkpoint_items(self) -> list[tuple[str, ParameterVector]]:
        return []


class GlobalHeadStrategy(Strategy):
    """Shared base for strategies training one model with a head over every
    stream keyword; tasks are windows into that global label space."""

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        stream = ctx.stream
        self.model = TcResNet8(n_classes=stream.n_keywords, seed=derive_seed(ctx.cfg.seed, "model"))
        self._label_of = lambda ref: stream.global_label(ref.keyword)

    def before_task(self, task: TaskSpec) -> TrainHandle:
        return _model_handle(self.model, self._label_of)

    def eval_logits(self, task_id: int) -> Callable[[np.ndarray], np.ndarray]:
        stream = self.ctx.stream
        allowed = np.array([stream.global_label(kw) for kw in stream.task(task_id).keywords])
        return lambda x: self.model(Tensor(x), training=False).data[:, allowed]

    def checkpoint_items(self):
        return [("model", self.model.params)]

    def _grad_on(self, refs: list[ClipRef]) -> np.ndarray:
        """Gradient of the task loss on refs at the current parameters.

        Probes run with batch statistics but never touch the running stats,
        so they are deterministic and side-effect-free at any training stage.
        """
        x, y = self.ctx.batch(refs, self._label_of)
        params = self.model.params
        params.zero_grad()
        logits = self.model(Tensor(x), training=True, update_running=False)
        ad.backward(ad.softmax_cross_entropy(logits, y))
        g = params.grad_vector()
        params.zero_grad()
        return g


class FineTune(GlobalHeadStrategy):
    """Lower bound: sequential training with no protection at all."""

    name = "finetune"


def quadratic_penalty(theta: np.ndarray, anchor: np.ndarray, omega: np.ndarray,
                      lam: float) -> tuple[float, np.ndarray]:
    """(lam/2)·Σ omega·(theta-anchor)² and its gradient lam·omega·(theta-anchor)."""
    d = theta - anchor
    value = 0.5 * lam * float(np.sum(omega * d * d))
    return value, lam * omega * d


class AnchoredPenalty(GlobalHeadStrategy):
    """Quadratic pull toward the weights held at the end of the last task.

    Subclasses estimate per-weight importance: `importance(task, theta)` is
    added to omega when a task ends, and theta becomes the new anchor. The
    weight lam comes from the config section named after the strategy.
    """

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        self.lam = getattr(ctx.cfg, self.name).lam
        self.omega = np.zeros(self.model.params.trainable_count)
        self.anchor: np.ndarray | None = None

    def importance(self, task: TaskSpec, theta: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def post_batch(self, g_kws: np.ndarray) -> tuple[np.ndarray, float]:
        if self.anchor is None:
            return g_kws, 0.0
        value, grad = quadratic_penalty(self.model.params.flatten(), self.anchor, self.omega,
                                        self.lam)
        return g_kws + grad, value

    def after_task(self, task: TaskSpec) -> None:
        theta = self.model.params.flatten()
        self.omega += self.importance(task, theta)
        self.anchor = theta

    def accounting(self) -> Accounting:
        # anchor copy + importance map
        return Accounting(extra_params=2 * self.model.params.trainable_count)

    def checkpoint_items(self):
        items = super().checkpoint_items()
        if self.anchor is not None:
            items.append((
                f"{self.name}_state",
                ParameterVector([
                    Segment("anchor", Tensor(self.anchor), trainable=False),
                    Segment("omega", Tensor(self.omega), trainable=False),
                ]),
            ))
        return items


class Ewc(AnchoredPenalty):
    """Importance from accumulated squared gradients (Kirkpatrick et al. 2017).

    The pull toward the anchor is applied after each momentum step as an
    exact proximal step, stable at any lam and omega (Parikh & Boyd 2014):
    theta <- (theta + k·anchor) / (1 + k), with k = lr/(1 - momentum)·lam·omega
    per weight. The 1/(1 - momentum) gives it the strength momentum gives an
    explicit penalty gradient. `post_batch` adds no gradient; its value is
    still `quadratic_penalty`'s.
    """

    name = "ewc"

    def post_batch(self, g_kws: np.ndarray) -> tuple[np.ndarray, float]:
        return g_kws, super().post_batch(g_kws)[1]  # the pull is post_step's

    def post_step(self, g_kws: np.ndarray, delta: np.ndarray) -> None:
        if self.anchor is None or self.lam == 0.0:  # at lam 0 a -0.0 weight stays -0.0
            return
        sgd = self.ctx.cfg.sgd
        k = sgd.learning_rate / (1.0 - sgd.momentum) * self.lam * self.omega
        params = self.model.params
        params.unflatten((params.flatten() + k * self.anchor) / (1.0 + k))

    def fisher(self, refs: list[ClipRef]) -> np.ndarray:
        """Diagonal importance: mean over samples of squared per-sample grads."""
        if not refs:
            raise EmptyDataError("importance estimation needs at least one sample")
        total = np.zeros(self.model.params.trainable_count)
        for ref in refs:
            g = self._grad_on([ref])
            total += g * g
        return total / len(refs)

    def importance(self, task: TaskSpec, theta: np.ndarray) -> np.ndarray:
        refs = list(task.train)
        cap = self.ctx.cfg.ewc.fisher_samples
        if cap and len(refs) > cap:
            order = rng_for(self.ctx.cfg.seed, f"ewc|fisher|{task.task_id}").permutation(len(refs))
            refs = [refs[i] for i in order[:cap]]
        return self.fisher(refs)


class Si(AnchoredPenalty):
    """Importance from the path integral of every step (Zenke et al. 2017),
    kept as a non-trainable segment of every task's handle, as batch norm's
    running statistics are: restoring a handle by name carries it over."""

    name = "si"

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        self.eps = ctx.cfg.si.eps
        self.path = Segment("si_path", Tensor(np.zeros(self.omega.size)), trainable=False)
        self.task_start = self.model.params.flatten()

    def before_task(self, task: TaskSpec) -> TrainHandle:
        handle = super().before_task(task)
        handle.params = ParameterVector([*handle.params.segments, self.path])
        return handle

    def post_step(self, g_kws: np.ndarray, delta: np.ndarray) -> None:
        si_accumulate(self.path.tensor.data, g_kws, delta)

    def importance(self, task: TaskSpec, theta: np.ndarray) -> np.ndarray:
        """The task's path integral; also starts the next task's path."""
        path = self.path.tensor.data
        if not path.any():
            warnings.warn(
                f"consolidating task {task.task_id} with a zero path integral; "
                "importance left unchanged",
                RuntimeWarning,
            )
        gain = np.zeros_like(theta)
        si_consolidate(gain, path, theta - self.task_start, self.eps)
        path[:] = 0.0
        self.task_start = theta
        return gain


def si_accumulate(path: np.ndarray, g: np.ndarray, delta: np.ndarray) -> None:
    """Per-step path contribution: path += -g * delta (elementwise)."""
    path -= g * delta


def si_consolidate(omega: np.ndarray, path: np.ndarray, displacement: np.ndarray,
                   eps: float) -> None:
    """omega += path / (displacement² + eps)."""
    omega += path / (displacement * displacement + eps)


def nr_counts(history_sizes: list[int], xi: float) -> list[int]:
    """Replay counts: ceil(xi·|D_k|) per past task, with a float-noise guard."""
    return [min(n, int(math.ceil(xi * n - 1e-9))) for n in history_sizes]


def nr_mix(history: list[list[ClipRef]], d_t: list[ClipRef], xi: float, seed: int,
           task_id: int) -> list[ClipRef]:
    """Mix a seeded, per-task-stable replay subset of history into D_t.
    With no history (task 0) there is nothing to mix, and D_t keeps its order."""
    if not history:
        return d_t
    counts = nr_counts([len(d) for d in history], xi)
    mixed: list[ClipRef] = []
    for k, (d_k, n_take) in enumerate(zip(history, counts)):
        # keyed by source task only, so the stored subset never changes later
        rng = rng_for(seed, f"nr|select|{k}")
        idx = rng.choice(len(d_k), size=n_take, replace=False)
        mixed.extend(d_k[i] for i in sorted(idx))
    mixed.extend(d_t)
    order = rng_for(seed, f"nr|shuffle|{task_id}").permutation(len(mixed))
    return [mixed[i] for i in order]


class NaiveRehearsal(GlobalHeadStrategy):
    name = "nr"

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        self.xi = ctx.cfg.nr.xi
        self.history: list[list[ClipRef]] = []

    def augment_data(self, task: TaskSpec) -> list[ClipRef]:
        return nr_mix(self.history, list(task.train), self.xi, self.ctx.cfg.seed, task.task_id)

    def after_task(self, task: TaskSpec) -> None:
        self.history.append(list(task.train))

    def accounting(self) -> Accounting:
        stored = sum(nr_counts([len(d) for d in self.history], self.xi))
        return Accounting(buffer_bytes=stored * SAMPLE_BYTES, extras={"nr_stored_samples": stored})


# largest KKT residual max|min(v, h v + b)| an accepted dual solution may have
GEM_KKT_TOL = 1e-8


def gem_project(g_t: np.ndarray, G: np.ndarray) -> tuple[np.ndarray, dict]:
    """Project g_t to the closest gradient with nonnegative inner products
    against every row of G.

    Feasible inputs pass through untouched (same array). Otherwise solves the
    dual  min ½ vᵀGGᵀv + (G g_t)ᵀv  s.t. v ≥ 0  exactly and returns
    Gᵀv* + g_t; if the solution misses the KKT tolerance, g_t is returned
    with info["converged"] False.
    """
    info = {"projected": False, "converged": True, "iters": 0}
    if G.size == 0:
        return g_t, info
    if not (np.all(np.isfinite(g_t)) and np.all(np.isfinite(G))):
        raise ValueError("gem_project requires finite gradients")

    dots = G @ g_t
    if np.all(dots >= 0.0):
        return g_t, info

    # zero rows constrain nothing
    live = np.einsum("ij,ij->i", G, G) > 0.0
    Gl = G[live]
    h = Gl @ Gl.T
    b = Gl @ g_t
    v, info["iters"] = _solve_dual(h, b)
    info["projected"] = True
    info["converged"] = bool(np.max(np.abs(np.minimum(v, h @ v + b))) <= GEM_KKT_TOL)
    if info["converged"]:
        return Gl.T @ v + g_t, info
    return g_t, info


def _solve_dual(h: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """min ½ vᵀhv + bᵀv over v ≥ 0 by the Lawson–Hanson active-set method.

    The dual is the NNLS problem min ½‖Gᵀv + g‖², written here in Gram form.
    Returns v and the number of active-set solves.
    """
    m = len(b)
    v = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    steps, max_steps = 0, 3 * m + 3
    while steps < max_steps:
        w = np.where(passive, -np.inf, -(h @ v + b))
        j = int(np.argmax(w))
        if w[j] <= 0.0:
            break
        passive[j] = True
        while passive.any() and steps < max_steps:
            steps += 1
            idx = np.flatnonzero(passive)
            s = np.zeros(m)
            s[idx], *_ = np.linalg.lstsq(h[np.ix_(idx, idx)], -b[idx], rcond=None)
            if v[j] == 0.0 and s[j] <= 0.0:
                # the entering index cannot move (rounding on a singular h):
                # every further step would repeat this one
                return v, steps
            if np.all(s[idx] > 0.0):
                v = s
                break
            # step back along v -> s until the first passive entry hits zero
            out = idx[s[idx] <= 0.0]
            ratios = v[out] / (v[out] - s[out])
            first = int(np.argmin(ratios))
            v = v + ratios[first] * (s - v)
            v[out[first]] = 0.0
            passive &= v > 0.0
            v[~passive] = 0.0
    return v, steps


class Gem(GlobalHeadStrategy):
    """Constrain each step's gradient against per-past-task buffer gradients."""

    name = "gem"

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        gcfg = ctx.cfg.gem
        n_slots = len(ctx.stream.tasks)
        self.budget = gcfg.buffer
        self.quota = max(1, gcfg.buffer // n_slots)
        self.buffers: list[list[ClipRef]] = []
        self.fallbacks = 0
        self.projections = 0

    def post_batch(self, g_kws: np.ndarray) -> tuple[np.ndarray, float]:
        live = [buf for buf in self.buffers if buf]
        if not live:
            return g_kws, 0.0
        G = np.stack([self._grad_on(buf) for buf in live])
        g_new, info = gem_project(g_kws, G)
        if info["projected"]:
            self.projections += 1
            if not info["converged"]:
                self.fallbacks += 1
                warnings.warn(
                    "gradient projection did not converge; using raw gradient",
                    RuntimeWarning,
                )
        return g_new, 0.0

    def after_task(self, task: TaskSpec) -> None:
        refs = list(task.train)
        stored = sum(len(b) for b in self.buffers)
        take = min(self.quota, max(0, self.budget - stored), len(refs))
        order = rng_for(self.ctx.cfg.seed, f"gem|{task.task_id}").permutation(len(refs))
        self.buffers.append([refs[i] for i in order[:take]])

    def accounting(self) -> Accounting:
        return Accounting(
            buffer_bytes=sum(len(b) for b in self.buffers) * SAMPLE_BYTES,
            extras={
                "gem_projections": self.projections,
                "gem_fallbacks": self.fallbacks,
                "gem_quota_per_task": self.quota,
            },
        )


class Pcl(Strategy):
    """Progressive growth: a shared trainable encoder feeds per-task columns
    that are frozen the moment their task ends."""

    name = "pcl"

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        cfg = ctx.cfg
        self.model = TcResNet8(
            n_classes=ctx.stream.task(0).n_keywords, seed=derive_seed(cfg.seed, "model")
        )
        self.scaling = scaling_config(cfg)
        self.fixed = cfg.pcl.fixed
        self.freeze_shared = cfg.pcl.freeze_shared
        self.encoder_lr_scale = cfg.pcl.encoder_lr_scale
        self.subnets: dict[int, SubNet] = {}

    # -- training -----------------------------------------------------------

    def before_task(self, task: TaskSpec) -> TrainHandle:
        if task.is_pretrain:
            return _model_handle(self.model, _local_labels(task))

        subnet = instantiate_subnet(
            c_t=task.n_keywords,
            cfg=self.scaling,
            c_in=self.model.encoder_channels(),
            fixed=self.fixed,
            seed=derive_seed(self.ctx.cfg.seed, f"subnet|{task.task_id}"),
        )
        self.subnets[task.task_id] = subnet

        encoder_trains = not self.freeze_shared
        encoder = self.model.encoder_segments if encoder_trains else []
        params = ParameterVector(encoder + subnet.params.segments)
        # encoder coordinates lead the flat vector
        lr_scale = np.ones(params.trainable_count)
        lr_scale[: sum(s.size for s in encoder if s.trainable)] = self.encoder_lr_scale

        # pretrain normalization stats stay locked: frozen routes read the
        # encoder through them at eval time
        return TrainHandle(
            forward=lambda x: subnet(
                self.model.encoder_forward(Tensor(x), training=encoder_trains, update_running=False),
                training=True,
            ),
            params=params,
            label_of=_local_labels(task),
            lr_scale=lr_scale,
        )

    def after_task(self, task: TaskSpec) -> None:
        frozen = self._column(task.task_id).params.segments
        if task.is_pretrain and self.freeze_shared:
            # a frozen encoder records no graph, so its backward pass is skipped
            frozen = frozen + self.model.encoder_segments
        for seg in frozen:
            seg.tensor.requires_grad = False

    # -- evaluation ---------------------------------------------------------

    def _column(self, task_id: int) -> Column:
        """Task 0 is served by the pretrained tail, every later task by its
        own sub-network; all of them read the shared encoder."""
        if task_id == 0:
            return self.model.tail
        if task_id not in self.subnets:
            raise UnknownTaskError(f"no sub-network learned for task {task_id}")
        return self.subnets[task_id]

    def eval_logits(self, task_id: int) -> Callable[[np.ndarray], np.ndarray]:
        column = self._column(task_id)
        return lambda x: column(
            self.model.encoder_forward(Tensor(x), training=False), training=False
        ).data

    # -- accounting ----------------------------------------------------------

    def accounting(self) -> Accounting:
        subnets = sorted(self.subnets.items())
        params = {str(tid): count_parameters(sn.params) for tid, sn in subnets}
        return Accounting(
            extra_params=sum(params.values()),
            extras={
                "pcl_subnet_channels": {str(tid): list(sn.scaled_channels) for tid, sn in subnets},
                "pcl_subnet_params": params,
            },
        )

    def checkpoint_items(self):
        items = [("model", self.model.params)]
        for tid in sorted(self.subnets):
            items.append((f"subnet{tid}", self.subnets[tid].params))
        return items


class StandAlone(Strategy):
    """Upper bound: an independent model per task, never revisited."""

    name = "standalone"

    def __init__(self, ctx: TrainContext):
        super().__init__(ctx)
        self.models: dict[int, TcResNet8] = {}

    def before_task(self, task: TaskSpec) -> TrainHandle:
        model = TcResNet8(
            n_classes=task.n_keywords,
            seed=derive_seed(self.ctx.cfg.seed, f"standalone|{task.task_id}"),
        )
        self.models[task.task_id] = model
        return _model_handle(model, _local_labels(task))

    def eval_logits(self, task_id: int) -> Callable[[np.ndarray], np.ndarray]:
        if task_id not in self.models:
            raise UnknownTaskError(f"no model trained for task {task_id}")
        model = self.models[task_id]
        return lambda x: model(Tensor(x), training=False).data

    def accounting(self) -> Accounting:
        return Accounting(extra_params=sum(
            count_parameters(m.params) for tid, m in self.models.items() if tid != 0
        ))

    def checkpoint_items(self):
        return [(f"model{tid}", self.models[tid].params) for tid in sorted(self.models)]


# Task 0 trains one of two ways: with a head over every stream keyword, or
# with a task-local head from pcl's initial network. An Si trains the first
# way for all who share it, since it alone also records SI's path integral.
GlobalHeadStrategy.pretrained_by = Si
Pcl.pretrained_by = StandAlone.pretrained_by = Pcl

_REGISTRY = {
    "finetune": FineTune,
    "ewc": Ewc,
    "si": Si,
    "nr": NaiveRehearsal,
    "gem": Gem,
    "pcl": Pcl,
    "standalone": StandAlone,
}


def strategy_class(name: str) -> type[Strategy]:
    return _REGISTRY[name]


def make_strategy(ctx: TrainContext) -> Strategy:
    return strategy_class(ctx.cfg.strategy)(ctx)
