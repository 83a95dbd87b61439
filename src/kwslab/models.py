"""Temporal-convolutional keyword models.

TcResNet8 treats the MFCC coefficient axis as input channels and convolves
along time only. Its encoder (stem + first block) is what the progressive
strategy shares across tasks. A Column is residual blocks, a global average
pool and a dense head on top of that encoder: TcResNet8's own tail is one,
and SubNet is the width-scaled one-block column grown per task, its widths
scaled by the task's keyword count relative to the pretraining keyword
count. Models keep no mode: every forward takes `training`, which picks
batch statistics (True) or the running ones (False).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import ParameterVector, Segment, Tensor
from .dsp import N_MFCC
from .errors import ConfigError, ShapeError


def _kaiming_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    bound = np.sqrt(6.0 / fan_in)
    return rng.uniform(-bound, bound, size=shape)


class Conv1d:
    def __init__(self, rng, prefix: str, c_in: int, c_out: int, k: int, stride: int = 1,
                 bias: bool = False):
        self.stride = stride
        self.w = Tensor(_kaiming_uniform(rng, (c_out, c_in, k), c_in * k), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True) if bias else None
        self.segments = [Segment(f"{prefix}.w", self.w)]
        if self.b is not None:
            self.segments.append(Segment(f"{prefix}.b", self.b))

    def __call__(self, x: Tensor) -> Tensor:
        return ad.conv1d(x, self.w, self.b, stride=self.stride)


class BatchNorm1d:
    def __init__(self, prefix: str, c: int):
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)
        self.running_mean = Tensor(np.zeros(c))
        self.running_var = Tensor(np.ones(c))
        self.segments = [
            Segment(f"{prefix}.gamma", self.gamma),
            Segment(f"{prefix}.beta", self.beta),
            Segment(f"{prefix}.running_mean", self.running_mean, trainable=False),
            Segment(f"{prefix}.running_var", self.running_var, trainable=False),
        ]

    def __call__(self, x: Tensor, training: bool, update_running: bool = True) -> Tensor:
        return ad.batch_norm(
            x, self.gamma, self.beta, self.running_mean, self.running_var,
            training=training, update_running=update_running,
        )


class Dense:
    def __init__(self, rng, prefix: str, c_in: int, c_out: int):
        self.w = Tensor(_kaiming_uniform(rng, (c_out, c_in), c_in), requires_grad=True)
        self.b = Tensor(np.zeros(c_out), requires_grad=True)
        self.segments = [Segment(f"{prefix}.w", self.w), Segment(f"{prefix}.b", self.b)]

    def __call__(self, x: Tensor) -> Tensor:
        return ad.dense(x, self.w, self.b)


class ResidualBlock:
    """Two temporal convs with BN/ReLU plus a 1x1 strided shortcut."""

    def __init__(self, rng, prefix: str, c_in: int, c_mid: int, c_out: int, k: int = 3,
                 stride: int = 2):
        self.conv1 = Conv1d(rng, f"{prefix}.conv1", c_in, c_mid, k, stride=stride)
        self.bn1 = BatchNorm1d(f"{prefix}.bn1", c_mid)
        self.conv2 = Conv1d(rng, f"{prefix}.conv2", c_mid, c_out, k, stride=1)
        self.bn2 = BatchNorm1d(f"{prefix}.bn2", c_out)
        self.conv_sc = Conv1d(rng, f"{prefix}.shortcut", c_in, c_out, 1, stride=stride)
        self.bn_sc = BatchNorm1d(f"{prefix}.bn_sc", c_out)
        self.segments = (
            self.conv1.segments + self.bn1.segments
            + self.conv2.segments + self.bn2.segments
            + self.conv_sc.segments + self.bn_sc.segments
        )

    def __call__(self, x: Tensor, training: bool, update_running: bool = True) -> Tensor:
        h = ad.relu(self.bn1(self.conv1(x), training, update_running))
        h = self.bn2(self.conv2(h), training, update_running)
        sc = self.bn_sc(self.conv_sc(x), training, update_running)
        return ad.relu(ad.add(h, sc))


class Model:
    """Base: owns a ParameterVector, which every subclass sets."""

    params: ParameterVector

    def describe(self) -> dict:
        return {
            "class": type(self).__name__,
            "total_params": self.params.total_count,
            "trainable_params": self.params.trainable_count,
            "segments": [
                {"name": s.name, "shape": list(s.tensor.data.shape), "trainable": s.trainable}
                for s in self.params.segments
            ],
        }


class Column(Model):
    """Residual blocks, then a global average pool and a dense head."""

    def __init__(self, blocks: list[ResidualBlock], head: Dense):
        self.blocks = blocks
        self.head = head
        self.params = ParameterVector([s for b in blocks for s in b.segments] + head.segments)

    def forward(self, h: Tensor, training: bool, update_running: bool = True) -> Tensor:
        for block in self.blocks:
            h = block(h, training, update_running)
        return self.head(ad.global_avg_pool(h))

    __call__ = forward


class TcResNet8(Model):
    """Stem conv + three residual blocks + global pool + linear head.

    Channel plan [16, 24, 32, 48]; stem kernel 9 then kernel 3 everywhere;
    each block halves the time axis at its entry.
    """

    CHANNELS = (16, 24, 32, 48)
    STEM_KERNEL = 9
    BLOCK_KERNEL = 3

    def __init__(self, n_mfcc: int = N_MFCC, n_classes: int = 15, seed: int = 0):
        if n_mfcc < 1:
            raise ConfigError("model.n_mfcc", f"must be >= 1, got {n_mfcc}")
        if n_classes < 2:
            raise ConfigError("model.n_classes", f"must be >= 2, got {n_classes}")
        self.n_mfcc = n_mfcc
        rng = np.random.default_rng(seed)
        c0, c1, c2, c3 = self.CHANNELS
        k = self.BLOCK_KERNEL

        self.conv0 = Conv1d(rng, "stem.conv", n_mfcc, c0, self.STEM_KERNEL, stride=1)
        self.bn0 = BatchNorm1d("stem.bn", c0)
        self.block1 = ResidualBlock(rng, "block1", c0, c1, c1, k)
        block2 = ResidualBlock(rng, "block2", c1, c2, c2, k)
        block3 = ResidualBlock(rng, "block3", c2, c3, c3, k)
        # encoder = stem + block1 (the shared feature extractor); tail = the rest
        self.tail = Column([block2, block3], Dense(rng, "head", c3, n_classes))
        self.encoder_segments = self.conv0.segments + self.bn0.segments + self.block1.segments
        self.params = ParameterVector(self.encoder_segments + self.tail.params.segments)

    def encoder_forward(self, x: Tensor, training: bool, update_running: bool = True) -> Tensor:
        if x.data.ndim != 3 or x.data.shape[1] != self.n_mfcc:
            raise ShapeError(f"expected input [B, {self.n_mfcc}, T], got {x.data.shape}")
        h = ad.relu(self.bn0(self.conv0(x), training, update_running))
        return self.block1(h, training, update_running)

    def forward(self, x: Tensor, training: bool, update_running: bool = True) -> Tensor:
        return self.tail(
            self.encoder_forward(x, training, update_running), training, update_running
        )

    __call__ = forward

    def encoder_channels(self) -> int:
        return self.CHANNELS[1]


BASE_SUBNET_CHANNELS = (16, 48)

# Widest layer a scaled sub-network may have. The width multiplier has no
# natural ceiling, and a huge one would die in numpy allocating the layer,
# after pretraining. 1024 channels is 21 times the base plan's widest layer;
# the block's second conv then holds about a million weights (8 MB, of which
# a training step keeps several copies).
MAX_SUBNET_CHANNELS = 1024


@dataclass(frozen=True)
class ScalingConfig:
    """Width plan for per-task sub-networks.

    alpha = mu * C_t / C_0 where C_t is the task's keyword count and c0 the
    pretraining keyword count; sub-net widths are alpha times the base plan.
    """

    mu: float = 1.0
    c0: int = 15


def width_multiplier(c_t: int, cfg: ScalingConfig) -> float:
    if c_t < 1:
        raise ConfigError("task.keywords", f"need at least 1 keyword, got {c_t}")
    return cfg.mu * c_t / cfg.c0


def widest_scaled_channels(alpha: float) -> float:
    """Width of the widest layer scale_channels(alpha) builds (inf if it overflows)."""
    return np.floor(alpha * max(BASE_SUBNET_CHANNELS) + 0.5)


def scale_channels(alpha: float) -> tuple[int, ...]:
    """Round-half-up scaling of BASE_SUBNET_CHANNELS, clamped below at one channel."""
    if not 0 < alpha < np.inf:
        raise ConfigError("pcl.alpha", f"must be finite and > 0, got {alpha}")
    if widest_scaled_channels(alpha) > MAX_SUBNET_CHANNELS:
        raise ConfigError(
            "pcl.alpha",
            f"{alpha:.4g} scales a sub-network layer above {MAX_SUBNET_CHANNELS} channels",
        )
    scaled = []
    for c in BASE_SUBNET_CHANNELS:
        v = int(np.floor(alpha * c + 0.5))
        if v < 1:
            warnings.warn(
                f"width multiplier {alpha:.4g} drives a {c}-channel layer below 1; clamping",
                RuntimeWarning,
                stacklevel=2,
            )
            v = 1
        scaled.append(v)
    return tuple(scaled)


class SubNet(Column):
    """Per-task column: one residual block of scaled widths + its own head.

    Consumes the shared encoder's feature map [B, c_in, T]; downsamples time
    by 2 at entry like a trunk block.
    """

    def __init__(self, c_in: int, scaled_channels: tuple[int, int], n_classes: int, seed: int = 0):
        rng = np.random.default_rng(seed)
        c1, c2 = scaled_channels
        block = ResidualBlock(rng, "sub", c_in, c1, c2)
        super().__init__([block], Dense(rng, "sub.head", c2, n_classes))
        self.scaled_channels = scaled_channels


def instantiate_subnet(
    c_t: int, cfg: ScalingConfig, c_in: int, fixed: bool = False, seed: int = 0
) -> SubNet:
    """Build the per-task column sized for a task with c_t keywords."""
    alpha = width_multiplier(c_t, cfg)
    channels = BASE_SUBNET_CHANNELS if fixed else scale_channels(alpha)
    return SubNet(c_in, channels, c_t, seed=seed)


def count_parameters(params: ParameterVector) -> int:
    """Trainable parameter count; running stats excluded."""
    return params.trainable_count


def describe_text(model: Model) -> str:
    d = model.describe()
    lines = [
        f"{d['class']}: {d['trainable_params']} trainable / {d['total_params']} total",
    ]
    for s in d["segments"]:
        flag = "" if s["trainable"] else "  (frozen)"
        shape = "x".join(str(v) for v in s["shape"]) if s["shape"] else "scalar"
        lines.append(f"  {s['name']:<28} {shape:<12}{flag}")
    return "\n".join(lines)


def describe_json(model: Model) -> str:
    return json.dumps(model.describe(), indent=2, sort_keys=True)
