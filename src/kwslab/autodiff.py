"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery to train the temporal-convolutional models: a Tensor
node type, the handful of forward ops the models need (each recording an
exact reverse-mode closure), a topological backward pass, a flattened
parameter view, SGD with momentum, and a self-describing checkpoint format.

Inside a `no_grad()` block ops record no graph: their outputs have no
parents and no closure, so every activation is freed as soon as nothing
reads it. The arithmetic is the same, so outputs are bit-identical.

All math runs in float64. A single model instance and its graph are
single-threaded during a training step; distinct instances are independent.
"""

from __future__ import annotations

import json
import struct
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    CheckpointError,
    GraphFreedError,
    NanError,
    NonScalarLossError,
    ShapeError,
)
from .fileio import replace_on_success

CHECKPOINT_MAGIC = b"KWSLABCP"
CHECKPOINT_VERSION = 1
CHECKPOINT_DTYPE = "<f8"  # little-endian float64, the dtype of every Tensor
BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
BN_EPS = 1e-5


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Tensors produced by ops carry the closures needed for exact reverse-mode
    differentiation. Gradients accumulate into ``grad`` on backward().
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_freed")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self._parents = ()
        self._backward = None
        self._freed = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        if self.grad is None:
            self.grad = g + 0.0  # a new array; the add makes -0.0 into +0.0 as zeros + g does
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_grad_enabled = True  # False inside no_grad()


@contextmanager
def no_grad():
    """Run ops without recording a graph; the previous setting returns on exit."""
    global _grad_enabled
    saved, _grad_enabled = _grad_enabled, False
    try:
        yield
    finally:
        _grad_enabled = saved


def _result(data: np.ndarray, parents, backward_fn) -> Tensor:
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _check_finite(arr: np.ndarray, op: str):
    if not np.all(np.isfinite(arr)):
        raise NanError(f"{op} produced a non-finite value")


def backward(loss: Tensor):
    """Populate grads of every requires_grad tensor reachable from ``loss``.

    The pass frees the graph: a second call on the same loss raises
    GraphFreedError. Leaf gradients accumulate until zero_grad().
    """
    if loss.data.size != 1:
        raise NonScalarLossError(f"backward() needs a scalar, got shape {loss.data.shape}")
    if loss._freed:
        raise GraphFreedError("backward() called on a freed graph")

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        if node._freed:
            raise GraphFreedError("backward() reached a freed node")
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in visited:
                stack.append((p, False))

    loss.accumulate_grad(np.ones_like(loss.data))
    for node in reversed(topo):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad = None  # op outputs are pass-local; only leaves accumulate
        node._freed = node._backward is not None
        node._parents = ()
        node._backward = None


# ---------------------------------------------------------------------------
# forward ops
# ---------------------------------------------------------------------------


def _same_pad(t_in: int, k: int, stride: int) -> tuple[int, int, int]:
    t_out = -(-t_in // stride)  # ceil
    total = max(0, (t_out - 1) * stride + k - t_in)
    left = total // 2
    return t_out, left, total - left


def conv1d(x: Tensor, w: Tensor, b: Tensor | None = None, stride: int = 1) -> Tensor:
    """Temporal convolution with same-padding.

    x: [B, C_in, T], w: [C_out, C_in, K]. Output time dim is ceil(T/stride).
    """
    if x.data.ndim != 3 or w.data.ndim != 3:
        raise ShapeError(f"conv1d expects 3-d input and weight, got {x.shape} and {w.shape}")
    B, c_in, t_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv1d channel mismatch: input {c_in}, weight {c_in_w}")
    t_out, pad_l, pad_r = _same_pad(t_in, k, stride)
    span = stride * t_out  # the taps read xp[:, :, j : j + span : stride]
    if pad_l or pad_r:
        xp = np.zeros((B, c_in, t_in + pad_l + pad_r))
        xp[:, :, pad_l : pad_l + t_in] = x.data
    else:
        xp = np.ascontiguousarray(x.data)

    # The taps tap-major: wt[j] is tap j's (c_out, c_in) matrix and wt[j].T
    # its transpose. A C-contiguous copy lets matmul pass both to BLAS
    # without a per-tap copy. At one output frame matmul takes a
    # matrix-vector path that sums a strided and a contiguous matrix in
    # different orders, so there the taps stay strided views of w, as the
    # formulation this kernel reproduces has them.
    wt = w.data.transpose(2, 0, 1)
    if t_out > 1:
        wt = np.ascontiguousarray(wt)
    y = np.matmul(wt[0], xp[:, :, :span:stride])
    for j in range(1, k):
        y += np.matmul(wt[j], xp[:, :, j : j + span : stride])
    if b is not None:
        if b.data.shape != (c_out,):
            raise ShapeError(f"conv1d bias shape {b.data.shape} != ({c_out},)")
        y += b.data[None, :, None]
    _check_finite(y, "conv1d")

    parents = (x, w) if b is None else (x, w, b)

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for j in range(k):
                gxp[:, :, j : j + span : stride] += np.matmul(wt[j].T, gy)
            x.accumulate_grad(gxp[:, :, pad_l : pad_l + t_in])
        if w.requires_grad:
            # np.tensordot(gy, tap, axes=([0, 2], [0, 2])) per tap, with the
            # (c_out, B*T) transpose of gy that it would copy per tap made
            # once: the same GEMM operands, so the same bits.
            gy_t = gy.transpose(1, 0, 2).reshape(c_out, -1)
            gw = np.empty_like(w.data)
            for j in range(k):
                tap = xp[:, :, j : j + span : stride].transpose(0, 2, 1).reshape(-1, c_in)
                gw[:, :, j] = np.dot(gy_t, tap)
            w.accumulate_grad(gw)
        if b is not None and b.requires_grad:
            b.accumulate_grad(gy.sum(axis=(0, 2)))

    return _result(y, parents, bwd)


def batch_norm(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    training: bool,
    update_running: bool = True,
) -> Tensor:
    """Per-channel batch normalization over [B, C, T].

    Training mode normalizes with batch statistics (biased variance) and,
    unless update_running is off, folds them into the running stats in place
    with BN_MOMENTUM. Eval mode normalizes with the running stats.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"batch_norm expects [B, C, T], got {x.shape}")
    B, C, T = x.data.shape
    if gamma.data.shape != (C,) or beta.data.shape != (C,):
        raise ShapeError("batch_norm affine parameter shape mismatch")

    # ndarray.mean and ndarray.var's own steps, sharing one centred array
    # that is then normalised in place (biased variance)
    n = B * T
    mean = np.add.reduce(x.data, axis=(0, 2)) / n if training else running_mean.data
    xhat = x.data - mean[None, :, None]
    if training:
        var = np.add.reduce(xhat * xhat, axis=(0, 2)) / n
        if update_running:
            running_mean.data *= 1.0 - BN_MOMENTUM
            running_mean.data += BN_MOMENTUM * mean
            running_var.data *= 1.0 - BN_MOMENTUM
            running_var.data += BN_MOMENTUM * var
    else:
        var = running_var.data

    inv_std = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv_std[None, :, None]
    y = gamma.data[None, :, None] * xhat
    y += beta.data[None, :, None]
    _check_finite(y, "batch_norm")

    def bwd(gy: np.ndarray):
        gy_xhat = gy * xhat
        sum_gy_xhat = gy_xhat.sum(axis=(0, 2))
        sum_gy = gy.sum(axis=(0, 2))
        if gamma.requires_grad:
            gamma.accumulate_grad(sum_gy_xhat)
        if beta.requires_grad:
            beta.accumulate_grad(sum_gy)
        if x.requires_grad:
            scale = (gamma.data * inv_std)[None, :, None]
            if training:
                # scale * (gy - mean(gy) - xhat * mean(gy * xhat)), in place
                gx = gy - (sum_gy / n)[None, :, None]
                gx -= np.multiply(xhat, (sum_gy_xhat / n)[None, :, None], out=gy_xhat)
                gx *= scale
            else:
                gx = scale * gy
            x.accumulate_grad(gx)

    return _result(y, (x, gamma, beta), bwd)


def relu(x: Tensor) -> Tensor:
    y = np.maximum(x.data, 0.0)

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(gy * (x.data > 0.0))

    return _result(y, (x,), bwd)


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise residual add; shapes must match exactly."""
    if a.data.shape != b.data.shape:
        raise ShapeError(f"add shape mismatch: {a.shape} vs {b.shape}")
    y = a.data + b.data
    _check_finite(y, "add")

    def bwd(gy: np.ndarray):
        if a.requires_grad:
            a.accumulate_grad(gy)
        if b.requires_grad:
            b.accumulate_grad(gy)

    return _result(y, (a, b), bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Mean over the time axis: [B, C, T] -> [B, C]."""
    if x.data.ndim != 3:
        raise ShapeError(f"global_avg_pool expects [B, C, T], got {x.shape}")
    T = x.data.shape[2]
    y = x.data.mean(axis=2)

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(np.repeat(gy[:, :, None], T, axis=2) / T)

    return _result(y, (x,), bwd)


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """Affine layer: [B, C_in] @ w.T + b with w shaped [C_out, C_in]."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ShapeError(f"dense expects 2-d input and weight, got {x.shape} and {w.shape}")
    if x.data.shape[1] != w.data.shape[1]:
        raise ShapeError(f"dense feature mismatch: input {x.shape}, weight {w.shape}")
    y = x.data @ w.data.T
    if b is not None:
        y = y + b.data[None, :]
    _check_finite(y, "dense")
    parents = (x, w) if b is None else (x, w, b)

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(gy @ w.data)
        if w.requires_grad:
            w.accumulate_grad(gy.T @ x.data)
        if b is not None and b.requires_grad:
            b.accumulate_grad(gy.sum(axis=0))

    return _result(y, parents, bwd)


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between softmax(logits) and integer labels.

    logits: [B, C], labels: int array [B]. Returns a scalar tensor.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects [B, C], got {logits.shape}")
    labels = np.asarray(labels, dtype=np.int64)
    B, C = logits.data.shape
    if labels.shape != (B,):
        raise ShapeError(f"labels shape {labels.shape} != ({B},)")
    if labels.min() < 0 or labels.max() >= C:
        raise ShapeError(f"label out of range for {C} classes")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    probs = ez / ez.sum(axis=1, keepdims=True)
    nll = -(z[np.arange(B), labels] - np.log(ez.sum(axis=1)))
    loss = nll.mean()
    _check_finite(np.asarray(loss), "softmax_cross_entropy")

    def bwd(gy: np.ndarray):
        if logits.requires_grad:
            g = probs.copy()
            g[np.arange(B), labels] -= 1.0
            logits.accumulate_grad(g * (float(gy) / B))

    return _result(np.float64(loss), (logits,), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    y = x.data.sum()

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(np.full_like(x.data, float(gy)))

    return _result(np.float64(y), (x,), bwd)


def square(x: Tensor) -> Tensor:
    y = x.data * x.data

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(2.0 * x.data * gy)

    return _result(y, (x,), bwd)


def scale(x: Tensor, c: float) -> Tensor:
    y = x.data * c

    def bwd(gy: np.ndarray):
        if x.requires_grad:
            x.accumulate_grad(gy * c)

    return _result(y, (x,), bwd)


# ---------------------------------------------------------------------------
# parameter bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Segment:
    """One named parameter tensor. Running stats are non-trainable segments."""

    name: str
    tensor: Tensor
    trainable: bool = True

    @property
    def size(self) -> int:
        return self.tensor.data.size


class ParameterVector:
    """Ordered named segments with a flattened view over the trainable ones.

    flatten/unflatten round-trip bitwise; the flat layout is the basis for
    importance maps and gradient projection.
    """

    def __init__(self, segments: list[Segment]):
        names = [s.name for s in segments]
        if len(set(names)) != len(names):
            raise ShapeError("duplicate segment names in ParameterVector")
        self.segments = list(segments)

    @property
    def total_count(self) -> int:
        return sum(s.size for s in self.segments)

    @property
    def trainable_count(self) -> int:
        return sum(s.size for s in self.segments if s.trainable)

    def flatten(self) -> np.ndarray:
        parts = [s.tensor.data.ravel() for s in self.segments if s.trainable]
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def unflatten(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.trainable_count,):
            raise ShapeError(
                f"expected flat vector of {self.trainable_count}, got {vec.shape}"
            )
        off = 0
        for s in self.segments:
            if not s.trainable:
                continue
            s.tensor.data = vec[off : off + s.size].reshape(s.tensor.data.shape).copy()
            off += s.size

    def grad_vector(self) -> np.ndarray:
        parts = []
        for s in self.segments:
            if not s.trainable:
                continue
            if s.tensor.grad is None:
                parts.append(np.zeros(s.size))
            else:
                parts.append(s.tensor.grad.ravel())
        if not parts:
            return np.zeros(0)
        return np.concatenate(parts)

    def set_grad_vector(self, vec: np.ndarray) -> None:
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (self.trainable_count,):
            raise ShapeError(
                f"expected flat gradient of {self.trainable_count}, got {vec.shape}"
            )
        off = 0
        for s in self.segments:
            if not s.trainable:
                continue
            s.tensor.grad = vec[off : off + s.size].reshape(s.tensor.data.shape).copy()
            off += s.size

    def zero_grad(self) -> None:
        for s in self.segments:
            s.tensor.grad = None


@dataclass(frozen=True)
class SgdConfig:
    """Plain SGD with classical momentum."""

    learning_rate: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 0.0
    batch_size: int = 16
    epochs: int = 15
    pretrain_epochs: int = 30


class Sgd:
    """v <- momentum * v + g (+ wd * theta); theta <- theta - lr * v.

    lr_scale, when given, rescales the step per coordinate (used to damp
    shared-encoder updates without a second optimizer).
    """

    def __init__(self, params: ParameterVector, cfg: SgdConfig, lr_scale: np.ndarray | None = None):
        self.params = params
        self.cfg = cfg
        self.velocity = np.zeros(params.trainable_count)
        if lr_scale is not None and lr_scale.shape != self.velocity.shape:
            raise ShapeError("lr_scale length does not match trainable parameter count")
        self.lr_scale = lr_scale

    def step(self, g: np.ndarray) -> np.ndarray:
        """Apply one update along the flat gradient g (the grad slots are not
        read). Returns the applied delta (theta_new - theta_old)."""
        if np.shape(g) != self.velocity.shape:
            raise ShapeError(
                f"expected flat gradient of {self.velocity.size}, got shape {np.shape(g)}"
            )
        theta = self.params.flatten()
        if self.cfg.weight_decay:
            g = g + self.cfg.weight_decay * theta
        self.velocity *= self.cfg.momentum
        self.velocity += g
        delta = -self.cfg.learning_rate * self.velocity
        if self.lr_scale is not None:
            delta = delta * self.lr_scale
        self.params.unflatten(theta + delta)
        return delta


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def checkpoint_bytes(params: ParameterVector, meta: dict | None = None) -> bytes:
    """Serialize segments: magic, version header (JSON), raw little-endian float64 payload."""
    header = {
        "version": CHECKPOINT_VERSION,
        "dtype": CHECKPOINT_DTYPE,
        "meta": meta or {},
        "segments": [
            {"name": s.name, "shape": list(s.tensor.data.shape), "trainable": s.trainable}
            for s in params.segments
        ],
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = b"".join(
        np.ascontiguousarray(s.tensor.data, dtype=CHECKPOINT_DTYPE).tobytes()
        for s in params.segments
    )
    return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload


def save_checkpoint(path, params: ParameterVector, meta: dict | None = None):
    with replace_on_success(path, "wb") as fh:
        fh.write(checkpoint_bytes(params, meta=meta))


def load_checkpoint(path) -> tuple[dict, list[Segment]]:
    """Read a checkpoint back as (meta, segments)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad magic")
    off = len(CHECKPOINT_MAGIC)
    try:
        (hlen,) = struct.unpack_from("<I", blob, off)
        off += 4
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
        off += hlen
        if not isinstance(header, dict):
            raise CheckpointError(f"{path}: header is not a JSON object")
        if header.get("version") != CHECKPOINT_VERSION:
            raise CheckpointError(f"{path}: unsupported version {header.get('version')}")
        if header.get("dtype") != CHECKPOINT_DTYPE:
            raise CheckpointError(f"{path}: unsupported dtype {header.get('dtype')!r}")
        itemsize = np.dtype(CHECKPOINT_DTYPE).itemsize
        segments = []
        for desc in header["segments"]:
            shape = tuple(desc["shape"])
            count = int(np.prod(shape)) if shape else 1
            raw = blob[off : off + count * itemsize]
            if len(raw) != count * itemsize:
                raise CheckpointError(f"{path}: truncated payload for segment {desc['name']}")
            arr = np.frombuffer(raw, dtype=CHECKPOINT_DTYPE).reshape(shape).astype(np.float64)
            segments.append(Segment(desc["name"], Tensor(arr), desc["trainable"]))
            off += count * itemsize
    except (struct.error, ValueError, KeyError, TypeError) as exc:
        raise CheckpointError(f"{path}: malformed ({type(exc).__name__}: {exc})") from None
    return header.get("meta", {}), segments


def restore_into(params: ParameterVector, segments: list[Segment]) -> None:
    """Copy checkpoint values into an existing parameter vector by name."""
    by_name = {s.name: s for s in segments}
    for s in params.segments:
        src = by_name.get(s.name)
        if src is None:
            raise CheckpointError(f"checkpoint is missing segment {s.name}")
        if src.tensor.data.shape != s.tensor.data.shape:
            raise CheckpointError(f"segment {s.name} shape mismatch")
        s.tensor.data = src.tensor.data.copy()
