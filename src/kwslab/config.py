"""Run configuration: parsing, validation, canonical hashing.

Two interchangeable on-disk formats: line-oriented `key = value` with dotted
sections, and JSON (nested or flat). Every stochastic choice in a run flows
from the single `seed` key; see seeding.derive_seed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from .autodiff import SgdConfig
from .dsp import SAMPLE_RATE
from .errors import ConfigError
from .models import MAX_SUBNET_CHANNELS, ScalingConfig, widest_scaled_channels, width_multiplier
from .taskstream import StreamLayout, SynthConfig

STRATEGIES = ("finetune", "ewc", "si", "nr", "gem", "pcl", "standalone")

_STRATEGY_ALIASES = {
    "fine-tune": "finetune",
    "ft": "finetune",
    "rehearsal": "nr",
    "stand-alone": "standalone",
}


@dataclass(frozen=True)
class EwcConfig:
    lam: float = 100.0
    fisher_samples: int = 0  # 0 = use the whole task train split


@dataclass(frozen=True)
class SiConfig:
    lam: float = 1.0
    eps: float = 0.1


@dataclass(frozen=True)
class NrConfig:
    xi: float = 0.75


@dataclass(frozen=True)
class GemConfig:
    buffer: int = 128


@dataclass(frozen=True)
class PclConfig:
    mu: float = 1.0
    fixed: bool = False
    freeze_shared: bool = False
    encoder_lr_scale: float = 1.0


@dataclass(frozen=True)
class StreamConfig:
    source: str = "synth"  # "synth" | "dir"
    corpus_dir: str | None = None
    layout: StreamLayout = StreamLayout()
    synth: SynthConfig = SynthConfig()


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    strategy: str = "finetune"
    out_dir: str = ""
    eval_every: int = 0  # 0 = evaluate only at task boundaries
    include_pretrain: bool = True
    stream: StreamConfig = StreamConfig()
    sgd: SgdConfig = field(default_factory=SgdConfig)
    ewc: EwcConfig = EwcConfig()
    si: SiConfig = SiConfig()
    nr: NrConfig = NrConfig()
    gem: GemConfig = GemConfig()
    pcl: PclConfig = PclConfig()

    def validate(self) -> "RunConfig":
        for key, (path, _, accepted) in _KEY_TABLE.items():
            _check(key, _get_path(self, path), accepted)
        if self.stream.source == "dir" and not self.stream.corpus_dir:
            raise ConfigError("stream.corpus_dir", "required when stream.source = dir")
        synth = self.stream.synth
        if not synth.f_lo < synth.f_hi:
            raise ConfigError(
                "synth.f_lo", f"must be below synth.f_hi = {synth.f_hi}, got {synth.f_lo}"
            )
        # the width multiplier of every incremental task's pcl sub-network
        alpha = width_multiplier(self.stream.layout.keywords_per_task, scaling_config(self))
        widest = widest_scaled_channels(alpha)
        if widest > MAX_SUBNET_CHANNELS:
            raise ConfigError(
                "pcl.mu",
                f"{self.pcl.mu} (times stream.keywords_per_task / stream.pretrain_keywords) "
                f"scales a sub-network layer to {widest:.4g} channels, above {MAX_SUBNET_CHANNELS}",
            )
        return self


def _parse_bool(field_name: str, raw: str) -> bool:
    v = raw.strip().lower()
    if v in ("true", "1", "yes", "on"):
        return True
    if v in ("false", "0", "no", "off"):
        return False
    raise ConfigError(field_name, f"expected a boolean, got {raw!r}")


def _coerce(field_name: str, raw, kind):
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        return _parse_bool(field_name, str(raw))
    # a JSON bool is no number or text, a JSON float no int, and only a JSON
    # string (or a `key = value` line) is text
    if (
        isinstance(raw, bool)
        or (kind is int and isinstance(raw, float))
        or (kind is str and not isinstance(raw, str))
    ):
        raise ConfigError(field_name, f"expected {kind.__name__}, got {raw!r}")
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(field_name, f"expected {kind.__name__}, got {raw!r}") from None


def normalize_strategy(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    key = _STRATEGY_ALIASES.get(key, key)
    if key not in STRATEGIES:
        raise ConfigError(
            "strategy", f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}"
        )
    return key


_BELOW_NYQUIST = f"(0, {SAMPLE_RATE // 2})"

# flat key → (path, type, accepted); paths address nested frozen dataclasses.
# accepted is an interval as its error message prints it, a tuple of choices,
# or None for any value.
_KEY_TABLE = {
    "seed": (("seed",), int, None),
    "strategy": (("strategy",), str, STRATEGIES),
    "out_dir": (("out_dir",), str, None),
    "eval_every": (("eval_every",), int, "[0, inf)"),
    "metrics.include_pretrain": (("include_pretrain",), bool, None),
    "stream.source": (("stream", "source"), str, ("synth", "dir")),
    "stream.corpus_dir": (("stream", "corpus_dir"), str, None),
    "stream.pretrain_keywords": (("stream", "layout", "n_pretrain_keywords"), int, "[2, inf)"),
    "stream.tasks": (("stream", "layout", "n_tasks"), int, "[1, inf)"),
    "stream.keywords_per_task": (("stream", "layout", "keywords_per_task"), int, "[2, inf)"),
    "stream.train_frac": (("stream", "layout", "train_frac"), float, "(0, 1)"),
    "synth.keywords": (("stream", "synth", "n_keywords"), int, "[1, inf)"),
    "synth.clips": (("stream", "synth", "clips_per_keyword"), int, "[2, inf)"),
    "synth.snr_db": (("stream", "synth", "snr_db"), float, "(-inf, inf]"),  # inf = noiseless
    "synth.f_lo": (("stream", "synth", "f_lo"), float, _BELOW_NYQUIST),
    "synth.f_hi": (("stream", "synth", "f_hi"), float, _BELOW_NYQUIST),
    "synth.chirp": (("stream", "synth", "chirp"), float, "(-inf, inf)"),
    "synth.freq_jitter": (("stream", "synth", "freq_jitter"), float, "[0, 0.2]"),
    "sgd.lr": (("sgd", "learning_rate"), float, "(0, inf)"),
    "sgd.momentum": (("sgd", "momentum"), float, "[0, 1)"),
    "sgd.weight_decay": (("sgd", "weight_decay"), float, "[0, inf)"),
    "sgd.batch_size": (("sgd", "batch_size"), int, "[1, inf)"),
    "sgd.epochs": (("sgd", "epochs"), int, "[1, inf)"),
    "sgd.pretrain_epochs": (("sgd", "pretrain_epochs"), int, "[1, inf)"),
    "ewc.lambda": (("ewc", "lam"), float, "[0, inf)"),
    "ewc.fisher_samples": (("ewc", "fisher_samples"), int, "[0, inf)"),
    "si.lambda": (("si", "lam"), float, "[0, inf)"),
    "si.eps": (("si", "eps"), float, "(0, inf)"),
    "nr.xi": (("nr", "xi"), float, "(0, 1]"),
    "gem.buffer": (("gem", "buffer"), int, "[1, inf)"),
    "pcl.mu": (("pcl", "mu"), float, "(0, inf)"),
    "pcl.fixed": (("pcl", "fixed"), bool, None),
    "pcl.freeze_shared": (("pcl", "freeze_shared"), bool, None),
    "pcl.encoder_lr_scale": (("pcl", "encoder_lr_scale"), float, "[0, 1]"),
}


def _check(key: str, value, accepted) -> None:
    """Raise ConfigError unless `value` is in `accepted`. NaN is in no
    interval; an infinity only in one closed at that end."""
    if accepted is None:
        return
    if isinstance(accepted, tuple):
        if value not in accepted:
            raise ConfigError(key, f"must be one of {', '.join(accepted)}, got {value!r}")
        return
    lo, hi = (float(bound) for bound in accepted[1:-1].split(","))
    above = value >= lo if accepted[0] == "[" else value > lo
    below = value <= hi if accepted[-1] == "]" else value < hi
    if not (above and below):
        raise ConfigError(key, f"must be in {accepted}, got {value}")


def _get_path(cfg, path: tuple[str, ...]):
    for part in path:
        cfg = getattr(cfg, part)
    return cfg


def _set_path(cfg, path: tuple[str, ...], value):
    head, *rest = path
    if rest:
        value = _set_path(getattr(cfg, head), tuple(rest), value)
    return replace(cfg, **{head: value})


def config_from_mapping(flat: dict) -> RunConfig:
    cfg = RunConfig()
    for key in sorted(flat):
        if key not in _KEY_TABLE:
            raise ConfigError(key, "unknown configuration key")
        path, kind, _ = _KEY_TABLE[key]
        value = _coerce(key, flat[key], kind)
        if key == "strategy":
            value = normalize_strategy(value)
        cfg = _set_path(cfg, path, value)
    return cfg.validate()


def parse_kv_text(text: str) -> dict:
    flat: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}", f"expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}", "empty key")
        if key in flat:
            raise ConfigError(f"line {lineno}", f"duplicate key {key!r}")
        flat[key] = value
    return flat


def _flatten_json(doc, prefix: str = "") -> dict:
    flat: dict = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(_flatten_json(value, prefix=f"{name}."))
        else:
            flat[name] = value
    return flat


def load_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(str(path), f"not UTF-8 text: {exc}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON: {exc}") from None
        return config_from_mapping(_flatten_json(doc))
    return config_from_mapping(parse_kv_text(text))


def config_to_flat(cfg: RunConfig) -> dict:
    """Inverse of config_from_mapping over the known key table."""
    flat = {key: _get_path(cfg, path) for key, (path, _, _) in _KEY_TABLE.items()}
    return {key: value for key, value in flat.items() if value is not None}


def config_hash(cfg: RunConfig) -> str:
    # out_dir is where results land, not part of the experiment identity
    flat = {k: v for k, v in config_to_flat(cfg).items() if k != "out_dir"}
    blob = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def scaling_config(cfg: RunConfig) -> ScalingConfig:
    return ScalingConfig(mu=cfg.pcl.mu, c0=cfg.stream.layout.n_pretrain_keywords)
