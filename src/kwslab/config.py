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
from .errors import ConfigError
from .models import ScalingConfig
from .taskstream import StreamLayout, SynthConfig

STRATEGIES = ("finetune", "ewc", "si", "nr", "gem", "pcl", "standalone")

_STRATEGY_ALIASES = {
    "finetune": "finetune",
    "fine-tune": "finetune",
    "ft": "finetune",
    "ewc": "ewc",
    "si": "si",
    "nr": "nr",
    "rehearsal": "nr",
    "gem": "gem",
    "pcl": "pcl",
    "standalone": "standalone",
    "stand-alone": "standalone",
}


@dataclass(frozen=True)
class EwcConfig:
    lam: float = 100.0
    fisher_samples: int = 0  # 0 = use the whole task train split

    def validate(self):
        if self.lam < 0:
            raise ConfigError("ewc.lambda", f"must be >= 0, got {self.lam}")
        if self.fisher_samples < 0:
            raise ConfigError("ewc.fisher_samples", f"must be >= 0, got {self.fisher_samples}")


@dataclass(frozen=True)
class SiConfig:
    lam: float = 1.0
    eps: float = 0.1

    def validate(self):
        if self.lam < 0:
            raise ConfigError("si.lambda", f"must be >= 0, got {self.lam}")
        if not self.eps > 0:
            raise ConfigError("si.eps", f"must be > 0, got {self.eps}")


@dataclass(frozen=True)
class NrConfig:
    xi: float = 0.75

    def validate(self):
        if not 0.0 < self.xi <= 1.0:
            raise ConfigError("nr.xi", f"must be in (0, 1], got {self.xi}")


@dataclass(frozen=True)
class GemConfig:
    buffer: int = 128
    max_iters: int = 10000
    kkt_tol: float = 1e-8

    def validate(self):
        if self.buffer < 1:
            raise ConfigError("gem.buffer", f"must be >= 1, got {self.buffer}")
        if self.max_iters < 1:
            raise ConfigError("gem.max_iters", f"must be >= 1, got {self.max_iters}")
        if not self.kkt_tol > 0:
            raise ConfigError("gem.kkt_tol", f"must be > 0, got {self.kkt_tol}")


@dataclass(frozen=True)
class PclConfig:
    mu: float = 1.0
    fixed: bool = False
    freeze_shared: bool = False
    encoder_lr_scale: float = 1.0

    def validate(self):
        if not self.mu > 0:
            raise ConfigError("pcl.mu", f"must be > 0, got {self.mu}")
        if not 0.0 <= self.encoder_lr_scale <= 1.0:
            raise ConfigError(
                "pcl.encoder_lr_scale", f"must be in [0, 1], got {self.encoder_lr_scale}"
            )


@dataclass(frozen=True)
class StreamConfig:
    source: str = "synth"  # "synth" | "dir"
    corpus_dir: str | None = None
    layout: StreamLayout = StreamLayout()
    synth: SynthConfig = SynthConfig()

    def validate(self):
        if self.source not in ("synth", "dir"):
            raise ConfigError("stream.source", f"must be 'synth' or 'dir', got {self.source!r}")
        if self.source == "dir" and not self.corpus_dir:
            raise ConfigError("stream.corpus_dir", "required when stream.source = dir")
        self.layout.validate()
        if self.source == "synth":
            self.synth.validate()


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
        if self.strategy not in STRATEGIES:
            raise ConfigError(
                "strategy", f"unknown strategy {self.strategy!r}; choose from {', '.join(STRATEGIES)}"
            )
        if self.eval_every < 0:
            raise ConfigError("eval_every", f"must be >= 0, got {self.eval_every}")
        self.stream.validate()
        self.sgd.validate()
        self.ewc.validate()
        self.si.validate()
        self.nr.validate()
        self.gem.validate()
        self.pcl.validate()
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
    try:
        return kind(raw)
    except (TypeError, ValueError):
        raise ConfigError(field_name, f"expected {kind.__name__}, got {raw!r}") from None


def normalize_strategy(name: str) -> str:
    key = str(name).strip().lower().replace("_", "-")
    if key not in _STRATEGY_ALIASES:
        raise ConfigError(
            "strategy", f"unknown strategy {name!r}; choose from {', '.join(STRATEGIES)}"
        )
    return _STRATEGY_ALIASES[key]


# flat key → (path, type); paths address nested frozen dataclasses
_KEY_TABLE = {
    "seed": (("seed",), int),
    "strategy": (("strategy",), str),
    "out_dir": (("out_dir",), str),
    "eval_every": (("eval_every",), int),
    "metrics.include_pretrain": (("include_pretrain",), bool),
    "stream.source": (("stream", "source"), str),
    "stream.corpus_dir": (("stream", "corpus_dir"), str),
    "stream.pretrain_keywords": (("stream", "layout", "n_pretrain_keywords"), int),
    "stream.tasks": (("stream", "layout", "n_tasks"), int),
    "stream.keywords_per_task": (("stream", "layout", "keywords_per_task"), int),
    "stream.train_frac": (("stream", "layout", "train_frac"), float),
    "synth.keywords": (("stream", "synth", "n_keywords"), int),
    "synth.clips": (("stream", "synth", "clips_per_keyword"), int),
    "synth.snr_db": (("stream", "synth", "snr_db"), float),
    "synth.f_lo": (("stream", "synth", "f_lo"), float),
    "synth.f_hi": (("stream", "synth", "f_hi"), float),
    "synth.chirp": (("stream", "synth", "chirp"), float),
    "synth.freq_jitter": (("stream", "synth", "freq_jitter"), float),
    "sgd.lr": (("sgd", "learning_rate"), float),
    "sgd.momentum": (("sgd", "momentum"), float),
    "sgd.weight_decay": (("sgd", "weight_decay"), float),
    "sgd.batch_size": (("sgd", "batch_size"), int),
    "sgd.epochs": (("sgd", "epochs"), int),
    "sgd.pretrain_epochs": (("sgd", "pretrain_epochs"), int),
    "ewc.lambda": (("ewc", "lam"), float),
    "ewc.fisher_samples": (("ewc", "fisher_samples"), int),
    "si.lambda": (("si", "lam"), float),
    "si.eps": (("si", "eps"), float),
    "nr.xi": (("nr", "xi"), float),
    "gem.buffer": (("gem", "buffer"), int),
    "gem.max_iters": (("gem", "max_iters"), int),
    "gem.kkt_tol": (("gem", "kkt_tol"), float),
    "pcl.mu": (("pcl", "mu"), float),
    "pcl.fixed": (("pcl", "fixed"), bool),
    "pcl.freeze_shared": (("pcl", "freeze_shared"), bool),
    "pcl.encoder_lr_scale": (("pcl", "encoder_lr_scale"), float),
}


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
        path, kind = _KEY_TABLE[key]
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
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
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
    flat = {}
    for key, (path, _) in _KEY_TABLE.items():
        obj = cfg
        for part in path:
            obj = getattr(obj, part)
        if obj is None:
            continue
        flat[key] = obj
    return flat


def config_hash(cfg: RunConfig) -> str:
    # out_dir is where results land, not part of the experiment identity
    flat = {k: v for k, v in config_to_flat(cfg).items() if k != "out_dir"}
    blob = json.dumps(flat, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def scaling_config(cfg: RunConfig) -> ScalingConfig:
    return ScalingConfig(mu=cfg.pcl.mu, c0=cfg.stream.layout.n_pretrain_keywords)
