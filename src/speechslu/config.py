"""Run configuration: nested dataclasses, JSON round-trip, content hash."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .errors import ConfigError
from .fileio import write_atomic


def _check_positive(section: str, cfg, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) < 1:
            raise ConfigError(f"{section}.{name}: must be >= 1, got {getattr(cfg, name)}")


def _check_heads(section: str, width_key: str, width: int, n_heads: int) -> None:
    """Attention splits the width into equal head slices."""
    if n_heads < 1 or width % n_heads:
        raise ConfigError(f"{section}.n_heads: must be >= 1 and divide "
                          f"{section}.{width_key} ({width}), got {n_heads}")


@dataclass
class EncoderConfig:
    n_mels: int = 80
    d_enc: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    conv_strides: tuple[int, int] = (1, 2)
    clip_seconds: float = 30.0

    def __post_init__(self):
        _check_heads("encoder", "d_enc", self.d_enc, self.n_heads)
        s1, s2 = self.conv_strides
        if s1 * s2 != 2:
            raise ConfigError(f"encoder.conv_strides: product must be 2, got {s1}*{s2}")


@dataclass
class AlignerConfig:
    d_enc: int = 64
    d_dec: int = 64
    kernel: int = 3
    conv_strides: tuple[int, int] = (2, 2)
    bottleneck_dim: int = 32

    def __post_init__(self):
        if any(s != 2 for s in self.conv_strides):
            raise ConfigError("aligner.conv_strides: both strides must be 2")
        if self.bottleneck_dim >= max(self.d_enc, self.d_dec):
            raise ConfigError(
                f"aligner.bottleneck_dim: {self.bottleneck_dim} must be < max(d_enc, d_dec)")


@dataclass
class DecoderConfig:
    d_model: int = 64
    n_layers: int = 2
    n_heads: int = 2
    d_ff: int = 128
    max_positions: int = 4096
    # sinusoid amplitude, kept comparable to the 0.02-std embeddings so
    # position never drowns content at toy dimension counts
    pe_scale: float = 0.1
    # output-head init scale; the final norm pins hidden rows to unit RMS,
    # so this bounds the reachable logit range (must clear ln(vocab) with
    # margin or confident predictions are unrepresentable)
    head_std: float = 1.0

    def __post_init__(self):
        _check_heads("decoder", "d_model", self.d_model, self.n_heads)
        _check_positive("decoder", self, "max_positions")


@dataclass
class LoraConfig:
    rank: int = 8
    alpha: float = 16.0
    targets: tuple[str, ...] = ("q", "k", "v", "o")

    def __post_init__(self):
        bad = [t for t in self.targets if t not in ("q", "k", "v", "o")]
        if bad:
            raise ConfigError(f"lora.targets: unknown projection(s) {bad}")


@dataclass
class PromptConfig:
    """Prompt construction knobs; marker strings follow a common chat layout."""

    begin_text: str = "<|begin_of_text|>"
    header_open: str = "<|start_header_id|>"
    header_close: str = "<|end_header_id|>"
    end_turn: str = "<|eot_id|>"
    speech_placeholder: str = "<|speech|>"
    pad: str = "<|pad|>"
    speech_first: bool = False
    k_min: int = 2  # candidate-label sample size range, upper end = |inventory|
    scot_delimiter: str = "---"
    bank_dir: str | None = None  # None -> packaged prompt banks


@dataclass
class InferConfig:
    max_new_short: int = 64    # ASR / IC / binary answers
    max_new_long: int = 128    # SF / SCoT responses

    def __post_init__(self):
        _check_positive("infer", self, "max_new_short", "max_new_long")


@dataclass
class TrainConfig:
    lr: float = 1e-4
    epochs: int = 1
    batch_size: int = 4
    weight_decay: float = 0.01
    betas: tuple[float, float] = (0.9, 0.999)
    eps: float = 1e-8
    clip_norm: float = 1.0
    lr_schedule: str = "constant"  # constant (default) or linear decay to 10%
    strategy_probs: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)  # alone, scot, mr
    task_weights: dict[str, float] = field(default_factory=dict)  # repetition multipliers

    def __post_init__(self):
        _check_positive("train", self, "batch_size")
        if abs(sum(self.strategy_probs) - 1.0) > 1e-9:
            raise ConfigError("train.strategy_probs: must sum to 1")
        if self.lr_schedule not in ("constant", "linear"):
            raise ConfigError(f"train.lr_schedule: unknown schedule {self.lr_schedule!r}")


@dataclass
class RunConfig:
    seed: int = 0
    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    aligner: AlignerConfig = field(default_factory=AlignerConfig)
    decoder: DecoderConfig = field(default_factory=DecoderConfig)
    lora: LoraConfig = field(default_factory=LoraConfig)
    prompts: PromptConfig = field(default_factory=PromptConfig)
    infer: InferConfig = field(default_factory=InferConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    manifests: list[str] = field(default_factory=list)
    output_dir: str = "runs/out"

    def __post_init__(self):
        if self.aligner.d_enc != self.encoder.d_enc:
            raise ConfigError(
                f"aligner.d_enc ({self.aligner.d_enc}) != encoder.d_enc ({self.encoder.d_enc})")


def _conforms(value, tp) -> bool:
    """Whether a JSON value fits the field type `tp` (a tuple type: a list of
    its length; a float: any number; no bool passes as a number)."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (tuple, list):
        if not isinstance(value, (list, tuple)):
            return False
        if origin is list or args[-1] is Ellipsis:
            args = args[:1] * len(value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if origin is dict:
        return isinstance(value, dict) and all(
            isinstance(k, str) and _conforms(v, args[1]) for k, v in value.items())
    if origin is UnionType:
        return any(_conforms(value, t) for t in args)
    if isinstance(value, bool):
        return tp is bool
    return isinstance(value, (int, float) if tp is float else tp)


# each config class's field types, evaluated from their annotation strings once
_type_hints = functools.cache(get_type_hints)


def _from_mapping(cls, data: dict, prefix: str = ""):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    types = _type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        tp = types[key]
        if dataclasses.is_dataclass(tp):
            if not isinstance(value, dict):
                raise ConfigError(f"{prefix}{key}: section must be an object, got {value!r}")
            value = _from_mapping(tp, value, prefix=f"{prefix}{key}.")
        elif not _conforms(value, tp):
            raise ConfigError(f"{prefix}{key}: expected {fields[key].type}, got {value!r}")
        elif get_origin(tp) is tuple:
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_from_dict(data: dict) -> RunConfig:
    return _from_mapping(RunConfig, data)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ConfigError("top level must be an object")
        return config_from_dict(data)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the full configuration, embedded in every artifact."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_config(cfg: RunConfig, path) -> None:
    write_atomic(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
