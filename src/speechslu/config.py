"""Run configuration: nested dataclasses, JSON round-trip, content hash."""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError
from .fileio import write_atomic


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


def _from_mapping(cls, data: dict, prefix: str = ""):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in fields:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        ftype = fields[key].type
        if isinstance(value, dict) and not ftype.startswith("dict"):
            sub = _SUBCONFIGS.get(key)
            if sub is None:
                raise ConfigError(f"unknown config section: {prefix}{key}")
            value = _from_mapping(sub, value, prefix=f"{prefix}{key}.")
        elif isinstance(value, list) and ftype.startswith("tuple"):
            value = tuple(tuple(v) if isinstance(v, list) else v for v in value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except TypeError as exc:
        raise ConfigError(f"bad config for {cls.__name__}: {exc}") from exc


_SUBCONFIGS = {
    "encoder": EncoderConfig,
    "aligner": AlignerConfig,
    "decoder": DecoderConfig,
    "lora": LoraConfig,
    "prompts": PromptConfig,
    "infer": InferConfig,
    "train": TrainConfig,
}


def config_from_dict(data: dict) -> RunConfig:
    return _from_mapping(RunConfig, data)


def load_config(path) -> RunConfig:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return config_from_dict(data)


def config_to_dict(cfg: RunConfig) -> dict:
    return dataclasses.asdict(cfg)


def config_hash(cfg: RunConfig) -> str:
    """Stable hash of the full configuration, embedded in every artifact."""
    canon = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def save_config(cfg: RunConfig, path) -> None:
    write_atomic(path, json.dumps(config_to_dict(cfg), indent=2, sort_keys=True) + "\n")
