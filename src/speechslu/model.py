"""Model assembly: frozen encoder + trainable aligner + LoRA decoder,
with checkpoint save/load and the audio -> embedding path used everywhere."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from . import autograd as ag
from .aligner import ModalityAligner
from .audio import resolve_audio, source_key
from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, load_config, save_config
from .decoder import GenerationResult, InstructionDecoder, KVState, expand_splice
from .encoder import SpeechEncoder
from .errors import ConfigError, ShapeMismatch
from .prompts import DialogueTurn, PromptBank, render_chat
from .tokenizer import Vocabulary

# first requests remembered by the encoder cache's admission rule
SEEN_SOURCES_MAX = 65536


class SluModel:
    def __init__(self, cfg: RunConfig, vocab: Vocabulary):
        self.cfg = cfg
        self.vocab = vocab
        self.prompt_cfg = cfg.prompts
        self.infer_cfg = cfg.infer
        self.bank = PromptBank.load(cfg.prompts.bank_dir)
        seeds = np.random.SeedSequence(cfg.seed).spawn(3)
        self.encoder = SpeechEncoder(cfg.encoder, np.random.default_rng(seeds[0]))
        self.aligner = ModalityAligner(cfg.aligner, np.random.default_rng(seeds[1]))
        dec_rng = np.random.default_rng(seeds[2])
        self.decoder = InstructionDecoder(cfg.decoder, vocab, dec_rng)
        self.decoder.inject_lora(cfg.lora, dec_rng)
        self.config_hash = config_hash(cfg)
        # source_key -> encoder output; first requests, as an insertion-ordered set
        self._enc_cache: dict[object, np.ndarray] = {}
        self._seen: dict[object, None] = {}

    # -- parameters -----------------------------------------------------------

    def named_parameters(self) -> dict[str, ag.Tensor]:
        out = {}
        out.update(self.encoder.named_parameters())
        out.update(self.aligner.named_parameters())
        out.update(self.decoder.named_parameters())
        return out

    def trainable_parameters(self) -> dict[str, ag.Tensor]:
        return {name: p for name, p in self.named_parameters().items() if p.trainable}

    # -- audio path -----------------------------------------------------------

    def encode_mel(self, audio_ref: str, base_dir=None) -> np.ndarray:
        """Frozen encoder output for an audio reference, as a plain array.

        The lookup is keyed on `source_key`, before the audio is resolved,
        so a hit skips mel loading or synthesis as well as the encoder. An
        output is stored only on its source's second request (most sources
        of a one-pass run never come back); `_seen` remembers first
        requests, the oldest dropped past SEEN_SOURCES_MAX.
        """
        key = source_key(audio_ref, base_dir)
        enc = self._enc_cache.get(key)
        if enc is not None:
            return enc
        mel = resolve_audio(audio_ref, base_dir=base_dir,
                            n_mels=self.cfg.encoder.n_mels,
                            clip_seconds=self.cfg.encoder.clip_seconds)
        enc = self.encoder.encode(mel).data
        if key in self._seen:
            del self._seen[key]
            self._enc_cache[key] = enc
        else:
            self._seen[key] = None
            if len(self._seen) > SEEN_SOURCES_MAX:
                del self._seen[next(iter(self._seen))]
        return enc

    def embed_audio(self, audio_ref: str, base_dir=None) -> ag.Tensor:
        """Aligned speech embeddings (graph output; gradients reach the aligner)."""
        return self.aligner.align(ag.Tensor(self.encode_mel(audio_ref, base_dir)))

    def speech_rows(self, audio_ref: str, base_dir=None) -> np.ndarray:
        """`embed_audio`'s values as a plain array, with no graph (inference)."""
        return self.aligner.run(self.encode_mel(audio_ref, base_dir))

    # -- generation -----------------------------------------------------------

    def generate(self, turns: list[DialogueTurn], speech: np.ndarray | None, max_new: int,
                 prior: KVState | None = None) -> tuple[GenerationResult, str]:
        """Greedy response to a dialogue, and its rendered prompt. `prior` is an
        earlier generation's state for the same speech (see `generate_greedy`)."""
        rendered = render_chat(turns, self.vocab, self.prompt_cfg,
                               add_generation_prompt=True)
        seq = expand_splice(rendered.ids, rendered.splice_index,
                            0 if speech is None else len(speech),
                            self.vocab.special_id("speech_placeholder"))
        out = self.decoder.generate_greedy(seq, speech, max_new, prior)
        return out, rendered.text(self.vocab)

    # -- persistence ----------------------------------------------------------

    def save(self, out_dir) -> None:
        """Write every file `load_model` reads: checkpoint, vocab and config."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        params = {name: p.data for name, p in self.named_parameters().items()}
        save_checkpoint(out / "checkpoint.sslc", params, self.config_hash)
        self.vocab.save(out / "vocab.json")
        save_config(self.cfg, out / "config.json")

    def load_weights(self, checkpoint_path) -> str:
        """Load every parameter; returns the checkpoint's config hash."""
        params, ck_hash = load_checkpoint(checkpoint_path)
        own = self.named_parameters()
        missing = sorted(set(own) - set(params))
        extra = sorted(set(params) - set(own))
        if missing or extra:
            raise ValueError(f"checkpoint mismatch: missing={missing}, extra={extra}")
        for name, tensor in own.items():
            if params[name].shape != tensor.data.shape:
                raise ShapeMismatch(
                    "load_weights", f"{name}: {params[name].shape} vs {tensor.data.shape}")
            tensor.data = params[name].astype(np.float32).copy()
        self._enc_cache.clear()
        self._seen.clear()
        return ck_hash


def load_model(run_dir) -> SluModel:
    """Rebuild a model from a run directory (config.json, vocab.json, checkpoint).

    Raises ConfigError when the checkpoint was saved under a config whose
    hash differs from the run's."""
    run_dir = Path(run_dir)
    cfg = load_config(run_dir / "config.json")
    vocab = Vocabulary.load(run_dir / "vocab.json")
    model = SluModel(cfg, vocab)
    ck_hash = model.load_weights(run_dir / "checkpoint.sslc")
    if ck_hash != model.config_hash:
        raise ConfigError(f"{run_dir}: checkpoint config hash {ck_hash} does not match "
                          f"the run config's hash {model.config_hash}")
    return model
