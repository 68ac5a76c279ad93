"""Toy autoregressive instruction decoder.

Causal transformer over a token sequence whose speech-placeholder span
is replaced by aligned speech embeddings. Base weights are frozen;
LoRA adapters on the attention projections are the only trainable
decoder state. Generation is greedy with a per-call KV cache whose
buffers are allocated once, at the longest length the call can reach.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .config import DecoderConfig, LoraConfig
from .encoder import TransformerBlock
from .errors import NonFiniteInput, ShapeMismatch
from .initutil import normal_param, ones_param, sinusoid_table, zeros_param
from .tokenizer import Vocabulary


@dataclass
class MultimodalSequence:
    """Token ids with one contiguous placeholder span for speech embeddings."""

    ids: np.ndarray                      # int64 [T]
    splice_start: int | None = None
    splice_len: int = 0
    loss_mask: np.ndarray | None = None  # bool [T]; True on supervised tokens

    def __post_init__(self):
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.loss_mask is not None:
            self.loss_mask = np.asarray(self.loss_mask, dtype=bool)
            if self.loss_mask.shape != self.ids.shape:
                raise ShapeMismatch("sequence", "loss mask length != token length")
        if self.splice_start is not None:
            if not (0 <= self.splice_start and
                    self.splice_start + self.splice_len <= len(self.ids)):
                raise ShapeMismatch("sequence", "splice span outside sequence")


def expand_splice(ids: list[int], splice_index: int | None, speech_len: int,
                  placeholder_id: int, loss_mask: np.ndarray | None = None
                  ) -> MultimodalSequence:
    """Expand the single placeholder token into `speech_len` positions; a
    loss mask over the rendered positions is expanded with the ids."""
    ids = np.asarray(ids, dtype=np.int64)
    if splice_index is None:
        return MultimodalSequence(ids, loss_mask=loss_mask)
    if ids[splice_index] != placeholder_id:
        raise ShapeMismatch("sequence", f"no placeholder at index {splice_index}")
    repeats = np.ones(len(ids), dtype=np.int64)
    repeats[splice_index] = speech_len
    return MultimodalSequence(
        np.repeat(ids, repeats), splice_start=splice_index, splice_len=speech_len,
        loss_mask=None if loss_mask is None else np.repeat(loss_mask, repeats))


class LoraLinear:
    """Frozen base projection plus trainable low-rank update (alpha/r * B A)."""

    def __init__(self, base: ag.Tensor, rank: int, alpha: float,
                 rng: np.random.Generator, name: str):
        d_in, d_out = base.data.shape
        self.base = base
        self.scale = alpha / rank
        self.A = normal_param(rng, (rank, d_in), 0.02, True, f"{name}.A")
        self.B = zeros_param((d_out, rank), True, f"{name}.B")

    def __call__(self, x: ag.Tensor) -> ag.Tensor:
        return ag.lora_linear(x, self.base, self.A, self.B, self.scale)

    def effective_weight(self) -> np.ndarray:
        return self.base.data + self.scale * (self.B.data @ self.A.data).T

    def parameters(self):
        return [self.A, self.B]


@dataclass
class GenerationResult:
    ids: list[int]
    text: str
    truncated: bool


class InstructionDecoder:
    def __init__(self, cfg: DecoderConfig, vocab: Vocabulary, rng: np.random.Generator):
        self.cfg = cfg
        self.vocab = vocab
        d = cfg.d_model
        self.tok_emb = normal_param(rng, (vocab.size, d), 0.02, False, "decoder.tok_emb")
        self.layers = [
            TransformerBlock(rng, d, cfg.n_heads, cfg.d_ff, f"decoder.layers.{i}")
            for i in range(cfg.n_layers)
        ]
        self.ln_f_g = ones_param((d,), False, "decoder.ln_f.g")
        self.ln_f_b = zeros_param((d,), False, "decoder.ln_f.b")
        self.w_out = normal_param(rng, (d, vocab.size), cfg.head_std, False,
                                  "decoder.w_out")
        self.pe = sinusoid_table(cfg.max_positions, d) * np.float32(cfg.pe_scale)
        self.lora_cfg: LoraConfig | None = None

    # -- LoRA ---------------------------------------------------------------

    def inject_lora(self, cfg: LoraConfig, rng: np.random.Generator) -> None:
        """Wrap the configured attention projections in every layer."""
        if self.lora_cfg is not None:
            raise ValueError("LoRA adapters already injected")
        for i, layer in enumerate(self.layers):
            for name in cfg.targets:
                layer.lora[name] = LoraLinear(
                    layer.proj[name], cfg.rank, cfg.alpha, rng, f"lora.layers.{i}.{name}")
        self.lora_cfg = cfg

    def lora_parameters(self) -> dict[str, ag.Tensor]:
        out: dict[str, ag.Tensor] = {}
        for layer in self.layers:
            for wrapper in layer.lora.values():
                for p in wrapper.parameters():
                    out[p.name] = p
        return out

    def base_parameters(self) -> dict[str, ag.Tensor]:
        out = {self.tok_emb.name: self.tok_emb}
        for layer in self.layers:
            out.update({p.name: p for p in layer.parameters()})
        for p in (self.ln_f_g, self.ln_f_b, self.w_out):
            out[p.name] = p
        return out

    def named_parameters(self) -> dict[str, ag.Tensor]:
        out = self.base_parameters()
        out.update(self.lora_parameters())
        return out

    # -- embedding, shared by both paths ------------------------------------

    def embed(self, seq: MultimodalSequence, speech: ag.Tensor | None) -> ag.Tensor:
        """Token embeddings with the speech embeddings in the placeholder
        span, plus positions: [T, d]."""
        t = len(seq.ids)
        if t == 0:
            raise ShapeMismatch("decoder", "empty sequence")
        if t > self.cfg.max_positions:
            raise ShapeMismatch("decoder", f"prompt length {t} > max {self.cfg.max_positions}")
        want = None if seq.splice_start is None else seq.splice_len
        got = None if speech is None else speech.data.shape[0]
        if got != want:
            raise ShapeMismatch("decoder", f"splice length {want} != speech embeddings {got}")
        if speech is not None and not np.isfinite(speech.data).all():
            raise NonFiniteInput("decoder")
        if want is None:
            emb = ag.embedding_lookup(self.tok_emb, seq.ids)
        else:
            s0, s1 = seq.splice_start, seq.splice_start + seq.splice_len
            emb = ag.concat([ag.embedding_lookup(self.tok_emb, seq.ids[:s0]), speech,
                             ag.embedding_lookup(self.tok_emb, seq.ids[s1:])], axis=0)
        return ag.add(emb, self.pe[:t])

    # -- training-path forward ----------------------------------------------

    def forward(self, seq: MultimodalSequence, speech: ag.Tensor | None = None) -> ag.Tensor:
        """Logits [T, vocab]; speech embeddings replace the placeholder span."""
        x = self.embed(seq, speech)
        for layer in self.layers:
            x = layer.causal_forward(x)
        x = ag.layer_norm(x, self.ln_f_g, self.ln_f_b)
        return ag.matmul(x, self.w_out)

    # -- inference path (numpy kernels, KV cache local to the call) ----------

    def generate_greedy(self, seq: MultimodalSequence, speech: np.ndarray | None,
                        max_new: int) -> GenerationResult:
        """Greedy decoding from a rendered prompt; ties break to the lowest id.

        Stops at the end-of-turn token (excluded from the result) or after
        `max_new` tokens, in which case the result is flagged truncated.
        """
        if max_new < 1:
            raise ValueError("max_new must be >= 1")
        stop_id = self.vocab.special_id("end_turn")
        if speech is not None:
            speech = ag.Tensor(np.asarray(speech, dtype=np.float32))
        x = self.embed(seq, speech).data
        weights = [layer.weights() for layer in self.layers]
        # one row per prompt position and per generated token, capped at the
        # position table
        rows = min(self.cfg.max_positions, x.shape[0] + max_new)
        caches = [(np.empty((rows, x.shape[1]), dtype=x.dtype),
                   np.empty((rows, x.shape[1]), dtype=x.dtype)) for _ in self.layers]
        h = self._extend(x, 0, weights, caches)
        logits = self._head(h[-1:])
        out_ids: list[int] = []
        truncated = False
        pos = x.shape[0]
        for _ in range(max_new):
            nxt = int(np.argmax(logits[-1]))
            if nxt == stop_id:
                break
            out_ids.append(nxt)
            if len(out_ids) == max_new or pos >= self.cfg.max_positions:
                truncated = True
                break
            step = self.tok_emb.data[nxt] + self.pe[pos]
            logits = self._head(self._extend(step[None, :], pos, weights, caches))
            pos += 1
        return GenerationResult(ids=out_ids, text=self.vocab.detokenize(out_ids),
                                truncated=truncated)

    def _extend(self, x: np.ndarray, start: int, weights, caches) -> np.ndarray:
        """Run positions start..start+len(x) through every layer, writing their
        keys and values into the cache rows of the same positions."""
        # a single new position may attend to every cached one
        mask = (ag.causal_mask(start + x.shape[0], dtype=x.dtype)[start:]
                if x.shape[0] > 1 else None)
        for layer, w, cache in zip(self.layers, weights, caches):
            x = layer.run(x, w, cache, start, mask)
        return x

    def _head(self, x: np.ndarray) -> np.ndarray:
        return ag.layer_norm_kernel(x, self.ln_f_g.data, self.ln_f_b.data) @ self.w_out.data

