"""Toy autoregressive instruction decoder.

Causal transformer over a token sequence whose speech-placeholder span
is replaced by aligned speech embeddings. Base weights are frozen;
LoRA adapters on the attention projections are the only trainable
decoder state.

Generation is greedy and runs on plain arrays. A call allocates its
key/value buffers once, at the longest length it can reach, prefills
the prompt through the blocks' array forward, and then runs each
generated token through one single-row `TransformerBlock.step` per
layer. It returns a `KVState`; a later call of the same request (MR's
round 2) can take it as `prior` and prefill only the positions after
the id prefix the two prompts share. The decoder itself keeps no state
between calls.
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
class KVState:
    """What one generation hands the next of the same request: the ids whose
    keys and values fill the first rows of every layer's (k, v) buffers, the
    speech rows those ids were embedded with, and the layers' weights."""

    ids: np.ndarray                        # int64 [filled rows]
    speech: np.ndarray | None
    splice_start: int | None
    weights: list[dict[str, np.ndarray]]
    caches: list[tuple[np.ndarray, np.ndarray]]

    def shared_rows(self, seq: MultimodalSequence, speech: np.ndarray | None) -> int:
        """How many leading rows `seq` can take from this state: its longest
        common id prefix, short of seq's last position, and none unless the
        speech is the same rows at the same place."""
        if seq.splice_start != self.splice_start or (
                speech is not self.speech and not np.array_equal(speech, self.speech)):
            return 0
        n = min(len(self.ids), len(seq.ids) - 1)
        differ = np.flatnonzero(self.ids[:n] != seq.ids[:n])
        return int(differ[0]) if differ.size else n


@dataclass
class GenerationResult:
    ids: list[int]
    text: str
    truncated: bool
    kv: KVState


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

    def embed_rows(self, seq: MultimodalSequence, speech: np.ndarray | None) -> np.ndarray:
        """Token embeddings with the speech rows in the placeholder span, plus
        positions: [T, d]. Every sequence either path runs is checked here."""
        t = len(seq.ids)
        if t == 0:
            raise ShapeMismatch("decoder", "empty sequence")
        if t > self.cfg.max_positions:
            raise ShapeMismatch("decoder", f"prompt length {t} > max {self.cfg.max_positions}")
        want = None if seq.splice_start is None else seq.splice_len
        got = None if speech is None else speech.shape[0]
        if got != want:
            raise ShapeMismatch("decoder", f"splice length {want} != speech embeddings {got}")
        if speech is not None and not np.isfinite(speech).all():
            raise NonFiniteInput("decoder")
        x = ag.embedding_kernel(self.tok_emb.data, seq.ids)
        if want is not None:
            x[seq.splice_start:seq.splice_start + want] = speech
        x += self.pe[:t]
        return x

    def embed(self, seq: MultimodalSequence, speech: ag.Tensor | None) -> ag.Tensor:
        """`embed_rows` as a graph node whose gradient reaches the speech."""
        x = self.embed_rows(seq, None if speech is None else speech.data)
        return ag.Tensor(x) if speech is None else ag.splice(x, speech, seq.splice_start)

    # -- training-path forward ----------------------------------------------

    def forward(self, seq: MultimodalSequence, speech: ag.Tensor | None = None) -> ag.Tensor:
        """Logits [T, vocab]; speech embeddings replace the placeholder span."""
        x = self.embed(seq, speech)
        for layer in self.layers:
            x = layer.causal_forward(x)
        x = ag.layer_norm(x, self.ln_f_g, self.ln_f_b)
        return ag.matmul(x, self.w_out)

    # -- inference path (plain arrays, KV cache handed from call to call) ----

    def generate_greedy(self, seq: MultimodalSequence, speech: np.ndarray | None,
                        max_new: int, prior: KVState | None = None) -> GenerationResult:
        """Greedy decoding from a rendered prompt; ties break to the lowest id.

        Stops at the end-of-turn token (excluded from the result) or after
        `max_new` tokens, in which case the result is flagged truncated. A
        `prior` state from an earlier call of the same request lends its
        weights and the key/value rows of the prefix `seq` shares with it;
        only the positions after that prefix are prefilled.
        """
        if max_new < 1:
            raise ValueError("max_new must be >= 1")
        stop_id = self.vocab.special_id("end_turn")
        x = self.embed_rows(seq, speech)
        t, d = x.shape
        if prior is None:
            weights, shared = [layer.weights() for layer in self.layers], 0
        else:
            weights, shared = prior.weights, prior.shared_rows(seq, speech)
        # one row per prompt position and per generated token, capped at the
        # position table
        rows = min(self.cfg.max_positions, t + max_new)
        caches = []
        for i in range(len(self.layers)):
            k_buf, v_buf = np.empty((rows, d), x.dtype), np.empty((rows, d), x.dtype)
            if shared:
                k_prev, v_prev = prior.caches[i]
                k_buf[:shared], v_buf[:shared] = k_prev[:shared], v_prev[:shared]
            caches.append((k_buf, v_buf))
        h = self._extend(x[shared:], shared, weights, caches)
        logits = self._head(h[-1])
        out_ids: list[int] = []
        truncated = False
        pos = t
        for _ in range(max_new):
            nxt = int(np.argmax(logits))
            if nxt == stop_id:
                break
            out_ids.append(nxt)
            if len(out_ids) == max_new or pos >= self.cfg.max_positions:
                truncated = True
                break
            h = self.tok_emb.data[nxt] + self.pe[pos]
            for layer, w, cache in zip(self.layers, weights, caches):
                h = layer.step(h, w, cache, pos)
            logits = self._head(h)
            pos += 1
        filled = np.concatenate([seq.ids, np.asarray(out_ids[:pos - t], dtype=np.int64)])
        return GenerationResult(
            ids=out_ids, text=self.vocab.detokenize(out_ids), truncated=truncated,
            kv=KVState(filled, speech, seq.splice_start, weights, caches))

    def _extend(self, x: np.ndarray, start: int, weights, caches) -> np.ndarray:
        """Run positions start..start+len(x) through every layer, writing their
        keys and values into the cache rows of the same positions."""
        mask = ag.causal_mask(start + x.shape[0], dtype=x.dtype, start=start)
        for layer, w, cache in zip(self.layers, weights, caches):
            x = layer.run(x, w, cache, start, mask)
        return x

    def _head(self, x: np.ndarray) -> np.ndarray:
        """Logits [vocab] of one hidden row [d]."""
        return ag.layer_norm_row(x, self.ln_f_g.data, self.ln_f_b.data) @ self.w_out.data
