"""Frozen speech encoder: conv downsampling (net factor 2) + transformer blocks.

The transformer block defined here is also the decoder's layer.

All parameters are created with trainable=False and stay that way; the
optimizer never sees them and backward never allocates their gradients.
Past the conv stem the encoder runs on plain arrays through the shared
kernels in `autograd`, since nothing ever differentiates it.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .audio import MelSpectrogram
from .config import EncoderConfig
from .errors import ShapeMismatch
from .initutil import normal_param, ones_param, sinusoid_table, zeros_param


class TransformerBlock:
    """Pre-norm block: self-attention then GELU feed-forward.

    One class serves the frozen encoder and the decoder. `__call__` is the
    encoder's entry; at inference the decoder prefills its KV cache with
    `run` and decodes one row at a time with `step`, and in training it
    runs `causal_forward` on the graph. Its base weights are
    frozen; `lora` maps a projection name to the adapter that
    `InstructionDecoder.inject_lora` wraps around it.
    """

    def __init__(self, rng, d: int, n_heads: int, d_ff: int, prefix: str):
        self.n_heads = n_heads
        self.ln1_g = ones_param((d,), False, f"{prefix}.ln1.g")
        self.ln1_b = zeros_param((d,), False, f"{prefix}.ln1.b")
        self.proj = {
            name: normal_param(rng, (d, d), 0.02, False, f"{prefix}.w{name}")
            for name in ("q", "k", "v", "o")
        }
        self.lora: dict = {}
        self.ln2_g = ones_param((d,), False, f"{prefix}.ln2.g")
        self.ln2_b = zeros_param((d,), False, f"{prefix}.ln2.b")
        self.w1 = normal_param(rng, (d, d_ff), 0.02, False, f"{prefix}.ffn.w1")
        self.b1 = zeros_param((d_ff,), False, f"{prefix}.ffn.b1")
        self.w2 = normal_param(rng, (d_ff, d), 0.02, False, f"{prefix}.ffn.w2")
        self.b2 = zeros_param((d,), False, f"{prefix}.ffn.b2")

    def parameters(self):
        return [self.ln1_g, self.ln1_b, *self.proj.values(), self.ln2_g, self.ln2_b,
                self.w1, self.b1, self.w2, self.b2]

    def weights(self) -> dict[str, np.ndarray]:
        """Effective q/k/v/o projection arrays, LoRA updates folded in, and
        q/k/v side by side as one [d, 3d] "qkv" array for `step`."""
        w = {name: self.lora[name].effective_weight() if name in self.lora else p.data
             for name, p in self.proj.items()}
        w["qkv"] = np.concatenate((w["q"], w["k"], w["v"]), axis=1)
        return w

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """[T, d] -> [T, d]; bit-identical to the same block built from graph ops."""
        return self.run(x, self.weights())

    def run(self, x: np.ndarray, w: dict[str, np.ndarray], cache=None, start: int = 0,
            mask: np.ndarray | None = None) -> np.ndarray:
        """Array forward under projection weights `w`. With a `(k_buf, v_buf)`
        cache, x holds positions start..start+len(x): their keys and values
        are written into those buffer rows and x attends to every row so far."""
        h = ag.layer_norm_kernel(x, self.ln1_g.data, self.ln1_b.data)
        k, v = h @ w["k"], h @ w["v"]
        if cache is not None:
            stop = start + x.shape[0]
            k_buf, v_buf = cache
            k_buf[start:stop], v_buf[start:stop] = k, v
            k, v = k_buf[:stop], v_buf[:stop]
        x = x + ag.attention_kernel(h @ w["q"], k, v, self.n_heads, mask)[0] @ w["o"]
        h = ag.layer_norm_kernel(x, self.ln2_g.data, self.ln2_b.data)
        return x + ag.feed_forward_kernel(h, self.w1.data, self.b1.data,
                                          self.w2.data, self.b2.data)

    def step(self, x: np.ndarray, w: dict[str, np.ndarray], cache, pos: int) -> np.ndarray:
        """`run` of the one row x [d] at position `pos`, in fewer array calls:
        its key and value go into cache row `pos`, and it attends to rows
        0..pos with one matrix-vector product per head for the scores and one
        for the values, batched over the heads, whose operands are column
        slices (views) of the row-major buffers. Equal to `run` within
        float32 rounding (decoding only)."""
        d = x.shape[0]
        heads, dh = self.n_heads, d // self.n_heads
        qkv = ag.layer_norm_row(x, self.ln1_g.data, self.ln1_b.data) @ w["qkv"]
        k_buf, v_buf = cache
        k_buf[pos], v_buf[pos] = qkv[d:2 * d], qkv[2 * d:]
        q = qkv[:d]
        q *= 1.0 / math.sqrt(dh)
        rows = pos + 1
        s = k_buf[:rows].reshape(rows, heads, dh).transpose(1, 0, 2) @ q.reshape(heads, dh, 1)
        s -= s.max(axis=1, keepdims=True)  # [heads, rows, 1]
        np.exp(s, out=s)
        a = v_buf[:rows].reshape(rows, heads, dh).transpose(1, 2, 0) @ s
        a /= s.sum(axis=1, keepdims=True)  # [heads, dh, 1]
        x = x + a.reshape(d) @ w["o"]
        h = ag.layer_norm_row(x, self.ln2_g.data, self.ln2_b.data)
        return x + ag.feed_forward_kernel(h, self.w1.data, self.b1.data,
                                          self.w2.data, self.b2.data)

    def project(self, name: str, x: ag.Tensor) -> ag.Tensor:
        if name in self.lora:
            return self.lora[name](x)
        return ag.matmul(x, self.proj[name])

    def causal_forward(self, x: ag.Tensor) -> ag.Tensor:
        """Graph forward under a causal mask (decoder training)."""
        h = ag.layer_norm(x, self.ln1_g, self.ln1_b)
        q = self.project("q", h)
        k = self.project("k", h)
        v = self.project("v", h)
        a = ag.multihead_attention(q, k, v, self.n_heads, causal=True)
        x = ag.add(x, self.project("o", a))
        h = ag.layer_norm(x, self.ln2_g, self.ln2_b)
        f = ag.linear(ag.gelu(ag.linear(h, self.w1, self.b1)), self.w2, self.b2)
        return ag.add(x, f)


class SpeechEncoder:
    """Log-mel frames in, frozen contextual frames out at half the mel rate."""

    def __init__(self, cfg: EncoderConfig, rng: np.random.Generator):
        self.cfg = cfg
        d = cfg.d_enc
        s1, s2 = cfg.conv_strides
        self.stride1, self.stride2 = s1, s2
        self.conv1_w = normal_param(rng, (d, cfg.n_mels, 3), 0.02, False, "encoder.conv1.w")
        self.conv1_b = zeros_param((d,), False, "encoder.conv1.b")
        self.conv2_w = normal_param(rng, (d, d, 3), 0.02, False, "encoder.conv2.w")
        self.conv2_b = zeros_param((d,), False, "encoder.conv2.b")
        self.blocks = [
            TransformerBlock(rng, d, cfg.n_heads, cfg.d_ff, f"encoder.blocks.{i}")
            for i in range(cfg.n_layers)
        ]
        self.ln_f_g = ones_param((d,), False, "encoder.ln_f.g")
        self.ln_f_b = zeros_param((d,), False, "encoder.ln_f.b")
        self._pe_cache: np.ndarray | None = None

    def encode(self, mel: MelSpectrogram) -> ag.Tensor:
        """[n_mels, T_mel] -> [T_mel / 2, d_enc] (frozen, no gradients)."""
        frames = mel.frames
        if frames.shape[0] != self.cfg.n_mels:
            raise ShapeMismatch(
                "encode", f"{frames.shape[0]} mel bins, config expects {self.cfg.n_mels}")
        if frames.shape[1] < 3:
            raise ShapeMismatch("encode", f"need at least 3 mel frames, got {frames.shape[1]}")
        x = ag.Tensor(frames.astype(np.float32))
        h = ag.gelu(ag.conv1d(x, self.conv1_w, self.conv1_b, stride=self.stride1, padding=1))
        h = ag.gelu(ag.conv1d(h, self.conv2_w, self.conv2_b, stride=self.stride2, padding=1))
        t_enc = h.data.shape[1]
        if self._pe_cache is None or self._pe_cache.shape[0] < t_enc:
            self._pe_cache = sinusoid_table(max(t_enc, 1500), self.cfg.d_enc)
        x = h.data.T + self._pe_cache[:t_enc]  # -> [T_enc, d]
        for block in self.blocks:
            x = block(x)
        return ag.Tensor(ag.layer_norm_kernel(x, self.ln_f_g.data, self.ln_f_b.data))

    def named_parameters(self) -> dict[str, ag.Tensor]:
        out = {p.name: p for p in (self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b)}
        for block in self.blocks:
            out.update({p.name: p for p in block.parameters()})
        out[self.ln_f_g.name] = self.ln_f_g
        out[self.ln_f_b.name] = self.ln_f_b
        return out
