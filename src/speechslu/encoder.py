"""Frozen speech encoder: conv downsampling (net factor 2) + transformer blocks.

All parameters are created with trainable=False and stay that way; the
optimizer never sees them and backward never allocates their gradients.
Past the conv stem the encoder runs on plain arrays through the shared
kernels in `autograd`, since nothing ever differentiates it.
"""

from __future__ import annotations

import numpy as np

from . import autograd as ag
from .audio import MelSpectrogram
from .config import EncoderConfig
from .errors import ShapeMismatch
from .initutil import normal_param, ones_param, sinusoid_table, zeros_param


class TransformerBlock:
    """Frozen pre-norm block: self-attention then GELU feed-forward."""

    def __init__(self, rng, d: int, n_heads: int, d_ff: int, prefix: str):
        self.n_heads = n_heads
        self.ln1_g = ones_param((d,), False, f"{prefix}.ln1.g")
        self.ln1_b = zeros_param((d,), False, f"{prefix}.ln1.b")
        self.wq = normal_param(rng, (d, d), 0.02, False, f"{prefix}.wq")
        self.wk = normal_param(rng, (d, d), 0.02, False, f"{prefix}.wk")
        self.wv = normal_param(rng, (d, d), 0.02, False, f"{prefix}.wv")
        self.wo = normal_param(rng, (d, d), 0.02, False, f"{prefix}.wo")
        self.ln2_g = ones_param((d,), False, f"{prefix}.ln2.g")
        self.ln2_b = zeros_param((d,), False, f"{prefix}.ln2.b")
        self.w1 = normal_param(rng, (d, d_ff), 0.02, False, f"{prefix}.ffn.w1")
        self.b1 = zeros_param((d_ff,), False, f"{prefix}.ffn.b1")
        self.w2 = normal_param(rng, (d_ff, d), 0.02, False, f"{prefix}.ffn.w2")
        self.b2 = zeros_param((d,), False, f"{prefix}.ffn.b2")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """[T, d] -> [T, d]; bit-identical to the same block built from graph ops."""
        h = ag.layer_norm_kernel(x, self.ln1_g.data, self.ln1_b.data)
        a = ag.attention_kernel(h @ self.wq.data, h @ self.wk.data, h @ self.wv.data,
                                self.n_heads)
        x = x + a @ self.wo.data
        h = ag.layer_norm_kernel(x, self.ln2_g.data, self.ln2_b.data)
        return x + ag.feed_forward_kernel(h, self.w1.data, self.b1.data,
                                          self.w2.data, self.b2.data)

    def parameters(self):
        return [self.ln1_g, self.ln1_b, self.wq, self.wk, self.wv, self.wo,
                self.ln2_g, self.ln2_b, self.w1, self.b1, self.w2, self.b2]


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
