"""Trainable modality aligner: two stride-2 convs, a residual bottleneck
adapter, and a linear projection into the decoder embedding space.

Net temporal downsampling is a factor of 4 (ceil semantics from the
same-padded convs), which combines with the encoder's factor 2 to give
the system total of 8: mel frames -> mel/8 decoder-space embeddings.
"""

from __future__ import annotations

import math

import numpy as np

from . import autograd as ag
from .config import AlignerConfig
from .errors import NonFiniteInput, ShapeMismatch
from .initutil import normal_param, zeros_param


class ModalityAligner:
    def __init__(self, cfg: AlignerConfig, rng: np.random.Generator):
        self.cfg = cfg
        d, dd, bn, k = cfg.d_enc, cfg.d_dec, cfg.bottleneck_dim, cfg.kernel
        conv_std = math.sqrt(2.0 / (d * k))  # He-style: keeps activations from decaying
        self.conv1_w = normal_param(rng, (d, d, k), conv_std, True, "aligner.conv1.w")
        self.conv1_b = zeros_param((d,), True, "aligner.conv1.b")
        self.conv2_w = normal_param(rng, (d, d, k), conv_std, True, "aligner.conv2.w")
        self.conv2_b = zeros_param((d,), True, "aligner.conv2.b")
        self.down_w = normal_param(rng, (d, bn), math.sqrt(2.0 / d), True,
                                   "aligner.adapter.down.w")
        self.down_b = zeros_param((bn,), True, "aligner.adapter.down.b")
        # zero-init up-projection: the adapter starts as an exact identity
        self.up_w = zeros_param((bn, d), True, "aligner.adapter.up.w")
        self.up_b = zeros_param((d,), True, "aligner.adapter.up.b")
        self.out_w = normal_param(rng, (d, dd), 0.02, True, "aligner.out.w")
        self.out_b = zeros_param((dd,), True, "aligner.out.b")

    def _check(self, enc_out: np.ndarray) -> None:
        if enc_out.ndim != 2 or enc_out.shape[1] != self.cfg.d_enc:
            raise ShapeMismatch("align", f"got {enc_out.shape}, expected [T, {self.cfg.d_enc}]")

    def align(self, enc_out: ag.Tensor) -> ag.Tensor:
        """[T_enc, d_enc] -> [ceil(T_enc / 4), d_dec], as a graph (training)."""
        self._check(enc_out.data)
        pad = (self.cfg.kernel - 1) // 2
        s1, s2 = self.cfg.conv_strides
        h = ag.transpose(enc_out, (1, 0))  # [d, T]
        h = ag.gelu(ag.conv1d(h, self.conv1_w, self.conv1_b, stride=s1, padding=pad))
        h = ag.gelu(ag.conv1d(h, self.conv2_w, self.conv2_b, stride=s2, padding=pad))
        h = ag.transpose(h, (1, 0))  # [T/4, d]
        inner = ag.gelu(ag.linear(h, self.down_w, self.down_b))
        h = ag.add(h, ag.linear(inner, self.up_w, self.up_b))
        return ag.linear(h, self.out_w, self.out_b)

    def run(self, enc_out: np.ndarray) -> np.ndarray:
        """`align` on plain arrays through the kernels its graph ops compute
        with, bit for bit and without a graph (inference)."""
        self._check(enc_out)
        if not np.isfinite(enc_out).all():
            raise NonFiniteInput("align")
        pad = (self.cfg.kernel - 1) // 2
        s1, s2 = self.cfg.conv_strides
        h = enc_out.T
        for w, b, stride in ((self.conv1_w, self.conv1_b, s1), (self.conv2_w, self.conv2_b, s2)):
            h = ag.gelu_kernel(ag.conv1d_kernel(h, w.data, b.data, stride, pad)[0])[0]
        h = h.T
        inner = ag.gelu_kernel(h @ self.down_w.data + self.down_b.data)[0]
        h = h + (inner @ self.up_w.data + self.up_b.data)
        return h @ self.out_w.data + self.out_b.data

    def named_parameters(self) -> dict[str, ag.Tensor]:
        params = (self.conv1_w, self.conv1_b, self.conv2_w, self.conv2_b,
                  self.down_w, self.down_b, self.up_w, self.up_b,
                  self.out_w, self.out_b)
        return {p.name: p for p in params}
