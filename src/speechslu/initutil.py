"""Parameter initialisation and positional-encoding helpers."""

from __future__ import annotations

import numpy as np

from .autograd import Tensor


def normal_param(rng: np.random.Generator, shape, std: float = 0.02,
                 trainable: bool = False, name: str | None = None) -> Tensor:
    return Tensor(rng.normal(0.0, std, size=shape).astype(np.float32),
                  trainable=trainable, name=name)


def zeros_param(shape, trainable: bool = False, name: str | None = None) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float32), trainable=trainable, name=name)


def ones_param(shape, trainable: bool = False, name: str | None = None) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float32), trainable=trainable, name=name)


def sinusoid_table(n_positions: int, dim: int) -> np.ndarray:
    """Fixed sin/cos positional table [n_positions, dim], float32."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange(dim // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * idx / dim)
    table = np.zeros((n_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : dim - dim // 2])
    return table.astype(np.float32)


