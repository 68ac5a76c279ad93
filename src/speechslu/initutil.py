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
    """Fixed sin/cos positional table [n_positions, dim], float32; each row
    has the same bits whatever `n_positions` is."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    idx = np.arange((dim + 1) // 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, 2.0 * idx / dim)
    table = np.zeros((n_positions, dim), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : dim // 2])
    return table.astype(np.float32)


class PositionTable:
    """The first rows of `sinusoid_table(n, dim) * scale`, built on demand:
    the table is rebuilt to exactly the rows asked for whenever a call asks
    for more than it holds."""

    def __init__(self, dim: int, scale: float = 1.0):
        self.dim, self.scale = dim, np.float32(scale)
        self._table = np.empty((0, dim), dtype=np.float32)

    def rows(self, n: int) -> np.ndarray:
        """Rows 0..n [n, dim], a view of the table."""
        if n > self._table.shape[0]:
            self._table = sinusoid_table(n, self.dim) * self.scale
        return self._table[:n]
