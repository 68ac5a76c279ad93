"""Dense tensors with reverse-mode differentiation.

A `Tensor` wraps a numpy float array plus an optional gradient and a
`trainable` flag. Operations build an acyclic compute graph; `backward`
walks it once in reverse topological order and releases it as it goes,
so each node's saved arrays are freed once its VJP has run and the graph
cannot be walked twice (a second walk raises GraphError). `cross_entropy`
works on the kept rows only. Gradients are only ever
materialised on trainable leaves -- frozen tensors keep `grad = None`
no matter what graph they participate in, and subgraphs that cannot
reach a trainable leaf are skipped entirely.

Every VJP computes gradients only for inputs with `requires_grad` and
returns None for the others, so frozen weights and frozen inputs cost no
gradient work. `lora_linear` and `multihead_attention` are single nodes
with hand-written VJPs; each returns an input's gradient contributions
separately, in the order the equivalent composition of primitives would
accumulate them, so training is bit-identical to that composition.

Float32 is the working precision for models; the same ops run in
float64 when handed float64 arrays (used by the finite-difference
checks in the test suite).

The `*_kernel` functions are the plain-array forms of layer norm, GELU,
attention, the feed-forward block, conv1d and the embedding gather. The
graph ops compute their forwards with them, and the frozen encoder, the
aligner's inference forward and the KV-cached decoder call them
directly, so each formula is written once. `layer_norm_row` is the one
exception: a decode step's single-row layer norm in fewer array calls,
equal to `layer_norm_kernel` within float32 rounding, which no graph op
uses.

`gelu_kernel` keeps the plain formula's bits (`x**3`, not `x*x*x`), but
for float32 arrays of at least `_GUARDED_CUBE_MIN` elements it avoids
numpy's scalar float32 pow for negative bases: it takes the cube in
float64, rounds it to float32, and keeps the resulting tanh term only
where that value and its two bit neighbours all give the same one
(Ziv's rounding test); the rest are recomputed with `x**3`. This is exact
because numpy's float32 `x**3` lies within one ulp of the rounded float64
cube, and is finite exactly when it is, for every finite float32 (an
exhaustive sweep; `speechslu selftest` samples it again). Float64 arrays
and smaller float32 arrays use `x**3` directly.

`attention_kernel` bounds its scores by `_SCORE_BUDGET` unless its caller
keeps the softmax weights, as the graph op's VJP does: above it, each head
runs in blocks of query rows sized to keep every bit (FlashAttention's tiling,
in query rows only). Every shape within the budget (all training, the micro
config, and the decoder calls of a paper-scale request, whose prompts stay
under 724 positions) runs the all-heads code.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import GraphError, NonFiniteInput, ShapeMismatch


class Tensor:
    """N-dimensional float array node in the compute graph."""

    __slots__ = ("data", "grad", "trainable", "requires_grad", "name", "op",
                 "_inputs", "_vjp")

    def __init__(self, data, trainable: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.trainable = trainable
        self.requires_grad = trainable
        self.name = name
        self.op = "leaf"
        self._inputs: tuple[Tensor, ...] = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        tag = "train" if self.trainable else "fixed"
        return f"Tensor(name={self.name!r}, shape={self.data.shape}, {tag}, op={self.op!r})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(np.asarray(x))


def _make_node(op: str, out_data: np.ndarray, inputs: tuple[Tensor, ...], vjp) -> Tensor:
    out = Tensor(out_data)
    out.op = op
    if any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out._inputs = inputs
        out._vjp = vjp
    return out


def _check_finite(op: str, arr: np.ndarray, allow_neginf: bool = False):
    # one elementwise pass (NaN and +inf fail `< inf`, -inf passes); a sum
    # is no shortcut, since finite values can overflow it
    ok = (arr < np.inf).all() if allow_neginf else np.isfinite(arr).all()
    if not ok:
        raise NonFiniteInput(op)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# kernels: numpy in, numpy out, no checks, no graph
# ---------------------------------------------------------------------------
#
# The graph ops' forwards and the inference paths must agree bit for bit
# (training is chaotic enough that one ulp changes where it converges), so
# the in-place forms below keep the exact operation order of the plain
# expressions they replace.

def _standardize(x: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """(x - mean) / sqrt(var + eps) over the last axis, and the 1/sqrt factor."""
    n = x.shape[-1]
    xc = x - x.sum(axis=-1, keepdims=True) / n
    var = np.square(xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xc *= inv
    return xc, inv


def layer_norm_kernel(x: np.ndarray, g: np.ndarray, b: np.ndarray,
                      eps: float = 1e-5) -> np.ndarray:
    out, _ = _standardize(x, eps)
    out *= g
    out += b
    return out


def layer_norm_row(x: np.ndarray, g: np.ndarray, b: np.ndarray,
                   eps: float = 1e-5) -> np.ndarray:
    """`layer_norm_kernel` of one row x [d] in fewer array calls, equal to it
    within float32 rounding (the variance is a dot product; decoding only)."""
    n = x.shape[0]
    xc = x - x.sum() / n
    xc *= g * (1.0 / math.sqrt(float(xc @ xc) / n + eps))
    xc += b
    return xc


_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_K = 0.044715
# Smallest float32 array whose cube goes through `_guarded_tanh_term`:
# below it the guard's fixed cost exceeds what it saves (measured crossover
# between 384 and 512 elements).
_GUARDED_CUBE_MIN = 512


def _tanh_term(x: np.ndarray, y: np.ndarray, c, k) -> np.ndarray:
    """tanh(c * (x + k * y)), written into `y`, with y standing for x**3."""
    y *= k
    y += x
    y *= c
    np.tanh(y, out=y)
    return y


def _guarded_tanh_term(x: np.ndarray, c, k) -> np.ndarray:
    """`_tanh_term(x, x**3)` for float32 `x`, bit for bit, without paying
    numpy's scalar pow for a negative base on every element.

    r = float32(float64(x)**3) is within one ulp of numpy's float32 `x**3`
    and finite exactly when it is (checked on every finite float32), so
    the true cube is r or one of its two bit neighbours. Where all three
    give the same tanh term (and r is finite) that term is the answer;
    the remaining elements are recomputed from `x**3` itself. Both `**`
    and `np.tanh` treat each element on its own, so the subset gets the
    bits the whole array would.
    """
    # overflow and NaN neighbours only mark elements unsure; their warnings
    # come from the exact recomputation below, as they would from x**3
    with np.errstate(over="ignore", invalid="ignore"):
        r = np.square(x, dtype=np.float64)
        r *= x
        t = r.astype(np.float32)
        del r
        unsure = ~np.isfinite(t)
        bits = t.view(np.int32)
        lo = _tanh_term(x, (bits - 1).view(np.float32), c, k)
        hi = _tanh_term(x, (bits + 1).view(np.float32), c, k)
        _tanh_term(x, t, c, k)  # bits now holds t's tanh term, as lo/hi do
        unsure |= bits != lo.view(np.int32)
        unsure |= bits != hi.view(np.int32)
    if unsure.any():
        xu = x[unsure]
        t[unsure] = _tanh_term(xu, xu**3, c, k)
    return t


def gelu_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tanh-approximated GELU of `x`, and the tanh term its gradient reuses."""
    c = np.asarray(_GELU_C, dtype=x.dtype)
    k = np.asarray(_GELU_K, dtype=x.dtype)
    # x**3, not x*x*x: the two differ in the last bit on some elements
    if x.dtype == np.float32 and x.size >= _GUARDED_CUBE_MIN:
        t = _guarded_tanh_term(x, c, k)
    else:
        t = _tanh_term(x, x**3, c, k)
    out = 0.5 * x
    out *= 1.0 + t
    return out, t


def gelu_row(x: np.ndarray) -> np.ndarray:
    """`gelu_kernel`'s output for a decode step's row, in fewer array calls
    and with x*x*x for the cube: equal to it within float32 rounding."""
    t = x * x
    t *= x
    t *= _GELU_K
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    t += 1.0
    t *= x
    t *= 0.5
    return t


def feed_forward_kernel(h: np.ndarray, w1: np.ndarray, b1: np.ndarray,
                        w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """gelu(h @ w1 + b1) @ w2 + b2; a single row h [d] (a decode step)
    takes `gelu_row`."""
    u = h @ w1
    u += b1
    out = (gelu_row(u) if u.ndim == 1 else gelu_kernel(u)[0]) @ w2
    out += b2
    return out


# Above `_SCORE_BUDGET` score elements (4 MiB of float32), `attention_kernel`
# runs each head in blocks of `_BLOCK_ROWS` or more query rows: 256 rows of
# 1500 keys (1.5 MiB) fit a 2 MiB L2. Single-thread OpenBLAS computes a GEMM of
# at most 10^6 multiply-adds, or of one column, with kernels whose rows differ
# from the whole product's, so blocks grow past 2^20 multiply-adds and dh = 1
# runs whole heads; softmax rows are row-local, so the blocks keep every bit.
_SCORE_BUDGET = 1 << 20
_BLOCK_ROWS = 256


def attention_kernel(q: np.ndarray, k: np.ndarray, v: np.ndarray, n_heads: int,
                     mask: np.ndarray | None = None,
                     keep_weights: bool = False) -> tuple[np.ndarray, np.ndarray | None]:
    """Scaled dot-product attention of q [Tq, d] over k, v [Tk, d], and the
    softmax weights [heads, Tq, Tk] its gradient reuses.

    `mask` is additive and broadcasts to [Tq, Tk] (-inf hides a key). When
    the scores of all heads exceed `_SCORE_BUDGET` elements and `keep_weights`
    is not set, each head runs in equal blocks of query rows through one
    reused [rows, Tk] buffer, each block's value product is written straight
    into the output, and the weights returned are None; the blocks give the
    bits of all heads at once.
    """
    tq, d = q.shape
    tk = k.shape[0]
    dh = d // n_heads
    qh = q.reshape(tq, n_heads, dh).transpose(1, 0, 2)
    kh = k.reshape(tk, n_heads, dh).transpose(1, 2, 0)
    vh = v.reshape(tk, n_heads, dh).transpose(1, 0, 2)
    scale = np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    if keep_weights or n_heads * tq * tk <= _SCORE_BUDGET:
        w = _softmax_scores(qh @ kh, scale, mask)
        return (w @ vh).transpose(1, 0, 2).reshape(tq, d), w
    rows = max(_BLOCK_ROWS, (1 << 20) // (dh * tk) + 1)
    n = max(1, tq // rows) if dh > 1 else 1
    edges = [i * tq // n for i in range(n + 1)]
    mask = None if mask is None else np.broadcast_to(mask, (tq, tk))
    out = np.empty((n_heads, tq, dh), dtype=q.dtype)
    buf = np.empty((-(-tq // n), tk), dtype=q.dtype)
    for h, (r0, r1) in itertools.product(range(n_heads), zip(edges, edges[1:])):
        w = np.matmul(qh[h, r0:r1], kh[h], out=buf[:r1 - r0])
        w = _softmax_scores(w, scale, None if mask is None else mask[r0:r1])
        np.matmul(w, vh[h], out=out[h, r0:r1])
    return out.transpose(1, 0, 2).reshape(tq, d), None


def _softmax_scores(w: np.ndarray, scale: np.ndarray,
                    mask: np.ndarray | None) -> np.ndarray:
    """softmax(w * scale + mask) over the last axis, in place."""
    w *= scale
    if mask is not None:
        w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_finite("add", a.data, allow_neginf=True)
    _check_finite("add", b.data, allow_neginf=True)
    out = a.data + b.data

    def vjp(g):
        return (_unbroadcast(g, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g, b.data.shape) if b.requires_grad else None)

    return _make_node("add", out, (a, b), vjp)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_finite("mul", a.data)
    _check_finite("mul", b.data)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None)

    return _make_node("mul", out, (a, b), vjp)


def matmul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch("matmul", f"{a.data.shape} @ {b.data.shape}")
    _check_finite("matmul", a.data)
    _check_finite("matmul", b.data)
    out = a.data @ b.data

    def vjp(g):
        ga = (_unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape)
              if a.requires_grad else None)
        gb = (_unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape)
              if b.requires_grad else None)
        return ga, gb

    return _make_node("matmul", out, (a, b), vjp)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    out = x.data.reshape(shape)
    in_shape = x.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _make_node("reshape", out, (x,), vjp)


def transpose(x: Tensor, axes) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inv = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inv),)

    return _make_node("transpose", out, (x,), vjp)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [_as_tensor(p) for p in parts]
    out = np.concatenate([p.data for p in parts], axis=axis)

    def vjp(g):
        splits = np.cumsum([p.data.shape[axis] for p in parts])[:-1]
        return tuple(np.split(g, splits, axis=axis))

    return _make_node("concat", out, tuple(parts), vjp)


def slice_rows(x: Tensor, start: int, stop: int) -> Tensor:
    x = _as_tensor(x)
    out = x.data[start:stop]
    full = x.data.shape

    def vjp(g):
        gx = np.zeros(full, dtype=g.dtype)
        gx[start:stop] = g
        return (gx,)

    return _make_node("slice", out, (x,), vjp)


def tsum(x: Tensor) -> Tensor:
    """Sum of all elements, as a scalar tensor."""
    x = _as_tensor(x)
    _check_finite("sum", x.data)
    out = np.asarray(x.data.sum(), dtype=x.data.dtype)
    shape = x.data.shape

    def vjp(g):
        return (np.broadcast_to(g, shape).astype(g.dtype, copy=True),)

    return _make_node("sum", out, (x,), vjp)


def gelu(x: Tensor) -> Tensor:
    """Tanh-approximated GELU."""
    x = _as_tensor(x)
    _check_finite("gelu", x.data)
    d = x.data
    out, t = gelu_kernel(d)

    def vjp(g):
        c = np.asarray(_GELU_C, dtype=d.dtype)
        k = np.asarray(_GELU_K, dtype=d.dtype)
        dt = (1.0 - t**2) * c * (1.0 + 3.0 * k * d**2)
        return (g * (0.5 * (1.0 + t) + 0.5 * d * dt),)

    return _make_node("gelu", out, (x,), vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax; tolerates -inf entries (additive masks)."""
    x = _as_tensor(x)
    _check_finite("softmax", x.data, allow_neginf=True)
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        s = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - s),)

    return _make_node("softmax", out, (x,), vjp)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if gamma.data.shape != x.data.shape[-1:] or beta.data.shape != x.data.shape[-1:]:
        raise ShapeMismatch(
            "layer_norm", f"x {x.data.shape}, gamma {gamma.data.shape}, beta {beta.data.shape}")
    _check_finite("layer_norm", x.data)
    d = x.data
    xhat, inv = _standardize(d, eps)
    out = xhat * gamma.data + beta.data

    def vjp(g):
        gx = ggamma = gbeta = None
        if x.requires_grad:
            dxhat = g * gamma.data
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            gx = inv * (dxhat - m1 - xhat * m2)
        if gamma.requires_grad:
            ggamma = (g * xhat).reshape(-1, d.shape[-1]).sum(axis=0)
        if beta.requires_grad:
            gbeta = g.reshape(-1, d.shape[-1]).sum(axis=0)
        return (gx, ggamma, gbeta)

    return _make_node("layer_norm", out, (x, gamma, beta), vjp)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b), with w laid out [d_in, d_out]."""
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.shape[-1] != w.data.shape[0]:
        raise ShapeMismatch("linear", f"x {x.data.shape} vs w {w.data.shape}")
    y = matmul(x, w)
    y.op = "linear"
    if b is not None:
        y = add(y, b)
        y.op = "linear"
    return y


def lora_linear(x: Tensor, w: Tensor, a: Tensor, b: Tensor, scale: float) -> Tensor:
    """x @ w + (x @ a.T) @ b.T * scale, as one node: a projection w [d_in, d_out]
    plus a low-rank update with a [r, d_in] and b [d_out, r]."""
    x, w, a, b = _as_tensor(x), _as_tensor(w), _as_tensor(a), _as_tensor(b)
    d_in, d_out = w.data.shape
    r = a.data.shape[0]
    if x.data.ndim != 2 or x.data.shape[1] != d_in or a.data.shape != (r, d_in) \
            or b.data.shape != (d_out, r):
        raise ShapeMismatch("lora_linear", f"x {x.data.shape}, w {w.data.shape}, "
                                           f"a {a.data.shape}, b {b.data.shape}")
    for arr in (x.data, w.data, a.data, b.data):
        _check_finite("lora_linear", arr)
    s = np.asarray(scale, dtype=x.data.dtype)
    low = x.data @ a.data.T
    out = x.data @ w.data + low @ b.data.T * s

    def vjp(g):
        # x is listed twice: its base and adapter gradients reach the
        # accumulator one after the other, as from two matmul nodes
        gl = g * s  # gradient at (x @ a.T) @ b.T
        glow = gl @ b.data if x.requires_grad or a.requires_grad else None
        return (g @ w.data.T if x.requires_grad else None,
                x.data.T @ g if w.requires_grad else None,
                glow @ a.data if x.requires_grad else None,
                (x.data.T @ glow).T if a.requires_grad else None,
                (low.T @ gl).T if b.requires_grad else None)

    return _make_node("lora_linear", out, (x, w, x, a, b), vjp)


def conv1d_kernel(x: np.ndarray, w: np.ndarray, b: np.ndarray | None, stride: int,
                  padding: int) -> tuple[np.ndarray, np.ndarray]:
    """1-D convolution over time of x [C_in, T] by w [C_out, C_in, K] (plus
    b [C_out]), and the zero-padded input its gradient reuses."""
    k = w.shape[2]
    t_out = (x.shape[1] + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (padding, padding))) if padding else x
    out = np.zeros((w.shape[0], t_out), dtype=x.dtype)
    for kk in range(k):
        out += w[:, :, kk] @ xp[:, kk:kk + stride * (t_out - 1) + 1:stride]
    if b is not None:
        out += b[:, None]
    return out, xp


def conv1d(x: Tensor, w: Tensor, b: Tensor | None, stride: int = 1,
           padding: int = 0) -> Tensor:
    """1-D convolution over time: x [C_in, T], w [C_out, C_in, K] -> [C_out, T_out].

    T_out = floor((T + 2*padding - K) / stride) + 1.
    """
    x, w = _as_tensor(x), _as_tensor(w)
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeMismatch("conv1d", f"x {x.data.shape}, w {w.data.shape}")
    c_in, t_in = x.data.shape
    c_out, c_in_w, k = w.data.shape
    if c_in != c_in_w:
        raise ShapeMismatch("conv1d", f"input channels {c_in} vs weight {c_in_w}")
    t_out = (t_in + 2 * padding - k) // stride + 1
    if t_out < 1:
        raise ShapeMismatch("conv1d", f"T={t_in}, kernel={k}, stride={stride}, pad={padding}")
    _check_finite("conv1d", x.data)
    _check_finite("conv1d", w.data)
    inputs: list[Tensor] = [x, w]
    if b is not None:
        b = _as_tensor(b)
        if b.data.shape != (c_out,):
            raise ShapeMismatch("conv1d", f"bias {b.data.shape} vs C_out {c_out}")
        _check_finite("conv1d", b.data)
        inputs.append(b)
    out, xp = conv1d_kernel(x.data, w.data, None if b is None else b.data, stride, padding)

    def vjp(g):
        taps = [slice(kk, kk + stride * (t_out - 1) + 1, stride) for kk in range(k)]
        gx = gw = None
        if w.requires_grad:
            gw = np.zeros_like(w.data)
            for kk, sl in enumerate(taps):
                gw[:, :, kk] = g @ xp[:, sl].T
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for kk, sl in enumerate(taps):
                gxp[:, sl] += w.data[:, :, kk].T @ g
            gx = gxp[:, padding:padding + t_in] if padding else gxp
        grads = [gx, gw]
        if b is not None:
            grads.append(g.sum(axis=1) if b.requires_grad else None)
        return tuple(grads)

    return _make_node("conv1d", out, tuple(inputs), vjp)


def embedding_kernel(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Rows of `table` gathered by integer ids; an id outside the table raises."""
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise ShapeMismatch("embedding_lookup", f"ids outside [0, {table.shape[0]})")
    return table.take(ids, axis=0)


def embedding_lookup(table: Tensor, ids) -> Tensor:
    """Gather rows of `table` by integer ids."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    out = embedding_kernel(table.data, ids)
    vocab_shape = table.data.shape

    def vjp(g):
        gt = np.zeros(vocab_shape, dtype=g.dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _make_node("embedding_lookup", out, (table,), vjp)


def splice(x: np.ndarray, rows: Tensor, start: int) -> Tensor:
    """`x` as a node whose rows start..start+len(rows) hold `rows` plus a
    constant (a sequence embedding's speech rows plus their positions): the
    gradient of those rows passes to `rows`, the rest of `x` is a constant."""
    stop = start + rows.data.shape[0]

    def vjp(g):
        return (g[start:stop],)

    return _make_node("splice", x, (rows,), vjp)


def causal_mask(t: int, dtype=np.float32, start: int = 0) -> np.ndarray:
    """Additive mask of queries start..t over keys 0..t: 0 where the key
    position is at most the query's, -inf after it."""
    return np.triu(np.full((t - start, t), -np.inf, dtype=dtype), k=start + 1)


def multihead_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                        causal: bool = False) -> Tensor:
    """Scaled dot-product attention over already-projected q/k/v of shape [T, d],
    as one node whose forward is `attention_kernel`."""
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    if q.data.ndim != 2 or k.data.shape != q.data.shape or v.data.shape != q.data.shape:
        raise ShapeMismatch(
            "multihead_attention", f"q {q.data.shape}, k {k.data.shape}, v {v.data.shape}")
    t, d = q.data.shape
    if d % n_heads != 0:
        raise ShapeMismatch("multihead_attention", f"dim {d} not divisible by {n_heads} heads")
    for x in (q, k, v):
        _check_finite("multihead_attention", x.data)
    dh = d // n_heads
    mask = causal_mask(t, dtype=q.data.dtype) if causal else None
    out, w = attention_kernel(q.data, k.data, v.data, n_heads, mask, keep_weights=True)

    def heads(x):  # [T, d] -> [heads, T, dh] view
        return x.reshape(t, n_heads, dh).transpose(1, 0, 2)

    def merge(gh):  # [heads, T, dh] -> [T, d]
        return gh.transpose(1, 0, 2).reshape(t, d)

    def vjp(g):
        # the same expressions on the same operand layouts as the composition
        # reshape -> transpose -> matmul -> scale -> mask -> softmax -> matmul
        gctx = np.ascontiguousarray(heads(g))
        gq = gk = gv = None
        if v.requires_grad:
            gv = merge(np.swapaxes(w, -1, -2) @ gctx)
        if q.requires_grad or k.requires_grad:
            gw = gctx @ np.swapaxes(heads(v.data), -1, -2)
            gs = w * (gw - (gw * w).sum(axis=-1, keepdims=True))
            gs *= np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype)
            if q.requires_grad:
                gq = merge(gs @ heads(k.data))
            if k.requires_grad:
                gk = merge(np.swapaxes(np.swapaxes(heads(q.data), -1, -2) @ gs, -1, -2))
        return gq, gk, gv

    return _make_node("multihead_attention", out, (q, k, v), vjp)


def cross_entropy(logits: Tensor, targets, ignore_mask=None,
                  reduction: str = "mean") -> Tensor:
    """Token-level cross entropy with an optional keep-mask.

    `ignore_mask` is a boolean array over positions; False positions
    contribute zero loss and zero gradient. `reduction` is "mean"
    (over kept positions) or "sum".
    """
    logits = _as_tensor(logits)
    targets = np.asarray(targets, dtype=np.int64)
    if logits.data.ndim != 2 or targets.shape != (logits.data.shape[0],):
        raise ShapeMismatch(
            "cross_entropy", f"logits {logits.data.shape} vs targets {targets.shape}")
    _check_finite("cross_entropy", logits.data)
    t, vocab = logits.data.shape
    if targets.size and (targets.min() < 0 or targets.max() >= vocab):
        raise ShapeMismatch("cross_entropy", f"target ids outside [0, {vocab})")
    keep = np.ones(t, dtype=bool) if ignore_mask is None else np.asarray(ignore_mask, dtype=bool)
    if keep.shape != (t,):
        raise ShapeMismatch("cross_entropy", f"mask {keep.shape} vs positions {t}")

    # only kept rows have a loss or a gradient; the rest stay exact zeros
    rows = np.flatnonzero(keep)
    x = logits.data[rows]
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    nll = np.zeros(t, dtype=logits.data.dtype)
    nll[rows] = np.log(e.sum(axis=-1)) + m[:, 0] - logits.data[rows, targets[rows]]
    denom = max(1, rows.size) if reduction == "mean" else 1
    out = np.asarray(nll.sum() / denom, dtype=logits.data.dtype)

    def vjp(g):
        p = np.zeros((t, vocab), dtype=e.dtype)
        p[rows] = e / e.sum(axis=-1, keepdims=True)
        p[np.arange(t), targets] -= 1.0
        p *= (keep / denom)[:, None]
        return (p * g,)

    node = _make_node("cross_entropy", out, (logits,), vjp)
    return node


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def backward(loss: Tensor) -> None:
    """Populate gradients of every trainable tensor reachable from `loss`.

    Accumulates into existing `.grad` arrays, so calling backward on
    several losses sums their gradients. A graph with no trainable
    leaves is a no-op (no gradient allocations at all). The graph is
    released as it is walked: each node drops its VJP and inputs once its
    VJP has run, so saved activations are freed as their gradients
    appear, and a second backward through any of its nodes raises
    GraphError.
    """
    if loss.data.ndim != 0 and loss.data.size != 1:
        raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is None and not node.trainable:
            raise GraphError(f"backward through a released {node.op!r} node: "
                             "an earlier backward consumed this graph")
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._inputs:
            if parent.requires_grad and id(parent) not in seen:
                stack.append((parent, False))

    grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    while order:
        node = order.pop()
        vjp, inputs = node._vjp, node._inputs
        node._vjp, node._inputs = None, ()
        g = grads.pop(id(node), None)
        if g is None:
            continue
        if vjp is not None:
            for parent, pg in zip(inputs, vjp(g)):
                if not parent.requires_grad or pg is None:
                    continue
                pg = pg.astype(parent.data.dtype, copy=False)
                if id(parent) in grads:
                    grads[id(parent)] += pg
                else:
                    # copy if pg aliases g or is a view, so later += stays local
                    owns = pg is not g and pg.base is None
                    grads[id(parent)] = pg if owns else pg.copy()
        if node.trainable:
            if node.grad is None:
                node.grad = np.zeros_like(node.data)
            node.grad += g
