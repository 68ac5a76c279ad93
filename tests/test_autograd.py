"""Substrate tests: primitive contracts and finite-difference gradient checks."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu import autograd as ag
from speechslu.errors import GraphError, NonFiniteInput, ShapeMismatch

EPS = 1e-3
TOL = 1e-4


def numeric_grad(f, param: ag.Tensor, eps: float = EPS) -> np.ndarray:
    """Central finite differences of scalar f() w.r.t. every param element."""
    flat = param.data.reshape(-1)
    out = np.zeros_like(flat)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        up = float(f().data)
        flat[i] = old - eps
        dn = float(f().data)
        flat[i] = old
        out[i] = (up - dn) / (2 * eps)
    return out.reshape(param.data.shape)


def assert_gradcheck(f, params: list[ag.Tensor], tol: float = TOL, atol: float = 5e-6):
    """Central finite differences vs backward, elementwise.

    An element passes on relative error < tol, or on absolute difference
    < atol: near-zero gradients sit below the truncation noise of the
    difference quotient, where a relative measure is meaningless. A wrong
    gradient formula produces O(gradient) absolute errors and still fails.
    """
    for p in params:
        p.grad = None
    loss = f()
    ag.backward(loss)
    for p in params:
        assert p.grad is not None, f"no gradient on {p.name}"
        num = numeric_grad(f, p)
        diff = np.abs(num - p.grad)
        denom = np.maximum(np.maximum(np.abs(num), np.abs(p.grad)), 1e-8)
        ok = (diff <= atol) | (diff / denom < tol)
        worst = (diff / denom)[~ok].max() if not ok.all() else 0.0
        assert ok.all(), f"{p.name}: max rel err {worst:.3e}"


def t64(arr, trainable=True, name=None):
    return ag.Tensor(np.asarray(arr, dtype=np.float64), trainable=trainable, name=name)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# ---------------------------------------------------------------------------
# forward contracts
# ---------------------------------------------------------------------------

def test_conv1d_output_time_law(rng):
    x = ag.Tensor(rng.normal(size=(4, 10)))
    w = ag.Tensor(rng.normal(size=(3, 4, 3)))
    out = ag.conv1d(x, w, None, stride=2, padding=1)
    assert out.shape == (3, 5)  # (10 + 2 - 3)//2 + 1


def test_softmax_uniform_on_constant():
    out = ag.softmax(ag.Tensor(np.zeros(4)))
    np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25])


def test_softmax_rows_sum_to_one(rng):
    x = ag.Tensor(rng.normal(size=(7, 11)) * 10)
    out = ag.softmax(x, axis=-1)
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(7), atol=1e-6)


def test_softmax_masked_positions_get_zero_weight(rng):
    scores = rng.normal(size=(5, 5))
    scores = scores + ag.causal_mask(5, dtype=np.float64)
    out = ag.softmax(ag.Tensor(scores), axis=-1)
    upper = np.triu_indices(5, k=1)
    assert (out.data[upper] == 0.0).all()
    np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(5), atol=1e-12)


def test_linear_identity_case():
    x = ag.Tensor(np.array([[1.0, 2.0]]))
    w = ag.Tensor(np.eye(2))
    b = ag.Tensor(np.zeros(2))
    out = ag.linear(x, w, b)
    np.testing.assert_array_equal(out.data, [[1.0, 2.0]])


def test_shape_mismatch_names_op(rng):
    with pytest.raises(ShapeMismatch, match="conv1d"):
        ag.conv1d(ag.Tensor(rng.normal(size=(4, 10))),
                  ag.Tensor(rng.normal(size=(3, 5, 3))), None)
    with pytest.raises(ShapeMismatch, match="matmul"):
        ag.matmul(ag.Tensor(np.zeros((2, 3))), ag.Tensor(np.zeros((2, 3))))


def test_non_finite_input_rejected():
    bad = ag.Tensor(np.array([1.0, np.nan]))
    with pytest.raises(NonFiniteInput, match="gelu"):
        ag.gelu(bad)
    with pytest.raises(NonFiniteInput, match="softmax"):
        ag.softmax(ag.Tensor(np.array([np.inf, 1.0])))
    with pytest.raises(NonFiniteInput, match="softmax"):
        ag.softmax(bad)
    with pytest.raises(NonFiniteInput, match="add"):
        ag.add(ag.Tensor(np.array([1.0, np.inf])), 1.0)
    # additive -inf masks are the documented masking mechanism
    ag.softmax(ag.Tensor(np.array([-np.inf, 1.0])))
    ag.add(ag.Tensor(np.array([-np.inf, 1.0])), 1.0)


def test_finite_values_whose_sum_overflows_are_accepted():
    # ten float32 values of 1e38 sum past float32's max (about 3.4e38)
    big = np.full((1, 10), 1e38, dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = ag.matmul(ag.Tensor(big), ag.Tensor(np.full((10, 1), 1e-30, dtype=np.float32)))
        ag.mul(ag.Tensor(big), 0.5)
    assert np.isfinite(out.data).all()
    # a non-finite element is still caught
    big[0, 3] = -np.inf
    with pytest.raises(NonFiniteInput, match="matmul"):
        ag.matmul(ag.Tensor(big), ag.Tensor(np.ones((10, 1), dtype=np.float32)))


def test_embedding_lookup_gathers_rows(rng):
    table = ag.Tensor(rng.normal(size=(5, 3)))
    out = ag.embedding_lookup(table, [4, 0, 4])
    np.testing.assert_array_equal(out.data, table.data[[4, 0, 4]])


def test_cross_entropy_ignored_positions_contribute_nothing(rng):
    logits = t64(rng.normal(size=(4, 6)), trainable=True, name="logits")
    targets = np.array([1, 2, 3, 4])
    mask = np.array([True, False, True, False])
    loss = ag.cross_entropy(logits, targets, mask)
    ag.backward(loss)
    assert (logits.grad[1] == 0).all() and (logits.grad[3] == 0).all()
    # kept positions match an unmasked 2-row computation
    ref = ag.cross_entropy(t64(logits.data[[0, 2]]), targets[[0, 2]])
    assert float(loss.data) == pytest.approx(float(ref.data))


# ---------------------------------------------------------------------------
# backward contracts
# ---------------------------------------------------------------------------

def test_backward_linear_gradient_is_outer_product(rng):
    w = t64(rng.normal(size=(3, 2)), name="w")
    x = t64(rng.normal(size=(4, 3)), trainable=False, name="x")
    loss = ag.tsum(ag.matmul(x, w))
    ag.backward(loss)
    np.testing.assert_allclose(w.grad, x.data.T @ np.ones((4, 2)), atol=1e-12)
    assert x.grad is None


def test_backward_requires_scalar(rng):
    w = t64(rng.normal(size=(3, 2)))
    with pytest.raises(GraphError):
        ag.backward(ag.matmul(t64(rng.normal(size=(2, 3)), trainable=False), w))


def test_frozen_only_graph_allocates_no_gradients(rng):
    a = ag.Tensor(rng.normal(size=(3, 3)), trainable=False, name="a")
    b = ag.Tensor(rng.normal(size=(3, 3)), trainable=False, name="b")
    loss = ag.tsum(ag.matmul(a, b))
    assert not loss.requires_grad
    ag.backward(loss)
    assert a.grad is None and b.grad is None


def test_backward_accumulates_across_calls(rng):
    w = t64(rng.normal(size=(2, 2)), name="w")
    x = np.eye(2)
    ag.backward(ag.tsum(ag.matmul(ag.Tensor(x), w)))
    first = w.grad.copy()
    ag.backward(ag.tsum(ag.matmul(ag.Tensor(x), w)))
    np.testing.assert_allclose(w.grad, 2 * first)


def test_backward_diamond_graph_visits_once(rng):
    x = t64(rng.normal(size=(3,)), name="x")
    y = ag.add(ag.mul(x, x), x)         # x used by two consumers
    ag.backward(ag.tsum(y))
    np.testing.assert_allclose(x.grad, 2 * x.data + 1, atol=1e-12)


# ---------------------------------------------------------------------------
# finite-difference gradient checks, one per primitive (float64)
# ---------------------------------------------------------------------------

def test_gradcheck_matmul(rng):
    a = t64(rng.normal(size=(3, 4)), name="a")
    b = t64(rng.normal(size=(4, 2)), name="b")
    assert_gradcheck(lambda: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), [a, b])


def test_gradcheck_add_broadcast(rng):
    x = t64(rng.normal(size=(3, 4)), name="x")
    b = t64(rng.normal(size=(4,)), name="b")
    assert_gradcheck(lambda: ag.tsum(ag.mul(ag.add(x, b), ag.add(x, b))), [x, b])


def test_gradcheck_conv1d(rng):
    x = t64(rng.normal(size=(3, 8)), name="x")
    w = t64(rng.normal(size=(5, 3, 3)), name="w")
    b = t64(rng.normal(size=(5,)), name="b")

    def f():
        out = ag.conv1d(x, w, b, stride=2, padding=1)
        return ag.tsum(ag.mul(out, out))

    assert_gradcheck(f, [x, w, b])


def test_gradcheck_layer_norm(rng):
    x = t64(rng.normal(size=(4, 6)), name="x")
    g = t64(rng.normal(size=(6,)) + 1.0, name="g")
    b = t64(rng.normal(size=(6,)), name="b")

    def f():
        out = ag.layer_norm(x, g, b)
        return ag.tsum(ag.mul(out, out))

    assert_gradcheck(f, [x, g, b])


def test_gradcheck_gelu(rng):
    x = t64(rng.normal(size=(5, 3)), name="x")
    assert_gradcheck(lambda: ag.tsum(ag.mul(ag.gelu(x), ag.gelu(x))), [x])


def test_gradcheck_softmax(rng):
    x = t64(rng.normal(size=(4, 5)), name="x")
    w = np.linspace(0.5, 1.5, 20).reshape(4, 5)

    def f():
        return ag.tsum(ag.mul(ag.softmax(x, axis=-1), w))

    assert_gradcheck(f, [x])


def test_gradcheck_embedding(rng):
    table = t64(rng.normal(size=(6, 4)), name="table")
    ids = np.array([0, 5, 5, 2])
    w = np.linspace(0.1, 1.0, 16).reshape(4, 4)

    def f():
        return ag.tsum(ag.mul(ag.embedding_lookup(table, ids), w))

    assert_gradcheck(f, [table])


def test_gradcheck_multihead_attention(rng):
    q = t64(rng.normal(size=(5, 8)), name="q")
    k = t64(rng.normal(size=(5, 8)), name="k")
    v = t64(rng.normal(size=(5, 8)), name="v")

    def f():
        out = ag.multihead_attention(q, k, v, n_heads=2, causal=True)
        return ag.tsum(ag.mul(out, out))

    assert_gradcheck(f, [q, k, v])


def test_gradcheck_cross_entropy(rng):
    logits = t64(rng.normal(size=(6, 9)), name="logits")
    targets = rng.integers(0, 9, size=6)
    mask = np.array([True, True, False, True, False, True])
    assert_gradcheck(lambda: ag.cross_entropy(logits, targets, mask), [logits])


def test_gradcheck_slice_concat(rng):
    x = t64(rng.normal(size=(6, 3)), name="x")
    y = t64(rng.normal(size=(2, 3)), name="y")

    def f():
        joined = ag.concat([ag.slice_rows(x, 0, 3), y, ag.slice_rows(x, 3, 6)], axis=0)
        return ag.tsum(ag.mul(joined, joined))

    assert_gradcheck(f, [x, y])


# ---------------------------------------------------------------------------
# kernels: the in-place forms must keep the bits of the plain expressions
# ---------------------------------------------------------------------------

def test_layer_norm_kernel_matches_mean_var_form_bitwise():
    rng = np.random.default_rng(31)
    for i in range(300):
        dtype = np.float32 if i % 3 else np.float64
        shape = tuple(int(n) for n in rng.integers(1, 70, size=int(rng.integers(1, 4))))
        scale = 10.0 ** rng.uniform(-3, 3)
        x = ((rng.normal(size=shape) + rng.normal(size=shape[:-1] + (1,))) * scale).astype(dtype)
        g = rng.normal(size=shape[-1:]).astype(dtype)
        b = rng.normal(size=shape[-1:]).astype(dtype)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        ref = (x - mu) * (1.0 / np.sqrt(var + np.asarray(1e-5, dtype=dtype))) * g + b
        assert ag.layer_norm_kernel(x, g, b).tobytes() == ref.tobytes()


def test_gelu_kernel_matches_plain_formula_bitwise(rng):
    x = (rng.normal(size=(37, 53)) * 4).astype(np.float32)
    c = np.float32(math.sqrt(2.0 / math.pi))
    k = np.float32(0.044715)
    ref = 0.5 * x * (1.0 + np.tanh(c * (x + k * x**3)))
    out, _ = ag.gelu_kernel(x)
    assert out.tobytes() == ref.tobytes()
    assert ag.gelu(ag.Tensor(x)).data.tobytes() == ref.tobytes()


def plain_gelu(x):
    """The reference GELU: x**3, *k, +x, *c, tanh, then 0.5x(1+t)."""
    c = np.asarray(math.sqrt(2.0 / math.pi), dtype=x.dtype)
    k = np.asarray(0.044715, dtype=x.dtype)
    with np.errstate(over="ignore", invalid="ignore"):
        t = x**3
        t *= k
        t += x
        t *= c
        t = np.tanh(t)
        return 0.5 * x * (1.0 + t), t


def assert_gelu_kernel_bitwise(x):
    ref_out, ref_t = plain_gelu(x)
    with np.errstate(over="ignore", invalid="ignore"):
        out, t = ag.gelu_kernel(x)
    assert out.dtype == t.dtype == x.dtype
    assert t.tobytes() == ref_t.tobytes()
    assert out.tobytes() == ref_out.tobytes()


def _padded(values, rng, size=2048):
    """`values` scattered through a float32 array of `size` normal samples."""
    x = (rng.normal(size=size) * 2).astype(np.float32)
    x[rng.choice(size, size=len(values), replace=False)] = values
    return x


@pytest.mark.parametrize("scale", [1e-30, 1e-20, 1e-10, 1e-5, 1e-2, 0.3, 1.0, 2.0,
                                   4.0, 10.0, 1e2, 1e4, 1e8, 1e13])
def test_gelu_kernel_bitwise_across_scales(rng, scale):
    n = ag._GUARDED_CUBE_MIN
    near_min = [(m,) for m in (n - 1, n, n + 1) if m > 0]
    for shape in [(3, 7), *near_min, (37, 53), (1500, 128), (64, 3000)]:
        assert_gelu_kernel_bitwise((rng.normal(size=shape) * scale).astype(np.float32))
    # a transposed (non-contiguous) input
    assert_gelu_kernel_bitwise((rng.normal(size=(128, 40)) * scale).astype(np.float32).T)


def test_gelu_kernel_bitwise_on_random_bit_patterns(rng):
    x = rng.integers(0, 2**32, size=2_000_000, dtype=np.uint32).view(np.float32)
    assert_gelu_kernel_bitwise(x[np.isfinite(x)])


def test_gelu_kernel_bitwise_on_zeros_denormals_and_overflowing_cubes(rng):
    tiny = np.finfo(np.float32).smallest_subnormal
    denormals = np.concatenate([
        [tiny, 2 * tiny, 3 * tiny, np.finfo(np.float32).smallest_normal * 0.999],
        rng.integers(1, 2**23, size=200, dtype=np.uint32).view(np.float32)])
    big = [5e12, 8e12, 3e38, np.finfo(np.float32).max, 6.98e12, 6.99e12]
    values = np.concatenate([[0.0, -0.0], denormals, -denormals, big,
                             np.negative(big)]).astype(np.float32)
    assert_gelu_kernel_bitwise(values)
    assert_gelu_kernel_bitwise(_padded(values, rng))
    for v in values:  # each alone, below the size constant
        assert_gelu_kernel_bitwise(np.array([v], dtype=np.float32))


def test_gelu_kernel_bitwise_on_nan_and_inf(rng):
    specials = np.array([np.nan, -np.nan, np.inf, -np.inf], dtype=np.float32)
    payloads = (rng.integers(1, 2**23, size=50, dtype=np.uint32)
                | np.uint32(0x7F800000)).view(np.float32)
    for values in (specials, np.concatenate([specials, payloads, -payloads])):
        assert_gelu_kernel_bitwise(values)
        assert_gelu_kernel_bitwise(_padded(values, rng))
    for v in specials:
        with pytest.raises(NonFiniteInput, match="gelu"):
            ag.gelu(ag.Tensor(_padded([v], rng)))


def test_gelu_kernel_float64_and_small_inputs_skip_the_guard(rng, monkeypatch):
    calls = []
    guarded = ag._guarded_tanh_term

    def counting(x, c, k):
        calls.append(x.size)
        return guarded(x, c, k)

    monkeypatch.setattr(ag, "_guarded_tanh_term", counting)
    n = ag._GUARDED_CUBE_MIN
    below = [(1, 80), (1, 128)] + ([(n - 1,)] if n > 1 else [])
    for shape in below + [(1500, 128)]:
        assert_gelu_kernel_bitwise(rng.normal(size=shape) * 3)  # float64
    assert calls == []
    for shape in below:
        assert_gelu_kernel_bitwise((rng.normal(size=shape) * 3).astype(np.float32))
    assert calls == []
    assert_gelu_kernel_bitwise((rng.normal(size=n) * 3).astype(np.float32))
    assert calls == [n]


def test_float32_cube_is_within_one_ulp_of_the_float64_cube(rng):
    """The guarded cube's premise, on bit patterns of both signs and every
    exponent: numpy's float32 x**3 is float32(float64(x)**3) or one of its
    bit neighbours, and is finite exactly when that is."""
    x = rng.integers(0, 2**32, size=1_000_000, dtype=np.uint32).view(np.float32)
    x = x[np.isfinite(x)]
    assert (x < 0).any() and (x > 0).any()
    assert len(np.unique(x.view(np.uint32) >> 23 & 0xFF)) == 255
    xd = x.astype(np.float64)
    with np.errstate(over="ignore"):
        exact = x**3
        r = (xd * xd * xd).astype(np.float32)
    ulps = np.abs(exact.view(np.int32).astype(np.int64) - r.view(np.int32))
    assert ulps.max() <= 1
    assert (np.isfinite(exact) == np.isfinite(r)).all()


@pytest.mark.parametrize("causal", [False, True])
def test_attention_kernel_matches_graph_attention_bitwise(rng, causal):
    t, d, heads = 29, 24, 3
    q, k, v = (rng.normal(size=(t, d)).astype(np.float32) for _ in range(3))
    ref = composed_attention(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), heads,
                             causal=causal).data
    mask = ag.causal_mask(t) if causal else None
    assert ag.attention_kernel(q, k, v, heads, mask)[0].tobytes() == ref.tobytes()
    assert ag.multihead_attention(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), heads,
                                  causal=causal).data.tobytes() == ref.tobytes()


def all_heads_attention(q, k, v, n_heads, mask=None):
    """`attention_kernel` with every head's scores in one array (the reference
    its head groups must match byte for byte)."""
    tq, d = q.shape
    tk = k.shape[0]
    dh = d // n_heads
    qh = q.reshape(tq, n_heads, dh).transpose(1, 0, 2)
    kh = k.reshape(tk, n_heads, dh).transpose(1, 2, 0)
    vh = v.reshape(tk, n_heads, dh).transpose(1, 0, 2)
    w = qh @ kh
    w *= np.asarray(1.0 / math.sqrt(dh), dtype=q.dtype)
    if mask is not None:
        w += mask
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return (w @ vh).transpose(1, 0, 2).reshape(tq, d), w


# (tq, tk, d, heads): below the budget, exactly at it, then above it in query
# blocks: one block per head (a single head too), several equal blocks, blocks
# of a size that does not divide tq (1537 rows in 6 of 256 or 257), the paper
# encoder's [1500, 64] with 2 heads, dh = 16 with 8 heads, and dh = 1, which
# runs whole heads (1049-row blocks of a single-column value product differ)
ATTENTION_SHAPES = [(29, 29, 24, 3), (1, 700, 64, 2), (512, 1024, 16, 2),
                    (1500, 1500, 64, 2), (1500, 1500, 40, 4), (1025, 1023, 16, 4),
                    (1100, 1000, 16, 1), (600, 800, 16, 4), (700, 500, 40, 5),
                    (1537, 1500, 64, 2), (1500, 1500, 128, 8), (2300, 1000, 1, 1)]


@pytest.mark.parametrize("tq, tk, d, heads", ATTENTION_SHAPES)
@pytest.mark.parametrize("masked", [False, True])
def test_attention_kernel_head_groups_match_all_heads_bitwise(rng, tq, tk, d, heads, masked):
    q = (rng.normal(size=(tq, d)) * 2).astype(np.float32)
    k, v = (rng.normal(size=(tk, d)).astype(np.float32) for _ in range(2))
    mask = None
    if masked:  # causal where square, else random holes that leave key 0 visible
        mask = (ag.causal_mask(tq) if tq == tk else
                np.where(rng.random((tq, tk)) < 0.3, -np.inf, 0.0).astype(np.float32))
        mask[:, 0] = 0.0
    ref, ref_w = all_heads_attention(q, k, v, heads, mask)
    out, w = ag.attention_kernel(q, k, v, heads, mask)
    assert out.tobytes() == ref.tobytes()
    if heads * tq * tk <= ag._SCORE_BUDGET:
        assert w.tobytes() == ref_w.tobytes()
    else:
        assert w is None
    kept, kept_w = ag.attention_kernel(q, k, v, heads, mask, keep_weights=True)
    assert kept.tobytes() == ref.tobytes() and kept_w.tobytes() == ref_w.tobytes()


@pytest.mark.parametrize("heads", [2, 4])
def test_attention_above_the_budget_holds_one_block_of_scores(rng, heads):
    """[1500, 1500] scores exceed the budget, so each head runs in 5 blocks of
    300 query rows through one [300, 1500] buffer: measured 2.45 MiB at peak
    (the 1.7 MiB buffer, the output and its reshape) for 2 and 4 heads, where
    one head at a time held 9.13 MiB."""
    q, k, v = (rng.normal(size=(1500, 64)).astype(np.float32) for _ in range(3))
    ag.attention_kernel(q, k, v, heads)
    tracemalloc.start()
    try:
        ag.attention_kernel(q, k, v, heads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


# ---------------------------------------------------------------------------
# fused nodes: bit-identical to the primitive compositions they replace
# ---------------------------------------------------------------------------

def composed_lora(x, w, a, b, scale):
    """The LoRA projection as seven primitive nodes (reference for lora_linear)."""
    y = ag.matmul(x, w)
    lo = ag.matmul(ag.matmul(x, ag.transpose(a, (1, 0))), ag.transpose(b, (1, 0)))
    return ag.add(y, ag.mul(lo, np.asarray(scale, dtype=x.data.dtype)))


def composed_attention(q, k, v, n_heads, causal=False):
    """Attention as primitive nodes (reference for multihead_attention)."""
    t, d = q.data.shape
    dh = d // n_heads

    def split(x):
        return ag.transpose(ag.reshape(x, (t, n_heads, dh)), (1, 0, 2))

    qh, kh, vh = split(q), split(k), split(v)
    scores = ag.matmul(qh, ag.transpose(kh, (0, 2, 1)))
    scores = ag.mul(scores, np.asarray(1.0 / math.sqrt(dh), dtype=q.data.dtype))
    if causal:
        scores = ag.add(scores, ag.causal_mask(t, dtype=q.data.dtype))
    ctx = ag.matmul(ag.softmax(scores, axis=-1), vh)
    return ag.reshape(ag.transpose(ctx, (1, 0, 2)), (t, d))


def _grads_of(build, leaves):
    """Output bytes and each leaf's gradient bytes after backward of a
    weighted sum of `build()`."""
    for p in leaves:
        p.grad = None
    out = build()
    weights = np.random.default_rng(0).normal(size=out.data.shape).astype(out.data.dtype)
    ag.backward(ag.tsum(ag.mul(out, weights)))
    return out.data.tobytes(), [None if p.grad is None else p.grad.tobytes() for p in leaves]


def test_lora_linear_matches_composition_bitwise():
    rng = np.random.default_rng(41)
    for _ in range(25):
        t, d_in, d_out, r = (int(n) for n in rng.integers(1, 40, size=4))
        x = ag.Tensor(rng.normal(size=(t, d_in)).astype(np.float32), trainable=True)
        w = ag.Tensor(rng.normal(size=(d_in, d_out)).astype(np.float32))
        a = ag.Tensor(rng.normal(size=(r, d_in)).astype(np.float32), trainable=True)
        b = ag.Tensor(rng.normal(size=(d_out, r)).astype(np.float32), trainable=True)
        scale = float(rng.uniform(0.1, 4.0))
        fused = _grads_of(lambda: ag.lora_linear(x, w, a, b, scale), [x, a, b])
        ref = _grads_of(lambda: composed_lora(x, w, a, b, scale), [x, a, b])
        assert fused == ref


@pytest.mark.parametrize("causal", [False, True])
def test_multihead_attention_matches_composition_bitwise(causal):
    rng = np.random.default_rng(43)
    for _ in range(25):
        t, heads, dh = int(rng.integers(1, 30)), int(rng.integers(1, 5)), int(rng.integers(1, 12))
        q, k, v = (ag.Tensor(rng.normal(size=(t, heads * dh)).astype(np.float32),
                             trainable=True) for _ in range(3))
        fused = _grads_of(lambda: ag.multihead_attention(q, k, v, heads, causal), [q, k, v])
        ref = _grads_of(lambda: composed_attention(q, k, v, heads, causal), [q, k, v])
        assert fused == ref


@pytest.mark.parametrize("targets", [("q", "k", "v", "o"), ("q", "v")])
def test_decoder_gradients_match_composition_bitwise(monkeypatch, targets):
    """The order in which the fused nodes hand back gradients keeps every
    accumulation of the composed graph, so a training step is unchanged."""
    from speechslu.config import DecoderConfig, LoraConfig
    from speechslu.decoder import InstructionDecoder, expand_splice
    from speechslu.tokenizer import build_vocabulary

    rng = np.random.default_rng(47)
    vocab = build_vocabulary(["turn on the light", "play some music"])
    dec = InstructionDecoder(DecoderConfig(d_model=24, n_layers=2, n_heads=3, d_ff=40),
                             vocab, rng)
    dec.inject_lora(LoraConfig(rank=3, alpha=6.0, targets=targets), rng)
    lora = list(dec.lora_parameters().values())
    for p in lora:  # B starts at zero, which would hide the adapter's gradients
        p.data = rng.normal(size=p.data.shape, scale=0.3).astype(np.float32)
    placeholder = vocab.special_id("speech_placeholder")
    ids = [vocab.special_id("begin_text"), placeholder] + vocab.tokenize("play some music")
    seq = expand_splice(ids, 1, 7, placeholder)
    speech = ag.Tensor(rng.normal(size=(7, 24)).astype(np.float32), trainable=True)
    leaves = [speech, *lora]

    def step():
        for p in leaves:
            p.grad = None
        logits = dec.forward(seq, speech)
        loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(seq.ids) - 1), seq.ids[1:],
                                reduction="sum")
        ag.backward(loss)
        return loss.data.tobytes(), [p.grad.tobytes() for p in leaves]

    fused = step()
    monkeypatch.setattr(ag, "lora_linear", composed_lora)
    monkeypatch.setattr(ag, "multihead_attention", composed_attention)
    assert step() == fused


def test_gradcheck_lora_linear(rng):
    x = t64(rng.normal(size=(5, 4)), name="x")
    w = t64(rng.normal(size=(4, 3)), name="w")
    a = t64(rng.normal(size=(2, 4)), name="a")
    b = t64(rng.normal(size=(3, 2)), name="b")

    def f():
        out = ag.lora_linear(x, w, a, b, 1.5)
        return ag.tsum(ag.mul(out, out))

    assert_gradcheck(f, [x, w, a, b])


def test_fused_ops_reject_non_finite_input(rng):
    bad = rng.normal(size=(4, 6)).astype(np.float32)
    bad[1, 2] = np.nan
    ok = ag.Tensor(rng.normal(size=(4, 6)).astype(np.float32))
    with pytest.raises(NonFiniteInput, match="lora_linear"):
        ag.lora_linear(ag.Tensor(bad), ag.Tensor(np.eye(6, dtype=np.float32)),
                       ag.Tensor(np.ones((2, 6), dtype=np.float32)),
                       ag.Tensor(np.zeros((6, 2), dtype=np.float32)), 2.0)
    for i in range(3):
        qkv = [ok, ok, ok]
        qkv[i] = ag.Tensor(bad)
        with pytest.raises(NonFiniteInput, match="multihead_attention"):
            ag.multihead_attention(*qkv, n_heads=2, causal=True)


def test_frozen_base_weight_gets_no_gradient(rng):
    x = ag.Tensor(rng.normal(size=(5, 6)).astype(np.float32), trainable=True)
    w = ag.Tensor(rng.normal(size=(6, 4)).astype(np.float32), name="base")
    a = ag.Tensor(rng.normal(size=(2, 6)).astype(np.float32), trainable=True)
    b = ag.Tensor(rng.normal(size=(4, 2)).astype(np.float32), trainable=True)
    ag.backward(ag.tsum(ag.lora_linear(x, w, a, b, 2.0)))
    assert w.grad is None
    assert all(p.grad is not None for p in (x, a, b))


def test_vjps_skip_frozen_inputs(rng):
    """No gradient is computed for an input that does not require one."""
    def f32(*shape, trainable=False):
        return ag.Tensor(rng.normal(size=shape).astype(np.float32), trainable=trainable)

    x, w = f32(5, 6), f32(6, 6, trainable=True)
    cases = [
        (ag.matmul(x, w), [False, True]),
        (ag.add(x, f32(6, trainable=True)), [False, True]),
        (ag.mul(f32(5, 6, trainable=True), x), [True, False]),
        (ag.layer_norm(w, f32(6), f32(6)), [True, False, False]),
        (ag.conv1d(f32(4, 9), f32(3, 4, 3, trainable=True), f32(3), stride=2, padding=1),
         [False, True, False]),
        (ag.lora_linear(x, f32(6, 4), f32(2, 6, trainable=True), f32(4, 2), 2.0),
         [False, False, False, True, False]),
        (ag.multihead_attention(f32(5, 6), f32(5, 6, trainable=True), f32(5, 6), 2,
                                causal=True), [False, True, False]),
    ]
    for node, needed in cases:
        grads = node._vjp(np.ones_like(node.data))
        assert [g is not None for g in grads] == needed, node.op


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_identical_inputs_give_bit_identical_outputs():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    for _ in range(3):
        a1 = rng1.normal(size=(16, 16)).astype(np.float32)
        a2 = rng2.normal(size=(16, 16)).astype(np.float32)
        out1 = ag.softmax(ag.matmul(ag.Tensor(a1), ag.Tensor(a1)), axis=-1)
        out2 = ag.softmax(ag.matmul(ag.Tensor(a2), ag.Tensor(a2)), axis=-1)
        assert out1.data.tobytes() == out2.data.tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=7),
       st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=3))
def test_conv1d_time_law_fuzz(t, k, stride, pad):
    t_out = (t + 2 * pad - k) // stride + 1
    if t_out < 1:
        return
    x = ag.Tensor(np.ones((2, t)))
    w = ag.Tensor(np.ones((1, 2, k)))
    assert ag.conv1d(x, w, None, stride=stride, padding=pad).shape == (1, t_out)
