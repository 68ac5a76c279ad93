"""Substrate tests: primitive contracts and finite-difference gradient checks."""

import math

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


@pytest.mark.parametrize("causal", [False, True])
def test_attention_kernel_matches_graph_attention_bitwise(rng, causal):
    t, d, heads = 29, 24, 3
    q, k, v = (rng.normal(size=(t, d)).astype(np.float32) for _ in range(3))
    ref = ag.multihead_attention(ag.Tensor(q), ag.Tensor(k), ag.Tensor(v), heads,
                                 causal=causal).data
    mask = ag.causal_mask(t) if causal else None
    assert ag.attention_kernel(q, k, v, heads, mask).tobytes() == ref.tobytes()


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
