"""Modality-aligner contracts: length law, trainability, gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu import autograd as ag
from speechslu.aligner import ModalityAligner
from speechslu.audio import MelSpectrogram
from speechslu.config import AlignerConfig, EncoderConfig
from speechslu.encoder import SpeechEncoder
from speechslu.errors import NonFiniteInput, ShapeMismatch
from speechslu.optim import AdamWState, adamw_step

from test_autograd import assert_gradcheck


def make_aligner(d_enc=8, d_dec=6, bottleneck=4, seed=0, dtype=np.float32):
    cfg = AlignerConfig(d_enc=d_enc, d_dec=d_dec, bottleneck_dim=bottleneck)
    aligner = ModalityAligner(cfg, np.random.default_rng(seed))
    if dtype is np.float64:
        for p in aligner.named_parameters().values():
            p.data = p.data.astype(np.float64)
    return aligner


def test_factor_four_on_default_shapes():
    aligner = ModalityAligner(AlignerConfig(), np.random.default_rng(0))
    out = aligner.align(ag.Tensor(np.zeros((1500, 64), dtype=np.float32)))
    assert out.data.shape == (375, 64)


def test_tiny_input_factor_four():
    aligner = make_aligner()
    out = aligner.align(ag.Tensor(np.zeros((8, 8), dtype=np.float32)))
    assert out.data.shape == (2, 6)


def test_dim_mismatch_rejected():
    aligner = make_aligner()
    with pytest.raises(ShapeMismatch, match="align"):
        aligner.align(ag.Tensor(np.zeros((8, 5), dtype=np.float32)))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=600))
def test_ceil_length_law(t):
    aligner = make_aligner()
    out = aligner.align(ag.Tensor(np.zeros((t, 8), dtype=np.float32)))
    after_conv1 = -(-t // 2)  # each stride-2 conv takes the ceiling
    assert out.data.shape[0] == -(-after_conv1 // 2) == -(-t // 4)


def test_adapter_starts_as_identity():
    # zero-init up-projection: convs+linear output must not depend on the
    # bottleneck branch at initialization
    aligner = make_aligner(seed=3)
    x = ag.Tensor(np.random.default_rng(5).normal(size=(12, 8)).astype(np.float32))
    with_adapter = aligner.align(x).data.copy()
    aligner.down_w.data = np.random.default_rng(6).normal(
        size=aligner.down_w.data.shape).astype(np.float32)
    np.testing.assert_array_equal(with_adapter, aligner.align(x).data)


def test_all_parameters_trainable_and_namespaced():
    aligner = make_aligner()
    params = aligner.named_parameters()
    assert all(p.trainable for p in params.values())
    assert all(name.startswith("aligner.") for name in params)


def test_one_step_changes_every_block():
    aligner = make_aligner(seed=7)
    x = ag.Tensor(np.random.default_rng(8).normal(size=(16, 8)).astype(np.float32))
    out = aligner.align(x)
    loss = ag.tsum(ag.mul(out, out))
    ag.backward(loss)
    params = aligner.named_parameters()
    before = {name: p.data.copy() for name, p in params.items()}
    for p in params.values():
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    adamw_step(list(params.values()), AdamWState(lr=1e-2))
    for block in ("conv1", "conv2", "adapter.down", "adapter.up", "out"):
        changed = any((params[n].data != before[n]).any()
                      for n in params if f"aligner.{block}" in n)
        assert changed, f"no parameter changed in {block}"


def test_gradcheck_composed_aligner():
    aligner = make_aligner(d_enc=6, d_dec=5, bottleneck=3, seed=9, dtype=np.float64)
    # healthy weight magnitudes keep finite differences well-conditioned
    refill = np.random.default_rng(10)
    for p in aligner.named_parameters().values():
        p.data = refill.normal(size=p.data.shape, scale=0.25)
    x = ag.Tensor(np.random.default_rng(11).normal(size=(9, 6)))
    params = list(aligner.named_parameters().values())

    def f():
        out = aligner.align(x)
        return ag.tsum(ag.mul(out, out))

    assert_gradcheck(f, params)


def test_system_downsampling_factor_is_eight():
    enc = SpeechEncoder(EncoderConfig(), np.random.default_rng(12))
    ali = ModalityAligner(AlignerConfig(), np.random.default_rng(13))
    for t_mel in (3000, 800, 96):
        mel = MelSpectrogram(frames=np.zeros((80, t_mel), dtype=np.float32))
        out = ali.align(enc.encode(mel))
        assert out.data.shape[0] == t_mel // 8


@pytest.mark.parametrize("shape,cfg", [
    ((24, 16), AlignerConfig(d_enc=16, d_dec=40, bottleneck_dim=12)),  # micro recipe
    ((1500, 64), AlignerConfig()),                                     # paper scale
], ids=["micro", "paper"])
def test_array_forward_equals_graph_align_bitwise(shape, cfg):
    aligner = ModalityAligner(cfg, np.random.default_rng(14))
    refill = np.random.default_rng(15)
    for p in aligner.named_parameters().values():  # a trained adapter is not zero
        p.data = refill.normal(size=p.data.shape, scale=0.3).astype(np.float32)
    enc = refill.normal(size=shape).astype(np.float32)
    graph = aligner.align(ag.Tensor(enc)).data
    array = aligner.run(enc)
    assert array.dtype == graph.dtype and array.tobytes() == graph.tobytes()


def test_array_forward_rejects_non_finite_and_misshaped_input():
    aligner = make_aligner()
    enc = np.zeros((8, 8), dtype=np.float32)
    enc[3, 2] = np.nan
    with pytest.raises(NonFiniteInput, match="align"):
        aligner.run(enc)
    with pytest.raises(ShapeMismatch, match="align"):
        aligner.run(np.zeros((8, 5), dtype=np.float32))
