"""Decoder contracts: LoRA identity/freezing, causality, splicing, greedy
generation, and graph-vs-cached-path agreement."""

import numpy as np
import pytest

from speechslu import autograd as ag
from speechslu.config import DecoderConfig, LoraConfig
from speechslu.decoder import (InstructionDecoder, LoraLinear, MultimodalSequence,
                               expand_splice)
from speechslu.errors import NonFiniteInput, ShapeMismatch
from speechslu.initutil import PositionTable, sinusoid_table
from speechslu.optim import AdamWState, adamw_step
from speechslu.tokenizer import build_vocabulary

from conftest import param_hash


def make_decoder(seed=0, lora=None, **kw):
    vocab = build_vocabulary(["turn on the light", "play music", "hello world"])
    cfg = DecoderConfig(d_model=kw.get("d_model", 32), n_layers=kw.get("n_layers", 2),
                        n_heads=kw.get("n_heads", 2), d_ff=kw.get("d_ff", 64))
    rng = np.random.default_rng(seed)
    dec = InstructionDecoder(cfg, vocab, rng)
    if lora is not None:
        dec.inject_lora(lora, rng)
    return dec, vocab


def seq_of(vocab, text, speech_len=0):
    ids = [vocab.special_id("begin_text")] + vocab.tokenize(text)
    if speech_len:
        placeholder = vocab.special_id("speech_placeholder")
        ids = ids + [placeholder]
        return expand_splice(ids, len(ids) - 1, speech_len, placeholder)
    return MultimodalSequence(np.asarray(ids, dtype=np.int64))


def rand_speech(rng, n, d, as_tensor=True):
    data = rng.normal(size=(n, d)).astype(np.float32)
    return ag.Tensor(data) if as_tensor else data


# ---------------------------------------------------------------------------
# LoRA
# ---------------------------------------------------------------------------

def test_lora_identity_at_injection():
    dec, vocab = make_decoder(seed=1)
    seqs = []
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        ids = rng.integers(vocab.word_offset, vocab.size, size=n)
        seqs.append(MultimodalSequence(ids))
    base = [dec.forward(s).data.copy() for s in seqs]
    dec.inject_lora(LoraConfig(rank=4, alpha=8.0), np.random.default_rng(3))
    for s, ref in zip(seqs, base):
        after = dec.forward(s).data
        assert after.tobytes() == ref.tobytes()


def test_double_injection_rejected():
    dec, _ = make_decoder(seed=1, lora=LoraConfig(rank=2, alpha=4.0))
    with pytest.raises(ValueError, match="already injected"):
        dec.inject_lora(LoraConfig(rank=2, alpha=4.0), np.random.default_rng(0))


def test_lora_trainable_parameter_count_formula():
    lora = LoraConfig(rank=8, alpha=16.0)
    dec, _ = make_decoder(seed=4, lora=lora, d_model=32, n_layers=2)
    params = dec.lora_parameters()
    total = sum(p.data.size for p in params.values())
    # 2 layers x 4 projections x rank 8 x (d_in + d_out)
    assert total == 2 * 4 * 8 * (32 + 32)
    # enumeration agrees with the closed form
    by_hand = 0
    for layer in dec.layers:
        for wrapper in layer.lora.values():
            by_hand += wrapper.A.data.size + wrapper.B.data.size
    assert by_hand == total


def test_lora_targets_configurable():
    dec, _ = make_decoder(seed=4, lora=LoraConfig(rank=2, alpha=4.0, targets=("q", "v")))
    assert set(dec.layers[0].lora) == {"q", "v"}


def test_one_step_changes_lora_not_base():
    dec, vocab = make_decoder(seed=5, lora=LoraConfig(rank=2, alpha=4.0))
    base_before = param_hash(dec.base_parameters().values())
    seq = seq_of(vocab, "hello world")
    logits = dec.forward(seq)
    targets = np.roll(seq.ids, -1)
    loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(seq.ids) - 1), targets[:-1])
    ag.backward(loss)
    lora_params = list(dec.lora_parameters().values())
    before = {p.name: p.data.copy() for p in lora_params}
    for p in lora_params:
        if p.grad is None:
            p.grad = np.zeros_like(p.data)
    adamw_step(lora_params, AdamWState(lr=1e-2))
    assert param_hash(dec.base_parameters().values()) == base_before
    assert any((p.data != before[p.name]).any() for p in lora_params)
    assert all(p.grad is None for p in dec.base_parameters().values())


def test_alpha_scaling_doubles_lora_contribution():
    rng = np.random.default_rng(6)
    base = ag.Tensor(rng.normal(size=(8, 8)).astype(np.float32), name="w")
    lo1 = LoraLinear(base, rank=2, alpha=4.0, rng=np.random.default_rng(7), name="l1")
    lo2 = LoraLinear(base, rank=2, alpha=8.0, rng=np.random.default_rng(7), name="l2")
    fill = rng.normal(size=lo1.B.data.shape).astype(np.float32)
    lo1.B.data = fill.copy()
    lo2.B.data = fill.copy()
    x = ag.Tensor(rng.normal(size=(5, 8)).astype(np.float32))
    y_base = (x.data @ base.data)
    y1 = lo1(x).data - y_base
    y2 = lo2(x).data - y_base
    np.testing.assert_allclose(y2, 2.0 * y1, rtol=1e-5, atol=1e-6)


# ---------------------------------------------------------------------------
# forward: causality and splicing
# ---------------------------------------------------------------------------

def test_causality_prefix_invariance():
    dec, vocab = make_decoder(seed=8)
    rng = np.random.default_rng(9)
    for _ in range(5):
        n = int(rng.integers(4, 14))
        ids = rng.integers(vocab.word_offset, vocab.size, size=n)
        cut = int(rng.integers(1, n))
        perturbed = ids.copy()
        perturbed[cut:] = rng.integers(vocab.word_offset, vocab.size, size=n - cut)
        a = dec.forward(MultimodalSequence(ids)).data
        b = dec.forward(MultimodalSequence(perturbed)).data
        assert a[:cut].tobytes() == b[:cut].tobytes()
        if (perturbed[cut:] != ids[cut:]).any():
            assert a[cut:].tobytes() != b[cut:].tobytes()


def test_speech_conditioning_is_live():
    dec, vocab = make_decoder(seed=10)
    rng = np.random.default_rng(11)
    seq = seq_of(vocab, "classify this", speech_len=3)
    speech = rand_speech(rng, 3, 32)
    a = dec.forward(seq, speech).data
    b = dec.forward(seq, ag.Tensor(np.zeros((3, 32), dtype=np.float32))).data
    assert (a[seq.splice_start:] != b[seq.splice_start:]).any()
    assert a[:seq.splice_start].tobytes() == b[:seq.splice_start].tobytes()


def test_logits_shape_covers_spliced_sequence():
    dec, vocab = make_decoder(seed=12)
    seq = seq_of(vocab, "hello", speech_len=4)
    speech = rand_speech(np.random.default_rng(13), 4, 32)
    logits = dec.forward(seq, speech)
    assert logits.data.shape == (len(seq.ids), vocab.size)


def test_splice_length_mismatch_rejected():
    dec, vocab = make_decoder(seed=14)
    seq = seq_of(vocab, "hello", speech_len=4)
    with pytest.raises(ShapeMismatch, match="splice"):
        dec.forward(seq, rand_speech(np.random.default_rng(15), 3, 32))
    with pytest.raises(ShapeMismatch, match="splice"):
        dec.forward(seq, None)


def test_gradients_flow_through_speech_splice():
    dec, vocab = make_decoder(seed=16)
    seq = seq_of(vocab, "hi", speech_len=2)
    speech = ag.Tensor(np.random.default_rng(17).normal(size=(2, 32)).astype(np.float32),
                       trainable=True, name="speech")
    loss = ag.tsum(dec.forward(seq, speech))
    ag.backward(loss)
    assert speech.grad is not None and np.abs(speech.grad).sum() > 0


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------

def test_greedy_is_deterministic():
    dec, vocab = make_decoder(seed=18)
    seq = seq_of(vocab, "turn on", speech_len=2)
    speech = rand_speech(np.random.default_rng(19), 2, 32, as_tensor=False)
    a = dec.generate_greedy(seq, speech, max_new=8)
    b = dec.generate_greedy(seq, speech, max_new=8)
    assert a.ids == b.ids and a.text == b.text


def _rig_constant_output(dec, token_id):
    """Force a constant head: final norm emits a fixed vector, and only the
    chosen token's output column responds to it."""
    dec.ln_f_g.data[:] = 0.0
    dec.ln_f_b.data[:] = 0.0
    dec.ln_f_b.data[0] = 1.0
    dec.w_out.data[:, :] = 0.0
    dec.w_out.data[0, token_id] = 1.0


def test_generation_stops_at_end_turn():
    dec, vocab = make_decoder(seed=20)
    _rig_constant_output(dec, vocab.special_id("end_turn"))
    out = dec.generate_greedy(seq_of(vocab, "hello"), None, max_new=16)
    assert out.ids == [] and out.text == "" and not out.truncated


def test_generation_truncation_flagged():
    dec, vocab = make_decoder(seed=21)
    _rig_constant_output(dec, vocab.word_offset)  # never emits end-of-turn
    out = dec.generate_greedy(seq_of(vocab, "hello"), None, max_new=5)
    assert len(out.ids) == 5 and out.truncated


def test_generation_rejects_prompt_beyond_position_table():
    vocab = build_vocabulary(["hello world"])
    cfg = DecoderConfig(d_model=16, n_layers=1, n_heads=2, d_ff=32, max_positions=8)
    dec = InstructionDecoder(cfg, vocab, np.random.default_rng(0))
    ids = np.full(9, vocab.word_offset, dtype=np.int64)
    with pytest.raises(ShapeMismatch, match="prompt length 9 > max 8"):
        dec.generate_greedy(MultimodalSequence(ids), None, max_new=4)
    # a prompt that fills the table still yields one (truncated) token
    out = dec.generate_greedy(MultimodalSequence(ids[:8]), None, max_new=4)
    assert len(out.ids) == 1 and out.truncated


# each request past the rows built rebuilds the table to exactly its rows
GROWTH = (1, 2, 7, 16, 255, 256, 257, 375, 448, 724, 1112, 1500, 1501, 3000, 4095, 4096)


@pytest.mark.parametrize("dim, scale", [(64, 0.1), (64, 1.0), (24, 0.1), (7, 0.1)])
def test_position_rows_built_on_demand_match_the_full_table_bitwise(dim, scale):
    full = sinusoid_table(4096, dim) * np.float32(scale)
    table = PositionTable(dim, scale)
    for n in GROWTH:
        assert table.rows(n).tobytes() == full[:n].tobytes()
        assert table._table.shape == (n, dim)
        built = table._table
        assert table.rows(n // 2).tobytes() == full[:n // 2].tobytes()
        assert table._table is built  # fewer rows build nothing


def test_an_odd_width_table_interleaves_sin_and_cos():
    pos, i = np.arange(5.0)[:, None], np.arange(4.0)[None, :]
    angle = pos / np.power(10000.0, 2.0 * i / 7)
    table = sinusoid_table(5, 7)
    assert table[:, 0::2].tobytes() == np.sin(angle).astype(np.float32).tobytes()
    assert table[:, 1::2].tobytes() == np.cos(angle[:, :3]).astype(np.float32).tobytes()


def test_generation_builds_its_position_rows_once_per_call(monkeypatch):
    import speechslu.initutil as initutil

    built = []
    monkeypatch.setattr(initutil, "sinusoid_table",
                        lambda n, dim: built.append(n) or sinusoid_table(n, dim))
    dec, vocab = make_decoder(seed=21)
    assert built == []  # nothing at construction
    _rig_constant_output(dec, vocab.word_offset)  # never emits end-of-turn
    seq = seq_of(vocab, "hello")
    out = dec.generate_greedy(seq, None, max_new=9)
    assert len(out.ids) == 9 and built == [len(seq.ids) + 9]
    dec.generate_greedy(seq, None, max_new=4)
    assert built == [len(seq.ids) + 9]


@pytest.mark.parametrize("bad_id", ["-1", "vocab.size"])
def test_both_paths_reject_ids_outside_the_vocabulary(bad_id):
    dec, vocab = make_decoder(seed=25, n_layers=1)
    ids = np.array([vocab.special_id("begin_text"), vocab.word_offset,
                    -1 if bad_id == "-1" else vocab.size], dtype=np.int64)
    with pytest.raises(ShapeMismatch, match="embedding_lookup"):
        dec.generate_greedy(MultimodalSequence(ids), None, max_new=3)
    with pytest.raises(ShapeMismatch, match="embedding_lookup"):
        dec.forward(MultimodalSequence(ids))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
def test_both_paths_reject_non_finite_speech(value):
    dec, vocab = make_decoder(seed=26, n_layers=1)
    seq = seq_of(vocab, "hello", speech_len=2)
    speech = np.zeros((2, 32), dtype=np.float32)
    speech[1, 3] = value
    with pytest.raises(NonFiniteInput, match="decoder"):
        dec.generate_greedy(seq, speech, max_new=3)
    with pytest.raises(NonFiniteInput, match="decoder"):
        dec.forward(seq, ag.Tensor(speech))


def test_greedy_ties_break_to_lowest_id():
    dec, vocab = make_decoder(seed=22)
    dec.w_out.data[:, :] = 0.0  # all logits identical -> argmax picks id 0
    out = dec.generate_greedy(seq_of(vocab, "x"), None, max_new=1)
    assert out.ids == [0]


def _recording_head(dec):
    """Route `dec._head` through a recorder; returns the list of the logits
    the cached path chooses from, one row per step."""
    step_logits = []

    def recording_head(x):
        logits = InstructionDecoder._head(dec, x)
        step_logits.append(logits)
        return logits

    dec._head = recording_head
    return step_logits


def _fill_adapters(dec, rng):
    """Give the adapters real content so the folded path is exercised."""
    for layer in dec.layers:
        for wrapper in layer.lora.values():
            wrapper.B.data = rng.normal(size=wrapper.B.data.shape).astype(np.float32) * 0.1


@pytest.mark.parametrize("targets,n_heads", [
    (("q", "k", "v", "o"), 2), (("q", "v"), 2), (("q", "k", "v", "o"), 4), (("q", "v"), 4),
], ids=["qkvo", "qv", "qkvo-4-heads", "qv-4-heads"])
def test_kv_cached_path_matches_graph_forward(targets, n_heads):
    # ("q", "v") leaves k and o unwrapped: their folded weight is the base one
    dec, vocab = make_decoder(seed=23, lora=LoraConfig(rank=2, alpha=4.0, targets=targets),
                              n_heads=n_heads)
    fill = np.random.default_rng(24)
    _fill_adapters(dec, fill)
    seq = seq_of(vocab, "turn on the", speech_len=3)
    speech = rand_speech(fill, 3, 32, as_tensor=False)
    step_logits = _recording_head(dec)
    out = dec.generate_greedy(seq, speech, max_new=6)
    assert len(step_logits) == len(out.ids) == 6
    # replay: graph forward over prompt + generated ids must yield the same
    # logits (within float32 rounding) and the same greedy choice at every step
    ids = list(seq.ids) + out.ids
    replay = MultimodalSequence(np.asarray(ids, dtype=np.int64),
                                splice_start=seq.splice_start, splice_len=seq.splice_len)
    logits = dec.forward(replay, ag.Tensor(speech)).data
    for i, (tok, cached) in enumerate(zip(out.ids, step_logits)):
        graph = logits[len(seq.ids) - 1 + i]
        np.testing.assert_allclose(cached, graph, rtol=1e-5, atol=1e-5)
        assert int(np.argmax(graph)) == tok


def _round_two(vocab, seq, round_one, tail: str):
    """A second-round prompt: round 1's filled ids, then `tail`'s tokens."""
    ids = np.concatenate([round_one.kv.ids, np.asarray(vocab.tokenize(tail), dtype=np.int64)])
    return MultimodalSequence(ids, splice_start=seq.splice_start, splice_len=seq.splice_len)


def _prefill_starts(dec, monkeypatch):
    """Record the first position each prefill of `dec` starts at."""
    starts = []
    extend = dec._extend

    def recording(x, start, weights, caches):
        starts.append(start)
        return extend(x, start, weights, caches)

    monkeypatch.setattr(dec, "_extend", recording)
    return starts


@pytest.mark.parametrize("tail", ["", " play music hello"], ids=["same-prompt", "longer"])
def test_round_two_reuses_round_one_rows_with_fresh_logits(monkeypatch, tail):
    dec, vocab = make_decoder(seed=27, lora=LoraConfig(rank=2, alpha=4.0), n_heads=4)
    rng = np.random.default_rng(28)
    _fill_adapters(dec, rng)
    seq = seq_of(vocab, "turn on the", speech_len=3)
    speech = rand_speech(rng, 3, 32, as_tensor=False)
    first = dec.generate_greedy(seq, speech, max_new=4)
    seq2 = _round_two(vocab, seq, first, tail)
    starts = _prefill_starts(dec, monkeypatch)
    reused_logits = _recording_head(dec)
    reused = dec.generate_greedy(seq2, speech, max_new=5, prior=first.kv)
    fresh_logits = _recording_head(dec)
    fresh = dec.generate_greedy(seq2, speech, max_new=5)
    # every filled row is shared, short of round 2's last prompt position
    assert starts == [min(len(first.kv.ids), len(seq2.ids) - 1), 0]
    assert reused.ids == fresh.ids and reused.truncated == fresh.truncated
    assert len(reused_logits) == len(fresh_logits) > 1
    for a, b in zip(reused_logits, fresh_logits):
        np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-5)


@pytest.mark.parametrize("change", ["speech", "first-id"])
def test_round_two_prefills_everything_when_nothing_is_shared(monkeypatch, change):
    dec, vocab = make_decoder(seed=29, lora=LoraConfig(rank=2, alpha=4.0))
    rng = np.random.default_rng(30)
    seq = seq_of(vocab, "turn on the", speech_len=3)
    speech = rand_speech(rng, 3, 32, as_tensor=False)
    first = dec.generate_greedy(seq, speech, max_new=4)
    seq2 = _round_two(vocab, seq, first, " play music")
    if change == "speech":
        speech2 = speech.copy()
        speech2[2, 5] += 1.0
    else:
        speech2 = speech
        seq2.ids[0] = vocab.word_offset
    starts = _prefill_starts(dec, monkeypatch)
    reused = dec.generate_greedy(seq2, speech2, max_new=5, prior=first.kv)
    fresh = dec.generate_greedy(seq2, speech2, max_new=5)
    assert starts == [0, 0]
    assert reused.ids == fresh.ids
