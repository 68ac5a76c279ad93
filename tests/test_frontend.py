"""Log-mel frontend and frozen-encoder contracts."""

import numpy as np
import pytest

from speechslu import autograd as ag
from speechslu.audio import (LOG_FLOOR, MelSpectrogram, load_mel, log_mel,
                             mel_filter_centers, mel_filterbank, resolve_audio,
                             save_mel, synthesize_mel)
from speechslu.config import EncoderConfig
from speechslu.encoder import SpeechEncoder
from speechslu.errors import NonFiniteInput, ShapeMismatch
from speechslu.initutil import param_hash, sinusoid_table

SR = 16000


def test_silence_gives_log_floor_everywhere():
    mel = log_mel(np.zeros(SR * 30), SR)
    assert mel.frames.shape == (80, 3000)
    np.testing.assert_allclose(mel.frames, np.log(LOG_FLOOR), atol=1e-5)


def test_short_clip_padded_to_full_frame_count():
    mel = log_mel(np.random.default_rng(0).normal(size=SR * 15), SR)
    assert mel.frames.shape == (80, 3000)
    assert np.isfinite(mel.frames).all()


def test_long_clip_truncated():
    mel = log_mel(np.zeros(SR * 45), SR)
    assert mel.frames.shape == (80, 3000)


def test_empty_waveform_rejected():
    with pytest.raises(ValueError, match="empty"):
        log_mel(np.array([]), SR)


def test_pure_tone_energy_lands_in_covering_mel_bins():
    # independent oracle: filters whose triangle actually covers 440 Hz,
    # recomputed from the closed-form filterbank definition
    t = np.arange(SR * 30) / SR
    tone = np.sin(2 * np.pi * 440.0 * t)
    mel = log_mel(tone, SR)
    energy = mel.frames.mean(axis=1)
    win = int(0.025 * SR)
    fb = mel_filterbank(80, win, SR)
    bin_440 = int(round(440.0 * win / SR))
    covering = np.flatnonzero(fb[:, bin_440] > 0)
    assert covering.size > 0
    assert int(np.argmax(energy)) in covering


def test_mel_filter_centers_monotone():
    centers = mel_filter_centers(80, SR)
    assert centers.shape == (80,)
    assert (np.diff(centers) > 0).all()


def test_mel_file_round_trip(tmp_path):
    mel = synthesize_mel("turn on the light")
    path = tmp_path / "clip.mel"
    save_mel(path, mel)
    loaded = load_mel(path)
    np.testing.assert_array_equal(loaded.frames, mel.frames)


def test_synthetic_mel_deterministic_and_keyed_to_words():
    a = synthesize_mel("red light")
    b = synthesize_mel("red light")
    c = synthesize_mel("blue light")
    assert a.frames.tobytes() == b.frames.tobytes()
    assert a.frames.shape[1] == 2 * 16
    assert a.frames.tobytes() != c.frames.tobytes()
    # shared word -> shared span pattern
    np.testing.assert_array_equal(a.frames[:, 16:], c.frames[:, 16:])


def test_resolve_audio_synthetic_and_mel(tmp_path):
    direct = resolve_audio("synthetic:hello world")
    assert direct.frames.shape == (80, 32)
    path = tmp_path / "x.mel"
    save_mel(path, direct)
    via_file = resolve_audio(str(path))
    np.testing.assert_array_equal(via_file.frames, direct.frames)


def test_resolve_audio_relative_to_base_dir(tmp_path):
    save_mel(tmp_path / "y.mel", synthesize_mel("one two"))
    loaded = resolve_audio("y.mel", base_dir=tmp_path)
    assert loaded.frames.shape == (80, 32)


def test_wav_input_pcm16_and_float32(tmp_path):
    from scipy.io import wavfile

    t = np.arange(SR) / SR
    tone = (0.5 * np.sin(2 * np.pi * 220.0 * t))
    pcm_path = tmp_path / "pcm.wav"
    f32_path = tmp_path / "f32.wav"
    wavfile.write(pcm_path, SR, (tone * 32767).astype(np.int16))
    wavfile.write(f32_path, SR, tone.astype(np.float32))
    mel_pcm = resolve_audio(str(pcm_path), clip_seconds=2.0)
    mel_f32 = resolve_audio(str(f32_path), clip_seconds=2.0)
    assert mel_pcm.frames.shape == (80, 200)
    assert mel_f32.frames.shape == (80, 200)
    # quantization noise dominates log values near the floor; the tone's
    # spectral peak must agree between the two encodings
    tone_frames = slice(5, 95)
    assert (mel_pcm.frames[:, tone_frames].argmax(axis=0)
            == mel_f32.frames[:, tone_frames].argmax(axis=0)).all()
    peak = mel_f32.frames[:, tone_frames].max(axis=0)
    np.testing.assert_allclose(mel_pcm.frames[:, tone_frames].max(axis=0), peak,
                               atol=0.01)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def encoder():
    return SpeechEncoder(EncoderConfig(), np.random.default_rng(11))


def test_encode_halves_the_frame_rate(encoder):
    mel = MelSpectrogram(frames=np.zeros((80, 3000), dtype=np.float32))
    out = encoder.encode(mel)
    assert out.data.shape == (1500, 64)


def test_encode_arbitrary_length_follows_stride_law(encoder):
    for t in (16, 33, 100):
        mel = MelSpectrogram(frames=np.zeros((80, t), dtype=np.float32))
        assert encoder.encode(mel).data.shape == (-(-t // 2), 64)


def test_encode_rejects_wrong_bin_count(encoder):
    with pytest.raises(ShapeMismatch, match="mel bins"):
        encoder.encode(MelSpectrogram(frames=np.zeros((40, 100), dtype=np.float32),
                                      n_mels=40))


def _graph_encode(encoder, mel):
    """The encoder composed from graph ops: the reference its kernels must match."""
    h = ag.gelu(ag.conv1d(ag.Tensor(mel.frames), encoder.conv1_w, encoder.conv1_b,
                          stride=encoder.stride1, padding=1))
    h = ag.gelu(ag.conv1d(h, encoder.conv2_w, encoder.conv2_b,
                          stride=encoder.stride2, padding=1))
    h = ag.transpose(h, (1, 0))
    h = ag.add(h, sinusoid_table(h.shape[0], h.shape[1]))
    for blk in encoder.blocks:
        a = ag.layer_norm(h, blk.ln1_g, blk.ln1_b)
        a = ag.multihead_attention(ag.matmul(a, blk.proj["q"]), ag.matmul(a, blk.proj["k"]),
                                   ag.matmul(a, blk.proj["v"]), blk.n_heads)
        h = ag.add(h, ag.matmul(a, blk.proj["o"]))
        f = ag.layer_norm(h, blk.ln2_g, blk.ln2_b)
        f = ag.linear(ag.gelu(ag.linear(f, blk.w1, blk.b1)), blk.w2, blk.b2)
        h = ag.add(h, f)
    return ag.layer_norm(h, encoder.ln_f_g, encoder.ln_f_b).data


@pytest.mark.parametrize("t_mel", [3000, 101])
def test_encode_matches_graph_composition_bitwise(encoder, t_mel):
    frames = np.random.default_rng(t_mel).normal(size=(80, t_mel)) * 3.0
    mel = MelSpectrogram(frames=frames.astype(np.float32))
    assert encoder.encode(mel).data.tobytes() == _graph_encode(encoder, mel).tobytes()


def test_encode_rejects_non_finite_mel(encoder):
    frames = np.zeros((80, 40), dtype=np.float32)
    frames[3, 7] = np.nan
    with pytest.raises(NonFiniteInput, match="conv1d"):
        encoder.encode(MelSpectrogram(frames=frames))


def test_encoder_is_not_constant(encoder):
    a = encoder.encode(synthesize_mel("red light")).data
    b = encoder.encode(synthesize_mel("blue lamp")).data
    cos = (a * b).sum() / (np.linalg.norm(a) * np.linalg.norm(b))
    assert cos < 1.0 - 1e-6


def test_encoder_parameters_are_frozen(encoder):
    params = encoder.named_parameters()
    assert params, "encoder exposes no parameters"
    assert all(not p.trainable for p in params.values())
    before = param_hash(params.values())
    out = encoder.encode(synthesize_mel("hello"))
    loss = ag.tsum(out)
    ag.backward(loss)
    assert all(p.grad is None for p in params.values())
    assert param_hash(params.values()) == before
