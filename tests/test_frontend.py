"""Log-mel frontend and frozen-encoder contracts."""

import struct
import tracemalloc

import numpy as np
import pytest
from scipy.io import wavfile

from speechslu import autograd as ag
from speechslu.audio import (HOP_SECONDS, LOG_FLOOR, WINDOW_SECONDS, MelSpectrogram,
                             load_mel, load_wav, log_mel, mel_filterbank,
                             resolve_audio, save_mel, synthesize_mel)
from speechslu.aligner import ModalityAligner
from speechslu.config import AlignerConfig, EncoderConfig
from speechslu.encoder import SpeechEncoder
from speechslu.errors import ConfigError, NonFiniteInput, ShapeMismatch
from speechslu.initutil import sinusoid_table

from conftest import param_hash

SR = 16000


def test_silence_gives_log_floor_everywhere():
    # 11.025 and 22.05 kHz round the 10 ms hop to 110 and 220 samples; the
    # frame count still follows the clip length, not n_samples // hop
    for sample_rate in (8000, 11025, SR, 22050, 44100, 48000):
        mel = log_mel(np.zeros(sample_rate * 30), sample_rate)
        assert mel.frames.shape == (80, 3000), sample_rate
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
    # each filter peaks at its center; a window fine enough to resolve the
    # lowest filters shows every center above the previous one
    fb = mel_filterbank(80, 2048, SR)
    assert fb.shape == (80, 1025)
    assert (np.diff(np.argmax(fb, axis=1)) > 0).all()


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


def _tone(seconds=1.0, amplitude=0.3, freq=440.0):
    t = np.arange(int(SR * seconds)) / SR
    return amplitude * np.sin(2 * np.pi * freq * t)


def _write_pcm24(path, samples: np.ndarray) -> None:
    """A mono 24-bit PCM WAV (scipy's writer has no 24-bit output)."""
    body = b"".join(int(s).to_bytes(3, "little", signed=True) for s in samples)
    fmt = struct.pack("<HHIIHH", 1, 1, SR, SR * 3, 3, 24)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + 8 + len(fmt) + 8 + len(body))
                     + b"WAVE" + b"fmt " + struct.pack("<I", len(fmt)) + fmt
                     + b"data" + struct.pack("<I", len(body)) + body)


@pytest.mark.parametrize("width", ["pcm8", "pcm16", "pcm24", "pcm32", "pcm16-stereo"])
def test_wav_pcm_widths_load_within_one_quantization_step(tmp_path, width):
    tone = _tone()
    path = tmp_path / f"{width}.wav"
    if width == "pcm8":
        step = 1 / 128
        wavfile.write(path, SR, np.round(tone * 128 + 128).astype(np.uint8))
    elif width == "pcm16":
        step = 1 / 32768
        wavfile.write(path, SR, np.round(tone * 32767).astype(np.int16))
    elif width == "pcm24":
        step = 2.0**-23
        _write_pcm24(path, np.round(tone * 2**23).astype(np.int64))
    elif width == "pcm32":
        step = 2.0**-31
        wavfile.write(path, SR, np.round(tone * 2**31).astype(np.int32))
    else:
        step = 1 / 32768
        pcm = np.round(tone * 32767).astype(np.int16)
        wavfile.write(path, SR, np.stack([pcm, pcm], axis=1))
    wav, sr = load_wav(path)
    assert sr == SR and wav.dtype == np.float64 and wav.shape == tone.shape
    np.testing.assert_allclose(wav, tone, rtol=0, atol=step)


def test_wav_pcm16_and_float_load_unchanged(tmp_path):
    tone = _tone()
    pcm = np.round(tone * 32767).astype(np.int16)
    wavfile.write(tmp_path / "pcm.wav", SR, pcm)
    wavfile.write(tmp_path / "f32.wav", SR, tone.astype(np.float32))
    assert load_wav(tmp_path / "pcm.wav")[0].tobytes() == (pcm / 32768.0).tobytes()
    assert (load_wav(tmp_path / "f32.wav")[0].tobytes()
            == tone.astype(np.float32).astype(np.float64).tobytes())


def test_wav_with_an_unsupported_sample_type_is_a_config_error(tmp_path, monkeypatch):
    monkeypatch.setattr(wavfile, "read", lambda path: (SR, np.zeros(8, dtype=np.int64)))
    with pytest.raises(ConfigError, match=r"odd\.wav: unsupported WAV sample type int64"):
        load_wav(tmp_path / "odd.wav")


# ---------------------------------------------------------------------------
# log-mel in frame blocks: bit-identical to the whole-clip computation
# ---------------------------------------------------------------------------

def whole_clip_log_mel(waveform, sample_rate, n_mels=80, clip_seconds=30.0):
    """`log_mel` as one frame matrix over the zero-padded clip (the reference
    the blocked version must match byte for byte)."""
    wav = np.asarray(waveform, dtype=np.float64).reshape(-1)
    n_target = int(round(clip_seconds * sample_rate))
    wav = wav[:n_target]
    win = int(round(WINDOW_SECONDS * sample_rate))
    hop = int(round(HOP_SECONDS * sample_rate))
    t_mel = int(round(clip_seconds / HOP_SECONDS))
    half = win // 2
    # zeros up to n_target, and on to the end of the last frame
    padded = np.pad(wav, (half, max(n_target, (t_mel - 1) * hop + win) - wav.size))
    window = np.hanning(win)
    fb_t = mel_filterbank(n_mels, win, sample_rate).T.astype(np.float64)
    frames = np.lib.stride_tricks.sliding_window_view(padded, win)[::hop][:t_mel]
    spec = np.abs(np.fft.rfft(frames * window, n=win, axis=1)) ** 2
    mel = spec @ fb_t
    return np.log(np.maximum(mel, LOG_FLOOR)).T.astype(np.float32)


@pytest.mark.parametrize("sample_rate", [8000, 16000, 22050, 44100])
@pytest.mark.parametrize("length", [0.4, 1.0, 1.6])
def test_log_mel_blocks_match_the_whole_clip_bitwise(sample_rate, length):
    # 7.3 s is 730 frames: a first, an interior and a last block (243, 243, 244)
    clip = 7.3
    n = int(round(clip * sample_rate * length))
    wav = np.random.default_rng(n).normal(size=n) * 0.3
    got = log_mel(wav, sample_rate, clip_seconds=clip).frames
    assert got.tobytes() == whole_clip_log_mel(wav, sample_rate, clip_seconds=clip).tobytes()


# 2.57 s is 257 frames, in blocks of 128 and 129, and 5.14 s is 514 frames, in
# blocks of 171 and 172: 256-frame blocks would leave a last block of 1 or 2
# frames, whose float64 mel product has other bits than the whole product's
@pytest.mark.parametrize("n, clip", [(1, 0.05), (3, 0.05), (399, 0.05), (401, 0.05),
                                     (5, 0.02), (7, 0.001), (800, 0.01), (4100, 2.56),
                                     (41120, 2.57), (80000, 5.14)])
def test_log_mel_tiny_inputs_match_the_whole_clip_bitwise(n, clip):
    wav = np.random.default_rng(n).normal(size=n)
    got = log_mel(wav, SR, clip_seconds=clip).frames
    ref = whole_clip_log_mel(wav, SR, clip_seconds=clip)
    assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


def _traced_peak_mib(fn) -> float:
    fn()  # warm lazily built tables and caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_log_mel_peak_memory_of_a_30s_clip():
    # measured 3.30 MiB (output 0.9, then one 250-frame block's frames, FFT,
    # power spectrum and mel product); a whole-clip power spectrum peaked at
    # 7.6 MiB and the whole-clip computation at 22.0. The bound leaves 21 %
    # above the measurement.
    wav = np.random.default_rng(0).normal(size=SR * 30) * 0.3
    assert _traced_peak_mib(lambda: log_mel(wav, SR)) < 4.0


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


def test_30s_wav_at_22050_hz_gives_3000_1500_375(encoder, tmp_path):
    # a 220-sample hop once gave 3006 -> 1503 -> 376
    wav = np.random.default_rng(5).normal(size=22050 * 30) * 0.3
    wavfile.write(tmp_path / "clip.wav", 22050, wav.astype(np.float32))
    mel = resolve_audio(str(tmp_path / "clip.wav"))
    assert mel.frames.shape == (80, 3000)
    enc_out = encoder.encode(mel)
    assert enc_out.data.shape[0] == 1500
    aligner = ModalityAligner(AlignerConfig(), np.random.default_rng(13))
    assert aligner.align(enc_out).data.shape[0] == 375


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


def test_encode_peak_memory_at_3000_frames(encoder):
    # measured 5.54 MiB: one block's [300, 1500] scores (1.7) plus activations;
    # with one head's scores at once it peaked at 11.4 MiB, with every head's
    # at 20.1. The bound leaves 26 % above the measurement.
    mel = MelSpectrogram(
        frames=(np.random.default_rng(1).normal(size=(80, 3000)) * 3).astype(np.float32))
    assert _traced_peak_mib(lambda: encoder.encode(mel)) < 7.0


@pytest.mark.parametrize("t_mel", [3000, 101, 33])
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
