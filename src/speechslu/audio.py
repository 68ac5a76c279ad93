"""Audio frontend: WAV input, log-mel features, mel feature files.

The mel layout follows the common ASR convention: 25 ms windows on a
10 ms hop, 80 triangular mel filters, natural-log compression with a
1e-10 floor. A clip is always padded or truncated to `clip_seconds`
before analysis, and the frame count is clip_seconds * 100 (rounded)
at every sample rate.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .fileio import write_atomic

LOG_FLOOR = 1e-10
WINDOW_SECONDS = 0.025
HOP_SECONDS = 0.010

MEL_MAGIC = b"MELF"

# most frames in a `log_mel` block; blocks are equal, so a split clip's hold 128
# or more (BLAS gives a float64 mel product of 1-15 rows other bits)
_FRAME_BLOCK = 256


@dataclass
class MelSpectrogram:
    frames: np.ndarray          # [n_mels, T_mel] float32
    n_mels: int = 80

    def __post_init__(self):
        if self.frames.shape[0] != self.n_mels:
            raise ValueError(
                f"mel frames have {self.frames.shape[0]} bins, expected {self.n_mels}")


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(n_mels: int, n_fft: int, sample_rate: int) -> np.ndarray:
    """Triangular filters [n_mels, n_fft//2 + 1] spanning 0..Nyquist."""
    n_bins = n_fft // 2 + 1
    fft_freqs = np.arange(n_bins) * sample_rate / n_fft
    mel_points = np.linspace(hz_to_mel(0.0), hz_to_mel(sample_rate / 2.0), n_mels + 2)
    hz_points = mel_to_hz(mel_points)
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, mid, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rise = (fft_freqs - lo) / max(mid - lo, 1e-12)
        fall = (hi - fft_freqs) / max(hi - mid, 1e-12)
        fb[m] = np.maximum(0.0, np.minimum(rise, fall))
    return fb.astype(np.float32)


@functools.lru_cache(maxsize=8)
def _analysis_tables(n_mels: int, win: int, sample_rate: int) -> tuple[np.ndarray, np.ndarray]:
    """Hann window [win] and float64 filterbank [win//2 + 1, n_mels], read-only."""
    window = np.hanning(win)
    fb_t = mel_filterbank(n_mels, win, sample_rate).T.astype(np.float64)
    window.flags.writeable = False
    fb_t.flags.writeable = False
    return window, fb_t


def frame_blocks(t_mel: int) -> list[tuple[int, int]]:
    """`log_mel`'s split of t_mel frames: (start, stop) of ceil(t_mel /
    _FRAME_BLOCK) blocks whose sizes differ by at most one."""
    n = -(-t_mel // _FRAME_BLOCK)
    edges = [i * t_mel // n for i in range(n + 1)] if t_mel else []
    return list(zip(edges, edges[1:]))


def log_mel(waveform: np.ndarray, sample_rate: int, n_mels: int = 80,
            clip_seconds: float = 30.0) -> MelSpectrogram:
    """Log-mel spectrogram of a mono waveform, padded/truncated to the clip length.

    Each of `frame_blocks`' equal blocks of at most `_FRAME_BLOCK` frames is
    transformed, squared, multiplied by the mel filterbank, floored and logged
    into the preallocated result, so nothing of the whole clip but the result
    exists.
    Every frame is transformed on its own and no block is short enough for
    BLAS to change kernels, so the blocks give the bits of the whole clip.
    """
    wav = np.asarray(waveform, dtype=np.float64).reshape(-1)
    if wav.size == 0:
        raise ValueError("log_mel: empty waveform")
    if sample_rate <= 0:
        raise ValueError(f"log_mel: bad sample rate {sample_rate}")

    n_target = int(round(clip_seconds * sample_rate))
    wav = wav[:n_target]  # anything shorter is zero up to n_target
    win = int(round(WINDOW_SECONDS * sample_rate))
    hop = int(round(HOP_SECONDS * sample_rate))
    # a whole-sample hop (220 at 22.05 kHz) drifts from 10 ms, so the frame
    # count comes from the clip length; frames past the clip are zero-padded
    t_mel = int(round(clip_seconds / HOP_SECONDS))
    # frame t covers samples t*hop - half .. t*hop - half + win (centered on t*hop)
    half = win // 2
    window, fb_t = _analysis_tables(n_mels, win, sample_rate)
    logmel = np.empty((n_mels, t_mel), dtype=np.float32)
    spec = np.empty((min(t_mel, _FRAME_BLOCK), win // 2 + 1))
    for t0, t1 in frame_blocks(t_mel):
        lo, hi = t0 * hop - half, (t1 - 1) * hop - half + win
        if lo >= 0 and hi <= wav.size:
            seg = wav[lo:hi]
        else:  # the block reaches past either end of the clipped waveform
            seg = np.zeros(hi - lo)
            a, b = max(lo, 0), min(hi, wav.size)
            if a < b:
                seg[a - lo:b - lo] = wav[a:b]
        frames = np.lib.stride_tricks.sliding_window_view(seg, win)[::hop]
        s = np.abs(np.fft.rfft(frames * window, n=win, axis=1), out=spec[:t1 - t0])
        np.square(s, out=s)
        m = s @ fb_t
        np.maximum(m, LOG_FLOOR, out=m)
        np.log(m, out=m)
        logmel[:, t0:t1] = m.T
    return MelSpectrogram(frames=logmel, n_mels=n_mels)


def load_wav(path) -> tuple[np.ndarray, int]:
    """Read a PCM (8/16/24/32-bit) or float WAV as float64 in [-1, 1);
    multichannel input is downmixed.

    scipy returns 8-bit samples as uint8 around 128 and 24- and 32-bit
    samples as left-justified int32. Any other sample type raises
    ConfigError naming the file.
    """
    # imported on first use, so .mel and synthetic audio never load scipy.io
    from scipy.io import wavfile

    sample_rate, data = wavfile.read(path)
    if data.dtype == np.uint8:
        data = (data.astype(np.float64) - 128.0) / 128.0
    elif data.dtype == np.int16:
        data = data.astype(np.float64) / 32768.0
    elif data.dtype == np.int32:
        data = data.astype(np.float64) / 2147483648.0
    elif data.dtype.kind != "f":
        raise ConfigError(f"{path}: unsupported WAV sample type {data.dtype}")
    if data.ndim > 1:
        data = data.mean(axis=1)
    return data.astype(np.float64, copy=False), int(sample_rate)


def save_mel(path, mel: MelSpectrogram) -> None:
    n_mels, t = mel.frames.shape
    payload = np.ascontiguousarray(mel.frames, dtype="<f4").tobytes()
    # unsynced (a corpus has one per clip); load_mel rejects a cut file by its header
    write_atomic(path, MEL_MAGIC + struct.pack("<II", n_mels, t) + payload, sync=False)


def load_mel(path) -> MelSpectrogram:
    buf = Path(path).read_bytes()
    if buf[:4] != MEL_MAGIC:
        raise ValueError(f"{path}: not a mel feature file")
    n_mels, t = struct.unpack_from("<II", buf, 4)
    frames = np.frombuffer(buf, dtype="<f4", count=n_mels * t, offset=12)
    return MelSpectrogram(frames=frames.reshape(n_mels, t).copy(), n_mels=n_mels)


# ---------------------------------------------------------------------------
# synthetic features: deterministic stand-in for real audio/TTS
# ---------------------------------------------------------------------------

FRAMES_PER_WORD = 16


def synthesize_mel(text: str, n_mels: int = 80) -> MelSpectrogram:
    """Deterministic mel features keyed to a transcript.

    Each word renders as a fixed pseudo-random spectral pattern derived
    from the word string alone, so identical transcripts always produce
    identical features and the text->feature mapping is learnable.
    """
    words = text.split() or [""]
    floor = np.float32(np.log(LOG_FLOOR))
    frames = np.full((n_mels, FRAMES_PER_WORD * len(words)), floor, dtype=np.float32)
    for i, word in enumerate(words):
        seed = int.from_bytes(hashlib.sha256(word.encode("utf-8")).digest()[:8], "little")
        rng = np.random.default_rng(seed)
        pattern = rng.uniform(1.0, 6.0, size=n_mels).astype(np.float32)
        ramp = np.linspace(0.0, 0.5, FRAMES_PER_WORD, dtype=np.float32)
        span = frames[:, i * FRAMES_PER_WORD:(i + 1) * FRAMES_PER_WORD]
        span += pattern[:, None] + ramp[None, :]
    return MelSpectrogram(frames=frames, n_mels=n_mels)


SYNTHETIC = "synthetic:"


def _source_path(ref: str, base_dir) -> Path:
    path = Path(ref)
    if not path.is_absolute() and base_dir is not None:
        path = Path(base_dir) / path
    return path


def source_key(ref: str, base_dir=None) -> str | tuple[str, int, int]:
    """Identity of the audio a reference resolves to.

    A "synthetic:<text>" reference is its own key. A file is keyed by its
    absolute resolved path, size and modification time, so one relative
    name under two base directories gives two keys, and a rewritten file
    gives a new one (unless the rewrite keeps both size and mtime).
    """
    if ref.startswith(SYNTHETIC):
        return ref
    path = _source_path(ref, base_dir).resolve()
    st = path.stat()
    return (str(path), st.st_size, st.st_mtime_ns)


def resolve_audio(ref: str, base_dir=None, n_mels: int = 80,
                  clip_seconds: float = 30.0) -> MelSpectrogram:
    """Turn a manifest audio reference into mel features.

    Supports "synthetic:<text>" URIs (generated on the fly), .mel feature
    files, and WAV files run through the log-mel frontend. Relative paths
    resolve against `base_dir`.
    """
    if ref.startswith(SYNTHETIC):
        return synthesize_mel(ref[len(SYNTHETIC):], n_mels=n_mels)
    path = _source_path(ref, base_dir)
    if path.suffix == ".mel":
        return load_mel(path)
    wav, sr = load_wav(path)
    return log_mel(wav, sr, n_mels=n_mels, clip_seconds=clip_seconds)
