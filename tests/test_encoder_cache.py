"""The frozen-audio cache: keyed on the resolved source, checked before the
audio is resolved, and storing an encoder output only when its source
comes back."""

import dataclasses
import os
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from speechslu import model as model_mod
from speechslu.audio import load_mel, save_mel, source_key, synthesize_mel
from speechslu.encoder import SpeechEncoder
from speechslu.orchestrator import infer
from speechslu.training import train

from conftest import build_tiny_model

_ENCODE = SpeechEncoder.encode


@pytest.fixture
def model(flat_records):
    return build_tiny_model(flat_records, seed=1)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the model's `resolve_audio` calls (per reference) and of
    `SpeechEncoder.encode` calls."""
    counts = SimpleNamespace(resolved=Counter(), encoded=0)
    resolve = model_mod.resolve_audio

    def counting_resolve(ref, **kw):
        counts.resolved[ref] += 1
        return resolve(ref, **kw)

    def counting_encode(self, mel):
        counts.encoded += 1
        return _ENCODE(self, mel)

    monkeypatch.setattr(model_mod, "resolve_audio", counting_resolve)
    monkeypatch.setattr(SpeechEncoder, "encode", counting_encode)
    return counts


def _write_mel(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    save_mel(path, synthesize_mel(text))


def _direct(model, path):
    """The encoder output of a mel file, computed outside the cache."""
    return _ENCODE(model.encoder, load_mel(path)).data


def test_one_pass_over_distinct_sources_stores_nothing(model, micro_corpus):
    record = micro_corpus["IC"][0]
    for i in range(5):
        clip = dataclasses.replace(record, audio=f"synthetic:clip number {i}")
        infer(clip, "mr", model, np.random.default_rng(i))
    assert model._enc_cache == {}
    assert len(model._seen) == 5


def test_second_request_stores_and_third_skips_resolution_and_encoder(model, calls):
    ref = "synthetic:turn on the light"
    outputs, counts = [], []
    for _ in range(3):
        outputs.append(model.encode_mel(ref))
        counts.append((calls.resolved[ref], calls.encoded))
    assert counts == [(1, 1), (2, 2), (2, 2)]
    first, second, third = outputs
    assert first.tobytes() == second.tobytes() == third.tobytes()
    assert third is second
    assert list(model._enc_cache) == [ref] and model._seen == {}


def test_one_relative_ref_under_two_directories_is_two_sources(model, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    _write_mel(a / "clip.mel", "turn on the light")
    _write_mel(b / "clip.mel", "play some music")
    assert source_key("clip.mel", a) != source_key("clip.mel", b)
    want = {a: _direct(model, a / "clip.mel"), b: _direct(model, b / "clip.mel")}
    for _ in range(3):  # miss, store, hit on each side, interleaved
        for base in (a, b):
            assert model.encode_mel("clip.mel", base).tobytes() == want[base].tobytes()
    assert len(model._enc_cache) == 2


def test_source_key_of_a_file(tmp_path, monkeypatch):
    _write_mel(tmp_path / "clip.mel", "hello")
    monkeypatch.chdir(tmp_path)
    key = source_key("clip.mel")
    assert key == source_key(str(tmp_path / "sub" / ".." / "clip.mel"))
    st = (tmp_path / "clip.mel").stat()
    assert key == (str((tmp_path / "clip.mel").resolve()), st.st_size, st.st_mtime_ns)
    assert source_key("synthetic:clip.mel") == "synthetic:clip.mel"
    with pytest.raises(FileNotFoundError):
        source_key("missing.mel")


def test_rewritten_file_misses(model, tmp_path, calls):
    path = tmp_path / "clip.mel"
    _write_mel(path, "turn on the light")
    model.encode_mel(str(path))
    model.encode_mel(str(path))
    assert model.encode_mel(str(path)).tobytes() == _direct(model, path).tobytes()
    assert calls.encoded == 2

    # new size
    _write_mel(path, "play some music")
    assert model.encode_mel(str(path)).tobytes() == _direct(model, path).tobytes()
    assert calls.encoded == 3

    # same size, new mtime
    before = path.stat()
    _write_mel(path, "play any music")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns + 1_000_000_000))
    assert path.stat().st_size == before.st_size
    assert model.encode_mel(str(path)).tobytes() == _direct(model, path).tobytes()
    assert calls.encoded == 4


def test_load_weights_empties_cache_and_seen_set(model, tmp_path):
    model.encode_mel("synthetic:turn on the light")
    model.encode_mel("synthetic:turn on the light")
    model.encode_mel("synthetic:play some music")
    assert len(model._enc_cache) == 1 and len(model._seen) == 1
    model.save(tmp_path)
    model.load_weights(tmp_path / "checkpoint.sslc")
    assert model._enc_cache == {} and model._seen == {}


def test_seen_set_is_bounded(model, monkeypatch):
    monkeypatch.setattr(model_mod, "SEEN_SOURCES_MAX", 3)
    for i in range(5):
        model.encode_mel(f"synthetic:word {i}")
    assert list(model._seen) == [f"synthetic:word {i}" for i in (2, 3, 4)]
    model.encode_mel("synthetic:word 0")  # forgotten: a first request again
    assert model._enc_cache == {}


def test_training_resolves_each_record_at_most_twice(micro_corpus, calls):
    records = micro_corpus["IC"][:3] + micro_corpus["SF"][:2]
    train(records, build_tiny_model(records, seed=3, batch_size=2), epochs=3)
    assert calls.resolved == {r.audio: 2 for r in records}
    assert calls.encoded == 2 * len(records)
