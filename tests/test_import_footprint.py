"""scipy loads only where it runs: WAV decoding and overlap SLU-F1.

Each check runs in a fresh interpreter, since this test process has long
since imported scipy for other tests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _scipy_modules_after(code: str, tmp_path) -> tuple[list[str], object]:
    """The scipy modules loaded once `code` has run in a fresh interpreter,
    and the JSON value `code` left in `result`."""
    script = tmp_path / "child.py"
    script.write_text(code + "\nimport json, sys\nprint(json.dumps({'scipy': sorted("
                      "m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')),"
                      " 'result': result}))\n", encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    return out["scipy"], out["result"]


def test_importing_the_package_and_cli_loads_no_scipy(tmp_path):
    loaded, _ = _scipy_modules_after("import speechslu, speechslu.cli\nresult = None",
                                     tmp_path)
    assert loaded == []


def test_training_on_synthetic_and_inferring_on_mel_audio_load_no_scipy(tmp_path):
    code = """
import dataclasses
import numpy as np
from speechslu import experiments
from speechslu.audio import save_mel, synthesize_mel
from speechslu.datasets import generate_micro_corpus
from speechslu.orchestrator import infer_manifest
from speechslu.training import train

corpus = generate_micro_corpus(experiments.micro_corpus_spec(),
                               np.random.default_rng(experiments.CORPUS_SEED))
records = [r for rs in corpus.values() for r in rs]
model = experiments.build_micro_model(records, experiments.micro_run_config())
steps = train(records, model, epochs=1).steps
mel_records = []
for r in records:
    save_mel(f"{r.id}.mel", synthesize_mel(r.audio[len("synthetic:"):]))
    mel_records.append(dataclasses.replace(r, audio=f"{r.id}.mel"))
pairs = infer_manifest(mel_records, model, "mr", seed=3, base_dir=".")
result = [steps, len(pairs)]
"""
    loaded, (steps, n_inferred) = _scipy_modules_after(code, tmp_path)
    assert steps > 0 and n_inferred == 20
    assert loaded == []


def test_wav_decoding_loads_scipy_io_wavfile(tmp_path):
    code = """
import struct
from speechslu.audio import load_wav

samples = struct.pack("<4h", 0, 16384, -16384, 32767)
fmt = struct.pack("<HHIIHH", 1, 1, 16000, 32000, 2, 16)
with open("clip.wav", "wb") as fh:
    fh.write(b"RIFF" + struct.pack("<I", 36 + len(samples)) + b"WAVEfmt "
             + struct.pack("<I", 16) + fmt + b"data" + struct.pack("<I", len(samples))
             + samples)
wav, sr = load_wav("clip.wav")
result = [wav.tolist(), sr]
"""
    loaded, (wav, sr) = _scipy_modules_after(code, tmp_path)
    assert "scipy.io.wavfile" in loaded and "scipy.optimize" not in loaded
    assert sr == 16000 and wav == [0.0, 0.5, -0.5, 32767 / 32768]


def test_overlap_slu_f1_loads_scipy_optimize_and_keeps_its_values(tmp_path):
    # pairing "a b"-"a b c" and "a"-"a" beats the other pairing: word overlap
    # 0.8 + 1.0 of 2 (F1 0.9), char overlap 0.75 + 1.0 of 2 (F1 0.875)
    code = """
from speechslu.metrics import slu_f1

out = slu_f1([[("slot", "a b"), ("slot", "a")]], [[("slot", "a"), ("slot", "a b c")]])
result = {k: out[k] for k in ("exact_f1", "word_f1", "char_f1", "slu_f1")}
"""
    loaded, result = _scipy_modules_after(code, tmp_path)
    assert "scipy.optimize" in loaded and "scipy.io" not in loaded
    assert result == pytest.approx({"exact_f1": 0.5, "word_f1": 0.9, "char_f1": 0.875,
                                    "slu_f1": 0.8875}, abs=1e-12)
