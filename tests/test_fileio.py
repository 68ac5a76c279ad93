"""Artifact writes: all at once or not at all."""

import numpy as np
import pytest

from speechslu.audio import save_mel, synthesize_mel
from speechslu.checkpoint import save_checkpoint
from speechslu.config import RunConfig, save_config
from speechslu.datasets import ManifestRecord, write_manifest
from speechslu.fileio import write_atomic
from speechslu.tokenizer import Vocabulary, default_specials
from speechslu.training import TraceRow, TrainResult, write_trace_csv


def test_write_atomic_writes_text_and_bytes_and_replaces(tmp_path):
    path = tmp_path / "a.txt"
    write_atomic(path, "héllo\n")
    assert path.read_bytes() == "héllo\n".encode("utf-8")
    write_atomic(path, b"\x00\x01")
    assert path.read_bytes() == b"\x00\x01"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def test_a_failed_write_keeps_the_previous_file_and_no_temporary(tmp_path, fail_writes):
    path = tmp_path / "a.txt"
    path.write_text("previous\n")
    fail_writes()
    with pytest.raises(OSError, match="disk full"):
        write_atomic(path, "new contents\n")
    assert path.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["a.txt"]


def _trace():
    return TrainResult(trace=[TraceRow(step=1, task="IC", config="alone", loss=0.5)])


_RECORD = ManifestRecord(id="r", audio="synthetic:turn on", transcript="turn on", task="IC",
                         annotation={"intent": "lights_on"})

WRITERS = {
    "checkpoint": lambda path: save_checkpoint(path, {"w": np.ones(3, np.float32)}, "ab"),
    "manifest": lambda path: write_manifest(path, [_RECORD, _RECORD]),
    "mel": lambda path: save_mel(path, synthesize_mel("turn on the light")),
    "vocabulary": lambda path: Vocabulary(default_specials(), ["turn", "on"]).save(path),
    "config": lambda path: save_config(RunConfig(), path),
    "trace": lambda path: write_trace_csv(path, _trace(), "ab"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_artifact_writer_failing_midway_keeps_the_previous_file(tmp_path, monkeypatch,
                                                                fail_writes, writer):
    path = tmp_path / "artifact"
    WRITERS[writer](path)
    before = path.read_bytes()
    path.write_bytes(b"previous")
    fail_writes()
    with pytest.raises(OSError, match="disk full"):
        WRITERS[writer](path)
    assert path.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
    monkeypatch.undo()
    WRITERS[writer](path)
    assert path.read_bytes() == before

