"""Shared fixtures: a tiny assembled model over a synthetic micro-corpus."""

import hashlib

import numpy as np
import pytest

from speechslu import fileio
from speechslu.config import (AlignerConfig, DecoderConfig, EncoderConfig,
                              LoraConfig, RunConfig, TrainConfig)
from speechslu.datasets import MicroCorpusSpec, generate_micro_corpus
from speechslu.experiments import build_micro_model
from speechslu.model import SluModel


def param_hash(tensors) -> str:
    """Order-stable digest over parameter payloads (freeze-contract checks)."""
    h = hashlib.sha256()
    for t in tensors:
        h.update(np.ascontiguousarray(t.data, dtype="<f4").tobytes())
    return h.hexdigest()


def tiny_run_config(seed=0, **train_kw) -> RunConfig:
    return RunConfig(
        seed=seed,
        encoder=EncoderConfig(d_enc=16, n_layers=1, n_heads=2, d_ff=32),
        aligner=AlignerConfig(d_enc=16, d_dec=24, bottleneck_dim=8),
        decoder=DecoderConfig(d_model=24, n_layers=2, n_heads=2, d_ff=48),
        lora=LoraConfig(rank=4, alpha=8.0),
        train=TrainConfig(**train_kw) if train_kw else TrainConfig(),
    )


def build_tiny_model(records, seed=0, **train_kw) -> SluModel:
    return build_micro_model(records, tiny_run_config(seed=seed, **train_kw))


@pytest.fixture(scope="session")
def micro_corpus():
    spec = MicroCorpusSpec(counts={"ASR": 4, "IC": 6, "SF": 6, "SQA": 3,
                                   "SIT": 3, "SQIT": 3, "SA": 3, "SER": 2, "STER": 2})
    return generate_micro_corpus(spec, np.random.default_rng(123))


@pytest.fixture(scope="session")
def flat_records(micro_corpus):
    return [r for records in micro_corpus.values() for r in records]


@pytest.fixture(scope="session")
def tiny_model(flat_records):
    return build_tiny_model(flat_records, seed=1)


@pytest.fixture
def fail_writes(monkeypatch):
    """Call it to make every later atomic write fail after its bytes reached
    the temporary file, synced or not (`monkeypatch.undo()` ends that)."""
    def arm():
        def boom(src, dst):
            raise OSError("disk full")
        monkeypatch.setattr(fileio.os, "replace", boom)
    return arm
