"""Canned desk-scale experiment: memorize a synthetic micro-corpus and
reproduce its labels through all three inference strategies.

Shared by the acceptance suite and scripts/run_micro_experiment.py so the
tuned recipe lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import (AlignerConfig, DecoderConfig, EncoderConfig, LoraConfig,
                     RunConfig, TrainConfig)
from .datasets import ManifestRecord, MicroCorpusSpec, generate_micro_corpus
from .model import SluModel
from .orchestrator import SluResult, exact_entity_match, infer_manifest
from .prompts import SF_FORMAT_CLAUSE, STRATEGIES, PromptBank, strategy_turns
from .tokenizer import build_vocabulary, default_specials
from .training import TrainResult, gold_answer, train

CORPUS_SEED = 2024
INFER_SEED = 99
MICRO_EPOCHS = 1800


def micro_corpus_spec() -> MicroCorpusSpec:
    return MicroCorpusSpec(counts={"IC": 10, "SF": 10})


def micro_run_config(seed: int = 7) -> RunConfig:
    """Tiny model + training recipe that memorizes the micro-corpus on one core."""
    return RunConfig(
        seed=seed,
        encoder=EncoderConfig(d_enc=16, n_layers=1, n_heads=2, d_ff=32),
        aligner=AlignerConfig(d_enc=16, d_dec=40, bottleneck_dim=12),
        decoder=DecoderConfig(d_model=40, n_layers=2, n_heads=2, d_ff=80, pe_scale=0.1),
        lora=LoraConfig(rank=16, alpha=32.0),
        train=TrainConfig(lr=3e-3, batch_size=4, clip_norm=1.0, betas=(0.9, 0.95),
                          lr_schedule="linear", task_weights={"SF": 1.5},
                          strategy_probs=(0.2, 0.5, 0.3)),
    )


def training_texts(records: list[ManifestRecord], bank: PromptBank, delimiter: str) -> list[str]:
    """Everything the vocabulary must cover to tokenize training sequences
    compactly: roles, template literals (`scot`'s under `delimiter`), prompts,
    transcripts, targets. Chat-template markers are reserved ids, never words."""
    texts = ["system", "user", "assistant", "\n\n", SF_FORMAT_CLAUSE,
             strategy_turns("scot", "b", "a", delimiter=delimiter)[0].text]
    for templates in bank.templates.values():
        texts.extend(templates)
    for r in records:
        texts.append(r.transcript)
        texts.append(gold_answer(r))
        for key in ("instruction", "question", "paired_text"):
            if r.annotation.get(key):
                texts.append(r.annotation[key])
        for label in r.annotation.get("labels") or []:
            texts.append(label)
        if r.annotation.get("intent"):
            texts.append(r.annotation["intent"])
    return texts


def build_micro_model(records: list[ManifestRecord], cfg: RunConfig) -> SluModel:
    """The untrained model `train` starts from: `cfg`'s architecture over a
    vocabulary that covers the records' training texts (`speechslu train`
    and the micro recipe alike)."""
    bank = PromptBank.load(cfg.prompts.bank_dir)
    vocab = build_vocabulary(training_texts(records, bank, cfg.prompts.scot_delimiter),
                             default_specials(cfg.prompts))
    return SluModel(cfg, vocab)


@dataclass
class MicroRunReport:
    final_per_token_loss: float
    ic_hits: dict[str, int] = field(default_factory=dict)     # strategy -> /10
    sf_hits: dict[str, int] = field(default_factory=dict)
    train_result: TrainResult | None = None
    results: list[tuple[str, ManifestRecord, SluResult]] = field(default_factory=list)


def run_micro_overfit(epochs: int = MICRO_EPOCHS, seed: int = 7,
                      log_every: int = 0) -> tuple[SluModel, MicroRunReport]:
    corpus = generate_micro_corpus(micro_corpus_spec(),
                                   np.random.default_rng(CORPUS_SEED))
    records = [r for rs in corpus.values() for r in rs]
    model = build_micro_model(records, micro_run_config(seed))
    result = train(records, model, epochs=epochs, log_every=log_every)
    report = MicroRunReport(
        final_per_token_loss=result.mean_recent_loss(300),
        train_result=result)
    for strategy in STRATEGIES:
        ic = infer_manifest(corpus["IC"], model, strategy, seed=INFER_SEED)
        sf = infer_manifest(corpus["SF"], model, strategy, seed=INFER_SEED)
        report.results += [(strategy, r, res) for r, res in ic + sf]
        report.ic_hits[strategy] = sum(res.intent == r.annotation["intent"] for r, res in ic)
        report.sf_hits[strategy] = sum(
            exact_entity_match(res.entities, r.annotation["entities"]) for r, res in sf)
    return model, report
