"""Acceptance gate: one test per criterion, each printing a PASS line with
its runtime. Run `pytest tests/test_acceptance.py -v -s` to watch them live;
the slow end-to-end criteria can be skipped with `-m "not slow"`.
"""

import itertools
import time
from collections import Counter

import numpy as np
import pytest

from speechslu import autograd as ag
from speechslu.aligner import ModalityAligner
from speechslu.audio import MelSpectrogram
from speechslu.cli import main
from speechslu.config import AlignerConfig, EncoderConfig, LoraConfig, save_config
from speechslu.datasets import (DEFAULT_HELDOUT_SLOTS, MicroCorpusSpec,
                                build_slurp_zeroshot, generate_micro_corpus)
from speechslu.decoder import MultimodalSequence
from speechslu.encoder import SpeechEncoder
from speechslu.experiments import micro_run_config, run_micro_overfit
from speechslu.metrics import (edit_distance, intent_accuracy, normalize_entities,
                               perfect_parsing, slu_f1, wer)
from speechslu.optim import AdamWState, adamw_step
from speechslu.orchestrator import infer
from speechslu.prompts import PromptBank, build_task_prompt, sample_candidate_labels

from conftest import param_hash

from test_autograd import assert_gradcheck
from test_decoder import make_decoder
from test_metrics import oracle_counts, oracle_edit_distance, oracle_f1


class Stopwatch:
    def __init__(self, name: str, budget_s: float):
        self.name = name
        self.budget = budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {status} {self.name} ({dt:.2f}s, budget {self.budget:.0f}s)")
        if exc_type is None:
            assert dt < self.budget, f"{self.name} exceeded budget: {dt:.1f}s"
        return False


def test_criterion_1_dimensional_contract():
    encoder = SpeechEncoder(EncoderConfig(), np.random.default_rng(0))
    aligner = ModalityAligner(AlignerConfig(), np.random.default_rng(1))
    mel = MelSpectrogram(frames=np.zeros((80, 3000), dtype=np.float32))
    aligner.align(encoder.encode(mel))  # warm the kernels once
    with Stopwatch("criterion 1: 3000 mel -> 1500 -> 375 embeddings", 1.0):
        enc_out = encoder.encode(mel)
        assert enc_out.data.shape[0] == 1500
        aligned = aligner.align(enc_out)
        assert aligned.data.shape[0] == 375


def test_criterion_2_gradient_suite():
    with Stopwatch("criterion 2: finite-difference gradient suite", 30.0):
        rng = np.random.default_rng(42)

        def t64(shape, scale=1.0):
            return ag.Tensor(rng.normal(size=shape, scale=scale), trainable=True)

        a, b = t64((3, 4)), t64((4, 2))
        assert_gradcheck(lambda: ag.tsum(ag.mul(ag.matmul(a, b), ag.matmul(a, b))), [a, b])
        x, w, bias = t64((3, 8)), t64((5, 3, 3)), t64((5,))
        assert_gradcheck(
            lambda: ag.tsum(ag.mul(ag.conv1d(x, w, bias, 2, 1),
                                   ag.conv1d(x, w, bias, 2, 1))), [x, w, bias])
        lx, g, be = t64((4, 6)), t64((6,)), t64((6,))
        assert_gradcheck(
            lambda: ag.tsum(ag.mul(ag.layer_norm(lx, g, be), ag.layer_norm(lx, g, be))),
            [lx, g, be])
        gx = t64((5, 3))
        assert_gradcheck(lambda: ag.tsum(ag.mul(ag.gelu(gx), ag.gelu(gx))), [gx])
        sx = t64((4, 5))
        sw = np.linspace(0.5, 1.5, 20).reshape(4, 5)
        assert_gradcheck(lambda: ag.tsum(ag.mul(ag.softmax(sx, -1), sw)), [sx])
        table = t64((6, 4))
        ew = np.linspace(0.1, 1.0, 16).reshape(4, 4)
        assert_gradcheck(
            lambda: ag.tsum(ag.mul(ag.embedding_lookup(table, [0, 5, 5, 2]), ew)),
            [table])
        q, k, v = t64((5, 8)), t64((5, 8)), t64((5, 8))
        assert_gradcheck(
            lambda: ag.tsum(ag.mul(ag.multihead_attention(q, k, v, 2, True),
                                   ag.multihead_attention(q, k, v, 2, True))), [q, k, v])
        logits = t64((6, 9))
        targets = rng.integers(0, 9, size=6)
        mask = np.array([1, 1, 0, 1, 0, 1], dtype=bool)
        assert_gradcheck(lambda: ag.cross_entropy(logits, targets, mask), [logits])

        # composed aligner, float64, every parameter
        cfg = AlignerConfig(d_enc=6, d_dec=5, bottleneck_dim=3)
        aligner = ModalityAligner(cfg, rng)
        for p in aligner.named_parameters().values():
            p.data = rng.normal(size=p.data.shape, scale=0.25)
        ax = ag.Tensor(rng.normal(size=(9, 6)))
        assert_gradcheck(
            lambda: ag.tsum(ag.mul(aligner.align(ax), aligner.align(ax))),
            list(aligner.named_parameters().values()))


def test_criterion_3_lora_identity_and_freeze():
    with Stopwatch("criterion 3: LoRA zero-init identity + frozen base", 10.0):
        dec, vocab = make_decoder(seed=33)
        rng = np.random.default_rng(34)
        seqs = []
        for _ in range(100):
            n = int(rng.integers(2, 16))
            seqs.append(MultimodalSequence(rng.integers(vocab.word_offset, vocab.size,
                                                        size=n)))
        baseline = [dec.forward(s).data.copy() for s in seqs]
        dec.inject_lora(LoraConfig(rank=8, alpha=16.0), np.random.default_rng(35))
        for s, ref in zip(seqs, baseline):
            assert dec.forward(s).data.tobytes() == ref.tobytes()

        base_hash = param_hash(dec.base_parameters().values())
        logits = dec.forward(seqs[0])
        targets = np.roll(seqs[0].ids, -1)
        loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(targets) - 1), targets[:-1])
        ag.backward(loss)
        lora = list(dec.lora_parameters().values())
        before = {p.name: p.data.copy() for p in lora}
        for p in lora:
            if p.grad is None:
                p.grad = np.zeros_like(p.data)
        adamw_step(lora, AdamWState(lr=1e-2))
        assert param_hash(dec.base_parameters().values()) == base_hash
        assert any((p.data != before[p.name]).any() for p in lora)


def test_criterion_4_metric_oracles():
    with Stopwatch("criterion 4: metrics vs exhaustive oracles", 60.0):
        # WER: every word-sequence pair up to length 6 over a 2-word alphabet
        seqs = [list(s) for n in range(0, 7) for s in itertools.product("ab", repeat=n)]
        for r in seqs:
            for h in seqs:
                assert edit_distance(r, h) == oracle_edit_distance(tuple(r), tuple(h))

        # entity F1: all multiset pairs of size <= 2 over a 2x2 alphabet,
        # plus seeded random cases up to size 6, against the exhaustive
        # optimal-assignment oracle
        pairs = [(t, v) for t in ("date", "time") for v in ("nine", "nine am")]
        pools = [list(c) for n in range(0, 3) for c in
                 itertools.combinations_with_replacement(pairs, n)]
        cases = [(p, g) for p in pools for g in pools]
        rng = np.random.default_rng(4)
        values = ["tomorrow", "tomorrow morning", "nine", "town", "old town"]
        types = ["date", "time", "place"]
        for _ in range(400):
            pred = [(types[rng.integers(0, 3)], values[rng.integers(0, 5)])
                    for _ in range(rng.integers(0, 7))]
            gold = [(types[rng.integers(0, 3)], values[rng.integers(0, 5)])
                    for _ in range(rng.integers(0, 7))]
            cases.append((pred, gold))
        for pred, gold in cases:
            scores = slu_f1([list(pred)], [list(gold)])
            for unit in ("word", "char"):
                tp, fp, fn = oracle_counts(list(pred), list(gold), unit)
                assert scores[f"{unit}_f1"] == pytest.approx(
                    oracle_f1(tp, fp, fn), abs=1e-12)
            cp = Counter(normalize_entities(pred))
            cg = Counter(normalize_entities(gold))
            tp = sum((cp & cg).values())
            assert scores["exact_f1"] == pytest.approx(
                oracle_f1(tp, len(pred) - tp, len(gold) - tp), abs=1e-12)

        # hand-checked cases from the metric contracts
        assert wer("turn on the light", "turn on the light") == 0.0
        assert wer("turn on the light", "turn off the light") == 0.25
        assert wer("a", "") == 1.0
        assert intent_accuracy(["a", "x", "b", "y"], ["a", "b", "b", "b"]) == 0.5
        assert intent_accuracy([None], ["a"]) == 0.0
        same = [[("date", "tomorrow"), ("time", "9 am")]]
        assert slu_f1(same, same)["slu_f1"] == 1.0
        partial = slu_f1([[("date", "tomorrow morning")]], [[("date", "tomorrow")]])
        assert partial["exact_f1"] == 0.0
        assert partial["word_f1"] == pytest.approx(2 / 3)
        assert slu_f1([[]], [[("date", "x")]])["slu_f1"] == 0.0
        assert perfect_parsing(["set"], [[("d", "x")]], ["set"], [[("d", "y")]]) == 0.0
        assert perfect_parsing(["set"], [[]], ["set"], [[]]) == 1.0


def test_criterion_5_zero_shot_split_hygiene():
    with Stopwatch("criterion 5: held-out slot types absent from train", 5.0):
        spec = MicroCorpusSpec(counts={"SF": 120},
                               sf_slots=DEFAULT_HELDOUT_SLOTS + ("date", "time", "color"))
        corpus = generate_micro_corpus(spec, np.random.default_rng(55))
        train_recs, test_recs = build_slurp_zeroshot(corpus["SF"])
        assert train_recs and test_recs
        held = set(DEFAULT_HELDOUT_SLOTS)
        train_types = set()
        for r in train_recs:
            train_types |= r.slot_types()
        assert train_types & held == set()
        assert all(r.slot_types() & held for r in test_recs)


@pytest.mark.slow
def test_criterion_6_toy_overfit_end_to_end():
    with Stopwatch("criterion 6: micro-corpus memorization, all strategies", 600.0):
        model, report = run_micro_overfit()
        print(f"[acceptance]   per-token loss {report.final_per_token_loss:.4f}, "
              f"IC {report.ic_hits}, SF {report.sf_hits}")
        assert report.final_per_token_loss < 0.05
        for strategy in ("alone", "scot", "mr"):
            assert report.ic_hits[strategy] >= 9, f"IC {strategy}: {report.ic_hits}"
            assert report.sf_hits[strategy] >= 8, f"SF {strategy}: {report.sf_hits}"
        assert model.trainable_parameters()  # the run produced a live model


def test_criterion_7_strategy_contracts(tiny_model, micro_corpus):
    with Stopwatch("criterion 7: generation counts and MR conditioning", 10.0):
        record = micro_corpus["IC"][0]
        by_strategy = {}
        for strategy in ("alone", "scot", "mr"):
            by_strategy[strategy] = infer(record, strategy, tiny_model,
                                          np.random.default_rng(7))
        assert by_strategy["alone"].n_generations == 1
        assert by_strategy["scot"].n_generations == 1
        assert by_strategy["mr"].n_generations == 2
        mr = by_strategy["mr"]
        assert mr.transcript is not None
        assert mr.transcript in mr.round_prompts[1]


def test_criterion_8_prompt_engine_statistics():
    with Stopwatch("criterion 8: gold inclusion and template coverage", 5.0):
        rng = np.random.default_rng(88)
        inventory = [f"intent_{i}" for i in range(20)]
        for _ in range(10_000):
            assert "intent_13" in sample_candidate_labels(inventory, "intent_13", 2, rng)
        bank = PromptBank.load()
        for task in ("ASR", "IC", "SF"):
            seen = set()
            for _ in range(1000):
                prompt = build_task_prompt(task, ["a", "b"] if task != "ASR" else [],
                                           bank, rng)
                for idx, tpl in enumerate(bank.templates[task]):
                    if tpl.replace("{labels}", "a, b") in prompt:
                        seen.add(idx)
            assert seen == set(range(10)), f"{task}: templates {sorted(seen)}"


@pytest.mark.slow
def test_criterion_9_end_to_end_determinism(tmp_path):
    with Stopwatch("criterion 9: byte-identical train+infer runs", 1200.0):
        data = tmp_path / "data"
        assert main(["prepare-data", "--kind", "micro", "--out", str(data),
                     "--counts", "IC=6,SF=6", "--seed", "9"]) == 0
        cfg = micro_run_config(seed=9)
        cfg_path = tmp_path / "run.json"
        save_config(cfg, cfg_path)
        artifacts = []
        for label in ("one", "two"):
            run_dir = tmp_path / label
            assert main(["train", "--config", str(cfg_path),
                         "--manifest", str(data / "ic.jsonl"),
                         "--manifest", str(data / "sf.jsonl"),
                         "--out", str(run_dir), "--epochs", "3"]) == 0
            preds = tmp_path / f"preds-{label}.jsonl"
            assert main(["infer", "--run", str(run_dir),
                         "--manifest", str(data / "ic.jsonl"),
                         "--strategy", "mr", "--out", str(preds)]) == 0
            artifacts.append(((run_dir / "checkpoint.sslc").read_bytes(),
                              preds.read_bytes()))
        assert artifacts[0][0] == artifacts[1][0], "checkpoints differ"
        assert artifacts[0][1] == artifacts[1][1], "predictions differ"
