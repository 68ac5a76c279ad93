"""Evaluation metrics: WER, intent accuracy, entity F1 with word/char
partial credit, perfect parsing, and binary accuracy.

Entity scoring matches predicted and gold entities of the same slot
type by optimal assignment over pair overlap scores; a matched pair
contributes its overlap F1 as fractional true-positive mass and the
remainder as both FP and FN mass. `slu_f1` is the mean of the word-
and character-level scores.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

_PUNCT = string.punctuation


def normalize_value(s: str) -> str:
    """Lowercase, collapse whitespace, strip punctuation at the ends."""
    s = " ".join(s.lower().split())
    return s.strip(_PUNCT + " ")


def normalize_entities(entities) -> list[tuple[str, str]]:
    """Multiset of (slot_type, value) with both halves normalized."""
    return [(normalize_value(t), normalize_value(v)) for t, v in entities]


def edit_distance(ref: list, hyp: list) -> int:
    """Levenshtein distance with unit substitution/insertion/deletion cost."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            sub = prev[j - 1] + (ref[i - 1] != hyp[j - 1])
            cur[j] = min(sub, prev[j] + 1, cur[j - 1] + 1)
        prev = cur
    return prev[m]


def wer(ref: str, hyp: str) -> float:
    """Word error rate: edit distance over max(1, reference word count)."""
    ref_words = ref.split()
    hyp_words = hyp.split()
    return edit_distance(ref_words, hyp_words) / max(1, len(ref_words))


def corpus_wer(refs: list[str], hyps: list[str]) -> float:
    if len(refs) != len(hyps):
        raise ValueError(f"length mismatch: {len(refs)} refs vs {len(hyps)} hyps")
    errors = sum(edit_distance(r.split(), h.split()) for r, h in zip(refs, hyps))
    words = sum(len(r.split()) for r in refs)
    return errors / max(1, words)


def intent_accuracy(preds: list[str | None], golds: list[str]) -> float:
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    if not golds:
        return 0.0
    hits = sum(1 for p, g in zip(preds, golds)
               if p is not None and normalize_value(p) == normalize_value(g))
    return hits / len(golds)


def _f1(tp: float, fp: float, fn: float) -> float:
    p = tp / (tp + fp) if tp + fp > 0 else 0.0
    r = tp / (tp + fn) if tp + fn > 0 else 0.0
    return 2 * p * r / (p + r) if p + r > 0 else 0.0


def _overlap_f1(pred: str, gold: str, unit: str) -> float:
    a = Counter(pred.split()) if unit == "word" else Counter(pred)
    b = Counter(gold.split()) if unit == "word" else Counter(gold)
    common = sum((a & b).values())
    total = sum(a.values()) + sum(b.values())
    return 2 * common / total if total else 1.0


@dataclass
class F1Counts:
    tp: float = 0.0
    fp: float = 0.0
    fn: float = 0.0

    def add(self, other: "F1Counts"):
        self.tp += other.tp
        self.fp += other.fp
        self.fn += other.fn

    @property
    def f1(self) -> float:
        return _f1(self.tp, self.fp, self.fn)


def _exact_counts(pred: list[tuple[str, str]], gold: list[tuple[str, str]]) -> F1Counts:
    cp, cg = Counter(pred), Counter(gold)
    tp = sum((cp & cg).values())
    return F1Counts(tp=tp, fp=len(pred) - tp, fn=len(gold) - tp)


def _overlap_counts(pred, gold, unit: str) -> F1Counts:
    """Optimal same-type pairing; partial pairs split mass between TP and FP/FN."""
    # imported here: scipy.optimize adds about 43 MiB of RSS and is needed only
    # to pair overlapping slot values, never to import the package, train or infer
    from scipy.optimize import linear_sum_assignment

    counts = F1Counts()
    types = {t for t, _ in pred} | {t for t, _ in gold}
    for slot_type in sorted(types):
        pv = [v for t, v in pred if t == slot_type]
        gv = [v for t, v in gold if t == slot_type]
        if not pv or not gv:
            counts.fp += len(pv)
            counts.fn += len(gv)
            continue
        scores = np.array([[_overlap_f1(p, g, unit) for g in gv] for p in pv])
        rows, cols = linear_sum_assignment(-scores)
        matched = 0.0
        for i, j in zip(rows, cols):
            s = float(scores[i, j])
            counts.tp += s
            counts.fp += 1.0 - s
            counts.fn += 1.0 - s
            matched += 1
        counts.fp += len(pv) - matched
        counts.fn += len(gv) - matched
    return counts


def slu_f1(preds: list[list[tuple[str, str]] | None],
           golds: list[list[tuple[str, str]]]) -> dict[str, float]:
    """Corpus entity F1 over pooled counts: exact, word-overlap, char-overlap,
    and the mean of the last two (SLU-F1).

    A None prediction scores as an empty entity set.
    """
    if len(preds) != len(golds):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(golds)} golds")
    totals = {"exact": F1Counts(), "word": F1Counts(), "char": F1Counts()}
    for pred, gold in zip(preds, golds):
        p = normalize_entities(pred or [])
        g = normalize_entities(gold)
        totals["exact"].add(_exact_counts(p, g))
        totals["word"].add(_overlap_counts(p, g, "word"))
        totals["char"].add(_overlap_counts(p, g, "char"))
    out = {f"{k}_f1": totals[k].f1 for k in totals}
    out["slu_f1"] = (out["word_f1"] + out["char_f1"]) / 2
    out["counts"] = {k: {"tp": c.tp, "fp": c.fp, "fn": c.fn} for k, c in totals.items()}
    return out


def perfect_parsing(intents: list[str | None], entity_preds, intent_golds,
                    entity_golds) -> float:
    """Fraction of examples with intent and the full entity set exactly right."""
    n = len(intent_golds)
    if not (len(intents) == len(entity_preds) == len(entity_golds) == n):
        raise ValueError("perfect_parsing: input lists must align")
    if n == 0:
        return 0.0
    hits = 0
    for pi, pe, gi, ge in zip(intents, entity_preds, intent_golds, entity_golds):
        if pi is None:
            continue
        if normalize_value(pi) != normalize_value(gi):
            continue
        if Counter(normalize_entities(pe or [])) == Counter(normalize_entities(ge)):
            hits += 1
    return hits / n


def binary_accuracy(preds: list[str | None], golds: list[str],
                    labels: list[tuple[str, str]]) -> float:
    """Exact-match accuracy, gold i within its own label pair `labels[i]`; None is wrong."""
    if not len(preds) == len(golds) == len(labels):
        raise ValueError(f"length mismatch: {len(preds)} preds, {len(golds)} golds, "
                         f"{len(labels)} label pairs")
    for g, pair in zip(golds, labels):
        if normalize_value(g) not in {normalize_value(l) for l in pair}:
            raise ValueError(f"gold label {g!r} outside binary inventory {pair}")
    if not golds:
        return 0.0
    hits = sum(1 for p, g in zip(preds, golds)
               if p is not None and normalize_value(p) == normalize_value(g))
    return hits / len(golds)
