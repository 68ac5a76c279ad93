"""Metric tests: hand-checked cases plus exhaustive brute-force oracles."""

import itertools
from collections import Counter
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu.metrics import (binary_accuracy, corpus_wer, edit_distance,
                               intent_accuracy, normalize_entities,
                               normalize_value, perfect_parsing, slu_f1, wer)

# ---------------------------------------------------------------------------
# oracles (independent implementations, kept deliberately naive)
# ---------------------------------------------------------------------------

def oracle_edit_distance(ref: tuple, hyp: tuple) -> int:
    """Plain memoized recursion; no DP table shared with the implementation."""

    @lru_cache(maxsize=None)
    def go(i: int, j: int) -> int:
        if i == len(ref):
            return len(hyp) - j
        if j == len(hyp):
            return len(ref) - i
        if ref[i] == hyp[j]:
            return go(i + 1, j + 1)
        return 1 + min(go(i + 1, j + 1), go(i + 1, j), go(i, j + 1))

    return go(0, 0)


def oracle_overlap_f1(pred: str, gold: str, unit: str) -> float:
    a = Counter(pred.split()) if unit == "word" else Counter(pred)
    b = Counter(gold.split()) if unit == "word" else Counter(gold)
    common = sum(min(a[k], b[k]) for k in set(a) | set(b))
    total = sum(a.values()) + sum(b.values())
    return 2 * common / total if total else 1.0


def oracle_counts(preds, golds, unit):
    """Exhaustive optimal same-type assignment over all injective pairings."""
    preds = normalize_entities(preds)
    golds = normalize_entities(golds)
    tp = fp = fn = 0.0
    types = {t for t, _ in preds} | {t for t, _ in golds}
    for slot in types:
        pv = [v for t, v in preds if t == slot]
        gv = [v for t, v in golds if t == slot]
        if not pv or not gv:
            fp += len(pv)
            fn += len(gv)
            continue
        k = min(len(pv), len(gv))
        best = -1.0
        for p_sub in itertools.permutations(range(len(pv)), k):
            for g_sub in itertools.permutations(range(len(gv)), k):
                score = sum(oracle_overlap_f1(pv[i], gv[j], unit)
                            for i, j in zip(p_sub, g_sub))
                best = max(best, score)
        tp += best
        fp += len(pv) - best
        fn += len(gv) - best
    return tp, fp, fn


def oracle_f1(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


# ---------------------------------------------------------------------------
# WER
# ---------------------------------------------------------------------------

def test_wer_identity():
    assert wer("turn on the light", "turn on the light") == 0.0


def test_wer_single_substitution_over_four_words():
    assert wer("turn on the light", "turn off the light") == 0.25


def test_wer_single_deletion():
    assert wer("a", "") == 1.0


def test_wer_empty_reference():
    assert wer("", "anything here") == 2.0  # 2 insertions over max(1, 0)


def test_wer_can_exceed_one():
    assert wer("a", "b c d") > 1.0


def test_corpus_wer_pools_edits():
    assert corpus_wer(["a b", "c d"], ["a b", "c x"]) == 0.25


words = st.lists(st.sampled_from(["on", "off", "the", "light", "play"]), max_size=6)


@settings(max_examples=150, deadline=None)
@given(words, words)
def test_edit_distance_matches_recursive_oracle(a, b):
    assert edit_distance(a, b) == oracle_edit_distance(tuple(a), tuple(b))


@settings(max_examples=100, deadline=None)
@given(words, words)
def test_edit_distance_symmetry(a, b):
    assert edit_distance(a, b) == edit_distance(b, a)


@settings(max_examples=60, deadline=None)
@given(words, words, words)
def test_edit_distance_triangle_inequality(a, b, c):
    assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)


# ---------------------------------------------------------------------------
# intent accuracy / binary accuracy
# ---------------------------------------------------------------------------

def test_intent_accuracy_cases():
    assert intent_accuracy(["a", "b"], ["a", "b"]) == 1.0
    assert intent_accuracy(["a", "x", "b", "y"], ["a", "b", "b", "b"]) == 0.5
    assert intent_accuracy([None, None], ["a", "b"]) == 0.0
    with pytest.raises(ValueError, match="length"):
        intent_accuracy(["a"], ["a", "b"])


def test_binary_accuracy_cases():
    labels = [("yes", "no")] * 4
    assert binary_accuracy(["yes", "no"], ["yes", "no"], labels[:2]) == 1.0
    assert binary_accuracy(["no", "yes"], ["yes", "no"], labels[:2]) == 0.0
    assert binary_accuracy([None, "yes", None, "no"], ["yes", "yes", "no", "no"],
                           labels) == 0.5
    with pytest.raises(ValueError, match="outside"):
        binary_accuracy(["yes"], ["maybe"], labels[:1])
    # each gold is checked against its own pair (SST-2 and QQP in one manifest)
    mixed = [("positive", "negative"), ("yes", "no")]
    assert binary_accuracy(["positive", "yes"], ["positive", "no"], mixed) == 0.5
    with pytest.raises(ValueError, match="outside"):
        binary_accuracy(["yes", "yes"], ["yes", "yes"], mixed)
    with pytest.raises(ValueError, match="length"):
        binary_accuracy(["yes"], ["yes"], mixed)


# ---------------------------------------------------------------------------
# entity F1
# ---------------------------------------------------------------------------

def test_identical_sets_score_one_everywhere():
    gold = [[("date", "tomorrow"), ("time", "9 am")]]
    scores = slu_f1(gold, gold)
    for key in ("exact_f1", "word_f1", "char_f1", "slu_f1"):
        assert scores[key] == 1.0


def test_partial_overlap_hand_case():
    # (date, "tomorrow morning") vs (date, "tomorrow"): word overlap 2*1/(2+1)
    scores = slu_f1([[("date", "tomorrow morning")]], [[("date", "tomorrow")]])
    assert scores["exact_f1"] == 0.0
    assert scores["word_f1"] == pytest.approx(2 / 3)
    assert scores["counts"]["word"]["tp"] == pytest.approx(2 / 3)


def test_empty_predictions_score_zero():
    scores = slu_f1([[]], [[("date", "tomorrow")]])
    assert scores["exact_f1"] == 0.0
    assert scores["word_f1"] == 0.0
    assert scores["char_f1"] == 0.0


def test_none_prediction_counts_as_empty():
    scores = slu_f1([None], [[("date", "x")]])
    assert scores["slu_f1"] == 0.0


def test_empty_prediction_empty_gold_is_vacuous():
    scores = slu_f1([[]], [[]])
    assert scores["exact_f1"] == 0.0  # no mass anywhere: 0/0 -> 0


def test_normalization_applied_to_both_sides():
    scores = slu_f1([[("Date", "  Tomorrow. ")]], [[("date", "tomorrow")]])
    assert scores["exact_f1"] == 1.0


def test_type_confusion_gets_no_credit():
    scores = slu_f1([[("time", "tomorrow")]], [[("date", "tomorrow")]])
    assert scores["word_f1"] == 0.0


def test_f1_pools_counts_across_examples():
    # pooled: 1 TP, 0 FP, 3 FN -> P 1, R 0.25, F1 0.4 (a per-example mean would give 0.5)
    preds = [[("a", "x")], []]
    golds = [[("a", "x")], [("a", "y"), ("b", "z"), ("c", "w")]]
    scores = slu_f1(preds, golds)
    assert scores["exact_f1"] == pytest.approx(0.4)
    assert scores["counts"]["exact"] == {"tp": 1, "fp": 0, "fn": 3}


_slot = st.sampled_from(["date", "time", "place"])
_value = st.sampled_from(["tomorrow", "tomorrow morning", "nine", "nine am",
                          "the old town", "town"])
entity_sets = st.lists(st.tuples(_slot, _value), max_size=4)


@settings(max_examples=120, deadline=None)
@given(entity_sets, entity_sets)
def test_overlap_f1_matches_exhaustive_assignment_oracle(pred, gold):
    scores = slu_f1([pred], [gold])
    for unit in ("word", "char"):
        tp, fp, fn = oracle_counts(pred, gold, unit)
        assert scores[f"{unit}_f1"] == pytest.approx(oracle_f1(tp, fp, fn), abs=1e-12)


@settings(max_examples=120, deadline=None)
@given(entity_sets, entity_sets)
def test_exact_f1_matches_multiset_oracle(pred, gold):
    p = Counter(normalize_entities(pred))
    g = Counter(normalize_entities(gold))
    tp = sum(min(p[k], g[k]) for k in set(p) | set(g))
    expected = oracle_f1(tp, len(pred) - tp, len(gold) - tp)
    assert slu_f1([pred], [gold])["exact_f1"] == pytest.approx(expected, abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(entity_sets, entity_sets)
def test_partial_credit_only_adds(pred, gold):
    scores = slu_f1([pred], [gold])
    assert scores["exact_f1"] <= scores["word_f1"] + 1e-12
    assert scores["exact_f1"] <= scores["char_f1"] + 1e-12


# ---------------------------------------------------------------------------
# perfect parsing
# ---------------------------------------------------------------------------

def test_perfect_parsing_cases():
    # right intent, wrong slot value -> not perfect
    assert perfect_parsing(["set"], [[("d", "x")]], ["set"], [[("d", "y")]]) == 0.0
    # both exact -> perfect
    assert perfect_parsing(["set"], [[("d", "x")]], ["set"], [[("d", "x")]]) == 1.0
    # empty gold slots, none predicted, intent right -> perfect
    assert perfect_parsing(["set"], [[]], ["set"], [[]]) == 1.0
    # null intent -> wrong
    assert perfect_parsing([None], [[]], ["set"], [[]]) == 0.0
    # order-insensitive on the entity multiset
    assert perfect_parsing(
        ["a"], [[("x", "1"), ("y", "2")]], ["a"], [[("y", "2"), ("x", "1")]]) == 1.0


def test_normalize_value_rules():
    assert normalize_value("  The  OLD Town. ") == "the old town"
    assert normalize_value("'quoted'") == "quoted"
    assert normalize_value("") == ""
