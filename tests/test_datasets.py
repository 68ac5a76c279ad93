"""Dataset builders: split hygiene, relabeling, benchmark assembly, filters,
manifest round-trips, and the synthetic micro-corpus."""

import json
from importlib import resources

import numpy as np
import pytest

from speechslu.cli import main
from speechslu.datasets import (DEFAULT_HELDOUT_SLOTS, EXPECTED_SLU_GLUE_COUNTS,
                                ManifestRecord, MicroCorpusSpec, build_slurp_zeroshot,
                                fsc_record, generate_micro_corpus, read_manifest,
                                remap_fsc, slu_glue_record, spoken_alpaca_record,
                                write_manifest)
from speechslu.errors import MissingAnnotation


def sf_record(rid, entities):
    transcript = " and ".join(f"the {t} is {v}" for t, v in entities) or "nothing here"
    return ManifestRecord(id=rid, audio=f"synthetic:{transcript}",
                          transcript=transcript, task="SF",
                          annotation={"entities": entities})


# ---------------------------------------------------------------------------
# zero-shot split
# ---------------------------------------------------------------------------

def slurp_like_corpus():
    recs = [
        sf_record("r0", [("date", "tomorrow"), ("artist_name", "echo")]),
        sf_record("r1", [("date", "noon")]),
        sf_record("r2", [("podcast_name", "alpha")]),
        sf_record("r3", [("time", "nine"), ("place_name", "town")]),
        sf_record("r4", [("audiobook_name", "bravo"), ("time", "six")]),
        sf_record("r5", [("business_name", "delta")]),
        sf_record("r6", [("radio_name", "charlie"), ("date", "dusk")]),
        sf_record("r7", [("place_name", "office")]),
    ]
    return recs


def test_split_sends_heldout_mentions_to_test():
    train, test = build_slurp_zeroshot(slurp_like_corpus())
    assert {r.id for r in test} == {"r0", "r2", "r4", "r5", "r6"}
    assert {r.id for r in train} == {"r1", "r3", "r7"}


def test_split_train_never_mentions_heldout_types():
    train, _ = build_slurp_zeroshot(slurp_like_corpus())
    held = set(DEFAULT_HELDOUT_SLOTS)
    for r in train:
        assert not (r.slot_types() & held)


def test_split_rejects_unknown_heldout_type():
    with pytest.raises(ValueError, match="never observed"):
        build_slurp_zeroshot(slurp_like_corpus(), ("no_such_slot",))


# ---------------------------------------------------------------------------
# FSC relabeling
# ---------------------------------------------------------------------------

def fsc_inventory():
    """(intents, slot types) of the packaged FSC relabeling map."""
    fsc_map = json.loads((resources.files("speechslu.data") / "fsc_intent_map.json")
                         .read_text("utf-8"))
    return sorted(set(fsc_map["intents"].values())), list(fsc_map["slot_types"])


def test_fsc_inventory_sizes():
    intents, slots = fsc_inventory()
    assert len(intents) == 15
    assert len(slots) == 2


def test_fsc_activate_lights_with_location():
    intent, entities = remap_fsc(
        {"action": "activate", "object": "lights", "location": "kitchen"})
    assert intent == "activate_lights"
    assert entities == [("location", "kitchen")]


def test_fsc_no_location_yields_no_slot():
    intent, entities = remap_fsc(
        {"action": "deactivate", "object": "lights", "location": "none"})
    assert intent == "deactivate_lights"
    assert entities == []


def test_fsc_language_slot():
    intent, entities = remap_fsc(
        {"action": "change language", "object": "Korean", "location": "none"})
    assert intent == "change_language"
    assert entities == [("language", "Korean")]


def test_fsc_unmapped_combination_names_triple():
    with pytest.raises(ValueError, match=r"\(activate, volume, none\)"):
        remap_fsc({"action": "activate", "object": "volume", "location": "none"})


def test_fsc_missing_field():
    with pytest.raises(MissingAnnotation):
        remap_fsc({"action": "activate", "object": "lights"})


def test_build_fsc_emits_bounded_inventories():
    rows = [
        {"id": "f0", "action": "activate", "object": "music", "location": "none",
         "transcription": "play the music"},
        {"id": "f1", "action": "increase", "object": "heat", "location": "washroom",
         "transcription": "turn up the heat in the washroom"},
        {"id": "f2", "action": "bring", "object": "shoes", "location": "none",
         "transcription": "fetch my shoes"},
    ]
    records = [fsc_record(row) for row in rows]
    intents_all, slots_all = fsc_inventory()
    for r in records:
        assert r.task == "IC"
        assert r.annotation["intent"] in intents_all
        assert all(t in slots_all for t, _ in r.annotation["entities"])


# ---------------------------------------------------------------------------
# task-agnostic binary benchmark
# ---------------------------------------------------------------------------

def test_slu_glue_sst2_row():
    r = slu_glue_record({"id": "s0", "subtask": "SST-2", "text": "a lovely film",
                         "label": "positive"})
    assert r.task == "SA"
    assert "[SPEECH]" in r.annotation["instruction"]
    assert "[TEXT]" not in r.annotation["instruction"]
    assert r.annotation["binary_labels"] == ["positive", "negative"]


def test_slu_glue_qnli_binds_paired_text():
    r = slu_glue_record({
        "id": "q0", "subtask": "QNLI", "text": "the sky is blue",
        "paired_text": "what colour is the sky", "label": "yes"})
    assert r.task == "SER"
    assert "what colour is the sky" in r.annotation["instruction"]
    assert "[TEXT]" not in r.annotation["instruction"]


def test_slu_glue_groups_subtasks_by_task():
    rows = [
        {"id": "g0", "subtask": "QQP", "text": "a", "paired_text": "b", "label": "no"},
        {"id": "g1", "subtask": "RTE", "text": "c", "paired_text": "d", "label": "yes"},
        {"id": "g2", "subtask": "SciTail", "text": "e", "paired_text": "f", "label": "no"},
    ]
    tasks = [slu_glue_record(row).task for row in rows]
    assert tasks == ["SER", "STER", "STER"]


def test_slu_glue_rejects_stsb():
    with pytest.raises(ValueError, match="STS-B"):
        slu_glue_record({"id": "x", "subtask": "STS-B", "text": "x", "label": "3.2"})


def test_slu_glue_count_report_matches_full_source(tmp_path, capsys):
    rows = []
    for sub, n in EXPECTED_SLU_GLUE_COUNTS.items():
        needs_text = sub != "SST-2"
        labels = ("positive", "negative") if sub == "SST-2" else ("yes", "no")
        for i in range(n):
            row = {"id": f"{sub}-{i}", "subtask": sub, "text": f"utterance {i}",
                   "label": labels[i % 2]}
            if needs_text:
                row["paired_text"] = f"paired {i}"
            rows.append(row)
    src = tmp_path / "glue.jsonl"
    src.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    assert main(["prepare-data", "--kind", "slu-glue", "--manifest", str(src),
                 "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err
    for sub, n in EXPECTED_SLU_GLUE_COUNTS.items():
        assert f"{sub} {n}/{n}" in err
        assert len(read_manifest(tmp_path / "out" / f"{sub.lower()}.jsonl")[0]) == n


# ---------------------------------------------------------------------------
# spoken instruction tuning
# ---------------------------------------------------------------------------

def test_alpaca_with_input_becomes_sit():
    r = spoken_alpaca_record({"id": "a0", "instruction": "Summarize the following",
                              "input": "a short paragraph", "output": "summary"})
    assert r.task == "SIT"
    assert r.transcript == "a short paragraph"          # the input is spoken
    assert r.annotation["instruction"] == "Summarize the following"


def test_alpaca_without_input_becomes_sqit():
    r = spoken_alpaca_record({"id": "a0", "instruction": "Name three primary colors",
                              "output": "red, blue, yellow"})
    assert r.task == "SQIT"
    assert r.transcript == "Name three primary colors"  # the instruction is spoken
    assert "instruction" not in r.annotation


def test_alpaca_equation_filtered():
    assert spoken_alpaca_record({"id": "a0", "instruction": "Simplify \\frac{a}{b} please",
                                 "output": "done"}) == "equation"


def test_alpaca_length_filtered():
    row = {"id": "a0", "instruction": "Summarize", "output": "x"}
    assert spoken_alpaca_record({**row, "input": " ".join(["word"] * 61)}) == "length"
    assert spoken_alpaca_record({**row, "input": " ".join(["word"] * 60)}).task == "SIT"


def test_alpaca_table_filtered():
    table = "name | age | city\nann | 3 | rome\nbob | 4 | oslo"
    assert spoken_alpaca_record({"id": "a0", "instruction": "Read this", "input": table,
                                 "output": "x"}) == "table"


def test_alpaca_plain_arithmetic_filtered():
    assert spoken_alpaca_record({"id": "a0", "instruction": "Compute 3 + 4 for me",
                                 "output": "7"}) == "equation"


# ---------------------------------------------------------------------------
# manifests
# ---------------------------------------------------------------------------

def test_manifest_round_trip_byte_identical(tmp_path):
    records = slurp_like_corpus()
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    write_manifest(p1, records, meta={"source": "synthetic", "version": 1})
    loaded, meta = read_manifest(p1)
    write_manifest(p2, loaded, meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "dup.jsonl"
    write_manifest(path, [sf_record("same", [("date", "x")]),
                          sf_record("same", [("date", "y")])])
    with pytest.raises(ValueError, match="duplicate"):
        read_manifest(path)


def test_record_validates_required_annotation():
    with pytest.raises(MissingAnnotation):
        ManifestRecord(id="x", audio="synthetic:hi", transcript="hi", task="IC",
                       annotation={})
    with pytest.raises(ValueError, match="task"):
        ManifestRecord(id="x", audio="synthetic:hi", transcript="hi", task="OCR",
                       annotation={})


# ---------------------------------------------------------------------------
# micro corpus
# ---------------------------------------------------------------------------

def test_micro_corpus_counts_and_inventories():
    spec = MicroCorpusSpec(counts={"IC": 10, "SF": 8, "ASR": 5})
    corpus = generate_micro_corpus(spec, np.random.default_rng(0))
    assert len(corpus["IC"]) == 10
    assert len(corpus["SF"]) == 8
    assert len(corpus["ASR"]) == 5
    for r in corpus["IC"]:
        assert r.annotation["intent"] in spec.intents


def test_micro_corpus_deterministic():
    spec = MicroCorpusSpec(counts={"IC": 6, "SF": 6, "SQA": 3, "SA": 3})
    a = generate_micro_corpus(spec, np.random.default_rng(7))
    b = generate_micro_corpus(spec, np.random.default_rng(7))
    for task in a:
        assert [r.to_dict() for r in a[task]] == [r.to_dict() for r in b[task]]


def test_micro_corpus_sf_values_are_substrings_of_transcript():
    spec = MicroCorpusSpec(counts={"SF": 25})
    corpus = generate_micro_corpus(spec, np.random.default_rng(3))
    for r in corpus["SF"]:
        for _, value in r.annotation["entities"]:
            assert value in r.transcript


def test_micro_corpus_writes_manifests_and_mels(tmp_path):
    spec = MicroCorpusSpec(counts={"IC": 3, "ASR": 2})
    generate_micro_corpus(spec, np.random.default_rng(1), out_dir=tmp_path)
    ic, _ = read_manifest(tmp_path / "ic.jsonl")
    assert len(ic) == 3
    for r in ic:
        assert (tmp_path / r.audio).exists()


def test_micro_corpus_supports_slurp_like_slots():
    spec = MicroCorpusSpec(counts={"SF": 40},
                           sf_slots=DEFAULT_HELDOUT_SLOTS + ("date", "time"))
    corpus = generate_micro_corpus(spec, np.random.default_rng(5))
    seen = set()
    for r in corpus["SF"]:
        seen |= r.slot_types()
    assert set(DEFAULT_HELDOUT_SLOTS) <= seen
