"""Command-line workflows: dispatch, exit codes, and the file formats the
subcommands exchange."""

import json

import pytest

from speechslu.cli import main
from speechslu.config import config_from_dict, load_config, save_config
from speechslu.datasets import (ManifestRecord, read_manifest, slu_glue_record,
                                write_manifest)
from speechslu.errors import ConfigError
from speechslu.experiments import micro_run_config


def test_unknown_flag_exits_2(capsys):
    assert main(["infer", "--nonsense"]) == 2


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_missing_manifest_is_config_error(tmp_path):
    assert main(["train", "--out", str(tmp_path)]) == 2


def test_prepare_data_micro(tmp_path):
    rc = main(["prepare-data", "--kind", "micro", "--out", str(tmp_path),
               "--counts", "IC=4,SF=3", "--seed", "3"])
    assert rc == 0
    ic, _ = read_manifest(tmp_path / "ic.jsonl")
    sf, _ = read_manifest(tmp_path / "sf.jsonl")
    assert len(ic) == 4 and len(sf) == 3
    assert all((tmp_path / r.audio).exists() for r in ic + sf)


_NOT_A_COUNT = "is not TASK=N"


@pytest.mark.parametrize("counts, message", [
    ("ic=3", _NOT_A_COUNT), ("IC=-2", _NOT_A_COUNT), ("IC", _NOT_A_COUNT),
    ("IC=x", _NOT_A_COUNT), ("SF=3", "names task SF twice"),
], ids=["ic=3", "IC=-2", "IC", "IC=x", "SF=3"])
def test_prepare_data_rejects_a_bad_count(tmp_path, capsys, counts, message):
    out = tmp_path / "data"
    assert main(["prepare-data", "--kind", "micro", "--out", str(out),
                 "--counts", f"SF=2,{counts}"]) == 2
    assert f"--counts: '{counts}' {message}" in capsys.readouterr().err
    assert not out.exists()


def test_prepare_data_slurp_zeroshot(tmp_path):
    records = []
    slots = [[("date", "noon")], [("artist_name", "echo")], [("time", "dawn")],
             [("podcast_name", "alpha")], [("audiobook_name", "bravo")],
             [("business_name", "delta")], [("radio_name", "golf")]]
    for i, ents in enumerate(slots):
        transcript = " and ".join(f"the {t} is {v}" for t, v in ents)
        records.append(ManifestRecord(id=f"r{i}", audio=f"synthetic:{transcript}",
                                      transcript=transcript, task="SF",
                                      annotation={"entities": ents}))
    src = tmp_path / "src.jsonl"
    write_manifest(src, records)
    rc = main(["prepare-data", "--kind", "slurp-zeroshot", "--manifest", str(src),
               "--out", str(tmp_path / "split")])
    assert rc == 0
    train_recs, _ = read_manifest(tmp_path / "split" / "train.jsonl")
    test_recs, _ = read_manifest(tmp_path / "split" / "test.jsonl")
    assert {r.id for r in train_recs} == {"r0", "r2"}
    assert len(test_recs) == 5


@pytest.mark.parametrize("kind, with_source, flags, message", [
    ("slurp-zeroshot", False, [], "no source rows given (flag --manifest)"),
    ("slurp-zeroshot", True, ["--heldout", "no_such_slot"],
     "held-out slot types never observed"),
    ("fsc", True, ["--counts", "IC=2"], "--kind fsc does not read --counts"),
    ("fsc", True, ["--heldout", "foo"], "--kind fsc does not read --heldout"),
    ("fsc", True, ["--seed", "3"], "--kind fsc does not read --seed"),
    ("slurp-zeroshot", True, ["--seed", "0"], "--kind slurp-zeroshot does not read --seed"),
    ("micro", False, ["--heldout", "foo"], "--kind micro does not read --heldout"),
    ("micro", True, [], "--kind micro does not read --manifest"),
], ids=["no-manifest", "unknown-heldout-slot", "fsc-counts", "fsc-heldout", "fsc-seed",
        "slurp-zeroshot-seed", "micro-heldout", "micro-manifest"])
def test_prepare_data_rejects_bad_arguments(tmp_path, capsys, kind, with_source, flags,
                                            message):
    src = tmp_path / "src.jsonl"
    write_manifest(src, [ManifestRecord(id="r0", audio="synthetic:the date is noon",
                                        transcript="the date is noon", task="SF",
                                        annotation={"entities": [("date", "noon")]})])
    source = ["--manifest", str(src)] if with_source else []
    out = tmp_path / "split"
    assert main(["prepare-data", "--kind", kind, "--out", str(out)] + source + flags) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def _write_rows(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")


def test_prepare_data_slu_glue_writes_one_manifest_per_subtask(tmp_path, capsys):
    src = tmp_path / "glue.jsonl"
    _write_rows(src, [
        {"id": "s0", "subtask": "SST-2", "text": "a lovely film", "label": "positive"},
        {"id": "s1", "subtask": "SST-2", "text": "a dull film", "label": "Negative"},
        {"id": "q0", "subtask": "QNLI", "text": "the sky is blue",
         "paired_text": "what colour is the sky", "label": "yes"}])
    out = tmp_path / "glue"
    assert main(["prepare-data", "--kind", "slu-glue", "--manifest", str(src),
                 "--out", str(out)]) == 0
    assert "SST-2 2/2790, QQP 0/3996, QNLI 1/2718" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == ["qnli.jsonl", "sst-2.jsonl"]
    sst2, _ = read_manifest(out / "sst-2.jsonl")
    qnli, _ = read_manifest(out / "qnli.jsonl")
    assert [(r.id, r.task, r.annotation["label"]) for r in sst2] == [
        ("s0", "SA", "positive"), ("s1", "SA", "negative")]
    assert qnli[0].task == "SER" and "what colour is the sky" in qnli[0].annotation["instruction"]


def test_prepare_data_fsc_relabels_rows(tmp_path):
    src = tmp_path / "fsc_rows.jsonl"
    _write_rows(src, [
        {"id": "f0", "action": "increase", "object": "heat", "location": "washroom",
         "transcription": "turn up the heat in the washroom"},
        {"id": "f1", "action": "change language", "object": "Korean", "location": "none",
         "transcription": "switch to korean", "audio": "wavs/f1.wav"}])
    assert main(["prepare-data", "--kind", "fsc", "--manifest", str(src),
                 "--out", str(tmp_path / "fsc")]) == 0
    records, _ = read_manifest(tmp_path / "fsc" / "fsc.jsonl")
    assert [(r.id, r.audio, r.annotation["intent"], r.annotation["entities"])
            for r in records] == [
        ("f0", "synthetic:turn up the heat in the washroom", "increase_heat",
         [["location", "washroom"]]),
        ("f1", "wavs/f1.wav", "change_language", [["language", "Korean"]])]


def test_prepare_data_spoken_alpaca_splits_and_logs_drops(tmp_path, capsys):
    src = tmp_path / "alpaca.jsonl"
    _write_rows(src, [
        {"id": "a0", "instruction": "Summarize this", "input": "a short story", "output": "x"},
        {"id": "a1", "instruction": "Name a colour", "input": "", "output": "red"},
        {"id": "a2", "instruction": "Compute 3 + 4", "output": "7"},
        {"id": "a3", "instruction": "Say hi", "output": ""}])
    out = tmp_path / "alpaca"
    assert main(["prepare-data", "--kind", "spoken-alpaca", "--manifest", str(src),
                 "--out", str(out)]) == 0
    assert ("1 SIT, 1 SQIT, 2 dropped, equation=1, missing-field=1"
            in capsys.readouterr().err)
    sit, _ = read_manifest(out / "sit.jsonl")
    sqit, _ = read_manifest(out / "sqit.jsonl")
    assert [(r.id, r.task) for r in sit + sqit] == [("a0", "SIT"), ("a1", "SQIT")]


_RECORD = {"id": "r1", "audio": "synthetic:the date is noon", "transcript": "the date is noon",
           "task": "SF", "annotation": {"entities": [["date", "noon"]]}}


@pytest.mark.parametrize("kind, row, message", [
    ("slu-glue", {"id": "x", "subtask": "STS-B", "text": "x", "label": "3.2"}, "STS-B"),
    ("slu-glue", {"id": "x", "subtask": "QQP", "text": "x", "label": "yes"}, "paired_text"),
    ("slu-glue", {"id": "g0", "subtask": "SST-2", "text": "x", "label": "no"},
     "duplicate row id 'g0' (first at line 1)"),
    ("fsc", {"id": "x", "action": "activate", "object": "volume", "location": "none",
             "transcription": "x"}, "unmapped FSC combination"),
    ("fsc", {"id": "x", "action": "activate", "object": "lights", "location": ["a"],
             "transcription": "x"}, "must be strings"),
    ("fsc", {"action": "activate", "object": "lights", "location": "none",
             "transcription": "x"}, "row has no id"),
    ("spoken-alpaca", {"id": "x", "instruction": 5, "output": "x"}, "must be strings"),
    ("spoken-alpaca", {"id": ["x"], "instruction": "hi", "output": "x"},
     "row id ['x'] is not a string"),
    # a manifest record (as train, infer and evaluate read it)
    ("slurp-zeroshot", {**_RECORD, "id": ["x"]}, "record id ['x'] is not a string"),
    ("slurp-zeroshot", {**_RECORD, "audio": 5}, "record field 'audio' must be a string"),
    ("slurp-zeroshot", {**_RECORD, "transcript": None},
     "record field 'transcript' must be a string"),
    ("slurp-zeroshot", {**_RECORD, "annotation": [["entities", []]]},
     "record annotation must be an object"),
    ("slurp-zeroshot", {**_RECORD, "task": "SA", "annotation": {
        "label": "positive", "binary_labels": ["positive", "negative"]}},
     "task SA requires annotation ['instruction']"),
    ("slurp-zeroshot", {**_RECORD, "task": "SA", "annotation": {
        "label": "maybe", "binary_labels": ["positive", "negative"], "instruction": "x"}},
     "label 'maybe' is not one of its two binary_labels"),
], ids=["stsb", "no-paired-text", "repeated-id", "unmapped-fsc", "fsc-list-location",
        "no-id", "alpaca-number", "list-id", "record-list-id", "record-number-audio",
        "record-null-transcript", "record-list-annotation", "record-sa-no-instruction",
        "record-label-outside-pair"])
def test_prepare_data_rejects_a_bad_source_row(tmp_path, capsys, kind, row, message):
    src = tmp_path / "rows.jsonl"
    # a first row every kind accepts
    _write_rows(src, [{**_RECORD, "id": "g0", "subtask": "SST-2", "text": "fine",
                       "label": "positive", "action": "activate", "object": "lights",
                       "location": "none", "transcription": "fine", "instruction": "hi",
                       "output": "x"}, row])
    out = tmp_path / "out"
    assert main(["prepare-data", "--kind", kind, "--manifest", str(src),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {src}:2: " in err and message in err
    assert not out.exists()


def test_config_file_round_trip(tmp_path):
    cfg = micro_run_config(seed=11)
    path = tmp_path / "run.json"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown config key: telemetry"):
        config_from_dict({"telemetry": True})
    with pytest.raises(ConfigError, match="decoder.pe_size"):
        config_from_dict({"decoder": {"pe_size": 1}})


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 8
    for name in ("gradient-check", "lora-linear-vjp", "causal-attention-vjp",
                 "lora-identity", "shape-law-3000-1500-375", "gelu-cube",
                 "attention-blocks", "kv-decode"):
        assert f"PASS {name} " in out
    assert "FAIL" not in out


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    """A short CLI train run over a generated micro corpus."""
    root = tmp_path_factory.mktemp("cli-run")
    data = root / "data"
    assert main(["prepare-data", "--kind", "micro", "--out", str(data),
                 "--counts", "IC=4,SF=3", "--seed", "5"]) == 0
    cfg = micro_run_config(seed=5)
    cfg_path = root / "run.json"
    save_config(cfg, cfg_path)
    run_dir = root / "run"
    assert main(["train", "--config", str(cfg_path),
                 "--manifest", str(data / "ic.jsonl"),
                 "--manifest", str(data / "sf.jsonl"),
                 "--out", str(run_dir), "--epochs", "2"]) == 0
    return root, data, run_dir


def test_train_writes_artifacts(trained_run):
    _, _, run_dir = trained_run
    assert (run_dir / "checkpoint.sslc").exists()
    assert (run_dir / "vocab.json").exists()
    assert (run_dir / "config.json").exists()
    trace = (run_dir / "loss_trace.csv").read_text()
    assert trace.startswith("# config_hash=")
    assert trace.splitlines()[1] == "step,task,config,loss,tokens,lr,grad_norm"


def test_checkpoint_parameter_namespaces(trained_run):
    from speechslu.checkpoint import load_checkpoint

    _, _, run_dir = trained_run
    params, _ = load_checkpoint(run_dir / "checkpoint.sslc")
    prefixes = {name.split(".")[0] for name in params}
    assert prefixes == {"encoder", "aligner", "decoder", "lora"}
    assert any(name.startswith("lora.layers.0.q.A") for name in params)


def test_model_save_writes_every_file_load_model_reads(tiny_model, tmp_path):
    from speechslu.model import load_model

    tiny_model.save(tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.sslc", "config.json",
                                                          "vocab.json"]
    assert load_model(tmp_path).config_hash == tiny_model.config_hash


def test_model_reload_reproduces_generation(trained_run):
    from speechslu.model import load_model
    from speechslu.orchestrator import infer_manifest

    _, data, run_dir = trained_run
    records, _ = read_manifest(data / "ic.jsonl")
    a = load_model(run_dir)
    b = load_model(run_dir)
    pa = infer_manifest(records[:2], a, "alone", seed=3, base_dir=data)
    pb = infer_manifest(records[:2], b, "alone", seed=3, base_dir=data)
    assert [r.raw_text for _, r in pa] == [r.raw_text for _, r in pb]


def test_infer_then_evaluate(trained_run, tmp_path, capsys):
    _, data, run_dir = trained_run
    preds = tmp_path / "preds.jsonl"
    assert main(["infer", "--run", str(run_dir), "--manifest", str(data / "ic.jsonl"),
                 "--strategy", "mr", "--out", str(preds)]) == 0
    lines = [json.loads(l) for l in preds.read_text().splitlines()]
    assert "_meta" in lines[0] and lines[0]["_meta"]["strategy"] == "mr"
    assert all(p["n_generations"] == 2 for p in lines[1:])

    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--task", "ic", "--pred", str(preds),
                 "--gold", str(data / "ic.jsonl"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    assert "intent_accuracy" in report
    assert report["config_hash"] == lines[0]["_meta"]["config_hash"]


def test_evaluate_sf_reports_all_f1_variants(trained_run, tmp_path):
    _, data, run_dir = trained_run
    preds = tmp_path / "sf_preds.jsonl"
    assert main(["infer", "--run", str(run_dir), "--manifest", str(data / "sf.jsonl"),
                 "--strategy", "scot", "--out", str(preds)]) == 0
    report_path = tmp_path / "sf_report.json"
    assert main(["evaluate", "--task", "sf", "--pred", str(preds),
                 "--gold", str(data / "sf.jsonl"), "--out", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    for key in ("exact_f1", "word_f1", "char_f1", "slu_f1"):
        assert key in report


def test_evaluate_from_files_needs_no_model(tmp_path):
    gold = [ManifestRecord(id="a", audio="synthetic:x", transcript="turn on the light",
                           task="IC", annotation={"intent": "lights_on"})]
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, gold)
    preds_path = tmp_path / "p.jsonl"
    preds_path.write_text(
        json.dumps({"_meta": {"strategy": "alone"}}) + "\n" +
        json.dumps({"id": "a", "task": "IC", "strategy": "alone", "intent": "lights_on",
                    "entities": None, "binary": None, "transcript": None,
                    "raw_text": "lights_on", "truncated": False, "n_generations": 1})
        + "\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--task", "ic", "--pred", str(preds_path),
                 "--gold", str(gold_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["intent_accuracy"] == 1.0


def test_infer_and_evaluate_failing_midway_keep_the_previous_files(trained_run, tmp_path,
                                                                    fail_writes):
    _, data, run_dir = trained_run
    preds, report = tmp_path / "preds.jsonl", tmp_path / "report.json"
    infer = ["infer", "--run", str(run_dir), "--manifest", str(data / "ic.jsonl"),
             "--strategy", "alone", "--out", str(preds)]
    evaluate = ["evaluate", "--task", "ic", "--pred", str(preds),
                "--gold", str(data / "ic.jsonl"), "--out", str(report)]
    assert main(infer) == 0 and main(evaluate) == 0
    written = preds.read_bytes(), report.read_bytes()
    fail_writes()
    assert main(infer) == 1 and main(evaluate) == 1
    assert (preds.read_bytes(), report.read_bytes()) == written
    assert sorted(p.name for p in tmp_path.iterdir()) == ["preds.jsonl", "report.json"]


def test_evaluate_reports_parse_failure_and_truncation_rates(tmp_path):
    annotation = {"intent": "alarm_set", "entities": [["time", "9 am"]],
                  "label": "yes", "binary_labels": ["yes", "no"]}
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, [ManifestRecord(id=rid, audio="synthetic:x",
                                              transcript="set an alarm", task="SF",
                                              annotation=annotation)
                               for rid in "abcd"])
    # id: (intent, entities, binary, truncated)
    fields = {"a": ("alarm_set", [["time", "9 am"]], "yes", False),
              "b": (None, [["time", "9 am"]], None, True),
              "c": ("alarm_set", None, None, False),
              "d": ("alarm_set", [], None, True)}
    preds_path = tmp_path / "p.jsonl"
    preds_path.write_text("".join(
        json.dumps({"id": rid, "task": "SF", "strategy": "alone", "intent": intent,
                    "entities": entities, "binary": binary, "transcript": None,
                    "raw_text": "", "truncated": truncated, "n_generations": 1}) + "\n"
        for rid, (intent, entities, binary, truncated) in fields.items()),
        encoding="utf-8")
    expected = {"ic": 0.25, "sf": 0.25, "pp": 0.5, "binary": 0.75, "asr": None}
    for task, parse_failure_rate in expected.items():
        report = tmp_path / f"{task}.json"
        assert main(["evaluate", "--task", task, "--pred", str(preds_path),
                     "--gold", str(gold_path), "--out", str(report)]) == 0
        out = json.loads(report.read_text())
        assert out.get("parse_failure_rate") == parse_failure_rate
        assert out["truncation_rate"] == 0.5


def test_evaluate_binary_scores_each_record_against_its_own_pair(tmp_path):
    # SLU-GLUE subtasks with different label pairs in one gold manifest
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, [
        slu_glue_record({"id": "s0", "subtask": "SST-2", "text": "a lovely film",
                         "label": "positive"}),
        slu_glue_record({"id": "q0", "subtask": "QQP", "text": "is it on",
                         "paired_text": "is it switched on", "label": "yes"})])
    preds_path = tmp_path / "p.jsonl"
    preds_path.write_text("".join(
        json.dumps({"id": rid, "task": "SA", "strategy": "alone", "binary": binary,
                    "truncated": False}) + "\n"
        for rid, binary in (("s0", "positive"), ("q0", "no"))), encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--task", "binary", "--pred", str(preds_path),
                 "--gold", str(gold_path), "--out", str(report)]) == 0
    assert json.loads(report.read_text())["binary_accuracy"] == 0.5


@pytest.mark.parametrize("line, message", [
    ('{"id": "a", "task": "IC", "intent": ', "malformed JSON"),
    ('["a", "IC"]', "expected a JSON object"),
    ('{"_meta": 3}', "expected a JSON object"),
    ('{"task": "IC", "intent": "lights_on"}', "prediction has no id"),
    ('{"id": ["x"], "task": "IC", "intent": "lights_on"}',
     "prediction id ['x'] is not a string"),
], ids=["malformed", "not-an-object", "meta-not-an-object", "no-id", "list-id"])
def test_evaluate_rejects_a_bad_prediction_line(tmp_path, capsys, line, message):
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, _ic_records(2))
    preds_path = tmp_path / "p.jsonl"
    good = json.dumps({"id": "ic-0", "task": "IC", "strategy": "alone", "intent": "lights_on"})
    preds_path.write_text(json.dumps({"_meta": {"strategy": "alone"}}) + "\n" + good + "\n"
                          + line + "\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--task", "ic", "--pred", str(preds_path),
                 "--gold", str(gold_path), "--out", str(report)]) == 2
    assert f"config error: {preds_path}:3: {message}" in capsys.readouterr().err
    assert not report.exists()


def test_evaluate_rejects_a_repeated_prediction_id(tmp_path, capsys):
    # scored twice, one correct prediction would read as 2 of 3 correct
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, _ic_records(2))
    preds_path = tmp_path / "p.jsonl"
    good = json.dumps({"id": "ic-0", "task": "IC", "strategy": "alone", "intent": "lights_on"})
    other = json.dumps({"id": "ic-1", "task": "IC", "strategy": "alone", "intent": "lights_off"})
    preds_path.write_text("\n".join([json.dumps({"_meta": {"strategy": "alone"}}), good,
                                     other, good]) + "\n", encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--task", "ic", "--pred", str(preds_path),
                 "--gold", str(gold_path), "--out", str(report)]) == 2
    assert (f"config error: {preds_path}:4: duplicate prediction id 'ic-0' (first at line 2)"
            in capsys.readouterr().err)
    assert not report.exists()


def _evaluate_one(tmp_path, task, gold):
    """`evaluate --task TASK` of one prediction for id `a` against the gold
    records `gold`; returns (exit code, gold path, report path)."""
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, gold)
    preds_path = tmp_path / "p.jsonl"
    preds_path.write_text(json.dumps({"id": "a", "task": gold[0].task, "intent": "on",
                                      "entities": [], "binary": "yes", "transcript": "on",
                                      "truncated": False}) + "\n", encoding="utf-8")
    report = tmp_path / "r.json"
    rc = main(["evaluate", "--task", task, "--pred", str(preds_path),
               "--gold", str(gold_path), "--out", str(report)])
    return rc, gold_path, report


def _gold(rid, task, **annotation):
    return ManifestRecord(id=rid, audio="synthetic:on", transcript="on", task=task,
                          annotation=annotation)


@pytest.mark.parametrize("task, gold, missing", [
    ("binary", _gold("a", "IC", intent="on"), ["label", "binary_labels"]),
    ("sf", _gold("a", "IC", intent="on"), ["entities"]),
    ("pp", _gold("a", "IC", intent="on"), ["entities"]),
    ("ic", _gold("a", "SF", entities=[["room", "on"]]), ["intent"]),
], ids=["binary-on-ic", "sf-on-ic", "pp-on-ic", "ic-on-sf"])
def test_evaluate_rejects_gold_that_lacks_what_its_task_reads(tmp_path, capsys, task, gold,
                                                              missing):
    rc, gold_path, report = _evaluate_one(tmp_path, task, [gold])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config error: {gold_path}:1: " in err
    assert f"evaluate --task {task} reads annotation {missing}" in err
    assert not report.exists()


def test_evaluate_checks_only_the_gold_records_predictions_name(tmp_path):
    # record b lacks the entities `pp` reads, but no prediction names it
    rc, _, report = _evaluate_one(tmp_path, "pp", [_gold("a", "IC", intent="on", entities=[]),
                                                   _gold("b", "IC", intent="off")])
    assert rc == 0
    out = json.loads(report.read_text())
    assert out["n_examples"] == 1 and out["perfect_parsing"] == 1.0


def test_train_inventory_holds_an_intent_its_labels_omit(tmp_path):
    # the IC inventory is every record's labels plus its own intent
    path = tmp_path / "ic.jsonl"
    write_manifest(path, [_gold("a", "IC", intent="on", labels=["off", "up"])])
    cfg_path = tmp_path / "run.json"
    save_config(micro_run_config(seed=5), cfg_path)
    assert main(["train", "--config", str(cfg_path), "--manifest", str(path),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 0


def _two_corpora(root, ids):
    """Manifests a/ic.jsonl and b/ic.jsonl with one IC record each; both
    records name the audio `mels/clip.mel`, which holds different features
    (4 and 3 words) in each directory."""
    from speechslu.audio import save_mel, synthesize_mel

    manifests = []
    for sub, rid, text in zip(("a", "b"), ids, ("turn on the light", "play some music")):
        (root / sub / "mels").mkdir(parents=True)
        save_mel(root / sub / "mels" / "clip.mel", synthesize_mel(text))
        record = ManifestRecord(id=rid, audio="mels/clip.mel", transcript=text, task="IC",
                                annotation={"intent": f"intent_{sub}"})
        write_manifest(root / sub / "ic.jsonl", [record])
        manifests.append(root / sub / "ic.jsonl")
    cfg_path = root / "run.json"
    save_config(micro_run_config(seed=5), cfg_path)
    return ["train", "--config", str(cfg_path), "--manifest", str(manifests[0]),
            "--manifest", str(manifests[1]), "--out", str(root / "run"), "--epochs", "2"]


def test_train_resolves_each_record_against_its_own_manifest(tmp_path, monkeypatch):
    from speechslu import audio

    loaded = []
    load_mel = audio.load_mel

    def spy(path):
        mel = load_mel(path)
        loaded.append((str(path), mel.frames.shape[1]))
        return mel

    monkeypatch.setattr(audio, "load_mel", spy)
    assert main(_two_corpora(tmp_path, ("a-0", "b-0"))) == 0
    assert set(loaded) == {(str(tmp_path / "a" / "mels" / "clip.mel"), 64),
                           (str(tmp_path / "b" / "mels" / "clip.mel"), 48)}


def test_train_rejects_a_record_id_in_two_manifests(tmp_path, capsys):
    assert main(_two_corpora(tmp_path, ("ic-0", "ic-0"))) == 2
    err = capsys.readouterr().err
    assert "ic-0" in err
    assert str(tmp_path / "a" / "ic.jsonl") in err and str(tmp_path / "b" / "ic.jsonl") in err
    assert not (tmp_path / "run").exists()


def _ic_records(n):
    return [ManifestRecord(id=f"ic-{i}", audio="synthetic:turn on the light",
                           transcript="turn on the light", task="IC",
                           annotation={"intent": "lights_on"}) for i in range(n)]


def test_train_rejects_a_manifest_repeating_an_id(tmp_path, capsys):
    records = _ic_records(3)
    path = tmp_path / "dup.jsonl"
    write_manifest(path, records + [records[1]])
    cfg_path = tmp_path / "run.json"
    save_config(micro_run_config(seed=5), cfg_path)
    assert main(["train", "--config", str(cfg_path), "--manifest", str(path),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"{path}:4: duplicate record id 'ic-1' (first at line 2)" in err
    assert not (tmp_path / "run").exists()


def test_infer_rejects_a_malformed_manifest_line(trained_run, tmp_path, capsys):
    _, _, run_dir = trained_run
    path = tmp_path / "broken.jsonl"
    write_manifest(path, _ic_records(4))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[2] = lines[2][:25]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["infer", "--run", str(run_dir), "--manifest", str(path),
                 "--strategy", "alone", "--out", str(tmp_path / "p.jsonl")]) == 2
    assert f"{path}:3: malformed JSON" in capsys.readouterr().err
    assert not (tmp_path / "p.jsonl").exists()


def test_infer_rejects_a_checkpoint_of_another_config(trained_run, tmp_path, capsys):
    import shutil

    from speechslu.checkpoint import load_checkpoint
    from speechslu.config import config_hash

    _, data, run_dir = trained_run
    edited = tmp_path / "run"
    shutil.copytree(run_dir, edited)
    cfg = load_config(edited / "config.json")
    cfg.lora.alpha *= 2
    save_config(cfg, edited / "config.json")
    _, saved_hash = load_checkpoint(edited / "checkpoint.sslc")
    assert main(["infer", "--run", str(edited), "--manifest", str(data / "ic.jsonl"),
                 "--strategy", "alone", "--out", str(tmp_path / "p.jsonl")]) == 2
    err = capsys.readouterr().err
    assert str(edited) in err and saved_hash in err and config_hash(cfg) in err
    assert not (tmp_path / "p.jsonl").exists()


@pytest.mark.parametrize("section,values,key", [
    ("train", {"batch_size": 0}, "train.batch_size"),
    ("encoder", {"n_heads": 3}, "encoder.n_heads"),
    ("decoder", {"n_heads": 3}, "decoder.n_heads"),
    ("decoder", {"n_heads": 0}, "decoder.n_heads"),
    ("decoder", {"max_positions": 0}, "decoder.max_positions"),
    ("infer", {"max_new_short": 0}, "infer.max_new_short"),
    ("infer", {"max_new_long": -1}, "infer.max_new_long"),
], ids=["batch-0", "enc-heads-3", "dec-heads-3", "dec-heads-0", "positions-0",
        "short-0", "long-neg"])
def test_train_rejects_a_config_value_out_of_range(tmp_path, capsys, section, values, key):
    path = tmp_path / "ic.jsonl"
    rows = [{"id": f"ic-{i}", "audio": "synthetic:lights on", "transcript": "lights on",
             "task": "IC", "annotation": {"intent": "lights_on"}} for i in range(2)]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({section: values}), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--manifest", str(path),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {cfg_path}: {key}: must be >= 1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("entities", ["room", [["room"]], [["room", 3]], [[1, "x"]]],
                         ids=["string", "one-element-pair", "number-value", "number-type"])
def test_train_rejects_entities_that_are_not_string_pairs(tmp_path, capsys, entities):
    path = tmp_path / "sf.jsonl"
    good = {"id": "sf-0", "audio": "synthetic:the room is kitchen",
            "transcript": "the room is kitchen", "task": "SF",
            "annotation": {"entities": [["room", "kitchen"]]}}
    bad = {**good, "id": "sf-1", "annotation": {"entities": entities}}
    path.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    cfg_path = tmp_path / "run.json"
    save_config(micro_run_config(seed=5), cfg_path)
    assert main(["train", "--config", str(cfg_path), "--manifest", str(path),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}:2: " in err and "[slot type, value] string pairs" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("entities", ["room", [["room"]], [["room", None]]],
                         ids=["string", "one-element-pair", "null-value"])
def test_evaluate_rejects_predicted_entities_that_are_not_string_pairs(tmp_path, capsys,
                                                                       entities):
    gold_path = tmp_path / "gold.jsonl"
    write_manifest(gold_path, [_gold("a", "SF", entities=[["room", "on"]]),
                               _gold("b", "SF", entities=[])])
    preds_path = tmp_path / "p.jsonl"
    preds_path.write_text("\n".join(json.dumps({"id": rid, "task": "SF", "entities": ents})
                                    for rid, ents in (("b", None), ("a", entities))) + "\n",
                          encoding="utf-8")
    report = tmp_path / "r.json"
    assert main(["evaluate", "--task", "sf", "--pred", str(preds_path),
                 "--gold", str(gold_path), "--out", str(report)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {preds_path}:2: " in err and "[slot type, value] string pairs" in err
    assert not report.exists()


@pytest.mark.parametrize("config, key", [
    ({"train": {"lr": "fast"}}, "train.lr: expected float"),
    ({"encoder": 5}, "encoder: section must be an object"),
    ({"encoder": {"conv_strides": [1]}}, "encoder.conv_strides: expected tuple[int, int]"),
    ({"train": {"task_weights": {"SF": "twice"}}}, "train.task_weights: expected"),
    ({"seed": True}, "seed: expected int"),
], ids=["lr-string", "section-number", "short-tuple", "weight-string", "seed-bool"])
def test_train_rejects_a_config_value_of_the_wrong_type(tmp_path, capsys, config, key):
    path = tmp_path / "ic.jsonl"
    write_manifest(path, _ic_records(2))
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["train", "--config", str(cfg_path), "--manifest", str(path),
                 "--out", str(tmp_path / "run"), "--epochs", "1"]) == 2
    captured = capsys.readouterr()
    assert f"config error: {cfg_path}: {key}" in captured.err
    assert "training on" not in captured.err
    assert not (tmp_path / "run").exists()


def test_config_loads_numbers_and_lists_as_before(tmp_path):
    # ints stay ints in float fields and lists become tuples, so the hash of
    # a config file is what it was
    from speechslu.config import config_hash

    path = tmp_path / "run.json"
    path.write_text(json.dumps({"train": {"lr": 1, "task_weights": {"SF": 2},
                                          "betas": [0.9, 0.95]},
                                "lora": {"targets": ["q", "v"]}, "prompts": {"bank_dir": None},
                                "manifests": ["a.jsonl"]}), encoding="utf-8")
    cfg = load_config(path)
    assert cfg.train.lr == 1 and isinstance(cfg.train.lr, int)
    assert cfg.train.betas == (0.9, 0.95) and cfg.lora.targets == ("q", "v")
    assert cfg.manifests == ["a.jsonl"]
    save_config(cfg, path)
    assert config_hash(load_config(path)) == config_hash(cfg)
