"""Inference orchestration: strategy contracts and output parsing."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu.orchestrator import (infer, infer_manifest, parse_binary,
                                    parse_entities, parse_intent, parse_slu_output,
                                    predictions_to_jsonl, read_predictions,
                                    task_labels)
from speechslu.prompts import parse_scot_response

# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_intent_prose_wrapped():
    inventory = ["alarm_set", "alarm_remove"]
    assert parse_intent("The intent is alarm_set.", inventory) == "alarm_set"


def test_parse_intent_longest_match_wins():
    # "alarm" is a substring of the mention of "alarm_set"
    inventory = ["alarm", "alarm_set"]
    assert parse_intent("i think it is alarm_set", inventory) == "alarm_set"


def test_parse_intent_tie_breaks_by_inventory_order():
    inventory = ["abc_x", "abd_x"]
    assert parse_intent("both abc_x and abd_x appear", inventory) == "abc_x"


def test_parse_intent_case_insensitive():
    assert parse_intent("Intent: Alarm_Set", ["alarm_set"]) == "alarm_set"


def test_parse_intent_no_match_is_none():
    assert parse_intent("I cannot determine this", ["a", "b"]) is None


def test_parse_entities_single_quotes():
    out = parse_entities("{'date': 'tomorrow', 'time': '9 am'}")
    assert out == [("date", "tomorrow"), ("time", "9 am")]


def test_parse_entities_surrounding_prose_and_trailing_comma():
    out = parse_entities('Sure! Here you go: {"date": "tomorrow",} hope that helps')
    assert out == [("date", "tomorrow")]


def test_parse_entities_list_values_flatten():
    out = parse_entities('{"date": ["tomorrow", "today"]}')
    assert out == [("date", "tomorrow"), ("date", "today")]


def test_parse_entities_empty_object():
    assert parse_entities("{}") == []


def test_parse_entities_no_object_is_none():
    assert parse_entities("I cannot determine this") is None


def test_parse_entities_nesting_past_the_recursion_limit_is_none():
    text = '{"a": ' + "[" * 100000 + "]" * 100000 + "}"
    assert parse_entities(text) is None
    assert parse_slu_output(text, "SF") == {"intent": None, "entities": None,
                                            "binary": None}


def test_parse_binary_first_occurrence():
    assert parse_binary("no wait, yes", ("yes", "no")) == "no"
    assert parse_binary("positive vibes", ("positive", "negative")) == "positive"
    assert parse_binary("hmm", ("yes", "no")) is None


def test_parse_scot_response():
    transcript, answer = parse_scot_response("hello world\n---\nlights_on", "---")
    assert transcript == "hello world"
    assert answer == "lights_on"


def test_parse_scot_missing_delimiter():
    transcript, answer = parse_scot_response("just an answer", "---")
    assert transcript is None
    assert answer == "just an answer"


def test_parse_scot_example_with_intent_object():
    text = 'hello\n---\n{"intent": "greet"}'
    transcript, answer = parse_scot_response(text, "---")
    assert transcript == "hello"
    assert parse_intent(answer, ["greet", "other"]) == "greet"


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=120), st.sampled_from(["IC", "SF", "SA", "ASR", "SQA"]))
def test_parse_slu_output_total_on_any_string(text, task):
    out = parse_slu_output(text, task, labels=["a", "b"], binary_labels=("yes", "no"))
    assert set(out) == {"intent", "entities", "binary"}


# ---------------------------------------------------------------------------
# strategy contracts (tiny untrained model: outputs are noise, contracts hold)
# ---------------------------------------------------------------------------

def ic_infer(strategy, micro_corpus, tiny_model):
    record = micro_corpus["IC"][0]
    return record, infer(record, strategy, tiny_model, np.random.default_rng(0))


def test_alone_is_one_generation_with_null_transcript(tiny_model, micro_corpus):
    record, res = ic_infer("alone", micro_corpus, tiny_model)
    assert res.n_generations == 1
    assert res.transcript is None
    assert res.raw_text is not None


def test_scot_is_one_generation(tiny_model, micro_corpus):
    record, res = ic_infer("scot", micro_corpus, tiny_model)
    assert res.n_generations == 1
    assert len(res.round_prompts) == 1


def test_mr_is_two_generations(tiny_model, micro_corpus):
    record, res = ic_infer("mr", micro_corpus, tiny_model)
    assert res.n_generations == 2
    assert len(res.round_prompts) == 2


def test_mr_round2_prompt_contains_round1_transcript(tiny_model, micro_corpus):
    record, res = ic_infer("mr", micro_corpus, tiny_model)
    assert res.transcript is not None
    assert res.transcript in res.round_prompts[1]


def test_mr_conditioning_is_live_at_string_level(tiny_model):
    from speechslu.prompts import render_chat, strategy_turns

    a = render_chat(strategy_turns("mr", "classify", "transcribe", "hello world"),
                    tiny_model.vocab, tiny_model.prompt_cfg).text(tiny_model.vocab)
    b = render_chat(strategy_turns("mr", "classify", "transcribe", "hello brave world"),
                    tiny_model.vocab, tiny_model.prompt_cfg).text(tiny_model.vocab)
    assert a != b


def test_asr_task_fills_transcript(tiny_model, micro_corpus):
    record = micro_corpus["ASR"][0]
    res = infer(record, "alone", tiny_model, np.random.default_rng(0))
    assert res.transcript == res.raw_text.strip()


def test_binary_task_routes_instruction(tiny_model, micro_corpus):
    record = micro_corpus["SA"][0]
    res = infer(record, "alone", tiny_model, np.random.default_rng(0))
    assert res.n_generations == 1
    assert res.binary in (None, "positive", "negative")  # parsed against its own pair
    # the rendered prompt must carry the instruction with the splice bound
    assert "sentiment" in res.round_prompts[0]
    assert tiny_model.prompt_cfg.speech_placeholder in res.round_prompts[0]


def test_unparseable_output_yields_nulls_not_crash(tiny_model, micro_corpus):
    record, res = ic_infer("alone", micro_corpus, tiny_model)
    assert res.intent is None or res.intent in task_labels(record, None)


def test_infer_manifest_and_predictions_round_trip(tmp_path, tiny_model, micro_corpus):
    records = micro_corpus["IC"][:3]
    pairs = infer_manifest(records, tiny_model, "alone", seed=5)
    payload = predictions_to_jsonl(pairs, tiny_model.config_hash, "alone")
    path = tmp_path / "preds.jsonl"
    path.write_text(payload, encoding="utf-8")
    preds, meta = read_predictions(path)
    assert meta["config_hash"] == tiny_model.config_hash
    assert meta["strategy"] == "alone"
    assert [p["id"] for p in preds] == [r.id for r in records]
    assert all(p["n_generations"] == 1 for p in preds)


def test_predictions_record_generated_tokens_per_round(tiny_model, micro_corpus, monkeypatch):
    counts = []
    generate = tiny_model.decoder.generate_greedy

    def counting(*args):
        out = generate(*args)
        counts.append(len(out.ids))
        return out

    monkeypatch.setattr(tiny_model.decoder, "generate_greedy", counting)
    records = micro_corpus["IC"][:2]
    pairs = infer_manifest(records, tiny_model, "mr", seed=3)
    lines = predictions_to_jsonl(pairs, tiny_model.config_hash, "mr").splitlines()[1:]
    assert [json.loads(line)["generated_tokens"] for line in lines] == [counts[:2], counts[2:]]


def test_infer_manifest_deterministic_under_seed(tiny_model, micro_corpus):
    records = micro_corpus["SF"][:2]
    a = infer_manifest(records, tiny_model, "mr", seed=9)
    b = infer_manifest(records, tiny_model, "mr", seed=9)
    assert [r.raw_text for _, r in a] == [r.raw_text for _, r in b]
    assert [r.round_prompts for _, r in a] == [r.round_prompts for _, r in b]
