"""Prompt engine: rendering, banks, candidate sampling, SCoT/MR construction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu.config import PromptConfig
from speechslu.errors import TurnOrderError
from speechslu.prompts import (BANK_SIZE, DialogueTurn, PromptBank,
                               build_task_prompt, render_chat,
                               sample_candidate_labels, scot_target, strategy_turns)
from speechslu.tokenizer import build_vocabulary

CFG = PromptConfig()


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(["hi there", "turn on the light", "hello world",
                             "system user assistant"])


@pytest.fixture(scope="module")
def bank():
    return PromptBank.load()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

def test_minimal_user_turn_layout(vocab):
    r = render_chat([DialogueTurn("user", "hi")], vocab, CFG, add_generation_prompt=True)
    text = r.text(vocab)
    assert text == (f"{CFG.begin_text}{CFG.header_open}user{CFG.header_close}\n\n"
                    f"hi{CFG.end_turn}"
                    f"{CFG.header_open}assistant{CFG.header_close}\n\n")


def test_two_rounds_present_verbatim_in_order(vocab):
    turns = [DialogueTurn("user", "hello world"), DialogueTurn("assistant", "hi there"),
             DialogueTurn("user", "turn on the light")]
    text = render_chat(turns, vocab, CFG).text(vocab)
    a = text.find("hello world")
    b = text.find("hi there")
    c = text.find("turn on the light")
    assert -1 < a < b < c


def test_splice_marker_emits_exactly_one_placeholder(vocab):
    r = render_chat([DialogueTurn("user", "transcribe this", speech=True)], vocab, CFG)
    placeholder = vocab.special_id("speech_placeholder")
    assert sum(1 for i in r.ids if i == placeholder) == 1
    assert r.ids[r.splice_index] == placeholder


def test_sentinel_positions_the_splice(vocab):
    r = render_chat([DialogueTurn("user", "before [SPEECH] after", speech=True)],
                    vocab, CFG)
    text = r.text(vocab)
    assert f"before {CFG.speech_placeholder} after" in text


def test_speech_first_configuration(vocab):
    cfg = PromptConfig(speech_first=True)
    r = render_chat([DialogueTurn("user", "prompt text", speech=True)], vocab, cfg)
    text = r.text(vocab)
    assert text.find(cfg.speech_placeholder) < text.find("prompt text")


def test_malformed_turn_order_rejected(vocab):
    with pytest.raises(TurnOrderError):
        render_chat([DialogueTurn("assistant", "hi")], vocab, CFG)
    with pytest.raises(TurnOrderError):
        render_chat([DialogueTurn("user", "a"), DialogueTurn("user", "b")], vocab, CFG)
    with pytest.raises(TurnOrderError):
        render_chat([DialogueTurn("user", "a", speech=True),
                     DialogueTurn("assistant", "b", speech=True)], vocab, CFG)
    with pytest.raises(TurnOrderError):
        render_chat([DialogueTurn("user", "[SPEECH]", speech=True),
                     DialogueTurn("assistant", "ok"),
                     DialogueTurn("user", "[SPEECH]", speech=True)], vocab, CFG)


def test_history_render_is_strict_prefix_of_extension(vocab):
    history = [DialogueTurn("user", "hello world", speech=True)]
    pre = render_chat(history, vocab, CFG, add_generation_prompt=True)
    full = render_chat(history + [DialogueTurn("assistant", "hi there")], vocab, CFG)
    assert full.ids[:len(pre.ids)] == pre.ids
    assert len(full.ids) > len(pre.ids)


def test_assistant_spans_cover_content_and_end_turn(vocab):
    turns = [DialogueTurn("user", "hello"), DialogueTurn("assistant", "hi there")]
    r = render_chat(turns, vocab, CFG)
    role, start, end = r.spans[1]
    assert role == "assistant"
    assert vocab.detokenize(r.ids[start:end]) == "hi there" + CFG.end_turn


@settings(max_examples=100, deadline=None)
@given(st.lists(st.text(alphabet="ab c", min_size=1, max_size=8), min_size=1, max_size=4))
def test_rendering_injective_on_distinct_dialogues(vocab, texts):
    def as_dialogue(items):
        turns = []
        for i, t in enumerate(items):
            turns.append(DialogueTurn("user" if i % 2 == 0 else "assistant", t))
        return turns

    base = render_chat(as_dialogue(texts), vocab, CFG).ids
    altered = list(texts)
    altered[0] = altered[0] + "x"
    other = render_chat(as_dialogue(altered), vocab, CFG).ids
    assert base != other


# ---------------------------------------------------------------------------
# banks and candidate sampling
# ---------------------------------------------------------------------------

def test_banks_have_ten_templates_each(bank):
    for task in ("ASR", "IC", "SF"):
        assert len(bank.templates[task]) == BANK_SIZE


def test_bank_validation_rejects_bad_holes():
    good = PromptBank.load().templates
    broken = {k: list(v) for k, v in good.items()}
    broken["IC"][0] = "no hole here"
    with pytest.raises(ValueError, match="labels"):
        PromptBank(broken)
    short = {k: list(v) for k, v in good.items()}
    short["SF"] = short["SF"][:9]
    with pytest.raises(ValueError, match="9 templates"):
        PromptBank(short)


def test_candidate_sampling_always_contains_gold():
    rng = np.random.default_rng(0)
    inventory = [f"intent_{i}" for i in range(20)]
    for _ in range(10_000):
        labels = sample_candidate_labels(inventory, "intent_7", 2, rng)
        assert "intent_7" in labels
        assert len(labels) == len(set(labels))
        assert 2 <= len(labels) <= 20


def test_candidate_sampling_single_label_inventory():
    rng = np.random.default_rng(1)
    assert sample_candidate_labels(["only"], "only", 2, rng) == ["only"]


def test_candidate_sampling_multi_gold():
    rng = np.random.default_rng(2)
    inventory = ["a", "b", "c", "d"]
    for _ in range(200):
        labels = sample_candidate_labels(inventory, ["b", "d"], 2, rng)
        assert {"b", "d"} <= set(labels)


def test_candidate_sampling_rejects_unknown_gold():
    with pytest.raises(ValueError, match="not in inventory"):
        sample_candidate_labels(["a", "b"], "z", 2, np.random.default_rng(0))


def test_non_gold_inclusion_matches_combinatorial_expectation():
    # k ~ uniform[2, n]; a non-gold label appears with prob E[(k-1)/(n-1)]
    rng = np.random.default_rng(3)
    n = 10
    inventory = [f"l{i}" for i in range(n)]
    draws = 10_000
    expected = np.mean([(k - 1) / (n - 1) for k in range(2, n + 1)])
    counts = {label: 0 for label in inventory[1:]}
    for _ in range(draws):
        for label in sample_candidate_labels(inventory, "l0", 2, rng):
            if label != "l0":
                counts[label] += 1
    sigma = np.sqrt(expected * (1 - expected) / draws)
    for label, c in counts.items():
        assert abs(c / draws - expected) < 3 * sigma + 1e-9, f"{label}: {c / draws}"


def test_template_choice_deterministic_under_seed(bank):
    a = build_task_prompt("IC", ["x", "y"], bank, np.random.default_rng(42))
    b = build_task_prompt("IC", ["x", "y"], bank, np.random.default_rng(42))
    assert a == b


def test_all_templates_observed_in_draws(bank):
    # coupon collector: 1000 uniform draws over 10 templates
    for task in ("ASR", "IC", "SF"):
        rng = np.random.default_rng(5)
        seen = set()
        for _ in range(1000):
            prompt = build_task_prompt(task, ["a", "b"] if task != "ASR" else [], bank, rng)
            for idx, tpl in enumerate(bank.templates[task]):
                if tpl.replace("{labels}", "a, b") in prompt:
                    seen.add(idx)
        assert seen == set(range(BANK_SIZE)), f"{task}: saw {sorted(seen)}"


def test_ic_prompt_contains_comma_separated_labels(bank):
    prompt = build_task_prompt("IC", ["alarm_set", "alarm_remove"], bank,
                               np.random.default_rng(0))
    assert "alarm_set" in prompt and "alarm_remove" in prompt
    assert ", " in prompt


def test_sf_prompt_single_slot_and_format_clause(bank):
    prompt = build_task_prompt("SF", ["date"], bank, np.random.default_rng(1))
    assert "date" in prompt
    assert "JSON" in prompt


# ---------------------------------------------------------------------------
# SCoT and multi-round construction
# ---------------------------------------------------------------------------

def scot_prompt(asr_prompt, instruction, delimiter=CFG.scot_delimiter):
    (turn,) = strategy_turns("scot", instruction, asr_prompt, delimiter=delimiter)
    assert turn.role == "user" and turn.speech
    return turn.text


def mr_history(transcript, instruction, asr_prompt="Transcribe it."):
    return strategy_turns("mr", instruction, asr_prompt, transcript)


def test_scot_orders_asr_before_slu():
    out = scot_prompt("TRANSCRIBE-ME", "CLASSIFY-ME")
    assert out.index("TRANSCRIBE-ME") < out.index("CLASSIFY-ME")


def test_scot_has_exactly_one_delimiter_specification():
    out = scot_prompt("asr", "slu", delimiter="---")
    assert out.count("---") == 1


def test_scot_renders_to_single_turn_single_splice(vocab):
    user = scot_prompt("transcribe", "classify")
    r = render_chat([DialogueTurn("user", user, speech=True)], vocab, CFG)
    placeholder = vocab.special_id("speech_placeholder")
    assert sum(1 for i in r.ids if i == placeholder) == 1
    assert len(r.spans) == 1


def test_scot_rejects_empty_prompts():
    with pytest.raises(ValueError):
        scot_prompt("", "slu")
    with pytest.raises(ValueError):
        scot_prompt("asr", "")


def test_mr_needs_an_asr_prompt():
    for asr_prompt in (None, ""):
        with pytest.raises(ValueError, match="mr needs a non-empty ASR prompt"):
            strategy_turns("mr", "classify it", asr_prompt, "hello")


def test_scot_target_layout():
    assert scot_target("hello", "greet", "---") == "hello\n---\ngreet"
    assert scot_target("hello", "greet", "###") == "hello\n###\ngreet"


def test_mr_history_structure():
    turns = mr_history("hello world", "what is the intent?", "Transcribe it.")
    assert [t.role for t in turns] == ["user", "assistant", "user"]
    assert turns[0].speech and not turns[1].speech and not turns[2].speech
    assert turns[0].text == "Transcribe it."
    assert turns[1].text == "hello world"
    assert turns[2].text == "what is the intent?"


def test_mr_history_allows_empty_transcript():
    turns = mr_history("", "classify it")
    assert turns[1].text == ""


def test_mr_history_rebinds_speech_hole_in_task_prompt():
    # the audio is already spliced in round 1; a [SPEECH] hole in the task
    # prompt must not declare a second splice
    turns = mr_history("hello", "Classify the sentiment of [SPEECH].")
    assert "[SPEECH]" not in turns[2].text
    assert "the spoken input" in turns[2].text


def test_mr_render_prefix_property(vocab):
    history = mr_history("hello world", "hi there")
    pre = render_chat(history, vocab, CFG, add_generation_prompt=True)
    ext = render_chat(history + [DialogueTurn("assistant", "hello")], vocab, CFG)
    assert ext.ids[:len(pre.ids)] == pre.ids
