"""Prompt construction: chat-template rendering, per-task prompt banks,
candidate-label sampling, the strategy dialogues and SCoT's answer layout."""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .config import PromptConfig
from .errors import TurnOrderError
from .tokenizer import Vocabulary

SPEECH_SENTINEL = "[SPEECH]"

SF_FORMAT_CLAUSE = ("Respond with a JSON object mapping each detected slot "
                    "type to its value.")

BANK_TASKS = ("ASR", "IC", "SF")
BANK_SIZE = 10

# inference strategies, and the dialogue shapes a training example takes
STRATEGIES = ("alone", "scot", "mr")


@dataclass
class DialogueTurn:
    role: str                 # system | user | assistant
    text: str = ""
    speech: bool = False      # splice speech embeddings into this turn


@dataclass
class RenderedDialogue:
    ids: list[int]
    splice_index: int | None          # position of the single placeholder token
    # (role, content_start, content_end) with content_end just past the
    # turn's end-of-turn token; generation prompts add no span
    spans: list[tuple[str, int, int]] = field(default_factory=list)

    def text(self, vocab: Vocabulary) -> str:
        return vocab.detokenize(self.ids)


def _validate_turns(turns: list[DialogueTurn]) -> None:
    if not turns:
        raise TurnOrderError("dialogue has no turns")
    roles = [t.role for t in turns]
    for r in roles:
        if r not in ("system", "user", "assistant"):
            raise TurnOrderError(f"unknown role {r!r}")
    start = 1 if roles[0] == "system" else 0
    if "system" in roles[start:]:
        raise TurnOrderError("system turn only allowed first")
    expected = "user"
    for r in roles[start:]:
        if r != expected:
            raise TurnOrderError(f"expected {expected} turn, got {r}")
        expected = "assistant" if expected == "user" else "user"
    splices = sum(1 for t in turns if t.speech or SPEECH_SENTINEL in t.text)
    if splices > 1:
        raise TurnOrderError("at most one speech splice per dialogue")
    for t in turns:
        if t.role == "assistant" and (t.speech or SPEECH_SENTINEL in t.text):
            raise TurnOrderError("assistant turns cannot carry a speech splice")


def render_chat(turns: list[DialogueTurn], vocab: Vocabulary, cfg: PromptConfig,
                add_generation_prompt: bool = False) -> RenderedDialogue:
    """Token ids for a dialogue under the configured chat template.

    Template pieces are tokenized segment-by-segment (never across
    segment boundaries), which makes rendering deterministic and keeps
    any rendered history a strict prefix of its extensions.
    """
    _validate_turns(turns)
    ids: list[int] = [vocab.special_id("begin_text")]
    splice_index: int | None = None
    spans: list[tuple[str, int, int]] = []

    def emit_header(role: str) -> None:
        ids.append(vocab.special_id("header_open"))
        ids.extend(vocab.tokenize(role))
        ids.append(vocab.special_id("header_close"))
        ids.extend(vocab.tokenize("\n\n"))

    for turn in turns:
        emit_header(turn.role)
        content_start = len(ids)
        text = turn.text
        has_sentinel = turn.speech and SPEECH_SENTINEL in text
        if has_sentinel:
            pre, post = text.split(SPEECH_SENTINEL, 1)
            ids.extend(vocab.tokenize(pre))
            splice_index = len(ids)
            ids.append(vocab.special_id("speech_placeholder"))
            ids.extend(vocab.tokenize(post))
        elif turn.speech:
            if cfg.speech_first:
                splice_index = len(ids)
                ids.append(vocab.special_id("speech_placeholder"))
                if text:
                    ids.extend(vocab.tokenize("\n" + text))
            else:
                if text:
                    ids.extend(vocab.tokenize(text + "\n"))
                splice_index = len(ids)
                ids.append(vocab.special_id("speech_placeholder"))
        else:
            ids.extend(vocab.tokenize(text))
        ids.append(vocab.special_id("end_turn"))
        spans.append((turn.role, content_start, len(ids)))

    if add_generation_prompt:
        emit_header("assistant")
    return RenderedDialogue(ids=ids, splice_index=splice_index, spans=spans)


# ---------------------------------------------------------------------------
# prompt banks
# ---------------------------------------------------------------------------

class PromptBank:
    """Exactly ten templates per task; IC/SF templates carry one {labels} hole."""

    def __init__(self, templates: dict[str, list[str]]):
        for task in BANK_TASKS:
            bank = templates.get(task, [])
            if len(bank) != BANK_SIZE:
                raise ValueError(f"{task} bank has {len(bank)} templates, need {BANK_SIZE}")
            for tpl in bank:
                if not tpl.strip():
                    raise ValueError(f"{task} bank contains an empty template")
                holes = tpl.count("{labels}")
                want = 0 if task == "ASR" else 1
                if holes != want:
                    raise ValueError(
                        f"{task} template needs {want} {{labels}} hole(s), got {holes}: {tpl!r}")
        self.templates = {task: list(templates[task]) for task in BANK_TASKS}

    @classmethod
    def load(cls, bank_dir=None) -> "PromptBank":
        templates = {}
        for task in BANK_TASKS:
            name = f"{task.lower()}.txt"
            if bank_dir is not None:
                text = (Path(bank_dir) / name).read_text(encoding="utf-8")
            else:
                text = (resources.files("speechslu.data.prompt_banks") / name).read_text(
                    encoding="utf-8")
            templates[task] = [line for line in text.splitlines() if line.strip()]
        return cls(templates)


def sample_candidate_labels(inventory: list[str], gold, k_min: int,
                            rng: np.random.Generator) -> list[str]:
    """Shuffled label subset of varying size that always contains the gold(s)."""
    golds = [gold] if isinstance(gold, str) else list(dict.fromkeys(gold))
    missing = [g for g in golds if g not in inventory]
    if missing:
        raise ValueError(f"gold label(s) not in inventory: {missing}")
    n = len(inventory)
    lo = min(max(k_min, 1), n)
    k = int(rng.integers(lo, n + 1))
    k = max(k, len(golds))
    others = [label for label in inventory if label not in golds]
    extra = list(rng.choice(len(others), size=k - len(golds), replace=False)) if others else []
    chosen = golds + [others[i] for i in extra]
    rng.shuffle(chosen)
    return chosen


def build_task_prompt(task: str, labels: list[str], bank: PromptBank,
                      rng: np.random.Generator) -> str:
    if task not in BANK_TASKS:
        raise ValueError(f"no prompt bank for task {task}")
    templates = bank.templates[task]
    tpl = templates[int(rng.integers(0, len(templates)))]
    if task == "ASR":
        return tpl
    if not labels:
        raise ValueError(f"{task} prompt needs a non-empty label list")
    prompt = tpl.replace("{labels}", ", ".join(labels))
    if task == "SF":
        prompt = f"{prompt} {SF_FORMAT_CLAUSE}"
    return prompt


def strategy_turns(strategy: str, instruction: str, asr_prompt: str | None = None,
                   transcript: str | None = None,
                   delimiter: str | None = None) -> list[DialogueTurn]:
    """The turns before the answer in a strategy's dialogue, for inference and
    training alike. `scot` and `mr` need the ASR prompt, `scot` the delimiter
    and `mr` round 1's transcript (round 1 is `asr_prompt` under `alone`)."""
    if strategy == "alone":
        return [DialogueTurn("user", instruction, speech=True)]
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    if not asr_prompt:
        raise ValueError(f"{strategy} needs a non-empty ASR prompt")
    if strategy == "scot":  # one prompt: transcribe first, then the task, one response
        if not instruction or delimiter is None:
            raise ValueError("scot needs a non-empty task instruction and delimiter")
        return [DialogueTurn("user", f"First: {asr_prompt}\nThen: {instruction}\nAnswer "
                             f"with the transcript, a line \"{delimiter}\", then the answer.",
                             speech=True)]
    # the speech lives in round 1, so a [SPEECH] hole in the task instruction
    # is re-bound to a plain reference instead of a second splice
    return [DialogueTurn("user", asr_prompt, speech=True),
            DialogueTurn("assistant", transcript),
            DialogueTurn("user", instruction.replace(SPEECH_SENTINEL, "the spoken input"))]


def scot_target(transcript: str, answer: str, delimiter: str) -> str:
    """A `scot` answer: the transcript, a delimiter line, then the task answer."""
    return f"{transcript}\n{delimiter}\n{answer}"


def parse_scot_response(text: str, delimiter: str) -> tuple[str | None, str]:
    """Split a `scot` response (`scot_target`'s layout) at its first
    delimiter line; with none, the transcript is None and all of it the answer."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.strip() == delimiter:
            return "\n".join(lines[:i]).strip(), "\n".join(lines[i + 1:]).strip()
    return None, text.strip()
