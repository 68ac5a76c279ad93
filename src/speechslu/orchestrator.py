"""End-to-end inference: strategy dispatch (single-shot, transcribe-then-
answer in one generation, or two dialogue rounds) and tolerant parsing of
model text into structured SLU fields."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .datasets import ManifestRecord, read_jsonl
from .prompts import (STRATEGIES, build_task_prompt, sample_candidate_labels,
                      strategy_turns)

# tasks whose answer gets the long generation budget
LONG_OUTPUT_TASKS = ("SF", "SQA", "SQIT", "SIT")


@dataclass
class TaskSpec:
    task: str                          # ASR | IC | SF | SQA | SQIT | SIT | SA | SER | STER
    strategy: str = "alone"
    labels: list[str] = field(default_factory=list)       # IC intents / SF slot types
    binary_labels: tuple[str, str] | None = None
    prompt_text: str | None = None     # explicit instruction (QA / binary / SIT tasks)
    gold: object = None                # gold label(s), used only to seed candidate lists

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")


@dataclass
class SluResult:
    task: str
    strategy: str
    transcript: str | None = None
    intent: str | None = None
    entities: list[tuple[str, str]] | None = None
    binary: str | None = None
    raw_text: str = ""
    truncated: bool = False
    n_generations: int = 0
    round_prompts: list[str] = field(default_factory=list)


# ---------------------------------------------------------------------------
# output parsing
# ---------------------------------------------------------------------------

def parse_intent(text: str, inventory: list[str]) -> str | None:
    """Longest case-insensitive inventory label found in the text.

    Labels must sit on word boundaries, so "alarm" never fires inside
    "alarm_set" or "alarming"; ties break by inventory order.
    """
    best = None
    for label in inventory:
        if not label:
            continue
        pattern = rf"(?<!\w){re.escape(label)}(?!\w)"
        if re.search(pattern, text, flags=re.IGNORECASE):
            if best is None or len(label) > len(best):
                best = label
    return best


def _balanced_braces(text: str) -> str | None:
    start = text.find("{")
    if start < 0:
        return None
    depth = 0
    for i in range(start, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return text[start:i + 1]
    return None


_PAIR_RE = re.compile(r"""['"]?([\w .-]+?)['"]?\s*:\s*['"]([^'"{}[\]]*)['"]""")


def parse_entities(text: str) -> list[tuple[str, str]] | None:
    """Tolerant JSON-ish object parse: single quotes, trailing commas, and
    surrounding prose are accepted. Returns None when nothing parses."""
    blob = _balanced_braces(text)
    if blob is None:
        return None
    candidates = [blob,
                  re.sub(r",\s*}", "}", blob.replace("'", '"')),
                  re.sub(r",\s*([}\]])", r"\1", blob)]
    for candidate in candidates:
        try:
            obj = json.loads(candidate)
        except (json.JSONDecodeError, ValueError, RecursionError):
            # RecursionError: nesting deeper than json's recursion limit
            continue
        if isinstance(obj, dict):
            out = []
            for k, v in obj.items():
                if isinstance(v, (list, tuple)):
                    out.extend((str(k), str(item)) for item in v)
                elif v is not None:
                    out.append((str(k), str(v)))
            return out
    pairs = _PAIR_RE.findall(blob)
    if pairs:
        return [(k.strip(), v) for k, v in pairs]
    return None


def parse_binary(text: str, labels: tuple[str, str]) -> str | None:
    """First occurrence of either class keyword wins."""
    low = text.lower()
    hits = [(low.find(label.lower()), label) for label in labels]
    hits = [(pos, label) for pos, label in hits if pos >= 0]
    if not hits:
        return None
    return min(hits)[1]


def parse_slu_output(text: str, task: str, labels=None,
                     binary_labels=None) -> dict:
    """Structured fields from raw model text; never raises."""
    out: dict = {"intent": None, "entities": None, "binary": None}
    if task == "IC":
        out["intent"] = parse_intent(text, list(labels or []))
    elif task == "SF":
        out["entities"] = parse_entities(text)
    elif task in ("SA", "SER", "STER"):
        out["binary"] = parse_binary(text, tuple(binary_labels or ("yes", "no")))
    return out


def parse_scot_response(text: str, delimiter: str = "---") -> tuple[str | None, str]:
    """Split a one-shot transcribe-then-answer response at the delimiter line."""
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if line.strip() == delimiter:
            return "\n".join(lines[:i]).strip(), "\n".join(lines[i + 1:]).strip()
    return None, text.strip()


# ---------------------------------------------------------------------------
# strategy execution
# ---------------------------------------------------------------------------

def task_instruction(spec: TaskSpec, model, rng) -> str:
    """The task-specific instruction, for inference and for training alike.

    IC/SF candidates always hold the gold label(s) when one is known;
    without one (an SF record with no entities, or a spec built without a
    gold label) the full inventory is listed, shuffled.
    """
    if spec.prompt_text is not None:
        return spec.prompt_text
    if spec.task in ("IC", "SF"):
        if spec.gold is not None:
            labels = sample_candidate_labels(spec.labels, spec.gold, model.prompt_cfg.k_min, rng)
        else:
            labels = list(spec.labels)
            rng.shuffle(labels)
        return build_task_prompt(spec.task, labels, model.bank, rng)
    if spec.task == "ASR":
        return build_task_prompt("ASR", [], model.bank, rng)
    raise ValueError(f"task {spec.task} needs an explicit prompt_text")


def infer(audio_ref: str, spec: TaskSpec, model, rng: np.random.Generator,
          base_dir=None) -> SluResult:
    """Run one example through the configured inference strategy.

    `alone` draws the task instruction only; `scot` and `mr` draw the ASR
    prompt, then the task instruction (`mr`'s round-1 transcription, which
    runs in between, draws nothing).
    """
    speech = model.embed_audio(audio_ref, base_dir).data
    result = SluResult(task=spec.task, strategy=spec.strategy)
    delim = model.prompt_cfg.scot_delimiter
    icfg = model.infer_cfg
    max_new = icfg.max_new_long if spec.task in LONG_OUTPUT_TASKS else icfg.max_new_short
    asr_prompt = (None if spec.strategy == "alone"
                  else build_task_prompt("ASR", [], model.bank, rng))
    instruction = task_instruction(spec, model, rng)
    if spec.strategy == "scot":
        max_new = icfg.max_new_long
    elif spec.strategy == "mr":  # round 1 transcribes, round 2 answers from the transcript
        transcript, result.truncated, rendered = model.generate(
            strategy_turns("alone", asr_prompt), speech, icfg.max_new_short)
        result.transcript = transcript.strip()
        result.round_prompts.append(rendered)
    turns = strategy_turns(spec.strategy, instruction, asr_prompt, result.transcript, delim)

    text, truncated, rendered = model.generate(turns, speech, max_new)
    result.raw_text = text
    result.truncated = result.truncated or truncated
    result.round_prompts.append(rendered)
    result.n_generations = len(result.round_prompts)
    if spec.strategy == "scot":
        result.transcript, text = parse_scot_response(text, delim)
    elif spec.strategy == "alone" and spec.task == "ASR":
        result.transcript = text.strip()

    parsed = parse_slu_output(text, spec.task,
                              labels=spec.labels, binary_labels=spec.binary_labels)
    result.intent = parsed["intent"]
    result.entities = parsed["entities"]
    result.binary = parsed["binary"]
    return result


# ---------------------------------------------------------------------------
# batch inference over a manifest
# ---------------------------------------------------------------------------

def _example_rng(seed: int, example_id: str) -> np.random.Generator:
    import hashlib

    digest = hashlib.sha256(f"{seed}:{example_id}".encode("utf-8")).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def spec_for_record(record: ManifestRecord, strategy: str,
                    inventories: dict[str, list[str]] | None = None) -> TaskSpec:
    ann = record.annotation
    inventories = inventories or {}
    if record.task == "IC":
        labels = list(inventories.get("IC") or ann.get("labels") or [ann["intent"]])
        return TaskSpec("IC", strategy, labels=labels, gold=ann["intent"])
    if record.task == "SF":
        gold_types = sorted({t for t, _ in ann["entities"]})
        labels = list(inventories.get("SF") or ann.get("labels") or gold_types)
        return TaskSpec("SF", strategy, labels=labels, gold=gold_types or None)
    if record.task == "ASR":
        return TaskSpec("ASR", strategy)
    if record.task in ("SA", "SER", "STER"):
        return TaskSpec(record.task, strategy,
                        binary_labels=tuple(ann["binary_labels"]),
                        prompt_text=ann["instruction"])
    if record.task == "SQA":
        return TaskSpec("SQA", strategy, prompt_text=ann["question"])
    if record.task == "SIT":
        return TaskSpec("SIT", strategy, prompt_text=ann["instruction"])
    if record.task == "SQIT":
        return TaskSpec("SQIT", strategy, prompt_text="")
    raise ValueError(f"no task spec for {record.task}")


def infer_manifest(records: list[ManifestRecord], model, strategy: str, seed: int,
                   base_dir=None,
                   inventories: dict[str, list[str]] | None = None
                   ) -> list[tuple[ManifestRecord, SluResult]]:
    if inventories is None:
        inventories = collect_inventories(records)
    out = []
    for record in records:
        spec = spec_for_record(record, strategy, inventories)
        rng = _example_rng(seed, record.id)
        out.append((record, infer(record.audio, spec, model, rng, base_dir=base_dir)))
    return out


def collect_inventories(records: list[ManifestRecord]) -> dict[str, list[str]]:
    intents, slots = set(), set()
    for r in records:
        if r.task == "IC":
            intents.update(r.annotation.get("labels") or [r.annotation["intent"]])
        if r.task == "SF":
            slots.update(r.annotation.get("labels") or [])
            slots |= r.slot_types()
    return {"IC": sorted(intents), "SF": sorted(slots)}


def predictions_to_jsonl(pairs: list[tuple[ManifestRecord, SluResult]],
                         config_hash: str, strategy: str) -> str:
    lines = [json.dumps({"_meta": {"config_hash": config_hash, "strategy": strategy,
                                   "n": len(pairs)}}, sort_keys=True)]
    for record, res in pairs:
        lines.append(json.dumps({
            "id": record.id, "task": res.task, "strategy": res.strategy,
            "transcript": res.transcript, "intent": res.intent,
            "entities": res.entities, "binary": res.binary,
            "raw_text": res.raw_text, "truncated": res.truncated,
            "n_generations": res.n_generations,
        }, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def read_predictions(path) -> tuple[list[dict], dict | None]:
    """Predictions and `_meta` of a predictions file (errors as `read_jsonl`)."""
    return read_jsonl(path, dict, "prediction")


def exact_entity_match(pred, gold) -> bool:
    from collections import Counter

    from .metrics import normalize_entities

    return Counter(normalize_entities(pred or [])) == Counter(normalize_entities(gold))
