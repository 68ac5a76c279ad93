"""End-to-end inference: strategy dispatch (single-shot, transcribe-then-
answer in one generation, or two dialogue rounds) and tolerant parsing of
model text into structured SLU fields."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .datasets import TASKS, ManifestRecord, check_entities, read_jsonl
from .prompts import (BANK_TASKS, STRATEGIES, build_task_prompt, parse_scot_response,
                      sample_candidate_labels, strategy_turns)


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
    generated_tokens: list[int] = field(default_factory=list)  # per round


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
    """Structured fields from raw model text, filled in the field the task's
    answer parses into (`datasets.TASKS`); never raises."""
    out: dict = {"intent": None, "entities": None, "binary": None}
    field_name = TASKS[task].parsed
    if field_name == "intent":
        out["intent"] = parse_intent(text, list(labels or []))
    elif field_name == "entities":
        out["entities"] = parse_entities(text)
    elif field_name == "binary":
        out["binary"] = parse_binary(text, tuple(binary_labels or ("yes", "no")))
    return out


# ---------------------------------------------------------------------------
# strategy execution
# ---------------------------------------------------------------------------

def _gold_labels(record: ManifestRecord) -> list[str] | None:
    """An IC record's intent, an SF record's slot types, else None."""
    if record.task == "IC":
        return [record.annotation["intent"]]
    if record.task == "SF":
        return sorted(record.slot_types())
    return None


def task_labels(record: ManifestRecord, inventories: dict[str, list[str]] | None) -> list[str]:
    """The labels an IC/SF record is prompted from and an IC answer parsed against: the
    run's inventory for the task, else the record's `labels`, else its gold; else []."""
    gold = _gold_labels(record)
    if gold is None:
        return []
    return list((inventories or {}).get(record.task) or record.annotation.get("labels") or gold)


def task_instruction(record: ManifestRecord, inventories: dict[str, list[str]] | None,
                     model, rng) -> str:
    """A record's task instruction, for inference and for training alike:
    the annotation its task names, else a draw from the task's prompt bank,
    else none (SQIT: the spoken query is the instruction). IC/SF candidates
    always hold the gold label(s); an SF record with no entities lists the
    whole inventory, shuffled."""
    key = TASKS[record.task].prompt
    if key is not None:
        return record.annotation[key]
    if record.task not in BANK_TASKS:
        return ""
    labels = task_labels(record, inventories)
    gold = _gold_labels(record)
    if gold:
        labels = sample_candidate_labels(labels, gold, model.prompt_cfg.k_min, rng)
    else:
        rng.shuffle(labels)
    return build_task_prompt(record.task, labels, model.bank, rng)


def infer(record: ManifestRecord, strategy: str, model, rng: np.random.Generator,
          inventories: dict[str, list[str]] | None = None, base_dir=None) -> SluResult:
    """Run one record through an inference strategy. A plain task runs
    `alone` under any strategy: it is the one dialogue it is trained in.

    `alone` draws the task instruction only; `scot` and `mr` draw the ASR
    prompt, then the task instruction (`mr`'s round-1 transcription, which
    runs in between, draws nothing).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    kind = TASKS[record.task]
    strategy = "alone" if kind.plain else strategy
    speech = model.speech_rows(record.audio, base_dir)
    result = SluResult(task=record.task, strategy=strategy)
    delim = model.prompt_cfg.scot_delimiter
    icfg = model.infer_cfg
    max_new = icfg.max_new_long if kind.long_output else icfg.max_new_short
    asr_prompt = None if strategy == "alone" else build_task_prompt("ASR", [], model.bank, rng)
    instruction = task_instruction(record, inventories, model, rng)
    prior = None
    if strategy == "scot":
        max_new = icfg.max_new_long
    elif strategy == "mr":  # round 1 transcribes, round 2 answers from the transcript
        out, rendered = model.generate(strategy_turns("alone", asr_prompt), speech,
                                       icfg.max_new_short)
        result.transcript = out.text.strip()
        result.truncated = out.truncated
        result.round_prompts.append(rendered)
        result.generated_tokens.append(len(out.ids))
        prior = out.kv  # round 2's prompt starts with round 1's
    turns = strategy_turns(strategy, instruction, asr_prompt, result.transcript, delim)

    out, rendered = model.generate(turns, speech, max_new, prior)
    text = result.raw_text = out.text
    result.truncated = result.truncated or out.truncated
    result.round_prompts.append(rendered)
    result.generated_tokens.append(len(out.ids))
    result.n_generations = len(result.round_prompts)
    if strategy == "scot":
        result.transcript, text = parse_scot_response(text, delim)
    elif kind.parsed == "transcript":
        result.transcript = text.strip()

    parsed = parse_slu_output(text, record.task, labels=task_labels(record, inventories),
                              binary_labels=record.annotation.get("binary_labels"))
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


def infer_manifest(records: list[ManifestRecord], model, strategy: str, seed: int,
                   base_dir=None,
                   inventories: dict[str, list[str]] | None = None
                   ) -> list[tuple[ManifestRecord, SluResult]]:
    if inventories is None:
        inventories = collect_inventories(records)
    out = []
    for record in records:
        rng = _example_rng(seed, record.id)
        out.append((record, infer(record, strategy, model, rng, inventories=inventories,
                                  base_dir=base_dir)))
    return out


def collect_inventories(records: list[ManifestRecord]) -> dict[str, list[str]]:
    """Each IC/SF task's labels: every record's `labels` and gold label(s), sorted."""
    inventories: dict[str, set[str]] = {"IC": set(), "SF": set()}
    for r in records:
        if r.task in inventories:
            inventories[r.task].update(r.annotation.get("labels") or [], _gold_labels(r))
    return {task: sorted(labels) for task, labels in inventories.items()}


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
            "n_generations": res.n_generations, "generated_tokens": res.generated_tokens,
        }, sort_keys=True, ensure_ascii=False))
    return "\n".join(lines) + "\n"


def _prediction(d: dict) -> dict:
    check_entities(d.get("entities"), f"prediction {d['id']}")
    return d


def read_predictions(path) -> tuple[list[dict], dict | None]:
    """Predictions and `_meta` of a predictions file (errors as `read_jsonl`;
    `entities` must be null or [slot type, value] string pairs)."""
    return read_jsonl(path, _prediction, "prediction")


def exact_entity_match(pred, gold) -> bool:
    from collections import Counter

    from .metrics import normalize_entities

    return Counter(normalize_entities(pred or [])) == Counter(normalize_entities(gold))
