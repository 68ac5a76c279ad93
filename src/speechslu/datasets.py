"""Manifest records, the one JSON Lines reader, and dataset builders.

Manifests are JSON Lines, one record per line, written canonically so a
read/write round-trip is byte-identical. Builders cover the zero-shot
slot split, the FSC intent/slot relabeling, the task-agnostic binary
benchmark assembly (SLU-GLUE), spoken instruction-tuning construction,
and a deterministic synthetic micro-corpus for end-to-end tests. The FSC,
SLU-GLUE and spoken-Alpaca builders turn one source row into one record,
so `read_jsonl` can name the line of a bad row; the micro-corpus builds its
SLU-GLUE and instruction-tuning records through them too.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .audio import save_mel, synthesize_mel
from .errors import ConfigError, MissingAnnotation
from .fileio import write_atomic


@dataclass(frozen=True)
class TaskKind:
    """What a task's record must carry; how it is prompted, trained, budgeted and parsed."""
    required: tuple[str, ...]   # annotation keys a record must carry
    answer: str | None          # annotation key of the supervised answer; None: the transcript
    prompt: str | None          # key of the text instruction; None: a prompt-bank draw, or none
    parsed: str | None          # the SluResult field the answer parses into
    long_output: bool = False   # the answer gets the long generation budget
    plain: bool = False         # trained, and run, in the `alone` dialogue only


_BINARY = ("label", "binary_labels", "instruction")

# task tag -> kind, in the fixed order that keeps corpus generation deterministic
TASKS = {
    "ASR": TaskKind((), None, None, "transcript", plain=True),
    "IC": TaskKind(("intent",), "intent", None, "intent"),
    "SF": TaskKind(("entities",), "entities", None, "entities", long_output=True),
    "SQA": TaskKind(("question", "answer"), "answer", "question", None, long_output=True),
    "SQIT": TaskKind(("output",), "output", None, None, long_output=True, plain=True),
    "SIT": TaskKind(("instruction", "output"), "output", "instruction", None,
                    long_output=True),
    "SA": TaskKind(_BINARY, "label", "instruction", "binary"),
    "SER": TaskKind(_BINARY + ("paired_text",), "label", "instruction", "binary"),
    "STER": TaskKind(_BINARY + ("paired_text",), "label", "instruction", "binary"),
}

DEFAULT_HELDOUT_SLOTS = ("podcast_name", "artist_name", "audiobook_name",
                         "business_name", "radio_name")

SLU_GLUE_SUBTASKS = {
    "SST-2": ("SA", "Classify the sentiment of [SPEECH] into positive or negative.",
              ("positive", "negative")),
    "QQP": ("SER", "Identify if the question in [SPEECH] is a paraphrase of the "
            "question in [TEXT].", ("yes", "no")),
    "QNLI": ("SER", "Identify if the context in [SPEECH] contains the answer to the "
             "question in [TEXT].", ("yes", "no")),
    "RTE": ("STER", "Identify if the sentence in [SPEECH] entails the sentence in "
            "[TEXT].", ("yes", "no")),
    "SciTail": ("STER", "Identify if the premise in [SPEECH] supports the hypothesis "
                "in [TEXT].", ("yes", "no")),
}

EXPECTED_SLU_GLUE_COUNTS = {"SST-2": 2790, "QQP": 3996, "QNLI": 2718,
                            "RTE": 2088, "SciTail": 2736}


def check_entities(entities, owner: str) -> None:
    """ValueError unless `entities` is None or a list of [slot type, value] string pairs."""
    if entities is not None and not (isinstance(entities, (list, tuple)) and all(
            isinstance(e, (list, tuple)) and len(e) == 2 and all(isinstance(x, str) for x in e)
            for e in entities)):
        raise ValueError(f"{owner}: entities {entities!r} are not [slot type, value] string pairs")


@dataclass
class ManifestRecord:
    id: str
    audio: str
    transcript: str
    task: str
    annotation: dict = field(default_factory=dict)

    def __post_init__(self):
        for name in ("id", "audio", "transcript"):
            if not isinstance(getattr(self, name), str):
                raise TypeError(f"record field {name!r} must be a string, "
                                f"got {getattr(self, name)!r}")
        if not isinstance(self.annotation, dict):
            raise TypeError(f"record annotation must be an object, got {self.annotation!r}")
        kind = TASKS.get(self.task)
        if kind is None:
            raise ValueError(f"unknown task tag {self.task!r}")
        missing = [k for k in kind.required if self.annotation.get(k) is None]
        if missing:
            raise MissingAnnotation(
                f"record {self.id}: task {self.task} requires annotation {missing}")
        check_entities(self.annotation.get("entities"), f"record {self.id}")
        labels = self.annotation.get("binary_labels")
        if kind.parsed == "binary" and (not isinstance(labels, (list, tuple)) or len(labels) != 2
                                        or self.annotation["label"] not in labels):
            raise ValueError(f"record {self.id}: label {self.annotation['label']!r} is not "
                             f"one of its two binary_labels {labels!r}")

    def slot_types(self) -> set[str]:
        return {t for t, _ in self.annotation.get("entities") or []}

    def to_dict(self) -> dict:
        return {"id": self.id, "audio": self.audio, "transcript": self.transcript,
                "task": self.task, "annotation": self.annotation}

    @classmethod
    def from_dict(cls, d: dict) -> "ManifestRecord":
        return cls(id=d["id"], audio=d["audio"], transcript=d["transcript"],
                   task=d["task"], annotation=d.get("annotation", {}))


def _canon(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False, separators=(", ", ": "))


def write_manifest(path, records: list[ManifestRecord], meta: dict | None = None) -> None:
    lines = []
    if meta is not None:
        lines.append(_canon({"_meta": meta}))
    lines.extend(_canon(r.to_dict()) for r in records)
    write_atomic(path, "\n".join(lines) + "\n")


def read_jsonl(path, parse, what: str) -> tuple[list, dict | None]:
    """Items and `_meta` of a JSON Lines file, one `parse(obj)` per object
    line other than `_meta`. Blank lines are skipped. A malformed line, a
    line or `_meta` that is not an object, an id that is missing, not a
    string or repeated, and `parse` raising KeyError, TypeError or
    ValueError each raise ConfigError naming `path:line`; `what` names an
    item in those messages."""
    items, meta = [], None
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        if not line.strip():
            continue
        try:
            d = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{lineno}: malformed JSON: {exc}") from exc
        if not isinstance(d, dict) or not isinstance(d.get("_meta", {}), dict):
            raise ConfigError(f"{path}:{lineno}: expected a JSON object")
        if "_meta" in d:
            meta = d["_meta"]
            continue
        item_id = d.get("id")
        if item_id is None:
            raise ConfigError(f"{path}:{lineno}: {what} has no id")
        if not isinstance(item_id, str):
            raise ConfigError(f"{path}:{lineno}: {what} id {item_id!r} is not a string")
        if item_id in first_line:
            raise ConfigError(f"{path}:{lineno}: duplicate {what} id {item_id!r} "
                              f"(first at line {first_line[item_id]})")
        first_line[item_id] = lineno
        try:
            items.append(parse(d))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: invalid {what}: {exc!r}") from exc
    return items, meta


def read_manifest(path) -> tuple[list[ManifestRecord], dict | None]:
    """Records and `_meta` of a manifest (errors as `read_jsonl`)."""
    return read_jsonl(path, ManifestRecord.from_dict, "record")


# ---------------------------------------------------------------------------
# zero-shot slot split
# ---------------------------------------------------------------------------

def build_slurp_zeroshot(records: list[ManifestRecord],
                         heldout_slots=DEFAULT_HELDOUT_SLOTS
                         ) -> tuple[list[ManifestRecord], list[ManifestRecord]]:
    """Hold out every record mentioning a held-out slot type as the test set."""
    observed = set()
    for r in records:
        observed |= r.slot_types()
    unknown = [s for s in heldout_slots if s not in observed]
    if unknown:
        raise ConfigError(f"held-out slot types never observed in the corpus: {unknown}")
    held = set(heldout_slots)
    train = [r for r in records if not (r.slot_types() & held)]
    test = [r for r in records if r.slot_types() & held]
    return train, test


# ---------------------------------------------------------------------------
# FSC relabeling
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _fsc_map() -> dict:
    return json.loads((resources.files("speechslu.data") / "fsc_intent_map.json")
                      .read_text("utf-8"))


def remap_fsc(record: dict) -> tuple[str, list[tuple[str, str]]]:
    """(action, object, location) -> (intent, entities) under the 15x2 scheme."""
    try:
        action, obj, location = record["action"], record["object"], record["location"]
    except KeyError as exc:
        raise MissingAnnotation(f"FSC record missing field {exc}") from exc
    if not all(isinstance(v, str) for v in (action, obj, location)):
        raise TypeError(f"FSC action, object and location must be strings, "
                        f"got ({action!r}, {obj!r}, {location!r})")
    intent = _fsc_map()["intents"].get(f"{action}|{obj}")
    if intent is None:
        raise ValueError(f"unmapped FSC combination ({action}, {obj}, {location})")
    entities: list[tuple[str, str]] = []
    if obj in _fsc_map()["language_objects"]:
        entities.append(("language", obj))
    if location and location != "none":
        entities.append(("location", location))
    return intent, entities


def fsc_record(row: dict) -> ManifestRecord:
    """An FSC row {id, transcription, action, object, location, audio?} ->
    an IC record carrying the remapped intent + slots."""
    intent, entities = remap_fsc(row)
    return ManifestRecord(
        id=row["id"], audio=row.get("audio") or f"synthetic:{row['transcription']}",
        transcript=row["transcription"], task="IC",
        annotation={"intent": intent, "entities": entities})


# ---------------------------------------------------------------------------
# task-agnostic binary benchmark
# ---------------------------------------------------------------------------

def slu_glue_record(row: dict) -> ManifestRecord:
    """A source row {id, subtask, text, paired_text?, label, audio?} -> record.

    The per-subtask instruction keeps its [SPEECH] hole (bound to the
    splice at render time); [TEXT] is bound here to the paired sentence.
    """
    sub = row.get("subtask")
    if sub == "STS-B":
        raise ValueError("STS-B is excluded: not suitable for zero-shot evaluation")
    if sub not in SLU_GLUE_SUBTASKS:
        raise ValueError(f"unknown sub-task {sub!r}")
    task, instruction, labels = SLU_GLUE_SUBTASKS[sub]
    label = str(row["label"]).lower()
    if label not in labels:
        raise ValueError(f"{sub} label {row['label']!r} not in {labels}")
    annotation = {"label": label, "binary_labels": list(labels), "subtask": sub,
                  "instruction": instruction}
    if "paired_text" in TASKS[task].required:
        paired = row.get("paired_text")
        if paired is None:
            raise MissingAnnotation(f"{sub} row {row['id']} needs paired_text")
        annotation["paired_text"] = paired
        annotation["instruction"] = instruction.replace("[TEXT]", paired)
    return ManifestRecord(id=row["id"], audio=row.get("audio") or f"synthetic:{row['text']}",
                          transcript=row["text"], task=task, annotation=annotation)


# ---------------------------------------------------------------------------
# spoken instruction tuning
# ---------------------------------------------------------------------------

_EQUATION_RE = re.compile(
    r"(\$[^$]+\$|\\\(|\\\[|\\frac|\\sum|\\int|\\sqrt|[=^_]\s*\d|\d\s*[+*/^=]\s*\d)")
_TABLE_RE = re.compile(r"^\s*\S+(\s*\|\s*\S+){2,}", re.MULTILINE)
_ALPACA_MAX_WORDS = 60


def _filter_reason(instruction: str, text_input: str) -> str | None:
    for fld in (instruction, text_input):
        if len(fld.split()) > _ALPACA_MAX_WORDS:
            return "length"
        if _EQUATION_RE.search(fld):
            return "equation"
        if fld.count("|") >= 4 and _TABLE_RE.search(fld):
            return "table"
        if fld.count("\t") >= 2:
            return "table"
    return None


def spoken_alpaca_record(row: dict) -> ManifestRecord | str:
    """An instruction-tuning row {id, instruction, input?, output} -> a
    record, or the reason the row is dropped.

    A row with a context `input` field becomes a SIT record: the input is
    spoken, the instruction stays as the text prompt. A row without one
    becomes a SQIT record: the instruction itself is spoken and no text
    prompt is given.
    """
    instruction, text_input, output = (row.get(k) or "" for k in ("instruction", "input",
                                                                   "output"))
    if not all(isinstance(v, str) for v in (instruction, text_input, output)):
        raise TypeError("instruction, input and output must be strings")
    instruction, text_input, output = instruction.strip(), text_input.strip(), output.strip()
    if not instruction or not output:
        return "missing-field"
    reason = _filter_reason(instruction, text_input)
    if reason:
        return reason
    if text_input:
        return ManifestRecord(id=row["id"], audio=f"synthetic:{text_input}",
                              transcript=text_input, task="SIT",
                              annotation={"instruction": instruction, "output": output})
    return ManifestRecord(id=row["id"], audio=f"synthetic:{instruction}",
                          transcript=instruction, task="SQIT", annotation={"output": output})


# ---------------------------------------------------------------------------
# synthetic micro-corpus
# ---------------------------------------------------------------------------

@dataclass
class MicroCorpusSpec:
    counts: dict[str, int] = field(default_factory=lambda: {"ASR": 10, "IC": 10, "SF": 10})
    intents: tuple[str, ...] = ("lights_on", "lights_off", "play_music")
    sf_slots: tuple[str, ...] = ("color", "room", "time")
    max_slots_per_utterance: int = 2


_VALUE_POOL = ("alpha", "bravo", "charlie", "delta", "echo")
_SLOT_VALUES = {
    "color": ("red", "blue", "green", "amber"),
    "room": ("kitchen", "bedroom", "office"),
    "time": ("noon", "dawn", "dusk"),
}

_IC_TEMPLATES = {
    "lights_on": ("turn on the light", "switch on the lamp", "lights on please"),
    "lights_off": ("turn off the light", "switch off the lamp", "lights out please"),
    "play_music": ("play some music", "start a song now", "put on a tune"),
}

_ASR_WORDS = ("the", "a", "cat", "dog", "bird", "runs", "sleeps", "sings",
              "today", "slowly", "happily", "outside")

_SQA_COLORS = ("red", "blue", "green", "white")

_SQIT_PAIRS = (("name a primary colour", "red"),
               ("say the opposite of hot", "cold"),
               ("count from one to three", "one two three"),
               ("name a farm animal", "cow"))

_SA_POS = ("this film was wonderful and bright", "what a lovely charming story",
           "an excellent and joyful show")
_SA_NEG = ("this film was dull and tiresome", "what a bleak boring story",
           "an awful and painful show")

_SER_PAIRS = ((("is the light on", "is the lamp switched on"), "yes"),
              (("is the light on", "where is the nearest shop"), "no"),
              (("can dogs swim", "are dogs able to swim"), "yes"),
              (("can dogs swim", "do cats like milk"), "no"))

_STER_PAIRS = ((("the cat sleeps on the mat", "the cat is sleeping"), "yes"),
               (("the cat sleeps on the mat", "the dog is barking"), "no"),
               (("rain fell all morning", "it rained in the morning"), "yes"),
               (("rain fell all morning", "the sun shone brightly"), "no"))


def _ic_record(i: int, spec: MicroCorpusSpec, rng) -> ManifestRecord:
    intent = spec.intents[int(rng.integers(0, len(spec.intents)))]
    templates = _IC_TEMPLATES.get(intent)
    if templates is None:  # fall back for caller-supplied inventories
        templates = (f"{intent.replace('_', ' ')} please",
                     f"please do {intent.replace('_', ' ')} now")
    transcript = templates[int(rng.integers(0, len(templates)))]
    return ManifestRecord(
        id=f"ic-{i:04d}", audio=f"synthetic:{transcript}", transcript=transcript,
        task="IC", annotation={"intent": intent, "labels": list(spec.intents)})


def _sf_record(i: int, spec: MicroCorpusSpec, rng) -> ManifestRecord:
    # bias toward single-slot utterances; keeps spoken forms short
    n = 1 if rng.random() < 0.7 else int(rng.integers(2, spec.max_slots_per_utterance + 1))
    n = min(n, len(spec.sf_slots))
    picks = rng.choice(len(spec.sf_slots), size=n, replace=False)
    entities = []
    parts = []
    for p in sorted(picks):
        slot = spec.sf_slots[int(p)]
        pool = _SLOT_VALUES.get(slot, _VALUE_POOL)
        value = pool[int(rng.integers(0, len(pool)))]
        entities.append((slot, value))
        parts.append(f"the {slot.replace('_', ' ')} is {value}")
    transcript = " and ".join(parts)
    return ManifestRecord(
        id=f"sf-{i:04d}", audio=f"synthetic:{transcript}", transcript=transcript,
        task="SF", annotation={"entities": entities, "labels": list(spec.sf_slots)})


def _asr_record(i: int, rng) -> ManifestRecord:
    n = int(rng.integers(3, 5))
    words = [_ASR_WORDS[int(rng.integers(0, len(_ASR_WORDS)))] for _ in range(n)]
    transcript = " ".join(words)
    return ManifestRecord(id=f"asr-{i:04d}", audio=f"synthetic:{transcript}",
                          transcript=transcript, task="ASR", annotation={})


def _sqa_record(i: int, rng) -> ManifestRecord:
    color = _SQA_COLORS[int(rng.integers(0, len(_SQA_COLORS)))]
    transcript = f"the box on the table is {color}"
    return ManifestRecord(
        id=f"sqa-{i:04d}", audio=f"synthetic:{transcript}", transcript=transcript,
        task="SQA", annotation={"question": "what colour is the box",
                                "answer": color})


def _sit_record(i: int, rng) -> ManifestRecord:
    n = int(rng.integers(2, 5))
    phrase = " ".join(_ASR_WORDS[int(rng.integers(0, len(_ASR_WORDS)))] for _ in range(n))
    return spoken_alpaca_record({"id": f"sit-{i:04d}", "input": phrase, "output": phrase,
                                 "instruction": "Repeat the spoken words exactly."})


def _sqit_record(i: int, rng) -> ManifestRecord:
    q, a = _SQIT_PAIRS[int(rng.integers(0, len(_SQIT_PAIRS)))]
    return spoken_alpaca_record({"id": f"sqit-{i:04d}", "instruction": q, "output": a})


def _sa_record(i: int, rng) -> ManifestRecord:
    positive = bool(rng.integers(0, 2))
    pool = _SA_POS if positive else _SA_NEG
    text = pool[int(rng.integers(0, len(pool)))]
    labels = SLU_GLUE_SUBTASKS["SST-2"][2]
    return slu_glue_record({"id": f"sa-{i:04d}", "subtask": "SST-2", "text": text,
                            "label": labels[0] if positive else labels[1]})


def _pair_record(i: int, rng, subtask: str, pairs) -> ManifestRecord:
    (text, paired), label = pairs[int(rng.integers(0, len(pairs)))]
    return slu_glue_record({"id": f"{SLU_GLUE_SUBTASKS[subtask][0].lower()}-{i:04d}",
                            "subtask": subtask, "text": text, "paired_text": paired,
                            "label": label})


def generate_micro_corpus(spec: MicroCorpusSpec, rng: np.random.Generator,
                          out_dir=None) -> dict[str, list[ManifestRecord]]:
    """Deterministic synthetic corpus; optionally writes manifests + mel files."""
    makers = {
        "ASR": lambda i: _asr_record(i, rng),
        "IC": lambda i: _ic_record(i, spec, rng),
        "SF": lambda i: _sf_record(i, spec, rng),
        "SQA": lambda i: _sqa_record(i, rng),
        "SIT": lambda i: _sit_record(i, rng),
        "SQIT": lambda i: _sqit_record(i, rng),
        "SA": lambda i: _sa_record(i, rng),
        "SER": lambda i: _pair_record(i, rng, "QQP", _SER_PAIRS),
        "STER": lambda i: _pair_record(i, rng, "RTE", _STER_PAIRS),
    }
    corpus: dict[str, list[ManifestRecord]] = {}
    for task in TASKS:
        count = spec.counts.get(task, 0)
        if count:
            corpus[task] = [makers[task](i) for i in range(count)]
    if out_dir is not None:
        out = Path(out_dir)
        (out / "mels").mkdir(parents=True, exist_ok=True)
        for task, records in corpus.items():
            for r in records:
                mel = synthesize_mel(r.transcript)
                mel_path = out / "mels" / f"{r.id}.mel"
                save_mel(mel_path, mel)
                r.audio = f"mels/{r.id}.mel"
            write_manifest(out / f"{task.lower()}.jsonl", records)
    return corpus
