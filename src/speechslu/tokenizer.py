"""Whitespace-aware greedy tokenizer with byte fallback.

Every token stands for an exact byte string: 256 single-byte tokens
guarantee totality, learned word tokens (with and without a leading
space) keep common text compact. Detokenization is plain concatenation,
so round-trips are exact for any input. Special marker tokens are never
produced from ordinary text -- they can only be injected explicitly by
the chat renderer -- so text that *looks* like a marker round-trips as
ordinary bytes.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path

from .fileio import write_atomic

SPECIAL_NAMES = ("begin_text", "header_open", "header_close", "end_turn",
                 "speech_placeholder", "pad")
# word tokens a learned vocabulary keeps (each word counts twice: bare and
# with a leading space)
MAX_WORD_TOKENS = 4096


class Vocabulary:
    def __init__(self, specials: dict[str, str], words: list[str]):
        missing = [n for n in SPECIAL_NAMES if n not in specials]
        if missing:
            raise ValueError(f"vocabulary missing special tokens: {missing}")
        self.specials = dict(specials)
        self.special_ids = {name: i for i, name in enumerate(SPECIAL_NAMES)}
        self.n_specials = len(SPECIAL_NAMES)
        self.byte_offset = self.n_specials
        self.word_offset = self.byte_offset + 256
        self.words = list(words)
        seen = set()
        for w in self.words:
            if not w or w in seen:
                raise ValueError(f"empty or duplicate word token: {w!r}")
            seen.add(w)
        self._word_ids = {w.encode("utf-8"): self.word_offset + i
                          for i, w in enumerate(self.words)}
        # alternatives are tried in order, so each match is the longest word
        # at its position, else one byte
        longest_first = sorted(self._word_ids, key=len, reverse=True)
        self._pattern = re.compile(
            b"|".join([re.escape(wb) for wb in longest_first] + [b"."]), re.DOTALL)
        self._cache: dict[str, tuple[int, ...]] = {}

    @property
    def size(self) -> int:
        return self.word_offset + len(self.words)

    def special_id(self, name: str) -> int:
        return self.special_ids[name]

    def tokenize(self, text: str) -> list[int]:
        cached = self._cache.get(text)
        if cached is not None:
            return list(cached)
        word_ids, byte_offset = self._word_ids, self.byte_offset
        ids = [word_ids.get(piece) or byte_offset + piece[0]
               for piece in self._pattern.findall(text.encode("utf-8"))]
        if len(self._cache) < 65536:
            self._cache[text] = tuple(ids)
        return ids

    def detokenize(self, ids) -> str:
        parts: list[bytes] = []
        for tid in ids:
            tid = int(tid)
            if tid < self.n_specials:
                parts.append(self.specials[SPECIAL_NAMES[tid]].encode("utf-8"))
            elif tid < self.word_offset:
                parts.append(bytes([tid - self.byte_offset]))
            elif tid < self.size:
                parts.append(self.words[tid - self.word_offset].encode("utf-8"))
            else:
                raise ValueError(f"token id {tid} outside vocabulary of size {self.size}")
        return b"".join(parts).decode("utf-8", errors="replace")

    def save(self, path) -> None:
        payload = {"specials": self.specials, "words": self.words}
        write_atomic(path, json.dumps(payload, ensure_ascii=False, indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(payload["specials"], payload["words"])


def default_specials(prompt_cfg=None) -> dict[str, str]:
    if prompt_cfg is None:
        from .config import PromptConfig

        prompt_cfg = PromptConfig()
    return {
        "begin_text": prompt_cfg.begin_text,
        "header_open": prompt_cfg.header_open,
        "header_close": prompt_cfg.header_close,
        "end_turn": prompt_cfg.end_turn,
        "speech_placeholder": prompt_cfg.speech_placeholder,
        "pad": prompt_cfg.pad,
    }


def build_vocabulary(texts, specials: dict[str, str] | None = None) -> Vocabulary:
    """Learn word tokens from a text corpus.

    Each frequent word is added both bare and with a leading space, so
    running text tokenizes to roughly one token per word.
    """
    specials = specials or default_specials()
    counts: Counter[str] = Counter()
    for text in texts:
        for word in text.split():
            counts[word] += 1
    ranked = sorted(counts, key=lambda w: (-counts[w], w))
    words: list[str] = []
    for w in ranked:
        if len(words) + 2 > MAX_WORD_TOKENS:
            break
        words.append(w)
        words.append(" " + w)
    return Vocabulary(specials, words)
