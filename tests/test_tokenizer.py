"""Tokenizer round-trips and special-token isolation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from speechslu.tokenizer import (Vocabulary, build_vocabulary, default_specials)


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary([
        "turn on the light", "turn off the kitchen light",
        "play some music in the bedroom", "what is the intent",
    ])


def test_empty_round_trip(vocab):
    assert vocab.tokenize("") == []
    assert vocab.detokenize([]) == ""


def test_plain_sentence_round_trip(vocab):
    text = "turn on the light"
    ids = vocab.tokenize(text)
    assert vocab.detokenize(ids) == text
    # learned words keep running text compact: ~one token per word
    assert len(ids) <= 2 * len(text.split())


def test_unseen_words_fall_back_to_bytes(vocab):
    text = "zygomorphic flowers"
    assert vocab.detokenize(vocab.tokenize(text)) == text


def test_special_ids_never_produced_from_text(vocab):
    for marker in default_specials().values():
        ids = vocab.tokenize(f"prefix {marker} suffix")
        assert all(i >= vocab.n_specials for i in ids)
        assert vocab.detokenize(ids) == f"prefix {marker} suffix"


def test_special_tokens_render_their_marker_strings(vocab):
    eot = vocab.special_id("end_turn")
    assert vocab.detokenize([eot]) == vocab.specials["end_turn"]


def test_vocab_file_round_trip(tmp_path, vocab):
    path = tmp_path / "vocab.json"
    vocab.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.size == vocab.size
    text = "play some music"
    assert loaded.tokenize(text) == vocab.tokenize(text)


def test_missing_specials_rejected():
    with pytest.raises(ValueError, match="missing special"):
        Vocabulary({"begin_text": "<b>"}, [])


def test_duplicate_words_rejected():
    with pytest.raises(ValueError, match="duplicate"):
        Vocabulary(default_specials(), ["on", "on"])


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=60))
def test_round_trip_fuzz_any_text(vocab, text):
    ids = vocab.tokenize(text)
    assert vocab.detokenize(ids) == text
    assert all(i >= vocab.n_specials for i in ids)


@settings(max_examples=60, deadline=None)
@given(st.text(alphabet="abcdefgh <|>_\n\t", max_size=40))
def test_round_trip_fuzz_marker_like_text(vocab, text):
    assert vocab.detokenize(vocab.tokenize(text)) == text


def _scan_tokenize(vocab, text):
    """The tokenizer's former byte scan, kept as an oracle: at each byte,
    the longest word starting with that byte that matches, else the byte."""
    word_ids = {w.encode("utf-8"): vocab.word_offset + i for i, w in enumerate(vocab.words)}
    by_first = {}
    for wb in sorted(word_ids, key=len, reverse=True):
        by_first.setdefault(wb[0], []).append(wb)
    data = text.encode("utf-8")
    ids, i = [], 0
    while i < len(data):
        match = next((wb for wb in by_first.get(data[i], ()) if data.startswith(wb, i)), None)
        if match is not None:
            ids.append(word_ids[match])
            i += len(match)
        else:
            ids.append(vocab.byte_offset + data[i])
            i += 1
    return ids


# non-ASCII (multi-byte UTF-8), marker-like characters and regex metacharacters
_ALPHABET = "ab é漢<|>_.*\n"


@st.composite
def _vocab_and_texts(draw):
    words = draw(st.lists(st.text(alphabet=_ALPHABET, min_size=1, max_size=6),
                          max_size=12, unique=True))
    # every prefix of a word is a word too, so candidates overlap
    words = list(dict.fromkeys(w[:k] for w in words for k in range(1, len(w) + 1)))
    pieces = st.sampled_from(words) | st.text(alphabet=_ALPHABET, max_size=3) if words \
        else st.text(alphabet=_ALPHABET, max_size=3)
    texts = draw(st.lists(st.lists(pieces, max_size=12).map("".join), min_size=1, max_size=5))
    markers = list(default_specials().values())
    texts += [f"{markers[0]}{t}{markers[-1]}" for t in texts]
    return Vocabulary(default_specials(), words), texts


@settings(max_examples=200, deadline=None)
@given(_vocab_and_texts())
def test_tokenize_matches_byte_scan(case):
    vocab, texts = case
    for text in texts:
        assert vocab.tokenize(text) == _scan_tokenize(vocab, text)
        assert vocab.tokenize(text) == _scan_tokenize(vocab, text)  # cached copy


def test_tokenize_prefers_longest_word():
    vocab = Vocabulary(default_specials(), ["a", "ab", "abc", " ab"])
    ids = vocab.tokenize("abcab abd")
    assert ids == [vocab.word_offset + 2, vocab.word_offset + 1,
                   vocab.word_offset + 3, vocab.byte_offset + ord("d")]
