"""Training harness: config assignment, mask construction, loss laws,
epoch semantics, and determinism."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from speechslu import autograd as ag, training
from speechslu.datasets import TASKS, ManifestRecord, MicroCorpusSpec, generate_micro_corpus
from speechslu.errors import TrainingDiverged
from speechslu.decoder import expand_splice
from speechslu.orchestrator import collect_inventories, infer
from speechslu.prompts import STRATEGIES
from speechslu.training import (assign_config, build_training_sequence, gold_answer,
                                train, write_trace_csv, _epoch_stream, _repeated)

from conftest import build_tiny_model, param_hash


def _sequence_for(model, record, config, seed=0):
    inventories = collect_inventories([record])
    speech_len = model.embed_audio(record.audio).data.shape[0]
    rng = np.random.default_rng(seed)
    return build_training_sequence(record, config, model, inventories, rng,
                                   speech_len), record.audio


# ---------------------------------------------------------------------------
# strategy-config assignment
# ---------------------------------------------------------------------------

def test_asr_and_sqit_always_plain(micro_corpus):
    rng = np.random.default_rng(0)
    for record in micro_corpus["ASR"] + micro_corpus["SQIT"]:
        for _ in range(20):
            assert assign_config(record, rng) == "alone"
    # with no draw: the generator's state is untouched
    assert rng.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_slu_tasks_draw_three_configs_uniformly(micro_corpus):
    rng = np.random.default_rng(1)
    record = micro_corpus["IC"][0]
    n = 10_000
    counts = {"alone": 0, "scot": 0, "mr": 0}
    for _ in range(n):
        counts[assign_config(record, rng)] += 1
    sigma = np.sqrt((1 / 3) * (2 / 3) / n)
    for config, c in counts.items():
        assert abs(c / n - 1 / 3) < 3 * sigma, f"{config}: {c / n}"


def test_assignment_deterministic_under_seed(micro_corpus):
    record = micro_corpus["SF"][0]
    a = [assign_config(record, np.random.default_rng(2)) for _ in range(1)]
    b = [assign_config(record, np.random.default_rng(2)) for _ in range(1)]
    assert a == b


def test_assignment_respects_probabilities(micro_corpus):
    rng = np.random.default_rng(3)
    record = micro_corpus["IC"][0]
    draws = {assign_config(record, rng, probs=(1.0, 0.0, 0.0)) for _ in range(50)}
    assert draws == {"alone"}


# ---------------------------------------------------------------------------
# supervised-sequence construction
# ---------------------------------------------------------------------------

def test_gold_answers_by_task(micro_corpus):
    assert gold_answer(micro_corpus["ASR"][0]) == micro_corpus["ASR"][0].transcript
    ic = micro_corpus["IC"][0]
    assert gold_answer(ic) == ic.annotation["intent"]
    sf = micro_corpus["SF"][0]
    for slot_type, value in sf.annotation["entities"]:
        assert f'"{slot_type}"' in gold_answer(sf)
        assert value in gold_answer(sf)


def test_gold_answer_duplicate_slot_types_become_lists():
    record = ManifestRecord(id="d", audio="synthetic:x y", transcript="x y", task="SF",
                            annotation={"entities": [("name", "x"), ("name", "y")]})
    assert gold_answer(record) == '{"name": ["x", "y"]}'


def test_ic_mask_covers_exactly_answer_plus_end_turn(tiny_model, micro_corpus):
    record = micro_corpus["IC"][0]
    example, _ = _sequence_for(tiny_model, record, "alone")
    seq = example.sequence
    vocab = tiny_model.vocab
    answer_ids = vocab.tokenize(record.annotation["intent"])
    masked = np.flatnonzero(seq.loss_mask)
    assert len(masked) == len(answer_ids) + 1
    assert (np.diff(masked) == 1).all(), "mask must be one contiguous span"
    assert list(seq.ids[masked][:-1]) == answer_ids
    assert seq.ids[masked][-1] == vocab.special_id("end_turn")


def test_scot_target_is_transcript_delim_answer(tiny_model, micro_corpus):
    record = micro_corpus["SF"][0]
    example, _ = _sequence_for(tiny_model, record, "scot")
    seq = example.sequence
    masked_text = tiny_model.vocab.detokenize(seq.ids[seq.loss_mask][:-1])
    assert masked_text.startswith(record.transcript)
    assert "\n---\n" in masked_text
    assert masked_text.endswith(gold_answer(record))


def test_mr_training_masks_both_rounds(tiny_model, micro_corpus):
    record = micro_corpus["IC"][0]
    example, _ = _sequence_for(tiny_model, record, "mr")
    seq = example.sequence
    masked = np.flatnonzero(seq.loss_mask)
    gaps = np.flatnonzero(np.diff(masked) > 1)
    assert len(gaps) == 1, "expected exactly two supervised spans"
    vocab = tiny_model.vocab
    first = vocab.detokenize(seq.ids[masked[:gaps[0] + 1]])
    second = vocab.detokenize(seq.ids[masked[gaps[0] + 1:]])
    eot = vocab.specials["end_turn"]
    assert first == record.transcript + eot
    assert second == record.annotation["intent"] + eot


def test_sit_keeps_instruction_as_text_prompt(tiny_model, micro_corpus):
    record = micro_corpus["SIT"][0]
    example, _ = _sequence_for(tiny_model, record, "alone")
    seq = example.sequence
    text = tiny_model.vocab.detokenize(seq.ids)
    assert record.annotation["instruction"] in text
    assert seq.splice_start is not None
    masked_text = tiny_model.vocab.detokenize(seq.ids[seq.loss_mask])
    assert masked_text.startswith(record.annotation["output"])


def test_sqit_has_no_text_prompt(tiny_model, micro_corpus):
    record = micro_corpus["SQIT"][0]
    example, _ = _sequence_for(tiny_model, record, "alone")
    text = tiny_model.vocab.detokenize(example.sequence.ids)
    header = tiny_model.prompt_cfg.header_close
    user_content = text.split(header)[1]
    assert user_content.strip().startswith(tiny_model.prompt_cfg.speech_placeholder)


def test_binary_task_trains_under_every_config(tiny_model, micro_corpus):
    # the [SPEECH] hole in the instruction must render as the one splice
    # (alone/scot) or re-bind to prose when the splice lives in round 1 (mr)
    record = micro_corpus["SA"][0]
    for config in ("alone", "scot", "mr"):
        example, _ = _sequence_for(tiny_model, record, config)
        seq = example.sequence
        assert seq.splice_start is not None
        assert seq.loss_mask.any()


# a value for every annotation key some task requires
_ANNOTATION_VALUES = {
    "intent": "lights_on", "entities": [["room", "kitchen"]], "question": "what colour",
    "answer": "red", "output": "red", "instruction": "Classify [SPEECH] as yes or no.",
    "label": "yes", "binary_labels": ["yes", "no"], "paired_text": "is it on"}


@pytest.mark.parametrize("task", list(TASKS))
def test_a_record_with_only_its_required_keys_trains_and_infers(tiny_model, task):
    kind = TASKS[task]
    record = ManifestRecord(id=f"min-{task}", audio="synthetic:turn on the light",
                            transcript="turn on the light", task=task,
                            annotation={k: _ANNOTATION_VALUES[k] for k in kind.required})
    for config in ("alone",) if kind.plain else STRATEGIES:
        example, _ = _sequence_for(tiny_model, record, config)
        assert example.n_supervised > 0, config
    for strategy in STRATEGIES:
        res = infer(record, strategy, tiny_model, np.random.default_rng(0))
        # a plain task runs `alone`, the one dialogue it is trained in
        ran = "alone" if kind.plain else strategy
        assert (res.strategy, res.n_generations) == (ran, 2 if ran == "mr" else 1)


def _offset_expansion(rendered, speech_len, placeholder):
    """Reference: ids expanded as a list and the assistant spans shifted
    past the splice by offset arithmetic."""
    ids, splice = rendered.ids, rendered.splice_index
    if splice is not None:
        ids = ids[:splice] + [placeholder] * speech_len + ids[splice + 1:]
    offset = speech_len - 1 if splice is not None else 0
    mask = np.zeros(len(ids), dtype=bool)
    for role, start, end in rendered.spans:
        if role != "assistant":
            continue
        lo = start + offset if splice is not None and start > splice else start
        hi = end + offset if splice is not None and end > splice else end
        mask[lo:hi] = True
    return ids, mask


def test_expand_splice_expands_the_mask_with_the_ids(tiny_model, micro_corpus, monkeypatch):
    rendered = []
    render_chat = training.render_chat

    def recording(*args, **kw):
        rendered.append(render_chat(*args, **kw))
        return rendered[-1]

    monkeypatch.setattr(training, "render_chat", recording)
    placeholder = tiny_model.vocab.special_id("speech_placeholder")
    checked = 0
    for task, records in micro_corpus.items():
        configs = ("alone",) if TASKS[task].plain else STRATEGIES
        for record, config, seed in itertools.product(records, configs, range(4)):
            rendered.clear()
            example, _ = _sequence_for(tiny_model, record, config, seed=seed)
            seq = example.sequence
            ids, mask = _offset_expansion(rendered[0], seq.splice_len, placeholder)
            assert list(seq.ids) == ids, (record.id, config, seed)
            assert seq.loss_mask.tobytes() == mask.tobytes(), (record.id, config, seed)
            assert example.n_supervised == mask.sum()
            checked += 1
    assert checked == 4 * (4 + 3 + 3 * (6 + 6 + 3 + 3 + 3 + 2 + 2))
    # no splice: ids and mask pass through
    seq = expand_splice([1, 2, 3], None, 5, placeholder, np.array([False, True, True]))
    assert list(seq.ids) == [1, 2, 3] and list(seq.loss_mask) == [False, True, True]


def test_prompt_and_speech_positions_never_masked(tiny_model, micro_corpus):
    for task in ("IC", "SF", "SQA"):
        record = micro_corpus[task][0]
        for config in ("alone", "scot", "mr"):
            example, _ = _sequence_for(tiny_model, record, config)
            seq = example.sequence
            s0, s1 = seq.splice_start, seq.splice_start + seq.splice_len
            assert not seq.loss_mask[s0:s1].any()
            assert not seq.loss_mask[0]


@pytest.mark.parametrize("strategy", ["scot", "mr"])
def test_training_prompt_is_the_inference_prompt(tiny_model, micro_corpus, flat_records,
                                                 strategy, monkeypatch):
    # train/serve parity: up to the first assistant content, the training
    # sequence is token for token the prompt of inference's first generation
    # (scot: ASR + task instruction; mr: round 1) under the same seed
    inventories = collect_inventories(flat_records)
    prompts = []
    generate = tiny_model.decoder.generate_greedy

    def recording(seq, speech, max_new, *args):
        prompts.append(list(seq.ids))
        return generate(seq, speech, max_new, *args)

    monkeypatch.setattr(tiny_model.decoder, "generate_greedy", recording)
    for record in micro_corpus["IC"] + micro_corpus["SF"]:
        for seed in (0, 1):
            prompts.clear()
            res = infer(record, strategy, tiny_model, np.random.default_rng(seed), inventories)
            example = build_training_sequence(
                record, strategy, tiny_model, inventories, np.random.default_rng(seed),
                tiny_model.embed_audio(record.audio).data.shape[0])
            seq = example.sequence
            first = int(np.flatnonzero(seq.loss_mask)[0])
            assert list(seq.ids[:first]) == prompts[0], (record.id, seed)
            s0, s1 = seq.splice_start, seq.splice_start + seq.splice_len
            one_placeholder = np.concatenate([seq.ids[:s0 + 1], seq.ids[s1:first]])
            assert tiny_model.vocab.detokenize(one_placeholder) == res.round_prompts[0]


def test_sf_record_without_entities_lists_every_inventory_label(tiny_model, flat_records):
    # no gold slot type: the candidates are the whole inventory, shuffled,
    # as at inference
    labels = collect_inventories(flat_records)["SF"]
    record = ManifestRecord(id="sf-empty", audio="synthetic:turn it up", transcript="turn it up",
                            task="SF", annotation={"entities": [], "labels": labels})
    for config in ("alone", "scot", "mr"):
        for seed in range(6):
            example, _ = _sequence_for(tiny_model, record, config, seed=seed)
            text = tiny_model.vocab.detokenize(example.sequence.ids)
            assert any(", ".join(p) in text for p in itertools.permutations(labels)), text


def test_masked_positions_contribute_zero_gradient(tiny_model, micro_corpus):
    # permuting the target ids at masked-out positions must leave every
    # trainable gradient bit-identical
    record = micro_corpus["IC"][1]
    example, audio = _sequence_for(tiny_model, record, "alone", seed=4)
    seq = example.sequence
    params = list(tiny_model.trainable_parameters().values())

    def grads_for(ids):
        for p in params:
            p.grad = None
        speech = tiny_model.embed_audio(audio)
        logits = tiny_model.decoder.forward(seq.__class__(
            ids, splice_start=seq.splice_start, splice_len=seq.splice_len), speech)
        loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(ids) - 1), ids[1:],
                                ignore_mask=seq.loss_mask[1:], reduction="sum")
        ag.backward(loss)
        return {p.name: (p.grad.copy() if p.grad is not None else None) for p in params}

    base = grads_for(seq.ids.copy())
    shuffled = seq.ids.copy()
    unmasked = np.flatnonzero(~seq.loss_mask[1:]) + 1
    # rotate the ignored targets; logits change only via inputs, which stay put
    shuffled_targets = seq.ids.copy()
    prompt_positions = unmasked[unmasked > (seq.splice_start or 0)]
    if len(prompt_positions) >= 2:
        a, b = prompt_positions[0], prompt_positions[1]
        shuffled_targets[a], shuffled_targets[b] = shuffled_targets[b], shuffled_targets[a]

    # build the comparison loss with permuted TARGETS but identical inputs
    for p in params:
        p.grad = None
    speech = tiny_model.embed_audio(audio)
    logits = tiny_model.decoder.forward(seq, speech)
    loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(seq.ids) - 1),
                            shuffled_targets[1:], ignore_mask=seq.loss_mask[1:],
                            reduction="sum")
    ag.backward(loss)
    for p in params:
        ref = base[p.name]
        if ref is None:
            assert p.grad is None or not p.grad.any()
        else:
            assert p.grad.tobytes() == ref.tobytes(), p.name


# ---------------------------------------------------------------------------
# epoch stream and the training loop
# ---------------------------------------------------------------------------

def test_epoch_stream_consumes_each_record_exactly_once(flat_records):
    stream = _epoch_stream(_repeated(flat_records, {}), np.random.default_rng(0))
    assert sorted(r.id for r in stream) == sorted(r.id for r in flat_records)


def test_epoch_stream_task_weights_repeat_records(flat_records):
    stream = _epoch_stream(_repeated(flat_records, {"IC": 2.0}), np.random.default_rng(0))
    n_ic = sum(1 for r in flat_records if r.task == "IC")
    assert sum(1 for r in stream if r.task == "IC") == 2 * n_ic


def test_mixture_frequencies_match_sizes_chi_squared():
    from scipy.stats import chisquare

    spec = MicroCorpusSpec(counts={"ASR": 300, "IC": 200, "SF": 100})
    corpus = generate_micro_corpus(spec, np.random.default_rng(9))
    records = [r for rs in corpus.values() for r in rs]
    stream = _epoch_stream(_repeated(records, {}), np.random.default_rng(10))
    # windowed draw frequencies over the shuffled stream follow the size mix
    window = stream[:300]
    observed = [sum(1 for r in window if r.task == t) for t in ("ASR", "IC", "SF")]
    expected = [300 * (n / 600) for n in (300, 200, 100)]
    assert chisquare(observed, expected).pvalue > 1e-4


def test_train_updates_only_aligner_and_lora(micro_corpus):
    records = micro_corpus["IC"][:2] + micro_corpus["ASR"][:2]
    model = build_tiny_model(records, seed=2, batch_size=2)
    enc_before = param_hash(model.encoder.named_parameters().values())
    dec_before = param_hash(model.decoder.base_parameters().values())
    trainable_before = {n: p.data.copy() for n, p in model.trainable_parameters().items()}
    result = train(records, model, epochs=1)
    assert result.steps == 2
    assert param_hash(model.encoder.named_parameters().values()) == enc_before
    assert param_hash(model.decoder.base_parameters().values()) == dec_before
    changed = sum((model.trainable_parameters()[n].data != v).any()
                  for n, v in trainable_before.items())
    assert changed >= len(trainable_before) * 0.5


def test_loss_trace_rows_and_determinism(micro_corpus, tmp_path):
    records = micro_corpus["IC"][:3] + micro_corpus["SF"][:2]
    traces, files = [], []
    for run in range(2):
        model = build_tiny_model(records, seed=3, batch_size=1)
        result = train(records, model, epochs=2)
        traces.append([(r.step, r.task, r.config, r.loss) for r in result.trace])
        files.append(tmp_path / f"trace{run}.csv")
        write_trace_csv(files[-1], result, model.config_hash)
    assert traces[0] == traces[1]
    # every field but the step time, which is not deterministic, reaches the file
    assert files[0].read_bytes() == files[1].read_bytes()
    lines = files[0].read_text().splitlines()
    assert lines[1] == "step,task,config,loss,tokens,lr,grad_norm"
    first, row = result.trace[0], lines[2].split(",")
    assert int(row[4]) == first.tokens > 0
    assert float(row[5]) == pytest.approx(first.lr, rel=1e-5) and first.lr > 0
    assert float(row[6]) == pytest.approx(first.grad_norm, rel=1e-5) and first.grad_norm > 0
    assert len(traces[0]) == 2 * len(records)
    steps = [row[0] for row in traces[0]]
    assert steps == sorted(steps)


def test_trace_records_lr_and_pre_clip_gradient_norm(micro_corpus, monkeypatch):
    records = micro_corpus["IC"][:2] + micro_corpus["SF"][:2]
    kw = dict(seed=8, batch_size=2, lr=1e-2, clip_norm=1e-3, lr_schedule="linear")
    plain = train(records, build_tiny_model(records, **kw), epochs=1)

    norms = []
    clip = training.clip_global_norm

    def recomputing(params, max_norm):
        grads = [p.grad.astype(np.float64).ravel() for p in params if p.grad is not None]
        norms.append(float(np.linalg.norm(np.concatenate(grads))))
        return clip(params, max_norm)

    monkeypatch.setattr(training, "clip_global_norm", recomputing)
    result = train(records, build_tiny_model(records, **kw), epochs=1)
    assert result.steps == 2 and len(norms) == 2
    for row in result.trace:
        assert row.grad_norm == pytest.approx(norms[row.step - 1], rel=1e-9)
        assert row.grad_norm > 1e-3  # the norm before clipping, not after
        assert row.lr == pytest.approx(1e-2 * max(0.1, 1.0 - row.step / 2), rel=1e-12)
    assert ([(r.step, r.task, r.config, r.loss, r.tokens) for r in result.trace]
            == [(r.step, r.task, r.config, r.loss, r.tokens) for r in plain.trace])
    # the CSV carries every field but the step time: seven columns
    assert [row.csv().count(",") for row in result.trace] == [6] * len(result.trace)


def test_trace_records_step_time(micro_corpus):
    records = micro_corpus["IC"][:3] + micro_corpus["SF"][:2]
    result = train(records, build_tiny_model(records, seed=8, batch_size=2), epochs=2)
    by_step: dict[int, set] = {}
    for row in result.trace:
        by_step.setdefault(row.step, set()).add(row.step_ms)
    assert sorted(by_step) == list(range(1, result.steps + 1))
    for times in by_step.values():
        assert len(times) == 1 and next(iter(times)) > 0
    # the CSV carries every field but the step time: seven columns
    assert [row.csv().count(",") for row in result.trace] == [6] * len(result.trace)


def test_train_frees_each_example_graph_before_the_next_forward(micro_corpus):
    records = micro_corpus["IC"][:3] + micro_corpus["SF"][:2]
    model = build_tiny_model(records, seed=8, batch_size=2)
    decoder, layer = model.decoder, model.decoder.layers[0]
    forward, block_forward = decoder.forward, layer.causal_forward
    refs, alive_at_forward = [], []

    def watched_forward(seq, speech):
        # within a step and across steps, the last example's arrays are gone
        alive_at_forward.append(sum(r() is not None for r in refs))
        refs.clear()
        refs.append(weakref.ref(speech.data))
        logits = forward(seq, speech)
        refs.append(weakref.ref(logits.data))
        return logits

    def watched_block(x):
        out = block_forward(x)
        refs.append(weakref.ref(out.data))  # an intermediate activation
        return out

    decoder.forward, layer.causal_forward = watched_forward, watched_block
    result = train(records, model, epochs=2)
    assert len(alive_at_forward) == len(result.trace) == 10
    assert alive_at_forward == [0] * 10


def test_paper_scale_step_peak_memory(flat_records):
    # one aligner + decoder forward/backward under the default config on a 30 s
    # clip's encoder output ([1500, 64] -> 375 speech rows; an MR sequence of
    # 448 positions, vocabulary 732). Measured: a peak of 13.9 MiB, 1.5 MiB
    # held once backward returns (logits, speech and the new gradients). With
    # the graph kept until the loss is dropped and a softmax over every row,
    # 16.5 and 12.8 MiB.
    from speechslu.config import RunConfig
    from speechslu.experiments import build_micro_model

    model = build_micro_model(flat_records, RunConfig())
    record = next(r for r in flat_records if r.task == "SF")
    enc = ag.Tensor(np.random.default_rng(0).normal(size=(1500, 64)).astype(np.float32))
    inventories = collect_inventories(flat_records)

    def step():
        speech = model.aligner.align(enc)
        seq = build_training_sequence(record, "mr", model, inventories,
                                      np.random.default_rng(1), 375).sequence
        logits = model.decoder.forward(seq, speech)
        loss = ag.cross_entropy(ag.slice_rows(logits, 0, len(seq.ids) - 1), seq.ids[1:],
                                ignore_mask=seq.loss_mask[1:], reduction="sum")
        ag.backward(loss)
        return tracemalloc.get_traced_memory()

    step()  # build the position rows and lazily loaded tables
    for p in model.trainable_parameters().values():
        p.grad = None
    tracemalloc.start()
    try:
        held, peak = step()
    finally:
        tracemalloc.stop()
    assert peak / 2**20 < 15.0
    assert held / 2**20 < 2.5


def test_two_runs_same_seed_bitwise_identical_weights(micro_corpus):
    records = micro_corpus["IC"][:3]
    hashes = []
    for _ in range(2):
        model = build_tiny_model(records, seed=4, batch_size=1)
        train(records, model, epochs=2)
        hashes.append(param_hash(model.named_parameters().values()))
    assert hashes[0] == hashes[1]


def test_non_finite_loss_aborts_with_diagnostics(micro_corpus):
    records = micro_corpus["IC"][:1]
    model = build_tiny_model(records, seed=5)
    model.decoder.w_out.data[:] = np.inf
    with pytest.raises(TrainingDiverged, match=records[0].id):
        train(records, model, epochs=1)


def test_single_example_memorization_and_reproduction(micro_corpus):
    # the overfit oracle for greedy generation: train on one pair until the
    # model reproduces the exact gold string
    record = micro_corpus["IC"][0]
    model = build_tiny_model([record], seed=6, batch_size=1, lr=3e-3,
                             strategy_probs=(1.0, 0.0, 0.0))
    result = train([record], model, epochs=120)
    assert result.mean_recent_loss(5) < 0.05
    res = infer(record, "alone", model, np.random.default_rng(0))
    assert res.raw_text.strip() == record.annotation["intent"]  # exact string
    assert res.intent == record.annotation["intent"]


def test_vocabulary_learns_the_configured_scot_delimiter(micro_corpus):
    from speechslu.config import PromptConfig
    from speechslu.experiments import build_micro_model
    from conftest import tiny_run_config

    cfg = tiny_run_config()
    cfg.prompts = PromptConfig(scot_delimiter="###")
    model = build_micro_model(micro_corpus["IC"], cfg)
    assert '"###",' in model.vocab.words and '"---",' not in model.vocab.words
    example, _ = _sequence_for(model, micro_corpus["IC"][0], "scot")
    text = model.vocab.detokenize(example.sequence.ids)
    assert 'a line "###", then' in text and "\n###\n" in text
