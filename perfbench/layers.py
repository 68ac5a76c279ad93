"""Which speechslu functions are traced, and the per-layer metrics computed
from their spans.

Every count and time is per operation (one training step or one inference
example) of the traced phase, so runs of different lengths compare;
set-up metrics are per set-up, ratios have their base in the name.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import defaultdict

import spans as sp

AUTOGRAD_OPS = ("matmul", "add", "mul", "linear", "gelu", "layer_norm", "softmax",
                "multihead_attention", "conv1d", "embedding_lookup", "concat",
                "slice_rows", "transpose", "cross_entropy")
# primitives that each create one graph node (linear and multihead_attention
# are compositions of these)
NODE_OPS = ("matmul", "add", "mul", "gelu", "layer_norm", "softmax", "conv1d",
            "embedding_lookup", "concat", "slice_rows", "transpose", "cross_entropy",
            "reshape", "tsum")
SETUP_SPANS = ("checkpoint.load_checkpoint", "datasets.generate_micro_corpus")
PARSED_FIELD = {"IC": "intent", "SF": "entities", "SA": "binary", "SER": "binary",
                "STER": "binary"}


def _metric_units() -> dict[str, str]:
    units = {"autograd.nodes": "nodes/op"}
    for op in AUTOGRAD_OPS:
        units[f"autograd.{op}.calls"] = "calls/op"
        units[f"autograd.{op}.self_ms"] = "ms/op"
    units.update({
        "autograd.backward.calls": "calls/op", "autograd.backward.ms": "ms/op",
        "audio.resolve_audio.calls": "calls/op", "audio.resolve_audio.ms": "ms/op",
        "audio.synthesize_mel.ms": "ms/op", "audio.load_mel.ms": "ms/op",
        "audio.load_wav.ms": "ms/op", "audio.log_mel.ms": "ms/op",
        "encoder.encode.calls": "calls/op", "encoder.encode.ms": "ms/op",
        "encoder.conv.ms": "ms/op", "encoder.blocks.ms": "ms/op",
        "model.encode_mel.calls": "calls/op", "model.encoder_cache_hit_ratio": "ratio",
        "model.generate.calls": "calls/op", "model.generate.self_ms": "ms/op",
        "aligner.align.calls": "calls/op", "aligner.align.ms": "ms/op",
        "decoder.forward.calls": "calls/op", "decoder.forward.ms": "ms/op",
        "decoder.generate_greedy.calls": "calls/op", "decoder.generate_greedy.ms": "ms/op",
        "decoder.prompt_positions": "positions/op", "decoder.generated_tokens": "tokens/op",
        "decoder.truncated_ratio": "ratio",
        "tokenizer.tokenize.calls": "calls/op", "tokenizer.tokenize.ms": "ms/op",
        "tokenizer.detokenize.ms": "ms/op",
        "prompts.render_chat.calls": "calls/op", "prompts.render_chat.self_ms": "ms/op",
        "prompts.build_task_prompt.ms": "ms/op", "prompts.sample_candidate_labels.ms": "ms/op",
        "training.build_training_sequence.calls": "calls/op",
        "training.build_training_sequence.self_ms": "ms/op",
        "training.supervised_tokens": "tokens/op", "training.sequence_positions": "positions/op",
        "optim.clip_global_norm.ms": "ms/op", "optim.adamw_step.ms": "ms/op",
        "orchestrator.infer.calls": "calls/op", "orchestrator.infer.self_ms": "ms/op",
        "orchestrator.parse_slu_output.ms": "ms/op", "orchestrator.parse_failure_ratio": "ratio",
        "orchestrator.generations": "generations/op",
        "checkpoint.load_checkpoint.ms": "ms/setup", "datasets.generate_micro_corpus.ms": "ms/setup",
        "trace.overhead_ratio": "ratio",
    })
    return units


METRIC_UNITS = _metric_units()


# ---------------------------------------------------------------------------
# what gets wrapped
# ---------------------------------------------------------------------------

def _observe_generation(tracer, args, result):
    tracer.count("decoder.prompt_positions", len(args[1].ids))
    tracer.count("decoder.generated_tokens", len(result.ids))
    tracer.count("decoder.truncated", bool(result.truncated))


def _observe_training_sequence(tracer, args, result):
    tracer.count("training.supervised_tokens", result.n_supervised)
    tracer.count("training.sequence_positions", len(result.sequence.ids))


def _observe_parse(tracer, args, result):
    field = PARSED_FIELD.get(args[1])
    if field is not None:
        tracer.count("orchestrator.parses")
        tracer.count("orchestrator.parse_failures", result[field] is None)


def _observe_infer(tracer, args, result):
    tracer.count("orchestrator.generations", result.n_generations)


def install(tracer: sp.Tracer) -> None:
    """Wrap every traced function and method of speechslu.

    Every speechslu module is imported first: a module imported while the
    wrappers are in place would bind a wrapper by name and keep it after
    `uninstall()`."""
    import speechslu

    for info in pkgutil.iter_modules(speechslu.__path__):
        importlib.import_module(f"speechslu.{info.name}")
    from speechslu import (aligner, audio, autograd, checkpoint, datasets, decoder,
                           encoder, model, optim, orchestrator, prompts, tokenizer,
                           training)

    for op in sorted(set(AUTOGRAD_OPS) | set(NODE_OPS)):
        tracer.patch_function(autograd, op, f"autograd.{op}")
    tracer.patch_function(autograd, "backward", "autograd.backward")
    for fn in ("resolve_audio", "synthesize_mel", "load_mel", "load_wav", "log_mel"):
        tracer.patch_function(audio, fn, f"audio.{fn}")
    tracer.patch_method(encoder.SpeechEncoder, "encode", "encoder.encode")
    tracer.patch_method(encoder.TransformerBlock, "__call__", "encoder.block")
    tracer.patch_method(model.SluModel, "encode_mel", "model.encode_mel")
    tracer.patch_method(model.SluModel, "generate", "model.generate")
    tracer.patch_method(aligner.ModalityAligner, "align", "aligner.align")
    tracer.patch_method(decoder.InstructionDecoder, "forward", "decoder.forward")
    tracer.patch_method(decoder.InstructionDecoder, "generate_greedy",
                        "decoder.generate_greedy", _observe_generation)
    tracer.patch_method(tokenizer.Vocabulary, "tokenize", "tokenizer.tokenize")
    tracer.patch_method(tokenizer.Vocabulary, "detokenize", "tokenizer.detokenize")
    for fn in ("render_chat", "build_task_prompt", "sample_candidate_labels"):
        tracer.patch_function(prompts, fn, f"prompts.{fn}")
    tracer.patch_function(training, "build_training_sequence",
                          "training.build_training_sequence", _observe_training_sequence)
    tracer.patch_function(optim, "clip_global_norm", "optim.clip_global_norm")
    tracer.patch_function(optim, "adamw_step", "optim.adamw_step")
    tracer.patch_function(orchestrator, "infer", "orchestrator.infer", _observe_infer)
    tracer.patch_function(orchestrator, "parse_slu_output", "orchestrator.parse_slu_output",
                          _observe_parse)
    tracer.patch_function(checkpoint, "load_checkpoint", "checkpoint.load_checkpoint")
    tracer.patch_function(datasets, "generate_micro_corpus", "datasets.generate_micro_corpus")


# ---------------------------------------------------------------------------
# span arithmetic -> metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(span_list, counters, op_ids, setup_id, overhead_ratio: float) -> dict[str, float]:
    """Per-layer metrics from spans whose request id is in `op_ids` (per op)
    and from the spans of the one set-up whose request id is `setup_id`."""
    op_ids = set(op_ids)
    n_ops = max(1, len(op_ids))
    self_ns = sp.self_times_ns(span_list)
    calls: dict[str, int] = defaultdict(int)
    total_ns: dict[str, int] = defaultdict(int)
    own_ns: dict[str, int] = defaultdict(int)
    setup_ns: dict[str, int] = defaultdict(int)
    conv_under_encode = 0
    for i, (name, start, end, _parent, request) in enumerate(span_list):
        if request == setup_id:
            setup_ns[name] += end - start
        if request not in op_ids:
            continue
        calls[name] += 1
        total_ns[name] += end - start
        own_ns[name] += self_ns[i]
        if name == "autograd.conv1d" and "encoder.encode" in sp.ancestor_names(span_list, i):
            conv_under_encode += end - start
    count = defaultdict(float)
    for (request, name), value in counters.items():
        if request in op_ids:
            count[name] += value

    def per_op_ms(ns):
        return ns / 1e6 / n_ops

    out: dict[str, float] = {
        "autograd.nodes": sum(calls[f"autograd.{op}"] for op in NODE_OPS) / n_ops}
    for op in AUTOGRAD_OPS:
        out[f"autograd.{op}.calls"] = calls[f"autograd.{op}"] / n_ops
        out[f"autograd.{op}.self_ms"] = per_op_ms(own_ns[f"autograd.{op}"])
    hits, lookups = sp.cache_hit_ratio(span_list, "model.encode_mel", "encoder.encode",
                                       op_ids)
    simple_calls = ("autograd.backward", "audio.resolve_audio", "encoder.encode",
                    "model.encode_mel", "model.generate", "aligner.align", "decoder.forward",
                    "decoder.generate_greedy", "tokenizer.tokenize", "prompts.render_chat",
                    "training.build_training_sequence", "orchestrator.infer")
    for name in simple_calls:
        out[f"{name}.calls"] = calls[name] / n_ops
    inclusive = ("autograd.backward", "audio.resolve_audio", "audio.synthesize_mel",
                 "audio.load_mel", "audio.load_wav", "audio.log_mel", "encoder.encode",
                 "aligner.align", "decoder.forward", "decoder.generate_greedy",
                 "tokenizer.tokenize", "tokenizer.detokenize", "prompts.build_task_prompt",
                 "prompts.sample_candidate_labels", "optim.clip_global_norm",
                 "optim.adamw_step", "orchestrator.parse_slu_output")
    for name in inclusive:
        out[f"{name}.ms"] = per_op_ms(total_ns[name])
    for name in ("model.generate", "prompts.render_chat", "training.build_training_sequence",
                 "orchestrator.infer"):
        out[f"{name}.self_ms"] = per_op_ms(own_ns[name])
    out.update({
        "encoder.conv.ms": per_op_ms(conv_under_encode),
        "encoder.blocks.ms": per_op_ms(total_ns["encoder.block"]),
        "model.encoder_cache_hit_ratio": _ratio(hits, lookups),
        "decoder.prompt_positions": count["decoder.prompt_positions"] / n_ops,
        "decoder.generated_tokens": count["decoder.generated_tokens"] / n_ops,
        "decoder.truncated_ratio": _ratio(count["decoder.truncated"],
                                          calls["decoder.generate_greedy"]),
        "training.supervised_tokens": count["training.supervised_tokens"] / n_ops,
        "training.sequence_positions": count["training.sequence_positions"] / n_ops,
        "orchestrator.parse_failure_ratio": _ratio(count["orchestrator.parse_failures"],
                                                   count["orchestrator.parses"]),
        "orchestrator.generations": count["orchestrator.generations"] / n_ops,
        "trace.overhead_ratio": overhead_ratio,
    })
    for name in SETUP_SPANS:
        out[f"{name}.ms"] = setup_ns[name] / 1e6
    missing = set(METRIC_UNITS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: out[name] for name in METRIC_UNITS}
