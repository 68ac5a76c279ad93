"""Command-line entry point: prepare-data / train / infer / evaluate / selftest."""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, MissingAnnotation
from .fileio import write_atomic
from .datasets import (DEFAULT_HELDOUT_SLOTS, EXPECTED_SLU_GLUE_COUNTS,
                       SLU_GLUE_SUBTASKS, TASKS, ManifestRecord, MicroCorpusSpec,
                       build_slurp_zeroshot, fsc_record, generate_micro_corpus,
                       read_jsonl, read_manifest, slu_glue_record,
                       spoken_alpaca_record, write_manifest)
from .experiments import build_micro_model
from .metrics import (binary_accuracy, corpus_wer, intent_accuracy,
                      perfect_parsing, slu_f1)
from .model import load_model
from .orchestrator import (infer_manifest, predictions_to_jsonl, read_predictions)
from .prompts import STRATEGIES
from .training import train, write_trace_csv


def _log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        cfg = load_config(args.config)
    else:
        cfg = RunConfig()
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    return cfg


# ---------------------------------------------------------------------------
# prepare-data
# ---------------------------------------------------------------------------

def _parse_counts(text: str) -> dict[str, int]:
    """`TASK=N,...` with each TASK one of datasets.TASKS, named once, and each
    N a whole number >= 1; anything else is a ConfigError naming the pair."""
    counts = {}
    for pair in text.split(","):
        task, _, n = pair.partition("=")
        if task not in TASKS or not n.isdecimal() or int(n) < 1:
            raise ConfigError(f"prepare-data --counts: {pair!r} is not TASK=N with TASK "
                              f"one of {', '.join(TASKS)} and N a whole number >= 1")
        if task in counts:
            raise ConfigError(f"prepare-data --counts: {pair!r} names task {task} twice")
        counts[task] = int(n)
    return counts


# the source-row builder of each kind that reads --manifest rows
_ROW_BUILDERS = {"slurp-zeroshot": ManifestRecord.from_dict, "slu-glue": slu_glue_record,
                 "fsc": fsc_record, "spoken-alpaca": spoken_alpaca_record}

# the optional flags each kind reads
_KIND_FLAGS = {"micro": ("counts", "seed"), "slurp-zeroshot": ("manifest", "heldout"),
               "slu-glue": ("manifest",), "fsc": ("manifest",), "spoken-alpaca": ("manifest",)}


def cmd_prepare_data(args) -> int:
    for flag in ("manifest", "heldout", "counts", "seed"):
        if getattr(args, flag) is not None and flag not in _KIND_FLAGS[args.kind]:
            raise ConfigError(f"prepare-data --kind {args.kind} does not read --{flag}")
    out_dir = Path(args.out)
    if args.kind == "micro":
        spec = MicroCorpusSpec()
        if args.counts:
            spec.counts = _parse_counts(args.counts)
        out_dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(args.seed or 0)
        corpus = generate_micro_corpus(spec, rng, out_dir=out_dir)
        _log(f"micro corpus: " + ", ".join(f"{t}={len(v)}" for t, v in corpus.items()))
        return 0
    if not args.manifest:
        raise ConfigError(f"prepare-data --kind {args.kind}: no source rows given "
                          f"(flag --manifest)")
    items, meta = read_jsonl(args.manifest, _ROW_BUILDERS[args.kind],
                             "record" if args.kind == "slurp-zeroshot" else "row")
    if args.kind == "slurp-zeroshot":
        heldout = args.heldout.split(",") if args.heldout else DEFAULT_HELDOUT_SLOTS
        train_recs, test_recs = build_slurp_zeroshot(items, heldout)
        outputs = {"train": train_recs, "test": test_recs}
        _log(f"zero-shot split: {len(train_recs)} train / {len(test_recs)} test "
             f"(guideline test size is ~18k on the full source corpus)")
    elif args.kind == "slu-glue":
        outputs = {sub.lower(): [r for r in items if r.annotation["subtask"] == sub]
                   for sub in SLU_GLUE_SUBTASKS}
        _log("SLU-GLUE rows per subtask (observed/full source corpus): " + ", ".join(
            f"{sub} {len(outputs[sub.lower()])}/{n}"
            for sub, n in EXPECTED_SLU_GLUE_COUNTS.items()))
        outputs = {name: recs for name, recs in outputs.items() if recs}
    elif args.kind == "fsc":
        outputs = {"fsc": items}
        _log(f"FSC: {len(items)} records")
    else:
        kept = [r for r in items if isinstance(r, ManifestRecord)]
        outputs = {task.lower(): [r for r in kept if r.task == task] for task in ("SIT", "SQIT")}
        drops = Counter(r for r in items if isinstance(r, str))
        _log(f"spoken Alpaca: {len(outputs['sit'])} SIT, {len(outputs['sqit'])} SQIT, "
             f"{sum(drops.values())} dropped"
             + "".join(f", {reason}={n}" for reason, n in sorted(drops.items())))
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, records in outputs.items():
        write_manifest(out_dir / f"{name}.jsonl", records, meta)
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def cmd_train(args) -> int:
    cfg = _load_run_config(args)
    out_dir = Path(args.out or cfg.output_dir)
    manifests = args.manifest or cfg.manifests
    if not manifests:
        raise ConfigError("train: no manifests given (flag --manifest or config.manifests)")
    records = []
    sources: dict[str, Path] = {}
    for path in manifests:
        recs, _ = read_manifest(path)
        for r in recs:
            if r.id in sources:
                raise ConfigError(f"train: record id {r.id!r} appears in both "
                                  f"{sources[r.id]} and {path}")
            sources[r.id] = Path(path)
        records.extend(recs)
    if not records:
        raise ConfigError("train: manifests contain no records")

    model = build_micro_model(records, cfg)
    _log(f"training on {len(records)} records "
         f"({len(model.trainable_parameters())} trainable tensors)")
    base_dirs = {rid: path.parent for rid, path in sources.items()}
    result = train(records, model, epochs=args.epochs, base_dirs=base_dirs)
    model.save(out_dir)
    write_trace_csv(out_dir / "loss_trace.csv", result, model.config_hash)
    _log(f"done: {result.steps} steps, last loss/token {result.final_loss:.4f}")
    return 0


# ---------------------------------------------------------------------------
# infer
# ---------------------------------------------------------------------------

def cmd_infer(args) -> int:
    run_dir = Path(args.run)
    model = load_model(run_dir)
    records, _ = read_manifest(args.manifest)
    pairs = infer_manifest(records, model, args.strategy, seed=model.cfg.seed,
                           base_dir=Path(args.manifest).parent)
    payload = predictions_to_jsonl(pairs, model.config_hash, args.strategy)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, payload)
    _log(f"wrote {len(pairs)} predictions to {out}")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

# evaluate task -> (the annotation keys a gold record must carry, the prediction
# fields whose None is a parse failure, its report entries from the predictions
# and their gold records)
_EVAL_TASKS = {
    "asr": ((), (), lambda ps, gs: {"wer": corpus_wer(
        [g.transcript for g in gs], [p.get("transcript") or "" for p in ps])}),
    "ic": (("intent",), ("intent",), lambda ps, gs: {"intent_accuracy": intent_accuracy(
        [p.get("intent") for p in ps], [g.annotation["intent"] for g in gs])}),
    "sf": (("entities",), ("entities",), lambda ps, gs: slu_f1(
        [p.get("entities") for p in ps], [g.annotation["entities"] for g in gs])),
    "pp": (("intent", "entities"), ("intent", "entities"), lambda ps, gs: {
        "perfect_parsing": perfect_parsing(
            [p.get("intent") for p in ps], [p.get("entities") for p in ps],
            [g.annotation["intent"] for g in gs], [g.annotation["entities"] for g in gs])}),
    "binary": (("label", "binary_labels"), ("binary",), lambda ps, gs: {
        "binary_accuracy": binary_accuracy(
            [p.get("binary") for p in ps], [g.annotation["label"] for g in gs],
            [g.annotation["binary_labels"] for g in gs])}),
}


def _share(flags: list[bool]) -> float:
    return sum(flags) / len(flags) if flags else 0.0


def cmd_evaluate(args) -> int:
    reads, parsed, metric = _EVAL_TASKS[args.task]
    preds, meta = read_predictions(args.pred)
    named = {p["id"] for p in preds}

    def gold_record(d: dict) -> ManifestRecord:
        # only the records a prediction names are scored, so only they are checked
        record = ManifestRecord.from_dict(d)
        missing = [k for k in reads if record.annotation.get(k) is None]
        if missing and record.id in named:
            raise MissingAnnotation(f"record {record.id}: evaluate --task {args.task} "
                                    f"reads annotation {missing}")
        return record

    records, _ = read_jsonl(args.gold, gold_record, "record")
    by_id = {r.id: r for r in records}
    unknown = [p["id"] for p in preds if p["id"] not in by_id]
    if unknown:
        raise ConfigError(f"evaluate: prediction ids missing from gold manifest: {unknown[:5]}")
    golds = [by_id[p["id"]] for p in preds]
    report: dict[str, object] = {"task": args.task, "n_examples": len(preds)}
    if meta:
        report["config_hash"] = meta.get("config_hash")
        report["strategy"] = meta.get("strategy")
    report.update(metric(preds, golds))
    if parsed:
        report["parse_failure_rate"] = _share(
            [any(p.get(f) is None for f in parsed) for p in preds])
    report["truncation_rate"] = _share([p.get("truncated") is True for p in preds])

    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        write_atomic(args.out, text + "\n")
    print(text)
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def cmd_selftest(args) -> int:
    import math
    import time

    from . import autograd as ag
    from .aligner import ModalityAligner
    from .config import AlignerConfig, DecoderConfig, EncoderConfig, LoraConfig
    from .decoder import InstructionDecoder, MultimodalSequence, expand_splice
    from .encoder import SpeechEncoder
    from .audio import LOG_FLOOR, MelSpectrogram, log_mel, mel_filterbank
    from .tokenizer import Vocabulary, default_specials

    failures = []

    def check(name: str, fn) -> None:
        t0 = time.time()
        try:
            fn()
            print(f"PASS {name} ({time.time() - t0:.2f}s)")
        except Exception as exc:  # noqa: BLE001 - selftest reports, never raises
            failures.append(name)
            print(f"FAIL {name}: {exc}")

    def fd_check(f, params, eps=1e-3):
        """Backward vs central differences of scalar f(), on every element
        of each float64 parameter."""
        for p in params:
            p.grad = None
        ag.backward(f())
        for p in params:
            flat = p.data.reshape(-1)
            for idx in range(flat.size):
                old = flat[idx]
                flat[idx] = old + eps
                up = float(f().data)
                flat[idx] = old - eps
                dn = float(f().data)
                flat[idx] = old
                num = (up - dn) / (2 * eps)
                ana = p.grad.reshape(-1)[idx]
                rel = abs(num - ana) / max(1e-8, abs(num), abs(ana))
                if rel > 1e-4 and abs(num - ana) > 5e-6:
                    raise AssertionError(f"{p.name}[{idx}]: rel err {rel:.2e}")

    def squared_sum(out):
        return ag.tsum(ag.mul(out, out))

    def gradient_check():
        rng = np.random.default_rng(0)
        x = ag.Tensor(rng.normal(size=(12, 6)), trainable=True)
        cfg = AlignerConfig(d_enc=6, d_dec=5, bottleneck_dim=3)
        aligner = ModalityAligner(cfg, rng)
        for p in aligner.named_parameters().values():
            p.data = rng.normal(size=p.data.shape, scale=0.25)
        fd_check(lambda: squared_sum(aligner.align(x)),
                 list(aligner.named_parameters().values())[:4])

    def lora_linear_vjp():
        rng = np.random.default_rng(3)
        x, w, a, b = (ag.Tensor(rng.normal(size=shape), trainable=True, name=name)
                      for name, shape in (("x", (5, 4)), ("w", (4, 3)),
                                          ("a", (2, 4)), ("b", (3, 2))))
        fd_check(lambda: squared_sum(ag.lora_linear(x, w, a, b, 1.5)), [x, w, a, b])

    def causal_attention_vjp():
        rng = np.random.default_rng(4)
        q, k, v = (ag.Tensor(rng.normal(size=(5, 8)), trainable=True, name=name)
                   for name in "qkv")
        fd_check(lambda: squared_sum(ag.multihead_attention(q, k, v, 2, causal=True)),
                 [q, k, v])

    def lora_identity():
        rng = np.random.default_rng(1)
        vocab = Vocabulary(default_specials(), ["hello", " hello"])
        dec = InstructionDecoder(DecoderConfig(d_model=16, n_layers=1, n_heads=2,
                                               d_ff=32), vocab, rng)
        ids = np.array([0, 262, 263], dtype=np.int64)
        base = dec.forward(MultimodalSequence(ids)).data.copy()
        dec.inject_lora(LoraConfig(rank=2, alpha=4.0), rng)
        after = dec.forward(MultimodalSequence(ids)).data
        if base.tobytes() != after.tobytes():
            raise AssertionError("logits changed at zero-init LoRA injection")

    def shape_law():
        rng = np.random.default_rng(2)
        enc = SpeechEncoder(EncoderConfig(), rng)
        ali = ModalityAligner(AlignerConfig(), rng)
        mel = MelSpectrogram(frames=np.zeros((80, 3000), dtype=np.float32))
        out = ali.align(enc.encode(mel))
        if out.data.shape[0] != 375:
            raise AssertionError(f"got {out.data.shape[0]} embeddings, want 375")

    def gelu_cube():
        # gelu_kernel's guarded cube is bit-exact only if numpy's float32
        # x**3 is within one ulp of float32(float64(x)**3), with the same
        # finiteness; sample that on bit patterns of every sign and exponent
        rng = np.random.default_rng(5)
        x = rng.integers(0, 2**32, size=1 << 20, dtype=np.uint32).view(np.float32)
        x = x[np.isfinite(x)]
        xd = x.astype(np.float64)
        with np.errstate(over="ignore"):
            exact = x**3
            r = (xd * xd * xd).astype(np.float32)
        ulps = np.abs(exact.view(np.int32).astype(np.int64) - r.view(np.int32))
        bad = int(((ulps > 1) | (np.isfinite(exact) != np.isfinite(r))).sum())
        if bad:
            raise AssertionError(
                f"x**3 is not within one ulp of the float64 cube on {bad} of "
                f"{x.size} samples: gelu_kernel is still a GELU, but no longer "
                f"matches x**3 bit for bit")
        x = (rng.normal(size=(300, 128)) * 3).astype(np.float32)
        c = np.float32(math.sqrt(2.0 / math.pi))
        k = np.float32(0.044715)
        t = np.tanh(c * (x + k * x**3))
        out, got = ag.gelu_kernel(x)
        if got.tobytes() != t.tobytes() or out.tobytes() != (0.5 * x * (1.0 + t)).tobytes():
            raise AssertionError("gelu_kernel differs from the plain x**3 formula")

    def attention_blocks():
        # the blocks keep every bit only on a BLAS whose GEMM rows ignore the row count
        rng = np.random.default_rng(7)
        for tq, d, heads in ((1500, 64, 2), (1100, 8, 4)):
            q, k, v = (rng.normal(size=(tq, d)).astype(np.float32) for _ in range(3))
            whole = ag.attention_kernel(q, k, v, heads, keep_weights=True)[0]
            if ag.attention_kernel(q, k, v, heads)[0].tobytes() != whole.tobytes():
                raise AssertionError(f"query blocks differ at [{tq}, {d}], {heads} heads")
        wav = rng.normal(size=513 * 160)  # 513 frames, in 3 blocks of 171
        frames = np.lib.stride_tricks.sliding_window_view(np.pad(wav, 200), 400)[::160][:513]
        fb_t = mel_filterbank(80, 400, 16000).T.astype(np.float64)  # F-ordered, as log_mel's
        mel = np.abs(np.fft.rfft(frames * np.hanning(400))) ** 2 @ fb_t
        whole = np.log(np.maximum(mel, LOG_FLOOR)).T.astype(np.float32)
        if log_mel(wav, 16000, clip_seconds=5.13).frames.tobytes() != whole.tobytes():
            raise AssertionError("log_mel's frame blocks differ from the whole clip")

    def kv_decode():
        # the cached single-row steps, and a second round that reuses the
        # first's key/value rows, against the graph forward of the same ids
        rng = np.random.default_rng(6)
        vocab = Vocabulary(default_specials(), ["hello", " hello", " world"])
        dec = InstructionDecoder(DecoderConfig(d_model=16, n_layers=2, n_heads=4,
                                               d_ff=32), vocab, rng)
        dec.inject_lora(LoraConfig(rank=2, alpha=4.0), rng)
        for layer in dec.layers:
            for wrapper in layer.lora.values():
                wrapper.B.data = rng.normal(size=wrapper.B.data.shape,
                                            scale=0.1).astype(np.float32)
        placeholder = vocab.special_id("speech_placeholder")
        speech = rng.normal(size=(3, 16)).astype(np.float32)
        step_logits = []
        head = dec._head

        def recording_head(x):
            step_logits.append(head(x))
            return step_logits[-1]

        dec._head = recording_head
        seq = expand_splice([0, placeholder, 262, 263], 1, len(speech), placeholder)
        first = dec.generate_greedy(seq, speech, 4)
        seq2 = MultimodalSequence(np.append(first.kv.ids, [264, 263]), 1, len(speech))
        if first.kv.shared_rows(seq2, speech) != len(first.kv.ids):
            raise AssertionError("round 2 does not reuse round 1's rows")
        second = dec.generate_greedy(seq2, speech, 4, first.kv)
        ran = 0
        for s, out in ((seq, first), (seq2, second)):
            ids = np.append(s.ids, out.ids)
            graph = dec.forward(MultimodalSequence(ids, 1, len(speech)),
                                ag.Tensor(speech)).data[len(s.ids) - 1:]
            cached = step_logits[ran:ran + len(out.ids)]
            ran += len(out.ids)
            if not np.allclose(cached, graph[:len(cached)], rtol=1e-5, atol=1e-5):
                err = np.abs(np.asarray(cached) - graph[:len(cached)]).max()
                raise AssertionError(f"cached logits differ from the graph's by {err:.2e}")

    check("gradient-check", gradient_check)
    check("lora-linear-vjp", lora_linear_vjp)
    check("causal-attention-vjp", causal_attention_vjp)
    check("lora-identity", lora_identity)
    check("shape-law-3000-1500-375", shape_law)
    check("gelu-cube", gelu_cube)
    check("attention-blocks", attention_blocks)
    check("kv-decode", kv_decode)
    if failures:
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="speechslu",
        description="Desk-scale speech-LLM for spoken language understanding.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare-data", help="build dataset manifests")
    p.add_argument("--kind", required=True, choices=list(_KIND_FLAGS))
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", help="source rows, JSON Lines (every kind but micro)")
    p.add_argument("--heldout", help="comma-separated held-out slot types (slurp-zeroshot)")
    p.add_argument("--counts", help="micro corpus sizes, e.g. IC=10,SF=10 (micro)")
    p.add_argument("--seed", type=int, help="corpus seed, default 0 (micro)")
    p.set_defaults(func=cmd_prepare_data)

    p = sub.add_parser("train", help="train aligner + LoRA on manifests")
    p.add_argument("--config", help="run config JSON")
    p.add_argument("--manifest", action="append", help="training manifest (repeatable)")
    p.add_argument("--out", help="output run directory")
    p.add_argument("--epochs", type=int, default=None, help="override config epochs")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("infer", help="batch inference over a manifest")
    p.add_argument("--run", required=True, help="run directory from train")
    p.add_argument("--manifest", required=True)
    p.add_argument("--strategy", required=True, choices=STRATEGIES)
    p.add_argument("--out", required=True, help="predictions JSONL path")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("evaluate", help="score predictions against gold manifests")
    p.add_argument("--task", required=True, choices=list(_EVAL_TASKS))
    p.add_argument("--pred", required=True)
    p.add_argument("--gold", required=True)
    p.add_argument("--out", help="also write the JSON report here")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("selftest", help="gradient, LoRA-identity, shape-law, GELU-cube "
                                        "and KV-decode checks")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ConfigError as exc:
        _log(f"config error: {exc}")
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
