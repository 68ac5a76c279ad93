"""Multi-task training: strategy-config assignment, supervised-sequence
construction with loss masking, and the AdamW loop that updates only the
aligner and LoRA parameters."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .datasets import TASKS, ManifestRecord
from .decoder import MultimodalSequence, expand_splice
from .errors import NonFiniteInput, TrainingDiverged
from .fileio import write_atomic
from .model import SluModel
from .optim import AdamWState, adamw_step, clip_global_norm
from .orchestrator import collect_inventories, task_instruction
from .prompts import (STRATEGIES, DialogueTurn, build_task_prompt, render_chat,
                      scot_target, strategy_turns)


def assign_config(record: ManifestRecord, rng: np.random.Generator,
                  probs=(1 / 3, 1 / 3, 1 / 3)) -> str:
    """SLU tasks draw one of the three strategy configs; a plain task
    (`datasets.TASKS`) always trains `alone`, with no draw."""
    if TASKS[record.task].plain:
        return "alone"
    idx = int(rng.choice(len(STRATEGIES), p=np.asarray(probs) / np.sum(probs)))
    return STRATEGIES[idx]


def gold_answer(record: ManifestRecord) -> str:
    """The supervised answer: the annotation the record's task names (entities
    as a JSON object of slot type -> value), else the transcript."""
    key = TASKS[record.task].answer
    if key is None:
        return record.transcript
    if key != "entities":
        return record.annotation[key]
    obj: dict[str, object] = {}
    for t, v in record.annotation["entities"]:
        if t in obj:
            prev = obj[t]
            obj[t] = prev + [v] if isinstance(prev, list) else [prev, v]
        else:
            obj[t] = v
    return json.dumps(obj, ensure_ascii=False)


@dataclass
class TrainingExample:
    config: str
    sequence: MultimodalSequence
    n_supervised: int


def build_training_sequence(record: ManifestRecord, config: str, model: SluModel,
                            inventories: dict, rng: np.random.Generator,
                            speech_len: int) -> TrainingExample:
    """Render a record's dialogue under a strategy config, with its
    assistant target, and mask the supervised spans."""
    vocab, pcfg = model.vocab, model.prompt_cfg
    asr_prompt = build_task_prompt("ASR", [], model.bank, rng)
    instruction = task_instruction(record, inventories, model, rng)
    answer = gold_answer(record)
    if config == "scot":
        answer = scot_target(record.transcript, answer, pcfg.scot_delimiter)
    turns = strategy_turns(config, instruction, asr_prompt, record.transcript,
                           pcfg.scot_delimiter)
    rendered = render_chat(turns + [DialogueTurn("assistant", answer)], vocab, pcfg)
    mask = np.zeros(len(rendered.ids), dtype=bool)
    for role, start, end in rendered.spans:
        if role == "assistant":
            mask[start:end] = True
    seq = expand_splice(rendered.ids, rendered.splice_index, speech_len,
                        vocab.special_id("speech_placeholder"), mask)
    return TrainingExample(config=config, sequence=seq, n_supervised=int(seq.loss_mask.sum()))


@dataclass
class TraceRow:
    step: int
    task: str
    config: str
    loss: float          # per supervised token, this sequence
    tokens: int = 0      # supervised tokens in this sequence
    lr: float = 0.0      # learning rate of this step
    grad_norm: float = 0.0  # this step's global gradient norm, before clipping
    step_ms: float = 0.0    # wall time of this step, the same on each of its rows

    def csv(self) -> str:  # every field but step_ms, which varies from run to run
        return (f"{self.step},{self.task},{self.config},{self.loss:.6f},{self.tokens},"
                f"{self.lr:.6g},{self.grad_norm:.6g}")


@dataclass
class TrainResult:
    trace: list[TraceRow] = field(default_factory=list)
    steps: int = 0
    final_loss: float = float("nan")

    def mean_recent_loss(self, n: int = 50) -> float:
        """Token-weighted per-token loss over the last n trace rows."""
        rows = self.trace[-n:]
        tokens = sum(r.tokens for r in rows)
        if tokens == 0:
            return sum(r.loss for r in rows) / max(1, len(rows))
        return sum(r.loss * r.tokens for r in rows) / tokens


def _repeated(records: list[ManifestRecord], weights: dict[str, float]) -> list[ManifestRecord]:
    """Each record once per whole-number repetition weight of its task, at least once."""
    return [r for r in records for _ in range(max(1, int(round(weights.get(r.task, 1.0)))))]


def _epoch_stream(pool: list[ManifestRecord], rng: np.random.Generator) -> list[ManifestRecord]:
    """One epoch: `pool` in a fresh shuffled order."""
    return [pool[i] for i in rng.permutation(len(pool))]


def train(records: list[ManifestRecord], model: SluModel, epochs: int | None = None,
          base_dirs: dict | None = None, log_every: int = 0) -> TrainResult:
    """One pass (or `epochs` passes) of masked-CE training over the mixed
    task stream. Only aligner + LoRA parameters receive updates. A
    record's relative audio path resolves against `base_dirs[record.id]`
    (its manifest's directory), else against the working directory."""
    tcfg = model.cfg.train
    base_dirs = base_dirs or {}
    epochs = tcfg.epochs if epochs is None else epochs
    inventories = collect_inventories(records)
    trainable = list(model.trainable_parameters().values())
    state = AdamWState(lr=tcfg.lr, betas=tcfg.betas, eps=tcfg.eps,
                       weight_decay=tcfg.weight_decay)
    seeds = np.random.SeedSequence(model.cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(seeds[0])
    build_rng = np.random.default_rng(seeds[1])

    result = TrainResult()
    step = 0
    pool = _repeated(records, tcfg.task_weights)
    total_steps = max(1, epochs * -(-len(pool) // tcfg.batch_size))
    for _ in range(epochs):
        stream = _epoch_stream(pool, shuffle_rng)
        for batch_start in range(0, len(stream), tcfg.batch_size):
            t_step = time.perf_counter()
            batch = stream[batch_start:batch_start + tcfg.batch_size]
            step += 1
            if tcfg.lr_schedule == "linear":
                state.lr = tcfg.lr * max(0.1, 1.0 - step / total_steps)
            total_nll = 0.0
            total_tokens = 0
            rows = []
            for record in batch:
                config = assign_config(record, build_rng, tcfg.strategy_probs)
                try:
                    speech = model.embed_audio(record.audio, base_dirs.get(record.id))
                    example = build_training_sequence(record, config, model, inventories,
                                                      build_rng, speech.data.shape[0])
                    seq = example.sequence
                    logits = model.decoder.forward(seq, speech)
                    t = len(seq.ids)
                    loss = ag.cross_entropy(
                        ag.slice_rows(logits, 0, t - 1), seq.ids[1:],
                        ignore_mask=seq.loss_mask[1:], reduction="sum")
                except NonFiniteInput as exc:
                    raise TrainingDiverged(step, record.id) from exc
                if not np.isfinite(loss.data):
                    raise TrainingDiverged(step, record.id)
                n_tok = int(seq.loss_mask[1:].sum())
                nll = float(loss.data)
                ag.backward(loss)
                del speech, logits, loss  # this example's graph ends before the next's
                total_nll += nll
                total_tokens += n_tok
                rows.append((record, example, nll / max(1, n_tok), n_tok))
            scale = 1.0 / max(1, total_tokens)
            for p in trainable:
                if p.grad is not None:
                    p.grad *= scale
            grad_norm = clip_global_norm(trainable, tcfg.clip_norm)
            missing = [p for p in trainable if p.grad is None]
            for p in missing:
                p.grad = np.zeros_like(p.data)
            adamw_step(trainable, state)
            step_ms = (time.perf_counter() - t_step) * 1000.0
            for record, example, per_tok, n_tok in rows:
                result.trace.append(TraceRow(step, record.task, example.config, per_tok,
                                             n_tok, state.lr, grad_norm, step_ms))
            if log_every and step % log_every == 0:
                batch_loss = total_nll / max(1, total_tokens)
                print(f"step {step}: loss/token {batch_loss:.4f}")
    result.steps = step
    result.final_loss = result.trace[-1].loss if result.trace else float("nan")
    return result


def write_trace_csv(path, result: TrainResult, config_hash: str) -> None:
    lines = [f"# config_hash={config_hash}", "step,task,config,loss,tokens,lr,grad_norm"]
    lines.extend(row.csv() for row in result.trace)
    write_atomic(path, "\n".join(lines) + "\n")
