"""The benchmark's three workloads.

Each workload has a `setup` (timed by the caller, repeated), an untimed
`warm` pass, and a closed-loop `run` with one client that measures for a
number of seconds. The workload seed only shapes the inputs; the program
sees ordinary records, manifests and WAV files.

- train_micro: `training.train` on the criterion-6 recipe (micro corpus at
  CORPUS_SEED, `micro_run_config(7)`, `synthetic:` audio refs) for a fixed
  number of epochs, a fresh model each repetition. The seed permutes the
  record order handed to `train`.
- infer_micro: `alone`, `scot` and `mr` over the 20 micro records, read
  from disk as `prepare-data` writes them, with the stored trained run. One
  example is one `infer_manifest` call, the per-example work of
  `speechslu infer`. The seed orders the (strategy, record) pairs.
- infer_paper: `mr` with the default paper-scale `RunConfig` (untrained
  weights), one fresh 30 s 16 kHz WAV file per request, IC and SF micro
  records alternating. The seed orders the records; a clip's samples are
  keyed to its record's transcript so stored reference outputs cover any
  seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import harness

FIXTURE_DIR = harness.BENCH_DIR / "fixtures"
RUN_DIR = FIXTURE_DIR / "micro_run"
FIXTURE_JSON = FIXTURE_DIR / "FIXTURE.json"
REFERENCE_JSON = FIXTURE_DIR / "reference_outputs.json"
STRATEGIES = ("alone", "scot", "mr")
FIXTURE_SEED = 7
TRAIN_EPOCHS = 5
SAMPLE_RATE = 16000
CLIP_SECONDS = 30
# criterion 6's gates: per strategy, IC hits >= 9/10 and SF exact sets >= 8/10
IC_GATE, SF_GATE = 9, 8


@dataclass
class Measurement:
    """What one timed run saw; times in seconds."""

    # (kind, key, latency); ops with the same key repeat identical work
    ops: list[tuple[str, object, float]] = field(default_factory=list)
    examples: int = 0            # training examples or inference examples
    attempted: int = 0
    failed: int = 0
    matches: int = 0             # operations whose output equals the reference
    compared: int = 0
    hits: int = 0                # inference examples whose SLU answer is right
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def problem(self, message: str) -> None:
        if message not in self.problems:
            self.problems.append(message)

    def absorb(self, other: "Measurement") -> None:
        """Add another run's operations and counts to this one."""
        self.ops.extend(other.ops)
        for name in ("examples", "attempted", "failed", "matches", "compared", "hits"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for message in other.problems:
            self.problem(message)
        self.extra = {**other.extra, **self.extra}

    def key_ms(self, kind: str | None = None) -> list[float]:
        """Each op's latency taken as the 90th percentile of its key's runs, in ms.

        On a shared host identical work runs in a usual state, in stretches
        up to 1.4x faster (seconds to minutes, when the core is not shared)
        and now and then about 1.1x slower. How much of a run the fast
        stretches cover changes from run to run, and the key's minimum,
        mean or median follow it; its 90th percentile stays in the usual
        state unless a fast stretch covers nine tenths of the run. The
        spread across keys (strategies, records, steps) is kept."""
        runs: dict[object, list[float]] = {}
        for _, key, seconds in self.ops:
            runs.setdefault(key, []).append(seconds)
        usual = {key: harness.percentile(v, 90) for key, v in runs.items()}
        return [usual[key] * 1e3 for k, key, _ in self.ops if kind is None or k == kind]

    def min_repeats(self) -> int:
        counts: dict[object, int] = {}
        for _, key, _ in self.ops:
            counts[key] = counts.get(key, 0) + 1
        return min(counts.values(), default=0)


def examples_per_s(meas: Measurement) -> float:
    """Examples over the summed per-key latencies of all ops."""
    return meas.examples / (sum(meas.key_ms()) / 1e3)


def _fail(meas: Measurement, what: str) -> None:
    meas.failed += 1
    if meas.failed == 1:
        print(f"first failed operation ({what}):", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)


def check_fixture() -> dict:
    """Digest check of the stored run directory and reference outputs."""
    if not FIXTURE_JSON.is_file():
        raise harness.SetupError(f"missing {FIXTURE_JSON}")
    info = json.loads(FIXTURE_JSON.read_text(encoding="utf-8"))
    expected = dict(info["files"])
    expected_refs = info.get("reference_outputs_sha256")
    for name, digest in expected.items():
        path = RUN_DIR / name
        if not path.is_file() or harness.sha256_file(path) != digest:
            raise harness.SetupError(f"fixture digest mismatch: {path}")
    if not REFERENCE_JSON.is_file() or harness.sha256_file(REFERENCE_JSON) != expected_refs:
        raise harness.SetupError(f"reference digest mismatch: {REFERENCE_JSON}")
    return json.loads(REFERENCE_JSON.read_text(encoding="utf-8"))


def micro_records():
    from speechslu import datasets, experiments

    corpus = datasets.generate_micro_corpus(
        experiments.micro_corpus_spec(), np.random.default_rng(experiments.CORPUS_SEED))
    return [r for rs in corpus.values() for r in rs]


def slu_hit(record, result) -> bool:
    from speechslu import orchestrator

    if record.task == "IC":
        return result.intent == record.annotation["intent"]
    return orchestrator.exact_entity_match(result.entities, record.annotation["entities"])


class StepClock:
    """Timestamp-only stand-in for a function: notes when each call returns."""

    def __init__(self, fn, on_return):
        self.fn = fn
        self.on_return = on_return
        self.stamps: list[float] = []

    def __call__(self, *args, **kwargs):
        out = self.fn(*args, **kwargs)
        self.stamps.append(time.perf_counter())
        self.on_return(len(self.stamps))
        return out


def clock_overhead_ns(calls: int = 200_000) -> float:
    """Cost one StepClock adds to a call, measured on a no-op function."""
    def noop():
        return None

    def ignore(n):
        return None

    clock = StepClock(noop, ignore)
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter_ns()
        clock.stamps.clear()
        for _ in range(calls):
            clock()
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


# ---------------------------------------------------------------------------
# train_micro
# ---------------------------------------------------------------------------

class TrainMicro:
    name = "train_micro"

    def setup(self, work_dir, seed: int):
        from speechslu import experiments

        records = micro_records()
        order = np.random.default_rng(seed).permutation(len(records))
        records = [records[i] for i in order]
        cfg = experiments.micro_run_config(FIXTURE_SEED)
        return {"records": records, "model": experiments.build_micro_model(records, cfg)}

    def _fresh_model(self, state):
        from speechslu import experiments

        return experiments.build_micro_model(state["records"],
                                             experiments.micro_run_config(FIXTURE_SEED))

    def warm(self, state) -> None:
        from speechslu import training

        training.train(state["records"], self._fresh_model(state), epochs=1)

    def run(self, state, seconds: float, min_ops: int, on_op, references=None) -> Measurement:
        """Train fresh models for TRAIN_EPOCHS each, at least once and for
        `min_ops` steps, then while another whole repetition fits in
        `seconds`. A step's time is the interval between returns of
        `training.adamw_step`. The state's first repetition is the
        baseline every later one must reproduce bit for bit."""
        from speechslu import training
        from speechslu.errors import TrainingDiverged

        meas = Measurement()
        clock = StepClock(training.adamw_step, on_op)
        reps = 0
        training.adamw_step = clock
        try:
            t_begin = time.perf_counter()
            while (reps < 1 or len(clock.stamps) < min_ops
                   or (time.perf_counter() - t_begin) * (reps + 1) / reps <= seconds):
                model = state.pop("model", None) or self._fresh_model(state)
                on_op(len(clock.stamps))
                done_before = len(clock.stamps)
                t0 = time.perf_counter()
                try:
                    result = training.train(state["records"], model, epochs=TRAIN_EPOCHS)
                except TrainingDiverged:
                    meas.attempted = len(clock.stamps) + 1
                    _fail(meas, "training step")
                    meas.problem("training diverged")
                    break
                reps += 1
                stamps = [t0] + clock.stamps[done_before:]
                meas.ops.extend(("step", k, b - a)
                                for k, (a, b) in enumerate(zip(stamps, stamps[1:])))
                meas.examples += len(result.trace)
                losses = self._losses_by_step(result)
                if "baseline" not in state:
                    state["baseline"] = losses
                    self._check_loss(result, meas)
                else:
                    meas.compared += len(losses)
                    meas.matches += sum(1 for a, b in zip(losses, state["baseline"]) if a == b)
            meas.attempted = max(meas.attempted, len(clock.stamps))
        finally:
            training.adamw_step = clock.fn
        return meas

    @staticmethod
    def _check_loss(result, meas: Measurement) -> None:
        first_epoch = result.trace[:len(result.trace) // TRAIN_EPOCHS]
        start_loss = sum(r.loss * r.tokens for r in first_epoch) / sum(
            r.tokens for r in first_epoch)
        final = result.mean_recent_loss(len(first_epoch))
        if not np.isfinite(final) or not final < start_loss:
            meas.problem(f"loss did not fall: {start_loss:.4f} -> {final:.4f}")
        meas.extra.update(train_loss_final=final, train_loss_first_epoch=start_loss,
                          rows_per_epoch=len(first_epoch), epochs=TRAIN_EPOCHS,
                          steps_per_rep=result.steps)

    @staticmethod
    def _losses_by_step(result):
        by_step: dict[int, list[float]] = {}
        for row in result.trace:
            by_step.setdefault(row.step, []).append(row.loss)
        return [tuple(v) for _, v in sorted(by_step.items())]

    def named_metrics(self, meas: Measurement) -> list[tuple[str, float, str, int]]:
        steps = meas.key_ms()
        return [
            ("train_examples_per_s", examples_per_s(meas), "examples/s", meas.examples),
            ("train_step_ms_p50", harness.percentile(steps, 50), "ms", len(steps)),
            ("train_step_ms_p90", harness.percentile(steps, 90), "ms", len(steps)),
            ("train_loss_final", meas.extra["train_loss_final"], "nats/token",
             meas.extra["rows_per_epoch"]),
        ]


# ---------------------------------------------------------------------------
# infer_micro
# ---------------------------------------------------------------------------

class InferMicro:
    name = "infer_micro"

    def setup(self, work_dir, seed: int):
        """What a user does before `speechslu infer`: write the corpus to disk
        as `prepare-data` does, read its manifests, load the trained run."""
        from speechslu import datasets, experiments, orchestrator
        from speechslu import model as model_mod

        data_dir = work_dir / "data"
        datasets.generate_micro_corpus(experiments.micro_corpus_spec(),
                                       np.random.default_rng(experiments.CORPUS_SEED),
                                       out_dir=data_dir)
        records = []
        for task in ("ic", "sf"):
            records.extend(datasets.read_manifest(data_dir / f"{task}.jsonl")[0])
        model = model_mod.load_model(RUN_DIR)
        return {"records": records, "model": model, "data_dir": data_dir,
                "inventories": orchestrator.collect_inventories(records),
                "pairs": [(s, r) for s in STRATEGIES for r in records],
                "rng": np.random.default_rng(seed), "seen": {}}

    @staticmethod
    def infer_one(state, strategy, record):
        from speechslu import orchestrator

        model = state["model"]
        ((_, result),) = orchestrator.infer_manifest(
            [record], model, strategy, seed=model.cfg.seed, base_dir=state["data_dir"],
            inventories=state["inventories"])
        return result

    def warm(self, state) -> None:
        """One untimed pass in corpus order; gates on criterion 6's hit counts."""
        hits = {s: {"IC": 0, "SF": 0} for s in STRATEGIES}
        for strategy, record in state["pairs"]:
            result = self.infer_one(state, strategy, record)
            state["seen"][(strategy, record.id)] = result.raw_text
            hits[strategy][record.task] += slu_hit(record, result)
        state["warm_hits"] = hits
        state["gate_ok"] = all(h["IC"] >= IC_GATE and h["SF"] >= SF_GATE
                               for h in hits.values())

    def run(self, state, seconds: float, min_ops: int, on_op, references=None) -> Measurement:
        meas = Measurement()
        refs = (references or {}).get(self.name, {})
        if not state["gate_ok"]:
            meas.problem(f"criterion-6 gates missed: {state['warm_hits']}")
        pairs = state["pairs"]
        t_begin = time.perf_counter()
        while meas.attempted < min_ops or time.perf_counter() - t_begin < seconds:
            for k in state["rng"].permutation(len(pairs)):
                strategy, record = pairs[k]
                on_op(meas.attempted)
                meas.attempted += 1
                t0 = time.perf_counter()
                try:
                    result = self.infer_one(state, strategy, record)
                except Exception:  # counted and reported; the run goes on
                    _fail(meas, f"{strategy} {record.id}")
                    continue
                dt = time.perf_counter() - t0
                meas.ops.append((strategy, (strategy, record.id), dt))
                meas.examples += 1
                meas.hits += slu_hit(record, result)
                meas.compared += 1
                meas.matches += refs.get(strategy, {}).get(record.id) == result.raw_text
                if state["seen"][(strategy, record.id)] != result.raw_text:
                    meas.problem(f"{strategy} {record.id}: output changed on repeat")
        meas.extra["warm_hits"] = state["warm_hits"]
        return meas

    def named_metrics(self, meas: Measurement) -> list[tuple[str, float, str, int]]:
        out = [("infer_examples_per_s", examples_per_s(meas), "examples/s", meas.examples)]
        for strategy in STRATEGIES:
            lat = meas.key_ms(strategy)
            out.append((f"{strategy}_ms_p50", harness.percentile(lat, 50), "ms", len(lat)))
            out.append((f"{strategy}_ms_p90", harness.percentile(lat, 90), "ms", len(lat)))
        out.append(("slu_acc", meas.hits / max(1, meas.examples), "share", meas.examples))
        out.append(("output_match_ratio", meas.matches / max(1, meas.compared), "share",
                    meas.compared))
        return out


# ---------------------------------------------------------------------------
# infer_paper
# ---------------------------------------------------------------------------

def synthesize_clip(record) -> np.ndarray:
    """30 s of 16 kHz PCM16: one tone chord per transcript word, keyed to the
    word, over a low noise floor keyed to the record id."""
    def seed_of(text: str) -> int:
        return int.from_bytes(hashlib.sha256(text.encode("utf-8")).digest()[:8], "little")

    n = SAMPLE_RATE * CLIP_SECONDS
    wav = 0.01 * np.random.default_rng(seed_of(record.id)).standard_normal(n)
    word_len = int(0.4 * SAMPLE_RATE)
    t = np.arange(word_len) / SAMPLE_RATE
    envelope = np.hanning(word_len)
    for i, word in enumerate(record.transcript.split()):
        freqs = np.random.default_rng(seed_of(word)).uniform(150.0, 3500.0, size=3)
        chord = np.sin(2 * np.pi * freqs[:, None] * t[None, :]).sum(axis=0)
        start = SAMPLE_RATE // 2 + i * word_len
        wav[start:start + word_len] += 0.2 * envelope * chord
    return (np.clip(wav, -1.0, 1.0) * 32767).astype(np.int16)


class InferPaper:
    name = "infer_paper"

    def setup(self, work_dir, seed: int):
        from speechslu import experiments, orchestrator
        from speechslu.config import RunConfig

        records = micro_records()
        model = experiments.build_micro_model(records, RunConfig())
        clips = work_dir / "clips"
        clips.mkdir(parents=True, exist_ok=True)
        return {"model": model, "clips": clips,
                "ic": [r for r in records if r.task == "IC"],
                "sf": [r for r in records if r.task == "SF"],
                "inventories": orchestrator.collect_inventories(records),
                "rng": np.random.default_rng(seed), "seen": {}, "n": 0}

    def _requests(self, state):
        """IC and SF records alternate; each pass is a fresh seeded order."""
        while True:
            ic = state["rng"].permutation(len(state["ic"]))
            sf = state["rng"].permutation(len(state["sf"]))
            for i, j in zip(ic, sf):
                yield state["ic"][i]
                yield state["sf"][j]

    def _write_clip(self, state, record, tag: str):
        from scipy.io import wavfile

        path = state["clips"] / f"{tag}-{state['n']:06d}.wav"
        state["n"] += 1
        wavfile.write(path, SAMPLE_RATE, synthesize_clip(record))
        return dataclasses.replace(record, audio=str(path)), path

    @staticmethod
    def infer_one(state, record):
        from speechslu import orchestrator

        model = state["model"]
        ((_, result),) = orchestrator.infer_manifest(
            [record], model, "mr", seed=model.cfg.seed, inventories=state["inventories"])
        return result

    def warm(self, state) -> None:
        """One untimed request, and the 3000 -> 1500 -> 375 dimensional check."""
        from speechslu import audio
        from speechslu import autograd as ag

        model = state["model"]
        clip_record, path = self._write_clip(state, state["ic"][0], "warm")
        mel = audio.resolve_audio(clip_record.audio)
        enc = model.encoder.encode(mel).data
        emb = model.aligner.align(ag.Tensor(enc)).data
        state["shapes"] = [mel.frames.shape[1], enc.shape[0], emb.shape[0]]
        self.infer_one(state, clip_record)
        path.unlink()

    def run(self, state, seconds: float, min_ops: int, on_op, references=None) -> Measurement:
        meas = Measurement()
        refs = (references or {}).get(self.name, {}).get("mr", {})
        if state["shapes"] != [3000, 1500, 375]:
            meas.problem(f"mel/encoder/aligner frames {state['shapes']}, "
                                 f"expected [3000, 1500, 375]")
        requests = self._requests(state)
        t_begin = time.perf_counter()
        while meas.attempted < min_ops or time.perf_counter() - t_begin < seconds:
            record = next(requests)
            clip_record, path = self._write_clip(state, record, "req")  # off the clock
            on_op(meas.attempted)
            meas.attempted += 1
            t0 = time.perf_counter()
            try:
                result = self.infer_one(state, clip_record)
            except Exception:  # counted and reported; the run goes on
                _fail(meas, record.id)
                continue
            finally:
                dt = time.perf_counter() - t0
                path.unlink()
            # at this scale every request of a task does the same work: the
            # 30 s encoder pass, generations that run to max_new, prompts
            # within a few positions of each other; so the task is the key
            meas.ops.append(("mr", record.task, dt))
            meas.examples += 1
            meas.hits += slu_hit(record, result)
            meas.compared += 1
            meas.matches += refs.get(record.id) == result.raw_text
            if result.n_generations != 2:
                meas.problem(f"{record.id}: mr made {result.n_generations} generations")
            if state["seen"].setdefault(record.id, result.raw_text) != result.raw_text:
                meas.problem(f"{record.id}: output changed on repeat")
        return meas

    def named_metrics(self, meas: Measurement) -> list[tuple[str, float, str, int]]:
        lat = meas.key_ms()
        return [
            ("infer_examples_per_s", examples_per_s(meas), "examples/s", meas.examples),
            ("mr_ms_p50", harness.percentile(lat, 50), "ms", len(lat)),
            ("mr_ms_p90", harness.percentile(lat, 90), "ms", len(lat)),
            ("output_match_ratio", meas.matches / max(1, meas.compared), "share",
             meas.compared),
        ]


WORKLOADS = {w.name: w for w in (TrainMicro(), InferMicro(), InferPaper())}


def compute_references(work_dir) -> dict:
    """Raw text of every (workload, strategy, example) at this commit."""
    micro, paper = WORKLOADS["infer_micro"], WORKLOADS["infer_paper"]
    state = micro.setup(work_dir / "micro", 0)
    refs: dict = {"infer_micro": {s: {} for s in STRATEGIES}, "infer_paper": {"mr": {}}}
    for strategy, record in state["pairs"]:
        refs["infer_micro"][strategy][record.id] = micro.infer_one(state, strategy,
                                                                   record).raw_text
    state = paper.setup(work_dir / "paper", 0)
    for record in state["ic"] + state["sf"]:
        clip_record, path = paper._write_clip(state, record, "ref")
        refs["infer_paper"]["mr"][record.id] = paper.infer_one(state, clip_record).raw_text
        path.unlink()
    return refs
