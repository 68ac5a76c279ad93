"""Self-tests of the benchmark harness: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import harness

harness.use_source_tree()

import layers  # noqa: E402
import run  # noqa: E402
import spans as sp  # noqa: E402
import workloads  # noqa: E402


def test_percentile_and_sample_count():
    xs = list(range(1, 101))
    for q in (0, 25, 50, 90, 100):
        assert harness.percentile(xs, q) == pytest.approx(np.percentile(xs, q))
    assert harness.percentile([3.0], 90) == 3.0
    assert harness.percentile([5, 1, 3], 50) == 3
    # a p90 needs ten samples beyond it: 92 samples is the fewest that give that
    assert harness.samples_beyond(100, 90) == 10
    assert harness.samples_beyond(92, 90) == 10
    assert harness.samples_beyond(91, 90) == 9
    assert sum(x > harness.percentile(xs, 90) for x in xs) == harness.samples_beyond(100, 90)
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_self_time_on_a_synthetic_span_tree():
    # root [0, 100) with children [10, 30) and [20, 50) (overlapping: union 40)
    # and [60, 70); the first child has a grandchild [12, 18)
    spans = [
        ("root", 0, 100, -1, 0),
        ("a", 10, 30, 0, 0),
        ("b", 20, 50, 0, 0),
        ("c", 60, 70, 0, 0),
        ("a.x", 12, 18, 1, 0),
    ]
    assert sp.self_times_ns(spans) == [100 - 40 - 10, 20 - 6, 30, 10, 6]
    assert sp.covered_ns(0, 10, [(5, 20)]) == 5
    assert sp.covered_ns(0, 10, []) == 0
    assert list(sp.ancestor_names(spans, 4)) == ["a", "root"]


def test_cache_hit_ratio_arithmetic():
    spans = [
        ("model.encode_mel", 0, 10, -1, 0),
        ("encoder.encode", 1, 9, 0, 0),      # miss
        ("model.encode_mel", 20, 21, -1, 1),  # hit
        ("model.encode_mel", 30, 31, -1, 2),  # hit
        ("encoder.encode", 40, 50, -1, 3),    # not under a lookup: ignored
    ]
    assert sp.cache_hit_ratio(spans, "model.encode_mel", "encoder.encode") == (2, 3)
    assert sp.cache_hit_ratio(spans, "model.encode_mel", "encoder.encode", {1, 2}) == (2, 2)
    assert sp.cache_hit_ratio(spans, "model.encode_mel", "encoder.encode", {0}) == (0, 1)
    metrics = layers.compute(spans, {}, {0, 1, 2}, "setup", 0.0)
    assert metrics["model.encoder_cache_hit_ratio"] == pytest.approx(2 / 3)
    assert metrics["model.encode_mel.calls"] == 1.0


def test_per_layer_metrics_are_per_op_and_complete():
    spans = [
        ("orchestrator.infer", 0, 4_000_000, -1, 0),
        ("model.generate", 0, 3_000_000, 0, 0),
        ("decoder.generate_greedy", 0, 2_000_000, 1, 0),
        ("orchestrator.infer", 0, 2_000_000, -1, 1),
        ("datasets.generate_micro_corpus", 0, 5_000_000, -1, "setup"),
    ]
    counters = {(0, "decoder.generated_tokens"): 8.0, (1, "orchestrator.generations"): 2.0,
                ("warmup", "orchestrator.generations"): 50.0}
    metrics = layers.compute(spans, counters, {0, 1}, "setup", 0.25)
    assert list(metrics) == list(layers.METRIC_UNITS)
    assert metrics["orchestrator.infer.calls"] == 1.0
    assert metrics["orchestrator.infer.self_ms"] == pytest.approx((1.0 + 2.0) / 2)
    assert metrics["model.generate.self_ms"] == pytest.approx(0.5)
    assert metrics["decoder.generated_tokens"] == 4.0
    assert metrics["orchestrator.generations"] == 1.0
    assert metrics["datasets.generate_micro_corpus.ms"] == 5.0
    assert metrics["trace.overhead_ratio"] == 0.25


def test_tracer_patches_every_binding_and_uninstalls():
    from speechslu import model, prompts, training

    original = prompts.render_chat
    tracer = sp.Tracer()
    layers.install(tracer)
    try:
        installed = sp.installed_wrappers()
        for mod in (prompts, model, training):
            assert getattr(mod, "render_chat") is not original
            assert f"{mod.__name__}.render_chat" in installed
        assert "speechslu.tokenizer.Vocabulary.tokenize" in installed
    finally:
        tracer.uninstall()
    assert sp.installed_wrappers() == []
    assert training.render_chat is original


def _short_infer_micro(tmp_path):
    wl = workloads.WORKLOADS["infer_micro"]
    state = wl.setup(tmp_path, seed=3)
    wl.warm(state)
    return wl, state


def test_mismatched_reference_lowers_match_ratio(tmp_path):
    references = workloads.check_fixture()
    wl, state = _short_infer_micro(tmp_path)
    tampered = json.loads(json.dumps(references))
    tampered["infer_micro"]["alone"]["ic-0000"] = "not what the model says"
    meas = wl.run(state, 0.0, 60, lambda i: None, tampered)
    assert meas.failed == 0 and not meas.problems
    assert meas.compared == 60
    assert meas.matches == 59
    assert run.end_to_end(meas, [0.1], 50.0)["output_match_ratio"] == pytest.approx(59 / 60)
    untouched = wl.run(state, 0.0, 60, lambda i: None, references)
    assert untouched.matches == untouched.compared == 60


def test_untraced_run_has_no_layer_wrappers(tmp_path):
    record = run.run_workload("infer_micro", 5, 0.0, False, tmp_path)
    assert record["wrappers_at_start"] == []
    assert record["result"]["correct"], record["problems"]
    assert set(record["result"]["metrics"]) == set(run.E2E_UNITS)
    assert sp.installed_wrappers() == []


def test_traced_run_reports_every_layer(tmp_path):
    # two alternations of untraced and traced slices: the second untraced
    # slice finds no wrapper left behind by the first traced one
    record = run.run_workload("infer_micro", 5, 0.5, True, tmp_path, min_ops=30)
    metrics = record["result"]["metrics"]
    assert set(metrics) == set(layers.METRIC_UNITS)
    assert record["result"]["correct"], record["problems"]
    assert metrics["model.encoder_cache_hit_ratio"]["value"] == 1.0
    assert metrics["orchestrator.infer.calls"]["value"] == 1.0
    assert sp.installed_wrappers() == []


def test_step_clock_records_returns():
    seen = []
    clock = workloads.StepClock(lambda x: x + 1, seen.append)
    assert clock(1) == 2 and clock(2) == 3
    assert seen == [1, 2] and len(clock.stamps) == 2
    assert clock.stamps[0] <= clock.stamps[1]
    assert workloads.clock_overhead_ns(1000) < 1e6


def test_benchmark_json_matches_the_harness():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRIC_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_refuses_without_source_tree(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(harness.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "infer_micro", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "speechslu" in proc.stderr


def test_refuses_on_fixture_digest_mismatch(tmp_path, monkeypatch):
    bad = tmp_path / "FIXTURE.json"
    info = json.loads(workloads.FIXTURE_JSON.read_text(encoding="utf-8"))
    info["files"]["checkpoint.sslc"] = "0" * 64
    bad.write_text(json.dumps(info), encoding="utf-8")
    monkeypatch.setattr(workloads, "FIXTURE_JSON", bad)
    with pytest.raises(harness.SetupError, match="digest"):
        workloads.check_fixture()
