"""speechslu benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train_micro --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With --trace 0 the run measures end-to-end metrics with no layer wrappers
installed. With --trace 1 it alternates untraced slices with slices that
have every traced layer wrapped, and reports the per-layer metrics plus
the tracing overhead. The report lines name every metric with its unit
and sample count; the last line of standard output is the JSON result.
Spans and a result record go to perfbench/_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import harness

WORKLOAD_NAMES = ("train_micro", "infer_micro", "infer_paper")
SETUP_REPEATS = 15
# every key's latency is the 90th percentile of at least this many runs
MIN_REPEATS = 5
# a p90 needs at least ten samples beyond it (infer_micro: per strategy), and
# every key MIN_REPEATS runs: 5 passes of 60 pairs, 5 x 40 steps, 50 x IC and SF
MIN_OPS = {"train_micro": 200, "infer_micro": 300, "infer_paper": 100}
# operations per untraced and per traced slice of a --trace 1 run
TRACE_MIN_OPS = {"train_micro": 1, "infer_micro": 60, "infer_paper": 10}
OUT_DIR = harness.BENCH_DIR / "_out"
WORK_ROOT = harness.BENCH_DIR / "_work"


def end_to_end(meas, setup_times, rss_mb: float) -> dict[str, float]:
    import workloads

    lat_ms = meas.key_ms()
    return {
        "setup_s": harness.median(setup_times),
        "peak_rss_mb": rss_mb,
        "examples_per_s": workloads.examples_per_s(meas),
        "op_ms_p50": harness.percentile(lat_ms, 50),
        "op_ms_p90": harness.percentile(lat_ms, 90),
        "output_match_ratio": meas.matches / max(1, meas.compared),
    }


E2E_UNITS = {"setup_s": "s", "peak_rss_mb": "MiB", "examples_per_s": "examples/s",
             "op_ms_p50": "ms", "op_ms_p90": "ms", "output_match_ratio": "share"}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir,
                 min_ops: int | None = None) -> dict:
    """Set up, warm, measure; returns the result record (see `main`)."""
    # imported here: they import numpy, which must load after pin_threads()
    import layers
    import spans as sp
    import workloads

    references = workloads.check_fixture()
    wl = workloads.WORKLOADS[name]
    wrappers_at_start = []

    def untraced_op(i: int) -> None:
        if i == 0:
            wrappers_at_start.extend(sp.installed_wrappers())

    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    if not trace:
        # set-ups are spread over the run, one before each of SETUP_REPEATS
        # slices, so that their median sees the run's mix of fast and slow
        # host periods rather than one instant of it; the first set-up's
        # state serves every slice
        n_min = min_ops or MIN_OPS[name]
        setup_times = []
        state = None
        meas = workloads.Measurement()
        rss_mb = 0.0

        def op_hook(i: int) -> None:
            nonlocal rss_mb
            untraced_op(i)
            if not rss_mb and len(meas.ops) + i >= n_min:
                rss_mb = harness.peak_rss_mb()

        t_start = time.perf_counter()
        for i in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            fresh = wl.setup(work_dir / f"setup{i}", seed)
            setup_times.append(time.perf_counter() - t0)
            if state is None:
                state = fresh
                wl.warm(state)
            fresh = None
            # a slice gets what is left of its share, so short slices
            # (whole training repetitions) leave no time unused
            budget = seconds * (i + 1) / SETUP_REPEATS - (time.perf_counter() - t_start)
            meas.absorb(wl.run(state, budget, 1, op_hook, references))
        while len(meas.ops) < n_min:
            meas.absorb(wl.run(state, 0.0, n_min - len(meas.ops), op_hook, references))
        record["setup_s_samples"] = setup_times
        metrics = end_to_end(meas, setup_times, rss_mb or harness.peak_rss_mb())
        units = E2E_UNITS
        record["named"] = [
            {"name": n, "value": v, "unit": u, "samples": k}
            for n, v, u, k in wl.named_metrics(meas)]
        record["sample_counts"] = {"setup_s": len(setup_times), "op_ms": len(meas.ops)}
        wall_ms = [s * 1e3 for _, _, s in meas.ops]
        record["wall_ms"] = {"p50": harness.percentile(wall_ms, 50),
                             "p90": harness.percentile(wall_ms, 90),
                             "keys": len({key for _, key, _ in meas.ops}),
                             "min_repeats": meas.min_repeats()}
        if meas.min_repeats() < MIN_REPEATS:
            meas.problem(f"a key ran fewer than {MIN_REPEATS} times; its percentile is unreliable")
        for item in record["named"] + [{"name": "op_ms_p90", "samples": len(meas.ops)}]:
            if item["name"].endswith("_p90") and harness.samples_beyond(item["samples"], 90) < 10:
                meas.problem(f"{item['name']}: fewer than ten samples beyond the p90")
        if name == "train_micro":
            overhead = workloads.clock_overhead_ns()
            record["step_clock_overhead_ns"] = overhead
            record["step_clock_overhead_share_of_p50"] = overhead / 1e6 / metrics["op_ms_p50"]
    else:
        # untraced and traced slices alternate on one state, so that both
        # see the same share of a noisy host's slow periods
        slice_ops = min_ops or TRACE_MIN_OPS[name]
        tracer = sp.Tracer()
        layers.install(tracer)
        try:
            tracer.request = "setup"
            state = wl.setup(work_dir / "traced", seed)
            tracer.request = "warmup"
            wl.warm(state)
        finally:
            tracer.uninstall()
        plain = workloads.Measurement()
        meas = workloads.Measurement()
        t_end = time.perf_counter() + seconds
        while not meas.ops or time.perf_counter() < t_end:
            plain.absorb(wl.run(state, 0.0, slice_ops, untraced_op, references))
            offset = len(meas.ops)

            def traced_op(i: int) -> None:
                tracer.request = offset + i

            layers.install(tracer)
            try:
                meas.absorb(wl.run(state, 0.0, slice_ops, traced_op, references))
            finally:
                tracer.uninstall()
                tracer.request = None
        plain_ms = sum(plain.key_ms()) / len(plain.ops)
        traced_ms = sum(meas.key_ms()) / len(meas.ops)
        span_list = list(tracer.spans())
        metrics = layers.compute(span_list, tracer.counters, range(len(meas.ops)), "setup",
                                 traced_ms / plain_ms - 1.0)
        units = layers.METRIC_UNITS
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.jsonl.gz"
        record["spans_file"] = str(spans_path.relative_to(harness.ROOT))
        record["spans"] = tracer.write(spans_path)
        record["traced_ops"] = len(meas.ops)
        record["untraced_ops"] = len(plain.ops)
        meas.absorb(workloads.Measurement(attempted=plain.attempted, failed=plain.failed,
                                          problems=list(plain.problems)))
    record["wrappers_at_start"] = wrappers_at_start
    if wrappers_at_start:
        meas.problem(f"layer wrappers installed in the untraced run: {wrappers_at_start}")
    record["problems"] = meas.problems
    record["extra"] = meas.extra
    record["result"] = {
        "correct": not meas.problems and meas.failed == 0,
        "attempted": meas.attempted,
        "failed": meas.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return record


def print_report(record: dict, env: dict) -> None:
    print(f"# workload {record['workload']}  seed {record['seed']}  "
          f"seconds {record['seconds']}  trace {record['trace']}")
    counts = record.get("sample_counts", {})
    for name, metric in record["result"]["metrics"].items():
        n = counts.get(name, counts.get("op_ms") if name.startswith("op_ms") else None)
        suffix = f"  (n={n})" if n is not None else ""
        print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}{suffix}")
    for item in record.get("named", []):
        print(f"  {item['name']:<44} {item['value']:>14.6g} {item['unit']}"
              f"  (n={item['samples']})")
    if "wall_ms" in record:
        wall = record["wall_ms"]
        print(f"  wall-clock op latency, not per key: p50 {wall['p50']:.4g} ms, "
              f"p90 {wall['p90']:.4g} ms ({wall['keys']} keys, each run "
              f">= {wall['min_repeats']} times)")
    if "step_clock_overhead_ns" in record:
        print(f"  step clock cost {record['step_clock_overhead_ns']:.0f} ns/step "
              f"({record['step_clock_overhead_share_of_p50']:.2e} of step p50)")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")
    print("# env " + json.dumps(env, sort_keys=True))


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    harness.pin_threads()
    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    try:
        harness.use_source_tree()
        env = harness.describe_environment()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                              work_dir)
    except harness.SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["environment"] = env
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print_report(record, env)
    print(json.dumps(record["result"], sort_keys=True))
    return 0 if record["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
