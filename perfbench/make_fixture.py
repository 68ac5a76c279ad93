"""Build the benchmark's stored fixture and reference outputs.

    python3 perfbench/make_fixture.py train   # ~10 min: trained micro run directory
    python3 perfbench/make_fixture.py refs    # seconds: reference greedy raw texts

`train` runs `run_micro_overfit` at seed 7 (acceptance criterion 6's
recipe) with one BLAS thread and stores config.json, vocab.json and
checkpoint.sslc under fixtures/micro_run/, plus their sha256 digests and
the criterion-6 report in fixtures/FIXTURE.json. `refs` records the raw
text every (workload, strategy, example) produces at this commit in
fixtures/reference_outputs.json. The benchmark refuses to report when a
digest does not match.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

import harness

RUN_FILES = ("config.json", "vocab.json", "checkpoint.sslc")


def build_trained_run(workloads) -> dict:
    from speechslu.config import save_config
    from speechslu.experiments import MICRO_EPOCHS, run_micro_overfit

    run_dir, seed = workloads.RUN_DIR, workloads.FIXTURE_SEED
    t0 = time.perf_counter()
    model, report = run_micro_overfit(epochs=MICRO_EPOCHS, seed=seed)
    seconds = time.perf_counter() - t0
    run_dir.mkdir(parents=True, exist_ok=True)
    model.save(run_dir)
    save_config(model.cfg, run_dir / "config.json")
    return {
        "command": "python3 perfbench/make_fixture.py train",
        "recipe": f"run_micro_overfit(epochs={MICRO_EPOCHS}, seed={seed})",
        "files": {name: harness.sha256_file(run_dir / name) for name in RUN_FILES},
        "criterion_6": {
            "final_per_token_loss": report.final_per_token_loss,
            "ic_hits": report.ic_hits,
            "sf_hits": report.sf_hits,
            "steps": report.train_result.steps,
            "wall_seconds": round(seconds, 1),
        },
        "environment": harness.describe_environment(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("what", choices=("train", "refs"))
    args = parser.parse_args(argv)
    harness.pin_threads()
    harness.use_source_tree()
    import workloads  # imports numpy, so only after pin_threads()

    fixture_json = workloads.FIXTURE_JSON
    if args.what == "train":
        info = build_trained_run(workloads)
        fixture_json.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                                encoding="utf-8")
        print(json.dumps(info["criterion_6"], sort_keys=True))
        return 0
    work_dir = harness.BENCH_DIR / "_work" / "refs"
    try:
        refs = workloads.compute_references(work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    workloads.REFERENCE_JSON.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n",
                                        encoding="utf-8")
    info = json.loads(fixture_json.read_text(encoding="utf-8"))
    info["reference_outputs_sha256"] = harness.sha256_file(workloads.REFERENCE_JSON)
    info["reference_command"] = "python3 perfbench/make_fixture.py refs"
    fixture_json.write_text(json.dumps(info, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
    n = sum(len(texts) for by_strategy in refs.values() for texts in by_strategy.values())
    print(f"wrote {n} reference outputs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
