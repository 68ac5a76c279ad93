#!/usr/bin/env python3
"""Desk-scale end-to-end run: generate the synthetic micro-corpus, train the
tiny model (aligner + LoRA only), then score greedy inference under all
three strategies. Finishes in a few minutes on one CPU core.

Usage:
    python scripts/run_micro_experiment.py [--epochs N] [--out runs/micro]
"""

import argparse
import sys
import time
from pathlib import Path

from speechslu.experiments import MICRO_EPOCHS, run_micro_overfit
from speechslu.prompts import STRATEGIES
from speechslu.training import write_trace_csv


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epochs", type=int, default=MICRO_EPOCHS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", default=None, help="save checkpoint + trace here")
    args = parser.parse_args(argv)

    t0 = time.time()
    model, report = run_micro_overfit(epochs=args.epochs, seed=args.seed, log_every=200)
    minutes = (time.time() - t0) / 60

    print(f"\nfinal per-token loss: {report.final_per_token_loss:.4f}")
    print(f"{'strategy':<10} {'IC hits':>8} {'SF exact sets':>14}")
    for strategy in STRATEGIES:
        print(f"{strategy:<10} {report.ic_hits[strategy]:>6}/10 "
              f"{report.sf_hits[strategy]:>11}/10")
    print(f"elapsed: {minutes:.1f} min")

    if args.out:
        out = Path(args.out)
        model.save(out)
        write_trace_csv(out / "loss_trace.csv", report.train_result, model.config_hash)
        print(f"artifacts written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
