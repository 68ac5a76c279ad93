#!/usr/bin/env python3
"""Byte-level fingerprint of the criterion-6 recipe, for checking that a
change keeps training and inference bit for bit.

Runs `experiments.run_micro_overfit` (the acceptance suite's criterion 6) for
`--epochs` epochs with BLAS pinned to one thread, then prints three sha256
digests:

    trace        every trace row: step, task, config, tokens, and loss, lr
                 and pre-clip gradient norm as float hex (step times excluded)
    params       every parameter: name, dtype, shape and raw bytes
    generations  the 60 post-training results (IC and SF records under
                 alone, scot and mr): every parsed field, the raw text and
                 each round's rendered prompt

The final per-token loss and the IC/SF hits per strategy go to stderr.
Run it once per tree and compare the lines:

    PYTHONPATH=src python scripts/bit_digest.py --epochs 30
"""

import os

# before numpy loads: BLAS reads its thread count when it is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import sys

import numpy as np

from speechslu.experiments import run_micro_overfit
from speechslu.prompts import STRATEGIES


def _sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode("utf-8") + b"\n")
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--epochs", type=int, default=30)
    args = parser.parse_args(argv)

    model, report = run_micro_overfit(epochs=args.epochs)
    trace = (f"{r.step},{r.task},{r.config},{r.tokens},{float(r.loss).hex()},"
             f"{float(r.lr).hex()},{float(r.grad_norm).hex()}"
             for r in report.train_result.trace)
    params = hashlib.sha256()
    for name, p in sorted(model.named_parameters().items()):
        params.update(f"{name} {p.data.dtype} {p.data.shape}\n".encode("utf-8"))
        params.update(np.ascontiguousarray(p.data).tobytes())
    generations = [json.dumps([strategy, record.id, res.raw_text, res.transcript, res.intent,
                               res.entities, res.binary, res.truncated, res.n_generations,
                               res.round_prompts], ensure_ascii=False)
                   for strategy, record, res in report.results]

    print(f"trace {_sha(trace)}")
    print(f"params {params.hexdigest()}")
    print(f"generations {_sha(generations)}")
    print(f"{len(report.train_result.trace)} trace rows, {len(generations)} generations, "
          f"final per-token loss {report.final_per_token_loss:.5f}", file=sys.stderr)
    for strategy in STRATEGIES:
        print(f"{strategy}: IC {report.ic_hits[strategy]}/10, SF {report.sf_hits[strategy]}/10",
              file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
