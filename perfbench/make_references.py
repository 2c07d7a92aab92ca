"""Regenerate ``perfbench/references.json`` from the current program.

    python3 perfbench/make_references.py

Stores, for each of the input variants a ``--seed`` can select, the
paper-eval output vector and the long-train first-step loss. Run it only
when a change is meant to alter those outputs, and say so in the change;
the benchmark compares every run against these values.
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402

NPROC = run.pin_blas_threads()

import workloads as W  # noqa: E402
from pulsemamba.training import train_loop  # noqa: E402


def main() -> int:
    work = ROOT / ".bench_work" / f"refs-{os.getpid()}"
    refs = {"paper-eval": {}, "long-train": {}}
    try:
        for v in range(W.VARIANTS):
            net, x = W.paper_setup(v, work)
            refs["paper-eval"][str(v)] = W.paper_forward(net, x)[0].tolist()
            W.write_long_dataset(v, work / "long")
            _, log = train_loop(W.LONG_MODEL, work / "long", W.LONG_TRAIN,
                                work / "run")
            refs["long-train"][str(v)] = log[0][2]
            print(f"variant {v}: loss {log[0][2]!r}", flush=True)
            # dead training graphs are reference cycles; free them here so
            # sixteen variants fit in memory (the benchmark itself never does)
            del net, x, log
            gc.collect()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    refs["environment"] = run.environment(NPROC)
    W.REFERENCE_FILE.write_text(json.dumps(refs, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
