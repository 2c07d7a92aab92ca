"""Run one pulsemamba benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-eval --seed 0 --seconds 30 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics listed in ``BENCHMARK.json``; with ``--trace 1``
every public function and module call is timed and the JSON carries the
per-layer metrics instead. The lines above it give every metric of the
run by name and unit, the environment, and the output checks. See
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
IMPORT_SAMPLES = 5  # interpreters whose import time setup_s takes the median of
IMPORT_PATH = [str(ROOT / "perfbench"), str(ROOT / "src")]


def pin_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; must run before numpy."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc)
    return nproc


def child_import_s() -> float:
    """Seconds a fresh interpreter takes to ``import workloads``."""
    code = ("import sys, time; sys.path[:0] = sys.argv[1:]; "
            "t0 = time.perf_counter(); import workloads; "
            "print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code, *IMPORT_PATH],
                          stdout=subprocess.PIPE, text=True, check=True)
    return float(proc.stdout.split()[-1])


def environment(nproc: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "src_lines": src_lines}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc = pin_blas_threads()
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "pulsemamba").is_dir() or not spec_path.exists():
        print(f"perfbench: no pulsemamba sources or BENCHMARK.json under {ROOT}",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())

    sys.path[:0] = IMPORT_PATH
    t0 = time.perf_counter()
    import workloads as W  # imports numpy and pulsemamba
    import_samples = [time.perf_counter() - t0]
    import spans

    if args.workload not in W.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2

    import_samples += [child_import_s() for _ in range(IMPORT_SAMPLES - 1)]
    import_s = statistics.median(import_samples)
    env = environment(nproc)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")

    work = ROOT / ".bench_work" / str(os.getpid())
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        out = W.run(args.workload, args.seed, args.seconds, work,
                    fixed=bool(args.trace))
    finally:
        if tracer:
            tracer.restore()

    e2e = W.summary(out)
    e2e["setup_s"] += import_s
    lines = [("setup_s", e2e["setup_s"], "s",
              f"median import {import_s:.3f} s of {len(import_samples)} "
              f"interpreters + median of {len(out.setup_s)} set-ups"),
             ("step_s", e2e["step_s"], "s",
              f"median of {len(out.unit_s)} units"),
             ("frames_per_s", e2e["frames_per_s"], "frames/s",
              f"{out.frames} frames in {out.timed_s:.3f} s"),
             ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "whole process")]
    tail = W.tail(out.unit_s)
    if tail:
        lines.append(("step_tail_s", tail[0], "s",
                      f"p{tail[1]:.1f} of {tail[2]} steps, 10 beyond it"))
    if out.eval_s is not None:
        lines.append(("eval_s", out.eval_s, "s", "held-out evaluation"))
    failed_frac = out.failed / max(out.attempted, 1)
    lines.append(("failed_frac", failed_frac, "fraction",
                  f"{out.failed} of {out.attempted} units"))
    for name, value, unit, note in lines:
        print(f"metric {name} {value:.6g} {unit}  ({note})")
    for problem in out.problems:
        print(f"check failed: {problem}")

    if tracer:
        growth = out.rss_mb[-1] - out.rss_mb[0] if len(out.rss_mb) > 1 else None
        measured = spans.layer_metrics(tracer, growth)
        for name in sorted(measured):
            value, unit = measured[name]
            print(f"layer {name} {value:.6g} {unit}")
        print(f"trace spans {tracer.spans}, estimated overhead "
              f"{tracer.overhead_estimate_s():.4f} s")
        wanted = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        measured = {name: (value, unit) for name, value, unit, _ in lines}
        wanted = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    missing = [n for n, u in wanted.items() if n not in measured
               or measured[n][1] != u or not math.isfinite(measured[n][0])]
    if missing:
        print(f"perfbench: {args.workload} did not measure {missing}",
              file=sys.stderr)
        return 1
    result = {"correct": out.failed == 0, "attempted": out.attempted,
              "failed": out.failed,
              "metrics": {n: {"value": measured[n][0], "unit": u}
                          for n, u in wanted.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
