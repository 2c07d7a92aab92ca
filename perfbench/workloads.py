"""The three benchmark workloads, driven through pulsemamba's public API.

Each workload sets up its inputs from the seed (several times, so set-up
time is a median), runs its timed section, then checks the outputs.
Inputs are generated by the program's own synthetic pipeline; the
program sees only the generated clips.

- ``paper-eval``: paper-width network, one 1x3x128x128x128 clip, no_grad
  forwards. Exercises the long-sequence scan and the full-resolution stem
  convs; no autograd, optimizer, checkpoint or data loading is timed.
- ``desk-train``: acceptance criterion 6 end to end (30 train clips,
  8 held-out clips, 64 optimizer steps, held-out evaluation). Tiny
  tensors, so per-op overhead, backward, Adam and checkpoint I/O dominate.
- ``long-train``: paper-width network trained at batch 1 on one 64x64
  clip, stored three times so that one epoch holds three steps. The fast
  block-0 scan has L=4096 with gradients on, so the recorded scan state,
  backward and peak memory dominate.

The workloads never call ``gc``, ``clear_tape`` or anything else the
public calls do not already do, so the reference cycles that keep dead
training graphs alive show in ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import math
import resource
import shutil
import statistics
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

# the program is called through module attributes, so a tracer that
# rebinds them sees every call
from pulsemamba import synth, training
from pulsemamba import tensor as T
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba.synth import SynthConfig
from pulsemamba.training import TrainConfig

REFERENCE_FILE = Path(__file__).with_name("references.json")
SETUPS = 9          # set-ups per run; setup_s is their median
VARIANTS = 16       # paper-eval / long-train inputs with stored references
OUTPUT_RTOL = 1e-6  # reference match, relative to the reference's max |value|

PAPER_MODEL = ModelConfig()
PAPER_FRAMES = 128
PAPER_HW = (128, 128)

DESK_MODEL = ModelConfig(channels=32, blocks_per_stream=2)
DESK_TRAIN = TrainConfig(lr=1e-3, weight_decay=5e-4, epochs=8, batch_size=4,
                         seed=0, chunk_len=32, input_hw=(16, 16))
DESK_MAE_BPM = 3.0
DESK_RHO = 0.9

LONG_MODEL = ModelConfig()
LONG_STEPS = 3      # copies of the clip: steps in the one epoch; each step
                    # leaves ~1.3 GB of graph garbage behind
LONG_TRAIN = TrainConfig(lr=1e-3, weight_decay=5e-4, epochs=1,
                         batch_size=1, seed=0, chunk_len=32,
                         input_hw=(64, 64))


@dataclass
class Outcome:
    """What one run measured and whether its outputs were correct."""

    setup_s: List[float] = field(default_factory=list)
    unit_s: List[float] = field(default_factory=list)
    timed_s: float = 0.0
    frames: int = 0
    eval_s: Optional[float] = None
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    rss_mb: List[float] = field(default_factory=list)

    def fail(self, what: str, units: int = 1) -> None:
        self.failed += units
        self.problems.append(what)


def current_rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mb() -> float:
    """Largest resident set this process has had."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def _timed_setups(outcome: Outcome, build):
    """Run ``build`` SETUPS times, recording each duration; keep the last."""
    result = None
    for _ in range(SETUPS):
        t0 = time.perf_counter()
        result = build()
        outcome.setup_s.append(time.perf_counter() - t0)
    return result


def _hr_for(seed: int) -> float:
    return float(np.random.default_rng(2024 + seed).uniform(55.0, 140.0))


def make_clips(n: int, seed0: int, duration_s: float = 10.0, res=(24, 24)):
    """Clean clips seeded as in acceptance criterion 6."""
    rng = np.random.default_rng(2024 + seed0)
    return [synth.generate_clip(SynthConfig(
        seed=seed0 + i, duration_s=duration_s, resolution=res,
        hr_start_bpm=float(rng.uniform(55.0, 140.0)))) for i in range(n)]


# ---------------------------------------------------------------------------
# paper-eval

def paper_clip(variant: int) -> SynthConfig:
    return SynthConfig(seed=variant, duration_s=(PAPER_FRAMES + 1) / 30.0,
                       resolution=PAPER_HW, hr_start_bpm=_hr_for(variant),
                       noise_sigma=0.01, motion_amplitude_px=2.0)


def paper_setup(variant: int, work: Path):
    """Model plus one clip, stored and read back as an evaluation would."""
    clip = synth.generate_clip(paper_clip(variant))
    synth.write_dataset(work / "paper", [clip])
    record = synth.read_dataset(work / "paper")[0]
    chunk = synth.chunk_and_resize(record, PAPER_FRAMES, PAPER_HW,
                                   mode="eval")[0]
    frames, _ = training.prepare_chunk(chunk)
    net = PulseMambaNet(PAPER_MODEL, seed=0).eval()
    return net, T.Tensor(frames[None])


def paper_forward(net, x) -> np.ndarray:
    with T.no_grad():
        return net(x).data


def run_paper_eval(seed: int, seconds: float, work: Path, fixed: bool) -> Outcome:
    """Warm-up forward, then as many timed forwards as fit in ``seconds``.

    With ``fixed`` (the traced run) exactly one timed forward follows the
    warm-up, so per-layer totals compare across commits at any speed.
    """
    out = Outcome()
    variant = seed % VARIANTS

    def build():
        refs = load_references()
        net, x = paper_setup(variant, work)
        return refs, net, x

    refs, net, x = _timed_setups(out, build)
    ref = np.asarray(refs["paper-eval"][str(variant)])
    first = None

    def check(y):
        nonlocal first
        if y.shape != (1, PAPER_FRAMES):
            return f"output shape {y.shape}"
        if not np.isfinite(y).all():
            return "non-finite output"
        err = np.max(np.abs(y[0] - ref)) / np.max(np.abs(ref))
        if err > OUTPUT_RTOL:
            return f"output differs from reference by {err:.2e}"
        if first is None:
            first = y
        elif not np.array_equal(y, first):
            return "repeated forward on the same clip changed the output"
        return None

    def unit() -> float:
        """One checked forward; returns its duration."""
        out.attempted += 1
        t0 = time.perf_counter()
        try:
            y = paper_forward(net, x)
        except Exception:
            traceback.print_exc()
            out.fail("forward raised")
            return time.perf_counter() - t0
        dt = time.perf_counter() - t0
        problem = check(y)
        if problem:
            out.fail(problem)
        return dt

    unit()  # warm-up: the first forward runs ~10 % slow; checked, not timed
    start = time.perf_counter()
    while True:
        out.unit_s.append(unit())
        elapsed = time.perf_counter() - start
        # stop before a forward that would end past the window
        if fixed or elapsed + median(out.unit_s) > seconds:
            break
    out.timed_s = time.perf_counter() - start
    out.frames = PAPER_FRAMES * len(out.unit_s)
    return out


# ---------------------------------------------------------------------------
# training workloads

def _train(out: Outcome, model_cfg, data: Path, train_cfg, run_dir: Path):
    """train_loop, timing its steps through the log hook.

    ``unit_s`` gets the intervals between consecutive steps of one epoch:
    an interval across an epoch boundary also holds the checkpoint save,
    which counts in ``frames_per_s`` but not as a step.
    """
    stamps = []  # (epoch, time) after each step

    def log_fn(msg):
        stamps.append((msg.split()[1], time.perf_counter()))
        out.rss_mb.append(current_rss_mb())

    t0 = time.perf_counter()
    try:
        result = training.train_loop(model_cfg, data, train_cfg, run_dir,
                                     log_fn=log_fn)
    except Exception:
        traceback.print_exc()
        result = None
    out.timed_s = time.perf_counter() - t0
    out.unit_s = [t_b - t_a for (e_a, t_a), (e_b, t_b)
                  in zip(stamps, stamps[1:]) if e_a == e_b]
    return result


def _check_losses(out: Outcome, log, planned_steps: int):
    """Count failed steps; return the epoch-mean losses (None if it raised)."""
    out.attempted += planned_steps
    if log is None:
        out.fail("train_loop raised", planned_steps)
        return None
    losses = [v for _, _, v in log]
    bad = sum(not math.isfinite(v) for v in losses)
    if len(losses) != planned_steps:
        out.fail(f"{len(losses)} of {planned_steps} steps logged",
                 planned_steps - len(losses))
    if bad:
        out.fail("non-finite loss", bad)
    by_epoch = {}
    for epoch, _, v in log:
        by_epoch.setdefault(epoch, []).append(v)
    return [float(np.mean(v)) for _, v in sorted(by_epoch.items())]


def run_desk_train(seed: int, seconds: float, work: Path, fixed: bool) -> Outcome:
    """Criterion 6: fixed schedule of 8 epochs x 8 steps, then evaluation."""
    out = Outcome()
    train_dir, held_dir = work / "train", work / "held"
    n_train = 30

    def build():
        synth.write_dataset(train_dir, make_clips(n_train, 100 * seed))
        held = make_clips(8, 5000 + 100 * seed)
        synth.write_dataset(held_dir, held)
        return [c.frames.shape[1] for c in held]

    held_lengths = _timed_setups(out, build)
    chunk = DESK_TRAIN.chunk_len
    result = _train(out, DESK_MODEL, train_dir, DESK_TRAIN, work / "run")
    steps = DESK_TRAIN.epochs * math.ceil(n_train / DESK_TRAIN.batch_size)
    means = _check_losses(out, result and result[1], steps)
    if not means:
        out.attempted += 1
        out.fail("no checkpoint to evaluate")
        return out
    if not means[-1] < means[0]:
        out.fail(f"epoch-mean loss did not fall "
                 f"({means[0]:.4f} -> {means[-1]:.4f})")
    # one chunk per training clip per epoch
    out.frames = len(means) * n_train * chunk

    out.attempted += 1
    t0 = time.perf_counter()
    try:
        report, *_ = training.evaluate_checkpoint(
            result[0], held_dir, None, chunk_len=chunk,
            input_hw=DESK_TRAIN.input_hw)
    except Exception:
        traceback.print_exc()
        out.fail("evaluation raised")
        return out
    out.eval_s = time.perf_counter() - t0
    out.timed_s += out.eval_s
    out.frames += sum(n // chunk * chunk for n in held_lengths)
    if not (report.mae_bpm < DESK_MAE_BPM and report.pearson_rho > DESK_RHO):
        out.fail(f"held-out MAE {report.mae_bpm:.2f} bpm, rho "
                 f"{report.pearson_rho:.3f}")
    return out


def long_clip(variant: int) -> SynthConfig:
    return SynthConfig(seed=variant, duration_s=10.0, resolution=(64, 64),
                       hr_start_bpm=_hr_for(variant), noise_sigma=0.01)


def write_long_dataset(variant: int, data: Path) -> None:
    """The variant's clip, LONG_STEPS times: one epoch of LONG_STEPS steps."""
    synth.write_dataset(data, [synth.generate_clip(long_clip(variant))]
                        * LONG_STEPS)


def run_long_train(seed: int, seconds: float, work: Path, fixed: bool) -> Outcome:
    """One epoch of LONG_STEPS single-clip steps at paper width.

    Each step leaves ~1.3 GB of graph garbage behind (see the module doc),
    so the step count is what fits in memory, not what fills ``seconds``.
    """
    out = Outcome()
    variant = seed % VARIANTS
    data = work / "long"

    def build():
        refs = load_references()
        write_long_dataset(variant, data)
        return refs

    refs = _timed_setups(out, build)
    expected = refs["long-train"][str(variant)]
    result = _train(out, LONG_MODEL, data, LONG_TRAIN, work / "run")
    if _check_losses(out, result and result[1], LONG_STEPS) is None:
        return out
    ckpt, log = result
    out.frames = len(log) * LONG_TRAIN.chunk_len
    if abs(log[0][2] - expected) > OUTPUT_RTOL * abs(expected):
        out.fail(f"first-step loss {log[0][2]!r} != reference {expected!r}")
    # every parameter got a finite gradient: Adam holds finite moments
    # for each (adam_step itself refuses a non-finite gradient)
    meta, arrays = training.load_checkpoint(ckpt)
    params = [e["name"][6:] for e in meta["entries"]
              if e["name"].startswith("param:")]
    missing = [p for p in params if f"adam_m:{p}" not in arrays]
    if missing or not all(np.isfinite(a).all() for a in arrays.values()):
        out.fail(f"parameters without a finite gradient: {missing[:3]}")
    return out


WORKLOADS = {
    "paper-eval": run_paper_eval,
    "desk-train": run_desk_train,
    "long-train": run_long_train,
}


def run(name: str, seed: int, seconds: float, work: Path,
        fixed: bool) -> Outcome:
    work.mkdir(parents=True, exist_ok=True)
    try:
        return WORKLOADS[name](seed, seconds, work, fixed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only if no other run is using it
        except OSError:
            pass


def median(values) -> float:
    return float(statistics.median(values))


def tail(values):
    """(value, percentile, n): highest percentile with >= 10 samples beyond."""
    n = len(values)
    if n < 11:
        return None
    ordered = sorted(values)
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summary(out: Outcome) -> Dict[str, float]:
    return {"setup_s": median(out.setup_s),
            "step_s": median(out.unit_s) if out.unit_s else float("nan"),
            "frames_per_s": out.frames / out.timed_s if out.timed_s else 0.0,
            "peak_rss_mb": peak_rss_mb()}

