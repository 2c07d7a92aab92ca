"""Adam, the training/evaluation loops, and bit-exact checkpoint I/O.

Determinism contract: batch order and chunk windows derive from the
seed alone (every epoch draws the same ones), a fresh model's parameters
are rounded through float32 before epoch 0, and each epoch continues
from the checkpoint it just wrote (parameters, Adam moments and BN
buffers as float32, loaded back), so the uninterrupted run goes on from
exactly what resuming from that epoch loads, bit for bit.

A checkpoint stores the network's own ``config`` and the epoch, and
stores ``AdamState.t``, the one step counter, as ``global_step``.

Memory: training holds only the frames in use. Read clips keep their
frames on disk and ``chunk_and_resize`` reads just a window's frames (see
``synth.read_dataset``), and training cuts a batch's windows only when
that batch runs.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import tensor as T
from .blocks import ModelConfig, PulseMambaNet
from .errors import (ConfigError, FormatError, InsufficientDataError,
                     NumericError, check_ranges, check_header, is_count,
                     is_shape, read_header)
from .module import Module
from .signal import (compute_metrics, diff_normalize, diff_normalize_label,
                     estimate_hr, neg_pearson_loss, write_metrics_csv)
from .synth import ClipRecord, chunk_and_resize, read_dataset
from .tensor import Tensor

__all__ = [
    "TrainConfig", "AdamState", "adam_step", "prepare_chunk",
    "start_state", "train_loop", "evaluate_records", "evaluate_checkpoint",
    "save_checkpoint", "load_checkpoint", "restore_model", "config_hash",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 2
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """One training run; ``RANGES`` gives each field's range (check_ranges)."""

    lr: float = 3e-3
    weight_decay: float = 5e-4
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0
    chunk_len: int = 128
    input_hw: Tuple[int, int] = (128, 128)
    RANGES = {"lr": (0.0, math.inf), "weight_decay": (0.0, math.inf),
              "epochs": (1, math.inf), "batch_size": (1, math.inf),
              "seed": (0, math.inf), "chunk_len": (1, math.inf),
              "input_hw": (1, math.inf)}

    def __post_init__(self):
        check_ranges(vars(self), self.RANGES)


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(named_params: Sequence[Tuple[str, Tensor]], state: AdamState,
              lr: float, weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam with classic L2 (decay added to the gradient).

    Parameters without a gradient are skipped; a NaN gradient aborts with
    the parameter name. ADAM_EPS is added after the square root.
    """
    state.t += 1
    t = state.t
    for name, p in named_params:
        if p.grad is None:
            continue
        g = p.grad
        if not np.all(np.isfinite(g)):
            raise NumericError(f"NaN/Inf gradient for parameter '{name}'")
        if weight_decay != 0.0:
            g = g + weight_decay * p.data
        if name not in state.m:
            state.m[name] = np.zeros_like(p.data)
            state.v[name] = np.zeros_like(p.data)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        mhat = m / (1.0 - ADAM_BETA1 ** t)
        vhat = v / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + ADAM_EPS)


# ---------------------------------------------------------------------------
# data plumbing

def prepare_chunk(chunk: ClipRecord) -> Tuple[np.ndarray, np.ndarray]:
    """Diff-normalize one raw chunk and restore its length.

    diff-normalization shortens T by one; a zero frame / zero label sample
    is appended so the network's T stays divisible by 4 and predictions
    align with targets sample for sample.
    """
    frames = diff_normalize(chunk.frames)
    frames = np.concatenate([frames, np.zeros_like(frames[:, :1])], axis=1)
    label = diff_normalize_label(chunk.label)
    label = np.concatenate([label, [0.0]])
    return frames, label


# ---------------------------------------------------------------------------
# checkpoints: meta.json header plus one little-endian float32 blob

def config_hash(model_cfg: ModelConfig) -> str:
    payload = json.dumps(asdict(model_cfg), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def save_checkpoint(path, model: PulseMambaNet, state: AdamState,
                    epoch: int) -> Path:
    """Write meta.json (``model.config`` and its hash, ``epoch`` and
    ``state.t`` as ``global_step``) and state.bin (parameters, Adam moments
    and BN buffers as float32). A value that is not finite in float32 is a
    NumericError naming its entry, raised before either is written."""
    entries = []
    blob = bytearray()

    def put(name: str, arr: np.ndarray):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
        if not np.isfinite(np.frombuffer(raw, "<f4")).all():
            raise NumericError(f"checkpoint entry {name} is not finite in float32")
        entries.append({"name": name, "shape": list(arr.shape),
                        "dtype": "<f4", "offset": len(blob),
                        "crc32": f"{zlib.crc32(raw):08x}"})
        blob.extend(raw)

    for name, p in model.named_parameters():
        put(f"param:{name}", p.data)
    for name, _ in model.named_parameters():
        if name in state.m:
            put(f"adam_m:{name}", state.m[name])
            put(f"adam_v:{name}", state.v[name])
    for name, buf in model.named_buffers():
        put(f"buffer:{name}", buf)

    meta = {
        "format_version": CHECKPOINT_VERSION,
        "config_hash": config_hash(model.config),
        "model_config": asdict(model.config),
        "epoch": epoch,
        "global_step": state.t,
        "entries": entries,
    }
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    (path / "state.bin").write_bytes(bytes(blob))
    return path


# each header and entry key that loading, resuming and evaluating read
_META = {"format_version": lambda v: is_count(v) and v == CHECKPOINT_VERSION,
         "config_hash": lambda v: isinstance(v, str), "epoch": is_count,
         "model_config": lambda v: isinstance(v, dict),
         "global_step": is_count, "entries": lambda v: isinstance(v, list)}
_ENTRY = {"name": lambda v: isinstance(v, str), "shape": is_shape,
          "dtype": lambda v: v == "<f4", "offset": is_count,
          "crc32": lambda v: isinstance(v, str)}


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a checkpoint directory, verifying its header and entries against
    ``_META`` and ``_ENTRY`` and every checksum; any defect is a FormatError.
    An epoch takes at least one step: ``0 < epoch <= global_step``, or both 0."""
    path = Path(path)
    meta_path = path / "meta.json"
    meta = read_header(meta_path, _META)
    epoch, step = meta["epoch"], meta["global_step"]
    if not (0 < epoch <= step or epoch == step == 0):
        raise FormatError(f"{meta_path}: epoch {epoch} disagrees with global_step {step}")
    blob = (path / "state.bin").read_bytes()
    arrays = {}
    for i, entry in enumerate(meta["entries"]):
        check_header(entry, _ENTRY, f"{meta_path}: entry {i}")
        size = math.prod(entry["shape"]) * 4
        raw = blob[entry["offset"]:entry["offset"] + size]
        if len(raw) != size:
            raise FormatError(f"{path}/state.bin truncated at {entry['name']}")
        if f"{zlib.crc32(raw):08x}" != entry["crc32"]:
            raise FormatError(f"checksum mismatch for {entry['name']}")
        arrays[entry["name"]] = np.frombuffer(raw, dtype="<f4").reshape(
            entry["shape"]).astype(np.float64)
    return meta, arrays


def _entry(arrays: Dict[str, np.ndarray], key: str, shape) -> np.ndarray:
    """The stored array ``key``, which must have the model's ``shape``."""
    if key not in arrays:
        raise FormatError(f"checkpoint missing {key}")
    if arrays[key].shape != tuple(shape):
        raise FormatError(f"shape mismatch for {key}: stored "
                          f"{arrays[key].shape}, model {tuple(shape)}")
    return arrays[key]


def restore_model(meta: dict, arrays: Dict[str, np.ndarray],
                  model: Module) -> AdamState:
    """Load parameters, moments and buffers into an existing model; the
    returned Adam state's step count ``t`` is the stored ``global_step``.

    Every parameter and buffer must be stored; Adam moments come in (m, v)
    pairs. A missing or mis-shaped entry is a FormatError.
    """
    state = AdamState(t=meta["global_step"])
    for name, p in model.named_parameters():
        p.data = _entry(arrays, f"param:{name}", p.shape).copy()
        if f"adam_m:{name}" in arrays or f"adam_v:{name}" in arrays:
            state.m[name] = _entry(arrays, f"adam_m:{name}", p.shape).copy()
            state.v[name] = _entry(arrays, f"adam_v:{name}", p.shape).copy()
    for name, buf in model.named_buffers():
        buf[:] = _entry(arrays, f"buffer:{name}", buf.shape)
    return state


def _load_model(path) -> Tuple[dict, PulseMambaNet, AdamState]:
    """The checkpoint's header, network and Adam state. The network is built
    from the stored ``model_config`` and restored; a config that does not
    build or does not hash to the stored ``config_hash`` is a FormatError."""
    meta, arrays = load_checkpoint(path)
    try:
        model_cfg = ModelConfig(**meta["model_config"])
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{path}: bad model_config ({exc})") from exc
    if config_hash(model_cfg) != meta["config_hash"]:
        raise FormatError(f"{path}: config_hash does not match its model_config")
    model = PulseMambaNet(model_cfg, seed=0)  # every parameter is restored
    return meta, model, restore_model(meta, arrays, model)


# ---------------------------------------------------------------------------
# loops

def start_state(model_cfg: ModelConfig, train_cfg: TrainConfig,
                resume_from: Optional[str] = None
                ) -> Tuple[PulseMambaNet, AdamState, int]:
    """The network, Adam state and first epoch a run starts from: a fresh
    seeded network at epoch 0, or the resume checkpoint's. A checkpoint
    of another model config, or already at ``epochs``, is a ConfigError;
    nothing is written either way."""
    if resume_from is None:
        return PulseMambaNet(model_cfg, seed=train_cfg.seed), AdamState(), 0
    meta, model, state = _load_model(resume_from)
    if meta["config_hash"] != config_hash(model_cfg):
        raise ConfigError("resume checkpoint was built for a different model config")
    if meta["epoch"] >= train_cfg.epochs:
        raise ConfigError(f"resume checkpoint is at epoch {meta['epoch']}: "
                          f"epochs={train_cfg.epochs} leaves no epoch to run")
    return model, state, meta["epoch"]


def train_loop(model_cfg: ModelConfig, data_dir, train_cfg: TrainConfig,
               out_dir, log_fn: Optional[Callable[[str], None]] = None,
               start: Optional[Tuple[PulseMambaNet, AdamState, int]] = None):
    """Train on a dataset directory; returns (final_ckpt_path, loss_log).

    Per epoch: seeded shuffle, one random chunk per clip, NegPearson on
    diff-normalized signals, Adam update, then a checkpoint saved and
    loaded back, so the next epoch starts from its float32 image. Windows
    are drawn from the epoch's rng in clip order, but each batch's chunks
    are cut only when that batch runs. loss_log rows are (epoch, step,
    loss), also written to ``loss_log.csv``. An epoch of no step (no clip
    holds a window) is an InsufficientDataError. The run starts from
    ``start``, a ``start_state`` result (a resume is one), or else from a
    fresh network.
    """
    model, state, start_epoch = start or start_state(model_cfg, train_cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_dataset(data_dir)
    if not records:
        raise FormatError(f"no clips found under {data_dir}")

    named = list(model.named_parameters())
    loss_log: List[Tuple[int, int, float]] = []
    model.train()
    # start from float32-representable parameters, as a resume does; a
    # fresh model's buffers are 0 or 1 and its Adam state is empty
    for _, p in named:
        p.data = p.data.astype(np.float32).astype(np.float64)

    for epoch in range(start_epoch, train_cfg.epochs):
        # seeded per epoch from the seed alone: every epoch sees identical
        # batches, so lr=0 keeps the loss constant and resuming reproduces
        # the uninterrupted run
        rng = np.random.default_rng(train_cfg.seed)
        # lazy: the permutation is drawn now, each window when it is cut
        windows = (chunk for idx in rng.permutation(len(records))
                   for chunk in chunk_and_resize(
                       records[idx], train_cfg.chunk_len, train_cfg.input_hw,
                       mode="train", rng=rng))
        while batch := list(itertools.islice(windows, train_cfg.batch_size)):
            pairs = [prepare_chunk(ch) for ch in batch]
            x = Tensor(np.stack([f for f, _ in pairs]))
            y = Tensor(np.stack([l for _, l in pairs]))
            model.zero_grad()
            loss = neg_pearson_loss(model(x), y)
            val = loss.item()
            if not math.isfinite(val):
                raise NumericError(f"non-finite loss at epoch {epoch} "
                                   f"step {state.t}")
            T.backward(loss)
            loss_log.append((epoch, state.t, val))
            adam_step(named, state, train_cfg.lr,
                      weight_decay=train_cfg.weight_decay)
            if log_fn:
                log_fn(f"epoch {epoch} step {state.t} loss {val:.4f}")
        if not loss_log:  # every epoch cuts windows from the same clips
            raise InsufficientDataError(f"epoch {epoch} ran no step: no clip "
                                        f"holds a {train_cfg.chunk_len}-frame window")
        epoch_ckpt = out_dir / f"checkpoint_epoch_{epoch:03d}"
        save_checkpoint(epoch_ckpt, model, state, epoch + 1)
        state = restore_model(*load_checkpoint(epoch_ckpt), model)

    with open(out_dir / "loss_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "loss"])
        for row in loss_log:
            writer.writerow([row[0], row[1], f"{row[2]:.10f}"])

    final = out_dir / "checkpoint_final"
    save_checkpoint(final, model, state, train_cfg.epochs)
    return final, loss_log


def _stitch(chunks: np.ndarray) -> np.ndarray:
    """Join (n_chunks, chunk_len) diff signals on the clip's time axis."""
    # each pad holds the place of the difference across a window boundary,
    # which no window sees: fill it with its neighbours' mean, drop the last
    out = chunks.copy()
    out[:-1, -1] = 0.5 * (chunks[:-1, -2] + chunks[1:, 0])
    return out.reshape(-1)[:-1]


def evaluate_records(predict: Callable[[np.ndarray], np.ndarray],
                     records: List[ClipRecord], chunk_len: int,
                     input_hw: Tuple[int, int]):
    """Chunked inference over whole clips: ``predict`` maps a clip's
    prepared (n_chunks, 3, chunk_len, H, W) frames to (n_chunks, chunk_len)
    float64 signals. Returns (clip_ids, pred_hrs, gt_hrs, traces) where
    traces maps clip id to its stitched (predicted, target) signals."""
    clip_ids, pred_hrs, gt_hrs = [], [], []
    traces = {}
    for i, rec in enumerate(records):
        chunks = chunk_and_resize(rec, chunk_len, input_hw, mode="eval")
        if not chunks:
            continue
        frames, labels = (np.stack(a) for a in zip(*map(prepare_chunk, chunks)))
        target = _stitch(labels)
        pred = _stitch(predict(frames).reshape(labels.shape))
        cid = f"clip_{i:04d}"
        clip_ids.append(cid)
        pred_hrs.append(estimate_hr(pred, rec.fs))
        gt_hrs.append(estimate_hr(target, rec.fs))
        traces[cid] = (pred, target)
    return clip_ids, pred_hrs, gt_hrs, traces


def evaluate_checkpoint(ckpt_path, data_dir, out_dir=None, *, chunk_len: int,
                        input_hw: Tuple[int, int]):
    """Evaluate a checkpoint's network (in eval mode, under ``no_grad``) on
    a dataset; window extents the network cannot take are a ConfigError,
    raised before the dataset is read.

    Returns (report, clip_ids, pred_hrs, gt_hrs, traces); writes the
    per-clip CSV when out_dir is given.
    """
    _, model, _ = _load_model(ckpt_path)
    model.config.validate_input(chunk_len, *input_hw)
    model.eval()
    records = read_dataset(data_dir)

    def predict(frames):
        with T.no_grad():
            return model(Tensor(frames)).data

    clip_ids, pred_hrs, gt_hrs, traces = evaluate_records(
        predict, records, chunk_len, input_hw)
    report = compute_metrics(pred_hrs, gt_hrs)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "per_clip_metrics.csv", clip_ids,
                          pred_hrs, gt_hrs, report)
    return report, clip_ids, pred_hrs, gt_hrs, traces
