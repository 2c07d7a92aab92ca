"""Adam, the training/evaluation loops, and bit-exact checkpoint I/O.

Determinism contract: batch order and chunk windows derive from the
seed alone (every epoch draws the same ones), and parameters, Adam
moments and BN buffers are round-tripped through float32 at every epoch
checkpoint, so resuming from any epoch reproduces the uninterrupted run
bit for bit.

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
from .errors import (ConfigError, FormatError, NumericError, check_types,
                     is_count, is_shape, require_keys)
from .module import Module
from .signal import (MetricsReport, PulseTrace, compute_metrics,
                     diff_normalize, diff_normalize_label, estimate_hr,
                     neg_pearson_loss, write_metrics_csv)
from .synth import ClipRecord, chunk_and_resize, read_dataset
from .tensor import Tensor

__all__ = [
    "TrainConfig", "AdamState", "adam_step", "prepare_chunk",
    "train_loop", "evaluate_records", "evaluate_checkpoint",
    "save_checkpoint", "load_checkpoint", "restore_model", "config_hash",
    "CHECKPOINT_VERSION",
]

CHECKPOINT_VERSION = 2
# meta.json keys that loading, resuming and evaluating read
_META_KEYS = ("format_version", "config_hash", "model_config", "epoch",
              "global_step", "entries")
_ENTRY_KEYS = ("name", "shape", "offset", "crc32")


@dataclass
class TrainConfig:
    lr: float = 3e-3
    weight_decay: float = 5e-4
    epochs: int = 20
    batch_size: int = 4
    seed: int = 0
    chunk_len: int = 128
    input_hw: Tuple[int, int] = (128, 128)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and math.isfinite(self.weight_decay)):
            raise ConfigError(f"lr and weight_decay must be finite, got "
                              f"{self.lr} and {self.weight_decay}")
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")


# ---------------------------------------------------------------------------
# optimizer

@dataclass
class AdamState:
    m: Dict[str, np.ndarray] = field(default_factory=dict)
    v: Dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(named_params: Sequence[Tuple[str, Tensor]], state: AdamState,
              lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8, weight_decay: float = 0.0) -> None:
    """Bias-corrected Adam with classic L2 (decay added to the gradient).

    Parameters without a gradient are skipped; a NaN gradient aborts with
    the parameter name. eps is added after the square root.
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
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        mhat = m / (1.0 - beta1 ** t)
        vhat = v / (1.0 - beta2 ** t)
        p.data -= lr * mhat / (np.sqrt(vhat) + eps)


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


def _quantize_state(model: Module, state: AdamState) -> None:
    """Round-trip everything through float32, as the checkpoint does."""
    for _, p in model.named_parameters():
        p.data = p.data.astype(np.float32).astype(np.float64)
    for store in (state.m, state.v):
        for k in store:
            store[k] = store[k].astype(np.float32).astype(np.float64)
    for _, buf in model.named_buffers():
        buf[:] = buf.astype(np.float32).astype(np.float64)


# ---------------------------------------------------------------------------
# checkpoints: meta.json header plus one little-endian float32 blob

def config_hash(model_cfg: ModelConfig) -> str:
    payload = json.dumps(asdict(model_cfg), sort_keys=True).encode()
    return hashlib.sha256(payload).hexdigest()[:16]


def save_checkpoint(path, model: Module, model_cfg: ModelConfig,
                    state: AdamState, epoch: int, global_step: int) -> Path:
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    entries = []
    blob = bytearray()

    def put(name: str, arr: np.ndarray):
        raw = np.ascontiguousarray(arr, dtype="<f4").tobytes()
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
        "config_hash": config_hash(model_cfg),
        "model_config": asdict(model_cfg),
        "epoch": epoch,
        "global_step": global_step,
        "adam_t": state.t,
        "entries": entries,
    }
    (path / "meta.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    (path / "state.bin").write_bytes(bytes(blob))
    return path


# value checks for the meta.json keys that loading and resuming use
_META_TYPES = {"format_version": is_count, "epoch": is_count,
               "global_step": is_count, "adam_t": is_count,
               "entries": lambda v: isinstance(v, list)}
_ENTRY_TYPES = {"name": lambda v: isinstance(v, str), "offset": is_count,
                "shape": is_shape}


def load_checkpoint(path) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Read a checkpoint directory, verifying its header keys and value
    types, its version and every checksum; any defect is a FormatError."""
    path = Path(path)
    meta_path = path / "meta.json"
    if not meta_path.exists():
        raise FormatError(f"checkpoint {path} has no meta.json")
    try:
        meta = json.loads(meta_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{meta_path}: corrupt header ({exc})") from exc
    require_keys(meta, _META_KEYS, f"{meta_path}: header")
    check_types(meta, _META_TYPES, f"{meta_path}: header")
    if meta["format_version"] != CHECKPOINT_VERSION:
        raise FormatError(f"checkpoint version {meta['format_version']!r}, "
                          f"expected {CHECKPOINT_VERSION}")
    blob = (path / "state.bin").read_bytes()
    arrays = {}
    for i, entry in enumerate(meta["entries"]):
        require_keys(entry, _ENTRY_KEYS, f"{meta_path}: entry {i}")
        check_types(entry, _ENTRY_TYPES, f"{meta_path}: entry {i}")
        size = int(np.prod(entry["shape"])) * 4 if entry["shape"] else 4
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
    """Load parameters, moments and buffers into an existing model.

    Every parameter must be stored; Adam moments come in (m, v) pairs and
    buffers are optional. A missing or mis-shaped entry is a FormatError.
    """
    state = AdamState(t=meta.get("adam_t", 0))
    for name, p in model.named_parameters():
        p.data = _entry(arrays, f"param:{name}", p.shape).copy()
        if f"adam_m:{name}" in arrays or f"adam_v:{name}" in arrays:
            state.m[name] = _entry(arrays, f"adam_m:{name}", p.shape).copy()
            state.v[name] = _entry(arrays, f"adam_v:{name}", p.shape).copy()
    for name, buf in model.named_buffers():
        if f"buffer:{name}" in arrays:
            buf[:] = _entry(arrays, f"buffer:{name}", buf.shape)
    return state


# ---------------------------------------------------------------------------
# loops

def train_loop(model_cfg: ModelConfig, data_dir, train_cfg: TrainConfig,
               out_dir, resume_from: Optional[str] = None,
               log_fn: Optional[Callable[[str], None]] = None):
    """Train on a dataset directory; returns (final_ckpt_path, loss_log).

    Per epoch: seeded shuffle, one random chunk per clip, NegPearson on
    diff-normalized signals, Adam update, checkpoint save plus float32
    round-trip. Windows are drawn from the epoch's rng in clip order, but
    each batch's chunks are cut only when that batch runs. loss_log rows
    are (epoch, step, loss), also written to ``loss_log.csv``.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = read_dataset(data_dir)
    if not records:
        raise FormatError(f"no clips found under {data_dir}")

    model = PulseMambaNet(model_cfg, seed=train_cfg.seed)
    state = AdamState()
    start_epoch = 0
    global_step = 0
    if resume_from is not None:
        meta, arrays = load_checkpoint(resume_from)
        if meta["config_hash"] != config_hash(model_cfg):
            raise ConfigError("resume checkpoint was built for a different model config")
        state = restore_model(meta, arrays, model)
        start_epoch = meta["epoch"]
        global_step = meta["global_step"]

    named = list(model.named_parameters())
    loss_log: List[Tuple[int, int, float]] = []
    model.train()
    # start from float32-representable parameters so every epoch (fresh or
    # resumed) sees the same checkpoint-boundary precision
    _quantize_state(model, state)

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
                                   f"step {global_step}")
            T.backward(loss)
            adam_step(named, state, train_cfg.lr,
                      weight_decay=train_cfg.weight_decay)
            loss_log.append((epoch, global_step, val))
            global_step += 1
            if log_fn:
                log_fn(f"epoch {epoch} step {global_step} loss {val:.4f}")
        epoch_ckpt = out_dir / f"checkpoint_epoch_{epoch:03d}"
        save_checkpoint(epoch_ckpt, model, model_cfg, state, epoch + 1,
                        global_step)
        _quantize_state(model, state)

    with open(out_dir / "loss_log.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "step", "loss"])
        for row in loss_log:
            writer.writerow([row[0], row[1], f"{row[2]:.10f}"])

    final = out_dir / "checkpoint_final"
    save_checkpoint(final, model, model_cfg, state,
                    max(train_cfg.epochs, start_epoch), global_step)
    return final, loss_log


def _predict_signal(model_or_fn, frames_batch: np.ndarray) -> np.ndarray:
    if isinstance(model_or_fn, Module):
        with T.no_grad():
            out = model_or_fn(Tensor(frames_batch))
        return out.data
    return np.asarray(model_or_fn(frames_batch), dtype=np.float64)


def _stitch(chunks: np.ndarray) -> np.ndarray:
    """Join (n_chunks, chunk_len) diff signals on the clip's time axis."""
    # each pad holds the place of the difference across a window boundary,
    # which no window sees: fill it with its neighbours' mean, drop the last
    out = chunks.copy()
    out[:-1, -1] = 0.5 * (chunks[:-1, -2] + chunks[1:, 0])
    return out.reshape(-1)[:-1]


def evaluate_records(model_or_fn, records: List[ClipRecord], chunk_len: int,
                     input_hw: Tuple[int, int]):
    """Chunked inference over whole clips.

    Returns (clip_ids, pred_hrs, gt_hrs, traces) where traces maps clip id
    to its stitched (predicted, target) diff-domain signals.
    """
    if isinstance(model_or_fn, Module):
        model_or_fn.eval()
    clip_ids, pred_hrs, gt_hrs = [], [], []
    traces = {}
    for i, rec in enumerate(records):
        chunks = chunk_and_resize(rec, chunk_len, input_hw, mode="eval")
        if not chunks:
            continue
        frames, labels = (np.stack(a) for a in zip(*map(prepare_chunk, chunks)))
        target = _stitch(labels)
        pred = _stitch(_predict_signal(model_or_fn, frames).reshape(labels.shape))
        cid = f"clip_{i:04d}"
        clip_ids.append(cid)
        pred_hrs.append(estimate_hr(PulseTrace(pred, rec.fs)))
        gt_hrs.append(estimate_hr(PulseTrace(target, rec.fs)))
        traces[cid] = (pred, target)
    return clip_ids, pred_hrs, gt_hrs, traces


def evaluate_checkpoint(ckpt_path, data_dir, out_dir=None,
                        chunk_len: int = 128,
                        input_hw: Tuple[int, int] = (128, 128)):
    """Load a checkpoint, verify its config hash, evaluate a dataset.

    Returns (report, clip_ids, pred_hrs, gt_hrs, traces); writes the
    per-clip CSV when out_dir is given.
    """
    meta, arrays = load_checkpoint(ckpt_path)
    try:
        model_cfg = ModelConfig(**meta["model_config"])
    except (TypeError, ConfigError) as exc:
        raise FormatError(f"{ckpt_path}: bad model_config ({exc})") from exc
    if config_hash(model_cfg) != meta["config_hash"]:
        raise ConfigError("checkpoint config hash does not match its stored config")
    model = PulseMambaNet(model_cfg, seed=0)
    restore_model(meta, arrays, model)
    records = read_dataset(data_dir)
    clip_ids, pred_hrs, gt_hrs, traces = evaluate_records(
        model, records, chunk_len, input_hw)
    report = compute_metrics(pred_hrs, gt_hrs)
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        write_metrics_csv(out_dir / "per_clip_metrics.csv", clip_ids,
                          pred_hrs, gt_hrs, report)
    return report, clip_ids, pred_hrs, gt_hrs, traces
