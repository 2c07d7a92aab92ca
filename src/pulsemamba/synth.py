"""Deterministic synthetic pulse-video generator and the on-disk dataset.

Each clip embeds a known waveform (fundamental plus a 0.3-amplitude second
harmonic, so HR estimators must lock to the fundamental) into an
elliptical skin region with a green-dominant channel mix, optional
Gaussian noise and slow sinusoidal mask motion along x. Everything is a
pure function of the seed, and a clip is rendered in one broadcast (see
``generate_clip``).

On disk, a clip is a directory holding ``meta.json`` (shape, dtype tag,
fs, seed, checksums) plus ``frames.f32`` and ``label.f32`` as raw
little-endian float32 arrays in row-major order. Clips are float32 at
every stage, half the memory of float64: ``generate_clip`` returns its
frames at the stored precision, and ``read_dataset`` leaves them in their
files (see ``StoredClip``), so ``chunk_and_resize`` reads only the frames
of the windows it cuts. It hands the network float64 chunks, which is
exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
import zlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

import numpy as np

from .errors import (CapacityError, ConfigError, FormatError, check_ranges,
                     is_count, is_shape, read_header)

__all__ = [
    "SynthConfig", "ClipRecord", "StoredClip", "generate_clip", "write_dataset",
    "read_dataset", "chunk_and_resize", "bilinear_resize",
]

CHANNEL_MIX = (0.5, 1.0, 0.3)  # R, G, B pulse weights; green dominates
SECOND_HARMONIC = 0.3
MOTION_FREQ_HZ = 0.2
HR_BAND_BPM = (48.0, 144.0)
CRC_BLOCK = 1 << 20  # bytes per read when checksumming a file
# cap on generate_clip's float64 (3, T, H, W) buffer (a render peaks near 1.5x
# it); the largest test or benchmark clip, paper-eval's (51 MB), is under 1/10 of it
MAX_CLIP_BYTES = 1 << 29


FORMAT_VERSION = 1  # of a clip's meta.json
# every meta.json key that reading a clip uses, with its value check
_HEADER = {"format_version": lambda v: is_count(v) and v == FORMAT_VERSION,
           "dtype": lambda v: v == "<f4",
           "fs": lambda v: type(v) in (int, float) and 0 < v < math.inf,
           "frames_shape": lambda v: is_shape(v) and len(v) == 4 and min(v[2:]) > 0,
           "label_shape": lambda v: is_shape(v) and len(v) == 1,
           "frames_crc32": lambda v: isinstance(v, str),
           "label_crc32": lambda v: isinstance(v, str)}


@dataclass
class SynthConfig:
    """One clip, in ``RANGES`` (``errors.check_ranges``), at most
    ``MAX_CLIP_BYTES`` (CapacityError) and at least 2 frames (ConfigError)."""

    seed: int = 0
    fs: float = 30.0
    duration_s: float = 10.0
    resolution: Tuple[int, int] = (64, 64)
    base_color: Tuple[float, float, float] = (0.70, 0.55, 0.45)
    pulse_amplitude: float = 0.02
    hr_start_bpm: float = 72.0
    noise_sigma: float = 0.0
    motion_amplitude_px: float = 0.0
    skin_mask: float = 0.6  # elliptical region fraction of each half-extent
    RANGES = {"seed": (0, math.inf), "fs": (0.0, math.inf, True),
              "duration_s": (0.0, math.inf, True),
              "resolution": (16, math.inf), "base_color": (0.0, 1.0),
              "pulse_amplitude": (0.0, math.inf), "hr_start_bpm": HR_BAND_BPM,
              "noise_sigma": (0.0, math.inf),
              "motion_amplitude_px": (0.0, math.inf), "skin_mask": (0.0, 1.0, True)}

    def __post_init__(self):
        check_ranges(vars(self), self.RANGES)
        h, w = (min(e, MAX_CLIP_BYTES) for e in self.resolution)  # float-safe
        if 24 * self.duration_s * self.fs * h * w > MAX_CLIP_BYTES:
            raise CapacityError(f"{self.duration_s} s of {self.resolution} frames "
                                f"at {self.fs} Hz pass the {MAX_CLIP_BYTES}-byte cap")
        if self.num_frames < 2:
            raise ConfigError(f"fs * duration_s is {self.num_frames} frames, < 2")

    @property
    def num_frames(self) -> int:
        return int(round(self.duration_s * self.fs))

    def content_hash(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


@dataclass
class ClipRecord:
    """A clip: float32 frames (3, T, H, W) in [0, 1] and a float64 label
    (T,). A chunk's frames are float64 (see ``chunk_and_resize``); a read
    clip is a ``StoredClip``."""

    frames: np.ndarray
    label: np.ndarray
    fs: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.frames.shape[1] != self.label.shape[0]:
            raise FormatError(
                f"label length {self.label.shape[0]} != frame count {self.frames.shape[1]}")

    def window(self, start: int, stop: int) -> np.ndarray:
        """Frames [start, stop) of every channel, (3, stop - start, H, W)."""
        return self.frames[:, start:stop]


class StoredClip(ClipRecord):
    """A clip read by ``read_dataset``: its frames stay in their file.

    ``window`` reads just frames [start, stop) of each channel into a new
    writable float32 array, and checks every frame against the CRC it had
    when the whole file's checksum passed (``_frame_crcs``), so the bytes
    used are the bytes checked: a file changed, cut short or removed since
    raises FormatError.
    ``frames`` reads the whole file that way on each access. No file stays
    open between reads. The label is held in memory.
    """

    def __init__(self, path: Path, shape, frame_crcs: np.ndarray,
                 label: np.ndarray, fs: float, meta: dict):
        self.path, self.frames_shape = path, tuple(shape)
        self.frame_crcs = frame_crcs
        self.label, self.fs, self.meta = label, fs, meta
        if self.frames_shape[1] != label.shape[0]:
            raise FormatError(
                f"label length {label.shape[0]} != frame count {self.frames_shape[1]}")

    @property
    def frames(self) -> np.ndarray:
        return self.window(0, self.frames_shape[1])

    def window(self, start: int, stop: int) -> np.ndarray:
        c, t, h, w = self.frames_shape
        out = np.empty((c, stop - start, h, w), dtype="<f4")
        try:
            with open(self.path, "rb") as fh:
                for ch, frames in enumerate(out):
                    first = ch * t + start
                    fh.seek(first * h * w * 4)
                    n = fh.readinto(frames)
                    want = self.frame_crcs[first:first + len(frames) + 1].tolist()
                    if n != frames.nbytes or want[1:] != [
                            zlib.crc32(f, crc) for f, crc in zip(frames, want)]:
                        raise FormatError(f"{self.path}: changed since it was read")
        except OSError as exc:
            raise FormatError(f"{self.path}: unreadable ({exc})") from exc
        return out


def _pulse_waveform(cfg: SynthConfig, t: np.ndarray) -> np.ndarray:
    phase = 2.0 * np.pi * (cfg.hr_start_bpm / 60.0) * t
    return np.sin(phase) + SECOND_HARMONIC * np.sin(2.0 * phase)


def generate_clip(cfg: SynthConfig) -> ClipRecord:
    """Render one synthetic clip; same seed, same bits.

    One broadcast: each pixel of each frame takes its channel's skin level
    for that frame inside the frame's ellipse, else the base colour. The
    motion shift moves each frame's ellipse along x, so a still clip is
    the zero-shift case. Rendered in float64, returned at the stored
    float32 precision: the frames are those ``read_dataset`` gives back
    after ``write_dataset``.
    """
    rng = np.random.default_rng(cfg.seed)
    h, w = cfg.resolution
    n = cfg.num_frames
    t = np.arange(n) / cfg.fs
    pulse = _pulse_waveform(cfg, t)

    base = np.asarray(cfg.base_color, dtype=np.float64)
    mix = cfg.pulse_amplitude * np.asarray(CHANNEL_MIX)
    level = base[:, None] * (1.0 + mix[:, None] * pulse)  # (3, T)
    dx = cfg.motion_amplitude_px * np.sin(2.0 * np.pi * MOTION_FREQ_HZ * t)
    ry, rx = cfg.skin_mask * h / 2.0, cfg.skin_mask * w / 2.0
    ey = ((np.arange(h) - (h - 1) / 2.0) / ry) ** 2
    ex = ((np.arange(w) - ((w - 1) / 2.0 + dx)[:, None]) / rx) ** 2  # (T, W)
    frames = np.where(ey[:, None] + ex[:, None, :] <= 1.0,  # (T, H, W) ellipse
                      level[:, :, None, None], base[:, None, None, None])
    if cfg.noise_sigma > 0.0:  # one channel's draw at a time
        for channel in frames:
            channel += rng.normal(0.0, cfg.noise_sigma, channel.shape)
    np.clip(frames, 0.0, 1.0, out=frames)

    meta = {"seed": cfg.seed, "config_hash": cfg.content_hash(),
            "gt_mean_bpm": cfg.hr_start_bpm}
    return ClipRecord(frames=frames.astype(np.float32), label=pulse,
                      fs=cfg.fs, meta=meta)


# ---------------------------------------------------------------------------
# on-disk format

def _write_blob(path: Path, arr: np.ndarray) -> str:
    blob = arr.astype("<f4", copy=False).tobytes()
    path.write_bytes(blob)
    return f"{zlib.crc32(blob):08x}"


def _check_size(path: Path, shape) -> int:
    if not path.exists():
        raise FormatError(f"missing tensor file {path}")
    expected = math.prod(shape) * 4
    size = path.stat().st_size
    if size != expected:
        raise FormatError(f"{path}: {size} bytes, expected {expected}")
    return expected


def _read_blob(path: Path, shape, checksum: str) -> np.ndarray:
    """The file as a writable float32 array of ``shape``, read once."""
    _check_size(path, shape)
    arr = np.fromfile(path, dtype="<f4")
    if f"{zlib.crc32(arr):08x}" != checksum:
        raise FormatError(f"{path}: checksum mismatch")
    return arr.reshape(shape)


def _frame_crcs(path: Path, shape, checksum: str) -> np.ndarray:
    """The running CRC32 of a (C, T, H, W) file at each (H, W) frame
    boundary, (C * T + 1,), once its size and checksum (the last entry)
    pass: frame i's bytes give ``crc32(frame, crcs[i]) == crcs[i + 1]``.
    One pass, a frame at a time, through a buffer of ``CRC_BLOCK`` bytes."""
    _check_size(path, shape)
    c, t, h, w = shape
    crcs = [0]
    with open(path, "rb", buffering=CRC_BLOCK) as fh:
        for _ in range(c * t):
            crcs.append(zlib.crc32(fh.read(h * w * 4), crcs[-1]))
        grown = bool(fh.read(1))
    if grown or f"{crcs[-1]:08x}" != checksum:
        raise FormatError(f"{path}: checksum mismatch")
    return np.array(crcs, dtype=np.uint32)


def write_dataset(root, records: Iterable[ClipRecord]) -> List[Path]:
    """One directory per clip: meta.json + frames.f32 + label.f32.

    ``records`` may be any iterable, e.g. a generator that renders one
    clip at a time.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, rec in enumerate(records):
        clip_dir = root / f"clip_{i:04d}"
        clip_dir.mkdir(exist_ok=True)
        frames_crc = _write_blob(clip_dir / "frames.f32", rec.frames)
        label_crc = _write_blob(clip_dir / "label.f32", rec.label)
        meta = {
            "format_version": FORMAT_VERSION,
            "dtype": "<f4",
            "fs": rec.fs,
            "frames_shape": list(rec.frames.shape),
            "label_shape": list(rec.label.shape),
            "frames_crc32": frames_crc,
            "label_crc32": label_crc,
            **rec.meta,
        }
        (clip_dir / "meta.json").write_text(
            json.dumps(meta, sort_keys=True, indent=1) + "\n")
        paths.append(clip_dir)
    return paths


def read_dataset(root) -> List[ClipRecord]:
    """Load every clip directory under root; empty directory, empty list.

    Each clip is a ``StoredClip``: its frames file is checked here, then
    left on disk and read (float32, checked again) one window at a time;
    labels are read into float64.
    """
    root = Path(root)
    if not root.exists():
        raise FormatError(f"dataset directory {root} does not exist")
    records = []
    for clip_dir in sorted(p for p in root.iterdir() if p.is_dir()):
        meta_path = clip_dir / "meta.json"
        if not meta_path.exists():
            continue
        meta = read_header(meta_path, _HEADER)
        frames_path = clip_dir / "frames.f32"
        crcs = _frame_crcs(frames_path, meta["frames_shape"],
                           meta["frames_crc32"])
        label = _read_blob(clip_dir / "label.f32", meta["label_shape"],
                           meta["label_crc32"]).astype(np.float64)
        extra = {k: v for k, v in meta.items() if k not in _HEADER}
        records.append(StoredClip(frames_path, meta["frames_shape"], crcs,
                                  label, float(meta["fs"]), extra))
    return records


# ---------------------------------------------------------------------------
# chunking / resizing

def bilinear_resize(frames: np.ndarray, out_hw: Tuple[int, int]) -> np.ndarray:
    """Bilinear spatial resize of (..., H, W) with aligned corners, into a
    new float64 array: bit for bit that of ``frames.astype(np.float64)``."""
    *lead, h, w = frames.shape
    oh, ow = out_hw
    if (h, w) == (oh, ow):
        return frames.astype(np.float64)
    ys = np.linspace(0.0, h - 1.0, oh)
    xs = np.linspace(0.0, w - 1.0, ow)
    y0 = np.clip(np.floor(ys).astype(int), 0, h - 2)
    x0 = np.clip(np.floor(xs).astype(int), 0, w - 2)
    wy = (ys - y0).reshape(-1, 1)
    wx = (xs - x0).reshape(1, -1)
    flat = frames.reshape(-1, h, w)
    top = flat[:, y0][:, :, x0] * (1 - wx) + flat[:, y0][:, :, x0 + 1] * wx
    bot = flat[:, y0 + 1][:, :, x0] * (1 - wx) + flat[:, y0 + 1][:, :, x0 + 1] * wx
    out = top * (1 - wy) + bot * wy
    return out.reshape(*lead, oh, ow)


def chunk_and_resize(record: ClipRecord, chunk_len: int,
                     out_hw: Tuple[int, int], mode: str = "eval",
                     rng: Optional[np.random.Generator] = None) -> List[ClipRecord]:
    """Cut a clip into fixed-length windows and resize spatially.

    ``train`` samples one random window from ``rng``; ``eval`` tiles
    non-overlapping windows and drops the tail. Labels are sliced to the
    same window. Clips shorter than chunk_len are skipped with a warning.
    Only the windows' frames are read (``ClipRecord.window``); chunk frames
    are float64 (see ``bilinear_resize``). A chunk_len or out_hw extent
    below 1 is a ConfigError.
    """
    if chunk_len < 1 or min(out_hw) < 1:
        raise ConfigError(f"chunk_len and output extents must be >= 1, "
                          f"got {chunk_len} and {tuple(out_hw)}")
    n = record.label.shape[0]
    if n < chunk_len:
        warnings.warn(f"clip of {n} frames shorter than chunk {chunk_len}, skipping",
                      RuntimeWarning, stacklevel=2)
        return []
    if mode == "train":
        starts = [int(rng.integers(0, n - chunk_len + 1))]
    elif mode == "eval":
        starts = list(range(0, n - chunk_len + 1, chunk_len))
    else:
        raise ConfigError(f"mode must be train or eval, got {mode!r}")
    chunks = []
    for s in starts:
        frames = bilinear_resize(record.window(s, s + chunk_len), out_hw)
        label = record.label[s:s + chunk_len].copy()
        meta = dict(record.meta, window_start=s)
        chunks.append(ClipRecord(frames=frames, label=label, fs=record.fs,
                                 meta=meta))
    return chunks
