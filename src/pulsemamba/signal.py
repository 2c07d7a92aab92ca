"""Preprocessing, loss and evaluation for pulse traces.

DiffNormalized frames, the negative-Pearson training loss (differentiable
through the tensor engine), FFT bandpass heart-rate estimation, and the
four HR error metrics with their CSV emission.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import tensor as T
from .errors import InsufficientDataError, ShapeError
from .tensor import Tensor

__all__ = [
    "MetricsReport", "diff_normalize", "diff_normalize_label",
    "neg_pearson_loss", "pearson", "estimate_hr", "compute_metrics",
    "write_metrics_csv", "HR_BAND_HZ",
]

DIFF_EPS = 1e-7
VAR_EPS = 1e-8
HR_BAND_HZ = (0.75, 2.5)  # 45 to 150 bpm


@dataclass
class MetricsReport:
    mae_bpm: float
    rmse_bpm: float
    mape_percent: float
    pearson_rho: float


def diff_normalize(frames: np.ndarray) -> np.ndarray:
    """Normalized inter-frame differences of a clip (3, T, H, W).

    d_t = (X_{t+1} - X_t) / (X_t + X_{t+1} + eps), then the whole clip is
    divided by the population std of all d values (+ eps). Non-finite
    entries become 0. Output has T-1 frames.
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 4 or frames.shape[1] < 2:
        raise ShapeError(f"diff_normalize expects (3, T>=2, H, W), got {frames.shape}")
    num = frames[:, 1:] - frames[:, :-1]
    den = frames[:, 1:] + frames[:, :-1] + DIFF_EPS
    d = num / den
    d[~np.isfinite(d)] = 0.0
    d = d / (d.std() + DIFF_EPS)
    d[~np.isfinite(d)] = 0.0
    return d


def diff_normalize_label(label: np.ndarray) -> np.ndarray:
    """First differences of a label trace divided by their population std.

    Mirrors the frame treatment so predictions and targets live in the
    same derivative domain. Output has T-1 samples.
    """
    label = np.asarray(label, dtype=np.float64)
    if label.ndim != 1 or label.size < 2:
        raise ShapeError(f"label must be 1-D with >= 2 samples, got {label.shape}")
    d = np.diff(label)
    d = d / (d.std() + DIFF_EPS)
    d[~np.isfinite(d)] = 0.0
    return d


def _row_means(x: Tensor) -> Tensor:
    """Each row's mean of (B, T), repeated along the row (binary ops need
    equal shapes, so the mean is repeated as a (B, 1, T, 1, 1) time axis)."""
    m = T.reshape(T.reduce_mean(x, axes=1), (-1, 1, 1, 1, 1))
    return T.reshape(T.upsample_nearest_time(m, x.shape[1]), x.shape)


def neg_pearson_loss(pred: Tensor, target: Tensor) -> Tensor:
    """1 - Pearson correlation, averaged over rows of (B, T) signals.

    Differentiable; in [0, 2]; invariant to positive affine transforms of
    either argument, as each row is centred before any product. Variance
    guards of 1e-8 (on n times the centred sum of squares) sit under each
    square root, so a zero-variance row contributes loss 1 (correlation
    treated as 0) and triggers a degenerate-batch warning.
    """
    if pred.shape != target.shape or pred.ndim != 2:
        raise ShapeError(f"loss operands must be equal (B, T): "
                         f"{pred.shape} vs {target.shape}")
    n = float(pred.shape[1])
    if n < 2:
        raise ShapeError("need at least 2 samples per row")

    if any(np.any(s.data.var(axis=1) == 0.0) for s in (pred, target)):
        warnings.warn("degenerate batch: zero-variance signal in NegPearson",
                      RuntimeWarning, stacklevel=2)

    # centred first: raw moments (n*sum(xy) - sum(x)*sum(y)) cancel
    # catastrophically once the offset dwarfs the signal
    pc, tc = T.sub(pred, _row_means(pred)), T.sub(target, _row_means(target))
    num = T.scale(T.reduce_sum(T.mul(pc, tc), axes=1), n)
    var_x = T.scale(T.reduce_sum(T.mul(pc, pc), axes=1), n)
    var_y = T.scale(T.reduce_sum(T.mul(tc, tc), axes=1), n)
    denom = T.mul(T.sqrt(T.add(var_x, T.tensor(VAR_EPS))),
                  T.sqrt(T.add(var_y, T.tensor(VAR_EPS))))
    rho = T.div(num, denom)
    losses = T.sub(T.ones(rho.shape), rho)
    return T.reduce_mean(losses)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation; 0 (with a warning) on constant input."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    xc = x - x.mean()
    yc = y - y.mean()
    den = np.sqrt((xc * xc).sum() * (yc * yc).sum())
    if den == 0.0:
        warnings.warn("constant input to Pearson correlation, returning 0",
                      RuntimeWarning, stacklevel=2)
        return 0.0
    return float((xc * yc).sum() / den)


def estimate_hr(samples: np.ndarray, fs: float) -> float:
    """Dominant-frequency heart rate in bpm of 1-D samples at ``fs`` > 0 Hz.

    Mean-subtract, ideal FFT mask over the HR band, zero-pad to at least
    60*fs samples (<= 1 bpm resolution), return 60x the argmax frequency.
    Ties break to the lower frequency; an empty in-band spectrum returns
    the lower band edge with a low-SNR warning.
    """
    if fs <= 0:
        raise ShapeError(f"sampling rate must be positive, got {fs}")
    x = np.asarray(samples, dtype=np.float64)
    if x.size < 2 * fs:
        raise InsufficientDataError(
            f"need >= 2 s of samples ({2 * fs:.0f}), got {x.size}")
    detrended = x - x.mean()
    # a (near-)DC trace leaves only rounding residue after detrending
    scale = max(1.0, float(np.abs(x.mean())))
    flat = float(np.sqrt((detrended ** 2).mean())) <= 1e-12 * scale
    n = max(x.size, int(np.ceil(60.0 * fs)))
    spec = np.fft.rfft(detrended, n=n)
    freqs = np.fft.rfftfreq(n, d=1.0 / fs)
    band = (freqs >= HR_BAND_HZ[0]) & (freqs <= HR_BAND_HZ[1])
    power = np.abs(spec) ** 2
    power[~band] = 0.0
    total = power.sum()
    if flat or total <= 0.0 or not np.isfinite(total):
        warnings.warn("no spectral content in the HR band (low SNR)",
                      RuntimeWarning, stacklevel=2)
        return 60.0 * HR_BAND_HZ[0]
    peak = int(np.argmax(power))  # argmax picks the first (lowest) bin on ties
    return 60.0 * float(freqs[peak])


def compute_metrics(pred_hrs: Sequence[float], gt_hrs: Sequence[float]) -> MetricsReport:
    """MAE / RMSE / MAPE(%) / Pearson rho over paired HR lists."""
    pred = np.asarray(pred_hrs, dtype=np.float64)
    gt = np.asarray(gt_hrs, dtype=np.float64)
    if pred.size == 0 or pred.shape != gt.shape:
        raise ShapeError(f"metric lists must be equal and non-empty: "
                         f"{pred.shape} vs {gt.shape}")
    if np.any(gt <= 0.0):
        raise ShapeError("ground-truth HR must be positive for MAPE")
    err = pred - gt
    mae = float(np.abs(err).mean())
    rmse = float(np.sqrt((err * err).mean()))
    mape = float((np.abs(err) / gt).mean() * 100.0)
    if pred.size == 1:
        rho = 0.0
        warnings.warn("single pair: correlation undefined, returning 0",
                      RuntimeWarning, stacklevel=2)
    else:
        rho = pearson(pred, gt)
    return MetricsReport(mae, rmse, mape, rho)


def write_metrics_csv(path, clip_ids: Sequence[str], pred_hrs: Sequence[float],
                      gt_hrs: Sequence[float], report: MetricsReport) -> None:
    """Per-clip rows `clip_id,pred_bpm,gt_bpm` plus a summary row of ``report``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["clip_id", "pred_bpm", "gt_bpm"])
        for cid, p, g in zip(clip_ids, pred_hrs, gt_hrs):
            writer.writerow([cid, f"{p:.6f}", f"{g:.6f}"])
        writer.writerow([
            f"summary mae={report.mae_bpm:.6f} rmse={report.rmse_bpm:.6f} "
            f"mape={report.mape_percent:.6f} rho={report.pearson_rho:.6f}", "", ""])
