"""Dependency-free SVG line plots (textual output, inspectable in tests)."""

from __future__ import annotations

from pathlib import Path
from typing import Sequence, Tuple
from xml.sax.saxutils import escape

import numpy as np

__all__ = ["line_plot"]

_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")
_W, _H, _PAD = 860, 320, 45


def _scaled(vals: np.ndarray, lo: float, hi: float, out_lo: float,
            out_hi: float) -> np.ndarray:
    span = hi - lo if hi > lo else 1.0
    return out_lo + (vals - lo) / span * (out_hi - out_lo)


def line_plot(series: Sequence[Tuple[str, np.ndarray, np.ndarray]], path,
              title: str = "", x_label: str = "", y_label: str = "") -> Path:
    """Write an SVG overlay plot of (label, x, y) series; title, axis and
    series labels are XML-escaped."""
    path = Path(path)
    xs = np.concatenate([np.asarray(x, dtype=np.float64) for _, x, _ in series])
    ys = np.concatenate([np.asarray(y, dtype=np.float64) for _, _, y in series])
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<line x1="{_PAD}" y1="{_H - _PAD}" x2="{_W - 10}" y2="{_H - _PAD}" '
        'stroke="#444" stroke-width="1"/>',
        f'<line x1="{_PAD}" y1="15" x2="{_PAD}" y2="{_H - _PAD}" '
        'stroke="#444" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_W // 2}" y="14" text-anchor="middle" '
                     f'font-size="13" font-family="monospace">{escape(title)}</text>')
    if x_label:
        parts.append(f'<text x="{_W // 2}" y="{_H - 8}" text-anchor="middle" '
                     f'font-size="11" font-family="monospace">{escape(x_label)}</text>')
    if y_label:
        parts.append(f'<text x="12" y="{_H // 2}" text-anchor="middle" '
                     f'font-size="11" font-family="monospace" '
                     f'transform="rotate(-90 12 {_H // 2})">{escape(y_label)}</text>')
    parts.append(f'<text x="{_PAD}" y="{_H - _PAD + 14}" font-size="10" '
                 f'font-family="monospace">{x_lo:.4g}</text>')
    parts.append(f'<text x="{_W - 60}" y="{_H - _PAD + 14}" font-size="10" '
                 f'font-family="monospace">{x_hi:.4g}</text>')
    parts.append(f'<text x="4" y="{_H - _PAD}" font-size="10" '
                 f'font-family="monospace">{y_lo:.4g}</text>')
    parts.append(f'<text x="4" y="22" font-size="10" '
                 f'font-family="monospace">{y_hi:.4g}</text>')

    for idx, (label, x, y) in enumerate(series):
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        px = _scaled(x, x_lo, x_hi, _PAD, _W - 10)
        py = _scaled(y, y_lo, y_hi, _H - _PAD, 15)
        pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
        color = _COLORS[idx % len(_COLORS)]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     'stroke-width="1.2"/>')
        parts.append(f'<text x="{_W - 150}" y="{28 + 14 * idx}" font-size="11" '
                     f'font-family="monospace" fill="{color}">{escape(label)}</text>')

    parts.append("</svg>")
    path.write_text("\n".join(parts) + "\n")
    return path
