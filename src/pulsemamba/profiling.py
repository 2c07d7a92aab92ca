"""Analytic parameter and multiply-accumulate accounting.

Walks the model configuration and the documented shape algebra instead of
executing tensors. Counting conventions (fixed so numbers are
reproducible): a MAC is one multiply inside a conv/GEMM contraction; a
temporal-difference conv counts as the one 3x3x3 conv it runs (its
difference term is folded into the kernel); the scan counts 7 ops per
(token, channel, state) element (delta*a, exp, growth division, Bbar
multiply, two recurrence multiplies, output multiply); gates count their
multiply; norms, pools, additions and plain activations count zero.
Parameter counts include affine norm parameters but not running-statistic
buffers.

Reference values for the full-scale published configuration: 0.56 M
parameters and 47.3 G MACs at 128x128x128 input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .blocks import ModelConfig

__all__ = ["ProfileReport", "profile_model", "conv3d_params", "conv3d_macs",
           "REFERENCE_PARAMS", "REFERENCE_MACS"]

REFERENCE_PARAMS = 0.56e6
REFERENCE_MACS = 47.3e9


@dataclass
class ProfileReport:
    param_count: int
    mac_count: int
    rows: List[Tuple[str, int, int]]  # (layer, params, macs)

    def format_table(self) -> str:
        lines = [f"{'layer':<28}{'params':>12}{'MACs':>16}"]
        for name, p, m in self.rows:
            lines.append(f"{name:<28}{p:>12}{m:>16}")
        lines.append(f"{'total':<28}{self.param_count:>12}{self.mac_count:>16}")
        return "\n".join(lines)


def conv3d_params(cout: int, cin: int, kernel, bias: bool = False) -> int:
    kt, kh, kw = kernel
    return cout * cin * kt * kh * kw + (cout if bias else 0)


def conv3d_macs(cout: int, cin: int, kernel, out_positions: int) -> int:
    kt, kh, kw = kernel
    return cout * cin * kt * kh * kw * out_positions


def _bn_params(c: int) -> int:
    return 2 * c


def _mamba_params(c: int, state_dim: int, expand: int) -> int:
    d = expand * c
    r = max(1, math.ceil(c / 16))
    per_dir = d * state_dim          # a_log
    per_dir += 2 * state_dim * d     # B and C projections
    per_dir += r * d + d * r + d     # delta down/up + bias
    shared = 2 * c                   # pre-LN
    shared += 2 * d * c              # in projection (x and z)
    shared += d * 4 + d              # depthwise conv (kernel 4) + bias
    shared += c * d                  # out projection
    return shared + 2 * per_dir


def _mamba_macs(c: int, state_dim: int, expand: int, seq_len: int) -> int:
    d = expand * c
    r = max(1, math.ceil(c / 16))
    macs = seq_len * c * 2 * d                       # in projection
    macs += 2 * seq_len * d * 4                      # conv1d, both directions
    macs += 2 * 2 * seq_len * d * state_dim          # B and C projections
    macs += 2 * 2 * seq_len * d * r                  # delta projections
    macs += 2 * 7 * seq_len * d * state_dim          # discretize + recurrence
    macs += 2 * seq_len * d                          # gating multiplies
    macs += seq_len * d * c                          # out projection
    return macs


def _ca_params(c: int, ratio: int) -> int:
    hidden = c // ratio
    return hidden * c + hidden + c * hidden + c


def _ca_macs(c: int, ratio: int, positions: int) -> int:
    hidden = c // ratio
    return c * hidden * 2 + c * positions  # two affines + the gate scale


def _block_params(c: int, cfg: ModelConfig) -> int:
    p = conv3d_params(c, c, (3, 3, 3)) + _bn_params(c)       # TDC + BN
    p += _mamba_params(c, cfg.state_dim, cfg.expand)
    p += 2 * c                                               # post-LN
    p += _ca_params(c, min(cfg.ca_ratio, c))
    return p


def _block_macs(c: int, cfg: ModelConfig, t: int, h: int, w: int) -> int:
    pos = t * h * w
    m = conv3d_macs(c, c, (3, 3, 3), pos)                    # TDC, folded
    m += _mamba_macs(c, cfg.state_dim, cfg.expand, pos)
    m += _ca_macs(c, min(cfg.ca_ratio, c), pos)
    return m


def profile_model(config: ModelConfig, input_thw=(128, 128, 128)) -> ProfileReport:
    """Analytic (params, MACs) for one sample of shape (3, T, H, W)."""
    t, h, w = input_thw
    config.validate_input(t, h, w)
    c = config.channels
    cf = config.fast_channels
    s1, s2, s3 = config.stem_channels
    rows: List[Tuple[str, int, int]] = []

    # stem: conv1 at full res, pool, conv2/conv3 at half res, pool
    rows.append(("stem.conv1",
                 conv3d_params(s1, 3, (1, 5, 5)) + _bn_params(s1),
                 conv3d_macs(s1, 3, (1, 5, 5), t * h * w)))
    h2, w2 = h // 2, w // 2
    rows.append(("stem.conv2",
                 conv3d_params(s2, s1, (3, 3, 3)) + _bn_params(s2),
                 conv3d_macs(s2, s1, (3, 3, 3), t * h2 * w2)))
    rows.append(("stem.conv3",
                 conv3d_params(s3, s2, (3, 3, 3)) + _bn_params(s3),
                 conv3d_macs(s3, s2, (3, 3, 3), t * h2 * w2)))
    hs, ws = h // 4, w // 4

    t_slow, t_fast = t // 4, t // 2
    rows.append(("down.slow",
                 conv3d_params(c, c, (3, 1, 1)) + _bn_params(c),
                 conv3d_macs(c, c, (3, 1, 1), t_slow * hs * ws)))
    rows.append(("down.fast",
                 conv3d_params(cf, c, (3, 1, 1)) + _bn_params(cf),
                 conv3d_macs(cf, c, (3, 1, 1), t_fast * hs * ws)))

    hb, wb = hs, ws
    last = config.blocks_per_stream - 1
    for i in range(config.blocks_per_stream):
        rows.append((f"block{i}.slow", _block_params(c, config),
                     _block_macs(c, config, t_slow, hb, wb)))
        rows.append((f"block{i}.fast", _block_params(cf, config),
                     _block_macs(cf, config, t_fast, hb, wb)))
        if i < last:
            hb, wb = hb // 2, wb // 2
            rows.append((f"lateral{i}",
                         conv3d_params(c, cf, (3, 1, 1)),
                         conv3d_macs(c, cf, (3, 1, 1), t_slow * hb * wb)))

    head = config.head_channels
    cin = c + cf
    rows.append(("head.upsample",
                 cin * head * 4 + head,
                 cin * head * 4 * t_fast))
    rows.append(("head.project", head + 1, head * t))

    params = sum(r[1] for r in rows)
    macs = sum(r[2] for r in rows)
    return ProfileReport(params, macs, rows)
