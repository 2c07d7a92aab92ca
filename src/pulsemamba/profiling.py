"""Parameter and multiply-accumulate accounting, read off a built network.

``profile_model`` builds the network for a configuration and takes every
count from its modules, so layer shapes have one owner: a row's
parameters are the tensors its modules hold, and its MACs are weight
sizes times the positions they apply to, with each conv's output extents
from its own stride and padding. No tensor op runs. Counting conventions
(fixed so numbers are reproducible): a MAC is one multiply inside a
conv/GEMM contraction; a temporal-difference conv counts as the one conv
it runs (its difference term is folded into the kernel); the scan counts
7 ops per (token, channel, state) element (delta*a, exp, growth division,
Bbar multiply, two recurrence multiplies, output multiply); gates count
their multiply; norms, pools, additions and plain activations count
zero. Parameter counts include affine norm parameters but not
running-statistic buffers.

Reference values for the full-scale published configuration: 0.56 M
parameters and 47.3 G MACs at 128x128x128 input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

from .blocks import POOL, ModelConfig, PulseMambaNet, TemporalDifferenceMambaBlock
from .ssm import MambaLayer
from .tensor import _conv_out_len

__all__ = ["ProfileReport", "profile_model", "REFERENCE_PARAMS",
           "REFERENCE_MACS"]

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


def _pooled(thw) -> Tuple[int, ...]:
    return tuple(map(_conv_out_len, thw, POOL, POOL, (0, 0, 0)))


def _mamba_macs(m: MambaLayer, seq_len: int) -> int:
    # per token: the shared in/out projections, then per direction the
    # depthwise conv, the gate multiply, the B, C and delta projections
    # and the 7-op discretize + recurrence
    per_token = m.w_in.size + m.w_out.size + 2 * m.conv_w.size + 2 * m.d_inner
    for p in (m.ssm_fwd, m.ssm_bwd):
        per_token += (p.w_b.size + p.w_c.size + p.w_dt_down.size
                      + p.w_dt_up.size + 7 * p.a_log.size)
    return seq_len * per_token


def _block_macs(block: TemporalDifferenceMambaBlock, thw) -> int:
    pos = math.prod(thw)
    ca = block.ca
    return (block.tdc.weight.size * pos + _mamba_macs(block.mamba, pos)
            + ca.w1.size + ca.w2.size + ca.w2.shape[0] * pos)  # + gate scale


def profile_model(config: ModelConfig, input_thw=(128, 128, 128)) -> ProfileReport:
    """(params, MACs) of ``PulseMambaNet(config)`` for one sample of shape
    (3, T, H, W)."""
    config.validate_input(*input_thw)
    net = PulseMambaNet(config)
    rows: List[Tuple[str, int, int]] = []

    def conv_row(name, conv, thw, *more):
        """Append a conv's row (its params plus ``more``'s); its output."""
        out = tuple(map(_conv_out_len, thw, conv.weight.shape[2:],
                        conv.stride, conv.padding))
        params = sum(m.num_parameters() for m in (conv, *more))
        rows.append((name, params, conv.weight.size * math.prod(out)))
        return out

    stem = net.stem
    thw = _pooled(conv_row("stem.conv1", stem.conv1, input_thw, stem.bn1))
    thw = conv_row("stem.conv2", stem.conv2, thw, stem.bn2)
    thw = _pooled(conv_row("stem.conv3", stem.conv3, thw, stem.bn3))
    slow = conv_row("down.slow", net.down_slow.conv, thw, net.down_slow.bn)
    fast = conv_row("down.fast", net.down_fast.conv, thw, net.down_fast.bn)
    for i, (bs, bf) in enumerate(zip(net.blocks_slow, net.blocks_fast)):
        rows.append((f"block{i}.slow", bs.num_parameters(), _block_macs(bs, slow)))
        rows.append((f"block{i}.fast", bf.num_parameters(), _block_macs(bf, fast)))
        if i < len(net.laterals):
            slow, fast = _pooled(slow), _pooled(fast)
            conv_row(f"lateral{i}", net.laterals[i].conv, fast)

    head = net.head
    rows.append(("head.upsample", head.up_w.size + head.up_b.size,
                 head.up_w.size * fast[0]))
    rows.append(("head.project", head.point_w.size + head.point_b.size,
                 head.point_w.size * input_thw[0]))

    params = sum(r[1] for r in rows)
    macs = sum(r[2] for r in rows)
    return ProfileReport(params, macs, rows)
