"""Network assembly: temporal-difference convolution, channel attention,
the temporal-difference Mamba block, stem, slow/fast streams with lateral
fusion, and the pulse predictor head.

Layout convention is (B, C, T, H, W) for video features; Mamba blocks
flatten to (B, L, C) with L = T*H*W in row-major (t, h, w) token order, so
a temporal flip of the flattened sequence reverses the whole token axis.

Concurrency: between lateral fusions the slow and fast streams share no
state, and nearly all of their work is NumPy kernels that release the
interpreter lock. A forward that records nothing (``not
T.is_grad_enabled()``) therefore runs each slow stage on one module-level
worker thread while the calling thread runs the matching fast stage, once
the stage input holds at least ``_CONCURRENT_MIN_ELEMS`` elements. A
recording forward, or a smaller one, runs them in sequence, slow first,
so the tape order never depends on thread scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from . import tensor as T
from .errors import CapacityError, ConfigError, ShapeError
from .module import Module
from .ssm import MambaLayer
from .tensor import Tensor

__all__ = [
    "ModelConfig", "Conv3d", "BatchNorm3d", "LayerNorm",
    "TemporalDifferenceConv3d", "ChannelAttention",
    "TemporalDifferenceMambaBlock", "Stem", "TemporalDownsample",
    "LateralConnection", "PredictorHead", "PulseMambaNet",
]

DEFAULT_SEQ_BUDGET = 1 << 24  # flattened L*C elements per sample

# runs the slow stream's stages; its thread starts on the first submit
_SLOW_STREAM = ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="pulsemamba-slow")
# Below this stage input size the NumPy calls are short and the two
# threads mostly wait on each other's interpreter lock. Measured on 2
# cores: stages of 2e3-3e4 elements ran from 2 % faster to 12 % slower on
# two threads; block stages of 1.3e5 elements and up gained 7-28 %.
_CONCURRENT_MIN_ELEMS = 1 << 17


def _both_streams(slow_stage, slow: Tensor, fast_stage, fast: Tensor):
    """Return ``(slow_stage(slow), fast_stage(fast))``.

    With grads off and a fast input of at least ``_CONCURRENT_MIN_ELEMS``
    elements, the slow stage runs on the worker thread while this thread
    runs the fast one; the worker is joined before this returns or
    raises, and an error from either stage reaches the caller unchanged.
    Otherwise the two run here in sequence, slow first.
    """
    if T.is_grad_enabled() or fast.size < _CONCURRENT_MIN_ELEMS:
        return slow_stage(slow), fast_stage(fast)
    pending = _SLOW_STREAM.submit(slow_stage, slow)
    try:
        fast_out = fast_stage(fast)
    finally:
        slow_out = pending.result()
    return slow_out, fast_out


def _default_stem(channels: int) -> Tuple[int, int, int]:
    return (max(channels // 4, 4), max(3 * channels // 8, 6), channels)


@dataclass
class ModelConfig:
    """Hyperparameters of the full network.

    ``channels`` is the slow-stream width C; the fast stream runs at C/2.
    Stem intermediate widths and head width default to fractions of C so
    toy configurations scale down consistently.
    """

    channels: int = 64
    blocks_per_stream: int = 3
    state_dim: int = 16
    expand: int = 2
    theta: float = 0.5
    ca_ratio: int = 8
    conv_kernel: int = 4
    stem_channels: Optional[Tuple[int, int, int]] = None
    head_channels: Optional[int] = None
    seq_budget: int = DEFAULT_SEQ_BUDGET

    def __post_init__(self):
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {self.theta}")
        if self.channels % 2 != 0:
            raise ConfigError("channels must be even (fast stream runs at C/2)")
        if self.channels % self.ca_ratio != 0:
            raise ConfigError("channels must be divisible by ca_ratio")
        if (self.channels // 2) % min(self.ca_ratio, self.channels // 2) != 0:
            raise ConfigError("fast channels incompatible with ca_ratio")
        if self.blocks_per_stream < 1:
            raise ConfigError("need at least one block per stream")
        if self.stem_channels is None:
            self.stem_channels = _default_stem(self.channels)
        self.stem_channels = tuple(self.stem_channels)
        if len(self.stem_channels) != 3 or self.stem_channels[-1] != self.channels:
            raise ConfigError("stem_channels must be 3 widths ending at `channels`")
        if self.head_channels is None:
            self.head_channels = max(3 * self.channels // 4, 4)

    @property
    def fast_channels(self) -> int:
        return self.channels // 2

    def spatial_divisor(self) -> int:
        # two stem halvings plus one per block except the last
        return 4 * (1 << (self.blocks_per_stream - 1))

    def validate_input(self, t: int, h: int, w: int) -> None:
        if t % 4 != 0:
            raise ConfigError(f"T={t} must be divisible by 4")
        div = self.spatial_divisor()
        if h % div != 0 or w % div != 0:
            raise ConfigError(f"H={h}, W={w} must be divisible by {div}")


class Conv3d(Module):
    def __init__(self, cin: int, cout: int, kernel, stride=(1, 1, 1),
                 padding=(0, 0, 0), bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        kt, kh, kw = kernel
        fan_in = cin * kt * kh * kw
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                        (cout, cin, kt, kh, kw)), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True) if bias else None
        self.stride = tuple(stride)
        self.padding = tuple(padding)

    def __call__(self, x: Tensor) -> Tensor:
        return T.conv3d(x, self.weight, self.bias, self.stride, self.padding)


class BatchNorm3d(Module):
    """Channel batch norm with running statistics (momentum 0.1, eps 1e-5)."""

    def __init__(self, c: int, momentum: float = 0.1, eps: float = 1e-5):
        super().__init__()
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, self.training, self.momentum,
                            self.eps)


class LayerNorm(Module):
    def __init__(self, d: int, eps: float = 1e-5):
        super().__init__()
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)
        self.eps = eps

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta, self.eps)


class TemporalDifferenceConv3d(Module):
    """3D conv plus a temporal-difference term.

    output = conv3d(x, w) - theta * pointwise(x, S) where S[o, c] sums the
    kernel weights over the two adjacent-time planes (all spatial taps).
    theta = 0 reduces exactly to the vanilla convolution. Kernel time
    extent must be 3 so the adjacent planes exist; stride is 1 and padding
    keeps extents unchanged.
    """

    def __init__(self, cin: int, cout: int, kernel=(3, 3, 3), theta: float = 0.5,
                 bias: bool = False, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= theta <= 1.0:
            raise ConfigError(f"theta must be in [0, 1], got {theta}")
        kt, kh, kw = kernel
        if kt != 3:
            raise ConfigError("temporal-difference kernel needs time extent 3")
        rng = rng if rng is not None else np.random.default_rng(0)
        fan_in = cin * kt * kh * kw
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                        (cout, cin, kt, kh, kw)), requires_grad=True)
        self.bias = Tensor(np.zeros(cout), requires_grad=True) if bias else None
        self.theta = theta
        self.padding = (1, kh // 2, kw // 2)

    def __call__(self, x: Tensor) -> Tensor:
        vanilla = T.conv3d(x, self.weight, self.bias, (1, 1, 1), self.padding)
        if self.theta == 0.0:
            return vanilla
        adj = T.add(T.narrow(self.weight, 2, 0, 1), T.narrow(self.weight, 2, 2, 1))
        s = T.reduce_sum(adj, axes=(2, 3, 4))
        s_kernel = T.reshape(s, s.shape + (1, 1, 1))
        diff = T.conv3d(x, s_kernel)
        return T.sub(vanilla, T.scale(diff, self.theta))


class ChannelAttention(Module):
    """Squeeze-excitation gate: global pool, C -> C/r -> C, sigmoid scale."""

    def __init__(self, c: int, ratio: int = 8,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if c % ratio != 0:
            raise ConfigError(f"channels {c} not divisible by ratio {ratio}")
        rng = rng if rng is not None else np.random.default_rng(0)
        hidden = c // ratio
        self.w1 = Tensor(rng.normal(0.0, math.sqrt(1.0 / c), (hidden, c)),
                         requires_grad=True)
        self.b1 = Tensor(np.zeros(hidden), requires_grad=True)
        self.w2 = Tensor(rng.normal(0.0, math.sqrt(1.0 / hidden), (c, hidden)),
                         requires_grad=True)
        self.b2 = Tensor(np.zeros(c), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        squeezed = T.reduce_mean(x, axes=(2, 3, 4))
        gate = T.sigmoid(T.linear(T.relu(T.linear(squeezed, self.w1, self.b1)),
                                  self.w2, self.b2))
        return T.channel_scale(x, gate)


class TemporalDifferenceMambaBlock(Module):
    """TDC -> BN -> ReLU -> flatten -> (Bi-Mamba + residual) -> LN -> CA.

    Input and output are both (B, C, T, H, W). The flattened sequence
    length L*C is capped by ``seq_budget`` per sample.
    """

    def __init__(self, c: int, state_dim: int = 16, expand: int = 2,
                 theta: float = 0.5, ca_ratio: int = 8, conv_kernel: int = 4,
                 seq_budget: int = DEFAULT_SEQ_BUDGET,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.tdc = TemporalDifferenceConv3d(c, c, theta=theta, rng=rng)
        self.bn = BatchNorm3d(c)
        self.mamba = MambaLayer(c, state_dim, expand, conv_kernel, rng=rng)
        self.post_ln = LayerNorm(c)
        self.ca = ChannelAttention(c, min(ca_ratio, c), rng=rng)
        self.seq_budget = seq_budget

    def __call__(self, x: Tensor) -> Tensor:
        b, c, t, h, w = x.shape
        seq_len = t * h * w
        if seq_len * c > self.seq_budget:
            raise CapacityError(
                f"flattened sequence {seq_len}x{c} exceeds budget {self.seq_budget}")
        f = T.relu(self.bn(self.tdc(x)))
        h_k = T.reshape(T.transpose(f, (0, 2, 3, 4, 1)), (b, seq_len, c))
        h_next = T.add(self.mamba(h_k), h_k)
        g = T.transpose(T.reshape(self.post_ln(h_next), (b, t, h, w, c)),
                        (0, 4, 1, 2, 3))
        return self.ca(g)


class Stem(Module):
    """Three conv-BN-ReLU blocks, spatial halving after the first and last.

    With grads off, an eval-mode BN and no gamma < 0, a halving stage
    max-pools its conv output before BN and ReLU, on a 4x smaller array.
    Eval BN, ((x - mean) * inv) * gamma + beta with inv > 0 and
    gamma >= 0, is non-decreasing per channel in each rounding step, so
    for finite conv outputs the result is bit for bit that of pooling
    last, and a NaN still propagates. Every other forward keeps the op
    order, so the tape and the batch statistics are unchanged.
    """

    def __init__(self, widths: Tuple[int, int, int],
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        s1, s2, s3 = widths
        self.conv1 = Conv3d(3, s1, (1, 5, 5), padding=(0, 2, 2), bias=False, rng=rng)
        self.bn1 = BatchNorm3d(s1)
        self.conv2 = Conv3d(s1, s2, (3, 3, 3), padding=(1, 1, 1), bias=False, rng=rng)
        self.bn2 = BatchNorm3d(s2)
        self.conv3 = Conv3d(s2, s3, (3, 3, 3), padding=(1, 1, 1), bias=False, rng=rng)
        self.bn3 = BatchNorm3d(s3)

    def _halving_stage(self, conv: Conv3d, bn: BatchNorm3d, x: Tensor) -> Tensor:
        x = conv(x)
        if T.is_grad_enabled() or bn.training or (bn.gamma.data < 0).any():
            return T.maxpool3d(T.relu(bn(x)), (1, 2, 2))
        return T.relu(bn(T.maxpool3d(x, (1, 2, 2))))

    def __call__(self, x: Tensor) -> Tensor:
        x = self._halving_stage(self.conv1, self.bn1, x)
        x = T.relu(self.bn2(self.conv2(x)))
        return self._halving_stage(self.conv3, self.bn3, x)


class TemporalDownsample(Module):
    """Strided temporal conv block (3x1x1) producing one stream."""

    def __init__(self, cin: int, cout: int, stride_t: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv = Conv3d(cin, cout, (3, 1, 1), stride=(stride_t, 1, 1),
                           padding=(1, 0, 0), bias=False, rng=rng)
        self.bn = BatchNorm3d(cout)

    def __call__(self, x: Tensor) -> Tensor:
        return T.relu(self.bn(self.conv(x)))


class LateralConnection(Module):
    """Fast-to-slow fusion conv: kernel 3x1x1, stride 2x1x1, padding 1x0x0.

    Halves the temporal extent, doubles the channels; the caller adds the
    result into the slow stream.
    """

    def __init__(self, c_fast: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.conv = Conv3d(c_fast, 2 * c_fast, (3, 1, 1), stride=(2, 1, 1),
                           padding=(1, 0, 0), bias=False, rng=rng)

    def __call__(self, fast: Tensor) -> Tensor:
        return self.conv(fast)


class PredictorHead(Module):
    """Slow up x2, channel concat, spatial mean, transposed temporal conv
    x2 (kernel 4, stride 2, padding 1), pointwise projection to one signal."""

    def __init__(self, c_slow: int, c_fast: int, head_channels: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        cin = c_slow + c_fast
        self.up_w = Tensor(rng.normal(0.0, math.sqrt(1.0 / (cin * 4)),
                                      (cin, head_channels, 4)), requires_grad=True)
        self.up_b = Tensor(np.zeros(head_channels), requires_grad=True)
        self.point_w = Tensor(rng.normal(0.0, math.sqrt(1.0 / head_channels),
                                         (1, head_channels)), requires_grad=True)
        self.point_b = Tensor(np.zeros(1), requires_grad=True)

    def __call__(self, slow: Tensor, fast: Tensor) -> Tensor:
        up = T.upsample_nearest_time(slow, 2)
        if up.shape[2] != fast.shape[2]:
            raise ShapeError(f"head concat: slow T {up.shape[2]} vs fast T {fast.shape[2]}")
        merged = T.concat([up, fast], axis=1)
        pooled = T.reduce_mean(merged, axes=(3, 4))
        signal = T.conv_transpose1d(pooled, self.up_w, self.up_b, stride=2, padding=1)
        flat = T.linear(T.transpose(signal, (0, 2, 1)), self.point_w, self.point_b)
        return T.reshape(flat, flat.shape[:2])


class PulseMambaNet(Module):
    """Two-stream temporal-difference Mamba network for pulse extraction.

    Input (B, 3, T, H, W) of diff-normalized frames, output (B, T). After
    every block except the last, both streams max-pool (1, 2, 2) and the
    fast stream fuses into the slow one through a lateral connection.

    The stream stages between fusions (the temporal downsamples, then each
    slow/fast block pair) run concurrently when grads are off and the
    stage is large, and in sequence, slow first, otherwise (always when
    the tape records); see the module docstring.
    Stem, pools, laterals and head always run on the calling thread.
    """

    def __init__(self, config: ModelConfig, seed: int = 0):
        super().__init__()
        rng = np.random.default_rng(seed)
        c = config.channels
        cf = config.fast_channels
        self.config = config
        self.stem = Stem(config.stem_channels, rng=rng)
        self.down_slow = TemporalDownsample(c, c, 4, rng=rng)
        self.down_fast = TemporalDownsample(c, cf, 2, rng=rng)
        block_args = dict(state_dim=config.state_dim, expand=config.expand,
                          theta=config.theta, ca_ratio=config.ca_ratio,
                          conv_kernel=config.conv_kernel,
                          seq_budget=config.seq_budget)
        nb = config.blocks_per_stream
        self.blocks_slow = [TemporalDifferenceMambaBlock(c, rng=rng, **block_args)
                            for _ in range(nb)]
        self.blocks_fast = [TemporalDifferenceMambaBlock(cf, rng=rng, **block_args)
                            for _ in range(nb)]
        self.laterals = [LateralConnection(cf, rng=rng) for _ in range(nb - 1)]
        self.head = PredictorHead(c, cf, config.head_channels, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        if x.ndim != 5 or x.shape[1] != 3:
            raise ShapeError(f"expected (B, 3, T, H, W), got {x.shape}")
        _, _, t, h, w = x.shape
        self.config.validate_input(t, h, w)
        feats = self.stem(x)
        slow, fast = _both_streams(self.down_slow, feats, self.down_fast, feats)
        last = self.config.blocks_per_stream - 1
        for i, (bs, bf) in enumerate(zip(self.blocks_slow, self.blocks_fast)):
            slow, fast = _both_streams(bs, slow, bf, fast)
            if i < last:
                slow = T.maxpool3d(slow, (1, 2, 2))
                fast = T.maxpool3d(fast, (1, 2, 2))
                slow = T.add(slow, self.laterals[i](fast))
        return self.head(slow, fast)

    def __call__(self, x: Tensor) -> Tensor:
        return self.forward(x)
