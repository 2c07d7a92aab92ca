"""Network assembly: temporal-difference convolution, channel attention,
the temporal-difference Mamba block, stem, slow/fast streams with lateral
fusion, and the pulse predictor head.

Layout convention is (B, C, T, H, W) for video features; Mamba blocks
flatten to (B, L, C) with L = T*H*W in row-major (t, h, w) token order, so
a temporal flip of the flattened sequence reverses the whole token axis.

Every batch norm of the network (the stem's three, both temporal
downsamples' and each block's) feeds a ReLU, so ``BatchNorm3d`` is the
two as one op, and a conv-BN-ReLU stage is two calls.

``ModelConfig`` owns every layer setting's default and range: the layers
take each setting and their weights' rng as required arguments.

Concurrency: between lateral fusions the slow and fast streams share no
state, and nearly all of their work is NumPy kernels that release the
interpreter lock. A forward that records nothing (``not
T.is_grad_enabled()``) therefore runs each slow stage on one module-level
worker thread while the calling thread runs the matching fast stage, once
the stage input holds at least ``_CONCURRENT_MIN_ELEMS`` elements. A
recording forward, or a smaller one, runs them in sequence, slow first,
so the graph's node order never depends on thread scheduling.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from . import tensor as T
from .errors import CapacityError, ConfigError, ShapeError, check_ranges
from .module import Module
from .ssm import MambaLayer
from .tensor import Tensor

__all__ = [
    "ModelConfig", "Conv3d", "BatchNorm3d", "LayerNorm",
    "TemporalDifferenceConv3d", "ChannelAttention",
    "TemporalDifferenceMambaBlock", "Stem", "TemporalDownsample",
    "LateralConnection", "PredictorHead", "PulseMambaNet",
]

# runs the slow stream's stages; its thread starts on the first submit
_SLOW_STREAM = ThreadPoolExecutor(max_workers=1,
                                  thread_name_prefix="pulsemamba-slow")
# Below this stage input size the NumPy calls are short and the two
# threads mostly wait on each other's interpreter lock. Measured on 2
# cores: stages of 2e3-3e4 elements ran from 2 % faster to 12 % slower on
# two threads; block stages of 1.3e5 elements and up gained 7-28 %.
_CONCURRENT_MIN_ELEMS = 1 << 17
# spatial halving after the stem's first and last convs and each block but
# the last
POOL = (1, 2, 2)
SEQ_BUDGET = 1 << 24  # cap on block 0's flattened sequence, L*C per sample


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


@dataclass
class ModelConfig:
    """Hyperparameters of the full network.

    ``channels`` is the slow-stream width C; the fast stream runs at C/2.
    Stem intermediate widths and head width are fractions of C so toy
    configurations scale down consistently. ``RANGES`` gives each field's
    range, as ``errors.check_ranges`` reads it.
    """

    channels: int = 64
    blocks_per_stream: int = 3
    state_dim: int = 16
    expand: int = 2
    theta: float = 0.5
    ca_ratio: int = 8
    RANGES = {"channels": (2, math.inf), "blocks_per_stream": (1, math.inf),
              "state_dim": (1, math.inf), "expand": (1, math.inf),
              "theta": (0.0, 1.0), "ca_ratio": (1, math.inf)}

    def __post_init__(self):
        check_ranges(vars(self), self.RANGES)
        if self.channels % 2 != 0:
            raise ConfigError("channels must be even (fast stream runs at C/2)")
        if self.channels % self.ca_ratio != 0:
            raise ConfigError("channels must be divisible by ca_ratio")
        if (self.channels // 2) % min(self.ca_ratio, self.channels // 2) != 0:
            raise ConfigError("fast channels incompatible with ca_ratio")

    @property
    def stem_channels(self) -> Tuple[int, int, int]:
        c = self.channels
        return (max(c // 4, 4), max(3 * c // 8, 6), c)

    @property
    def head_channels(self) -> int:
        return max(3 * self.channels // 4, 4)

    @property
    def fast_channels(self) -> int:
        return self.channels // 2

    def validate_input(self, t: int, h: int, w: int) -> None:
        """ConfigError unless the network takes a (3, t, h, w) sample; a
        CapacityError if block 0's flattened sequence, the largest, exceeds
        ``SEQ_BUDGET``: (t/4)(h/4)(w/4) tokens of ``channels`` per stream."""
        if min(t, h, w) < 1:
            raise ConfigError(f"input extents must be positive, got {t}x{h}x{w}")
        if t % 4 != 0:
            raise ConfigError(f"T={t} must be divisible by 4")
        # two stem halvings plus one per block except the last
        div = 4 * (1 << (self.blocks_per_stream - 1))
        if h % div != 0 or w % div != 0:
            raise ConfigError(f"H={h}, W={w} must be divisible by {div}")
        seq_len = (t // 4) * (h // 4) * (w // 4)
        if seq_len * self.channels > SEQ_BUDGET:
            raise CapacityError(f"flattened sequence {seq_len}x{self.channels} "
                                f"exceeds budget {SEQ_BUDGET}")


class Conv3d(Module):
    """3D conv without bias, as every conv of the network is. A ``pool``
    window is passed on to ``T.conv3d``, which then max-pools each output
    frame as it makes it (unrecorded calls only)."""

    def __init__(self, cin: int, cout: int, kernel, stride=(1, 1, 1),
                 padding=(0, 0, 0), *, rng: np.random.Generator):
        super().__init__()
        kt, kh, kw = kernel
        fan_in = cin * kt * kh * kw
        self.weight = Tensor(rng.normal(0.0, math.sqrt(2.0 / fan_in),
                                        (cout, cin, kt, kh, kw)), requires_grad=True)
        self.stride = tuple(stride)
        self.padding = tuple(padding)

    def __call__(self, x: Tensor, pool=None) -> Tensor:
        return T.conv3d(x, self.weight, self.stride, self.padding, pool)


class BatchNorm3d(Module):
    """Channel batch norm with running statistics, then ReLU, as one op
    (``T.batch_norm`` with ``relu``): every batch norm of the network
    feeds a ReLU, and the op keeps no ReLU mask."""

    def __init__(self, c: int):
        super().__init__()
        self.gamma = Tensor(np.ones(c), requires_grad=True)
        self.beta = Tensor(np.zeros(c), requires_grad=True)
        self.running_mean = np.zeros(c)
        self.running_var = np.ones(c)

    def __call__(self, x: Tensor) -> Tensor:
        return T.batch_norm(x, self.gamma, self.beta, self.running_mean,
                            self.running_var, self.training, relu=True)


class LayerNorm(Module):
    def __init__(self, d: int):
        super().__init__()
        self.gamma = Tensor(np.ones(d), requires_grad=True)
        self.beta = Tensor(np.zeros(d), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        return T.layer_norm(x, self.gamma, self.beta)


class TemporalDifferenceConv3d(Conv3d):
    """3x3x3 conv minus theta times a centre-tap temporal-difference term.

    output = conv3d(x, W) - theta * x(p0) * S, with S[o, c] the sum of W
    over the two adjacent-time planes. The term is linear in W, so it is
    folded into the kernel (theta * S off the centre tap, by one constant
    (27, 27) map on the flattened kernel) and one conv runs; theta = 0
    is the vanilla conv bit for bit. Stride 1 and padding 1 keep extents
    unchanged. theta's range is ``ModelConfig``'s.
    """

    def __init__(self, cin: int, cout: int, theta: float,
                 rng: np.random.Generator):
        super().__init__(cin, cout, (3, 3, 3), padding=(1, 1, 1), rng=rng)
        self.theta = theta

    def __call__(self, x: Tensor) -> Tensor:
        cout, cin, kt, kh, kw = self.weight.shape
        plane = kh * kw
        fold = np.eye(kt * plane)
        centre = fold[plane + plane // 2]
        centre[:plane] = -self.theta
        centre[2 * plane:] = -self.theta
        w = T.linear(T.reshape(self.weight, (cout * cin, kt * plane)), Tensor(fold))
        return T.conv3d(x, T.reshape(w, self.weight.shape), self.stride,
                        self.padding)


class ChannelAttention(Module):
    """Squeeze-excitation gate: global pool, C -> C/r -> C, sigmoid scale
    of x by the gate as a broadcast (B, C, 1, 1, 1) operand."""

    def __init__(self, c: int, ratio: int, rng: np.random.Generator):
        super().__init__()
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
        return T.mul(x, T.reshape(gate, gate.shape + (1, 1, 1)))


class TemporalDifferenceMambaBlock(Module):
    """TDC -> BN-ReLU (one op) -> flatten -> (Bi-Mamba + residual) -> LN
    -> CA; input and output are both (B, C, T, H, W)."""

    def __init__(self, c: int, state_dim: int, expand: int, theta: float,
                 ca_ratio: int, rng: np.random.Generator):
        super().__init__()
        self.tdc = TemporalDifferenceConv3d(c, c, theta=theta, rng=rng)
        self.bn = BatchNorm3d(c)
        self.mamba = MambaLayer(c, state_dim, expand, rng=rng)
        self.post_ln = LayerNorm(c)
        self.ca = ChannelAttention(c, min(ca_ratio, c), rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        b, c, t, h, w = x.shape
        seq_len = t * h * w
        # the conv features die here; h_k views their token-major copy
        f = T.transpose(self.bn(self.tdc(x)), (0, 2, 3, 4, 1))
        h_k = T.reshape(f, (b, seq_len, c))
        h_next = T.add(self.mamba(h_k), h_k)
        g = T.transpose(T.reshape(self.post_ln(h_next), (b, t, h, w, c)),
                        (0, 4, 1, 2, 3))
        return self.ca(g)


class Stem(Module):
    """Three conv then BN-ReLU stages (``BatchNorm3d`` is one op), spatial
    halving after the first and last.

    With grads off, an eval-mode BN and no gamma < 0, a halving stage
    max-pools its conv output before BN-ReLU, on a 4x smaller array.
    Eval BN, ((x - mean) * inv) * gamma + beta with inv > 0 and
    gamma >= 0, is non-decreasing per channel in each rounding step, and
    so is the ReLU, so for finite conv outputs the result is bit for bit
    that of pooling last, and a NaN still propagates. That pool runs inside the conv
    (``Conv3d``'s ``pool``), one output frame at a time, so such a stage
    never holds its full-resolution conv output. Every other forward
    keeps the op order, so the recorded graph and the batch statistics
    are unchanged. Each op's output replaces the only reference to its
    input, so a stage's input dies once its conv returns (a recorded
    forward keeps what the backward rules read).
    """

    def __init__(self, widths: Tuple[int, int, int], rng: np.random.Generator):
        super().__init__()
        s1, s2, s3 = widths
        self.conv1 = Conv3d(3, s1, (1, 5, 5), padding=(0, 2, 2), rng=rng)
        self.bn1 = BatchNorm3d(s1)
        self.conv2 = Conv3d(s1, s2, (3, 3, 3), padding=(1, 1, 1), rng=rng)
        self.bn2 = BatchNorm3d(s2)
        self.conv3 = Conv3d(s2, s3, (3, 3, 3), padding=(1, 1, 1), rng=rng)
        self.bn3 = BatchNorm3d(s3)

    def __call__(self, x: Tensor) -> Tensor:
        for conv, bn, halve in ((self.conv1, self.bn1, True),
                                (self.conv2, self.bn2, False),
                                (self.conv3, self.bn3, True)):
            pool_first = halve and not (T.is_grad_enabled() or bn.training
                                        or (bn.gamma.data < 0).any())
            x = conv(x, POOL) if pool_first else conv(x)
            x = bn(x)
            if halve and not pool_first:
                x = T.maxpool3d(x, POOL)
        return x


class TemporalDownsample(Module):
    """Strided temporal conv (3x1x1) then BN-ReLU, producing one stream."""

    def __init__(self, cin: int, cout: int, stride_t: int,
                 rng: np.random.Generator):
        super().__init__()
        self.conv = Conv3d(cin, cout, (3, 1, 1), stride=(stride_t, 1, 1),
                           padding=(1, 0, 0), rng=rng)
        self.bn = BatchNorm3d(cout)

    def __call__(self, x: Tensor) -> Tensor:
        return self.bn(self.conv(x))


class LateralConnection(Module):
    """Fast-to-slow fusion conv: kernel 3x1x1, stride 2x1x1, padding 1x0x0.

    Halves the temporal extent, doubles the channels; the caller adds the
    result into the slow stream.
    """

    def __init__(self, c_fast: int, rng: np.random.Generator):
        super().__init__()
        self.conv = Conv3d(c_fast, 2 * c_fast, (3, 1, 1), stride=(2, 1, 1),
                           padding=(1, 0, 0), rng=rng)

    def __call__(self, fast: Tensor) -> Tensor:
        return self.conv(fast)


class PredictorHead(Module):
    """Slow up x2, channel concat, spatial mean, transposed temporal conv
    x2 (kernel 4, stride 2, padding 1), pointwise projection to one signal."""

    def __init__(self, c_slow: int, c_fast: int, head_channels: int,
                 rng: np.random.Generator):
        super().__init__()
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
    the forward records a graph); see the module docstring.
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
                          theta=config.theta, ca_ratio=config.ca_ratio)
        nb = config.blocks_per_stream
        self.blocks_slow = [TemporalDifferenceMambaBlock(c, rng=rng, **block_args)
                            for _ in range(nb)]
        self.blocks_fast = [TemporalDifferenceMambaBlock(cf, rng=rng, **block_args)
                            for _ in range(nb)]
        self.laterals = [LateralConnection(cf, rng=rng) for _ in range(nb - 1)]
        self.head = PredictorHead(c, cf, config.head_channels, rng=rng)

    def __call__(self, x: Tensor) -> Tensor:
        if x.ndim != 5 or x.shape[1] != 3:
            raise ShapeError(f"expected (B, 3, T, H, W), got {x.shape}")
        _, _, t, h, w = x.shape
        self.config.validate_input(t, h, w)
        # no name keeps the stem output once the downsamples have read it
        slow = fast = self.stem(x)
        slow, fast = _both_streams(self.down_slow, slow, self.down_fast, fast)
        last = self.config.blocks_per_stream - 1
        for i, (bs, bf) in enumerate(zip(self.blocks_slow, self.blocks_fast)):
            slow, fast = _both_streams(bs, slow, bf, fast)
            if i < last:
                slow = T.maxpool3d(slow, POOL)
                fast = T.maxpool3d(fast, POOL)
                slow = T.add(slow, self.laterals[i](fast))
        return self.head(slow, fast)
