"""Dense float64 tensors with define-by-run reverse-mode autodiff.

The operation set is exactly what the network, its loss and its checks
use: 3D/1D convolutions (one kernel: a ring of kt input planes, each
gathered once straight from the unpadded input, and kt GEMMs per output
slice; an input gradient is a transposed conv, itself a stride-1 conv
with the flipped kernel that skips the stride's zero planes, or, for the
depthwise causal conv, its own kernel run backwards in time; an
unrecorded 3D conv can max-pool each output frame as it makes it), pooling,
affine maps, norms (batch and layer norm are front ends of one kernel),
sum/mean, the pointwise ops they apply (the sigmoid-based ones in
cache-sized blocks) and a handful of shape movers. Computation is
float64 throughout; float32 appears only at checkpoint/dataset boundaries.

Every recorded op hangs a node, numbered in execution order, off its
output; nothing else holds it. A node links to its parents' nodes (or to
a leaf that needs a gradient), never to their tensors, and its backward
rule captures only the arrays and shapes it reads: ``relu`` keeps a bool
mask, ``maxpool3d`` a small-int index of each window's max, and a pooled
``conv3d`` keeps nothing, as it is never recorded. So an activation no
rule reads dies as soon as the forward drops it.
``backward`` runs the nodes a gradient reaches from the loss in
decreasing number, which is reverse execution order; running a node twice
without a fresh forward is a ``GraphError``. Nodes do not refer to their
outputs, so a graph holds no reference cycle and dies with its last tensor
by reference counting alone, and each node drops its links and backward
rule once ``backward`` has run it, so what a rule read dies while the
backward runs, not after it. A node whose output has one consumer gets the array
that consumer's rule returned, as is, with no copy; several contributions
are summed into a fresh array, and no rule writes into its ``g``. Binary
elementwise ops broadcast as NumPy does (a channel gate is a ``mul`` by a
(B, C, 1, 1, 1) tensor), and each operand's gradient is summed back over
the axes it was broadcast along.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor", "tensor", "no_grad", "is_grad_enabled",
    "tape_size", "backward",
    "add", "sub", "mul", "div",
    "sqrt", "relu", "silu", "sigmoid", "softplus", "flip",
    "linear", "conv3d", "conv1d_depthwise_causal",
    "conv_transpose1d", "maxpool3d", "batch_norm", "layer_norm",
    "reduce_sum", "reduce_mean",
    "reshape", "transpose", "concat", "upsample_nearest_time",
    "narrow",
]

_grad_enabled = True
_SEQ = itertools.count()
_recorded = 0  # ops recorded since the last backward

# Cache-resident working set of one block of float64 work: one state
# block of the SSM scan, all block temporaries of a pointwise activation
# and of the depthwise causal conv.
BLOCK_BYTES = 1 << 20

BN_MOMENTUM = 0.1  # batch norm's running-statistic update rate
NORM_EPS = 1e-5  # variance floor of batch and layer norm


class no_grad:
    """Context manager that suspends graph recording."""

    def __enter__(self):
        global _grad_enabled
        self._prev = _grad_enabled
        _grad_enabled = False

    def __exit__(self, *exc):
        global _grad_enabled
        _grad_enabled = self._prev
        return False


def is_grad_enabled() -> bool:
    return _grad_enabled


def tape_size() -> int:
    """Ops recorded since the last ``backward``: one training step's graph."""
    return _recorded


class _Node:
    """One executed op: one link per input, its backward rule and its
    execution-order number.

    An input's link is the input's own node, the input itself if it is a
    leaf that requires grad, or None; so the graph holds no intermediate
    tensor. It holds no reference to its output, which refers to it: that
    would be a cycle.
    """

    __slots__ = ("name", "inputs", "bwd", "seq")

    def __init__(self, name, parents, bwd):
        self.name = name
        self.inputs = [p._node if p._node is not None
                       else (p if p.requires_grad else None) for p in parents]
        self.bwd = bwd
        self.seq = next(_SEQ)


class Tensor:
    """A float64 array with optional gradient tracking.

    ``data`` is float64, possibly a strided view (``narrow``, ``flip``).
    ``grad`` is lazily allocated by the reverse pass and matches its shape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._node: Optional[_Node] = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def _accumulate(self, g: np.ndarray) -> None:
        # a leaf owns its gradient: never an array a rule returned
        self.grad = np.array(g, dtype=np.float64) if self.grad is None else self.grad + g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _records(parents: Iterable[Tensor]) -> bool:
    """Whether an op on ``parents`` is recorded: grads are on and some
    parent requires them. An op that keeps extra state for its backward
    makes it only when this holds."""
    return _grad_enabled and any(p.requires_grad for p in parents)


def apply_op(name: str, out_data, parents: Sequence[Tensor],
             bwd: Callable) -> Tensor:
    """Wrap ``out_data`` in a Tensor and record the op as its node.

    ``bwd(gout) -> list`` maps the output gradient to one gradient (or
    None) per parent; it must capture arrays and shapes, not ``parents``,
    so that the graph pins no tensor, and must not write into ``gout``,
    which may be an array another rule returned. Recording is skipped unless
    ``_records(parents)``. Used by this module and by the fused scan op.
    """
    global _recorded
    out = Tensor(out_data)
    if _records(parents):
        out.requires_grad = True
        out._node = _Node(name, parents, bwd)
        _recorded += 1
    return out


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss to every requires_grad leaf.

    Runs the nodes a gradient reaches from ``loss`` off a max-heap on
    their numbers, so each node runs after every node that reads its
    output. A node is pushed with its first gradient, and a None gradient
    or link is skipped, so a node no gradient reaches never runs. Nodes are
    single-use: each drops its backward rule as it runs it, and a node with
    none (a second backward through the same forward) is a GraphError. Its
    links go once it has run, so what the rule read is freed once the
    caller holds it no more. Until a
    node has run, ``pending`` gathers its output gradient, keyed by the
    node. Leaves accumulate into ``Tensor.grad``, which they own.
    """
    global _recorded
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        raise GraphError("loss has no recorded graph (no recorded forward)")
    if root.bwd is None:
        raise GraphError("backward already ran for this forward pass")
    _recorded = 0

    loss._accumulate(np.ones_like(loss.data))
    pending = {root: loss.grad}
    heap = [(-root.seq, root)]
    while heap:
        node = heapq.heappop(heap)[1]
        # a run node has no rule: taken off before it runs, even if it raises
        bwd, node.bwd = node.bwd, None
        if bwd is None:
            raise GraphError(f"graph node '{node.name}' already consumed by a previous backward")
        for src, g in zip(node.inputs, bwd(pending.pop(node))):
            if src is None or g is None:
                continue
            if not isinstance(src, _Node):
                src._accumulate(g)
            elif src in pending:
                # into a fresh array, never +=: a rule may return an array
                # it shares (add hands one g to both parents; reshape, flip,
                # transpose and concat return views)
                pending[src] = pending[src] + g
            else:
                pending[src] = g
                heapq.heappush(heap, (-src.seq, src))
        node.inputs = ()


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    return arr


# ---------------------------------------------------------------------------
# binary elementwise (NumPy broadcasting)

def _binary_shapes(a: Tensor, b: Tensor, op: str):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not broadcast") from None


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to an operand's shape: over the leading axes the
    operand lacks and over its size-1 axes."""
    if g.shape == tuple(shape):
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return np.sum(g, axis=axes, keepdims=True).reshape(shape)


def add(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "add")
    sa, sb = a.shape, b.shape
    return apply_op("add", a.data + b.data, [a, b],
                    lambda g: [_reduce_to(g, sa), _reduce_to(g, sb)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    sa, sb = a.shape, b.shape
    return apply_op("sub", a.data - b.data, [a, b],
                    lambda g: [_reduce_to(g, sa), _reduce_to(-g, sb)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    ad, bd = a.data, b.data
    return apply_op("mul", ad * bd, [a, b],
                    lambda g: [_reduce_to(g * bd, ad.shape),
                               _reduce_to(g * ad, bd.shape)])


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")
    ad, bd = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore"):
        out = ad / bd
    _check_finite(out, "div")
    return apply_op("div", out, [a, b],
                    lambda g: [_reduce_to(g / bd, ad.shape),
                               _reduce_to(-g * ad / (bd * bd), bd.shape)])


# ---------------------------------------------------------------------------
# unary elementwise

def sqrt(x: Tensor) -> Tensor:
    out = _check_finite(np.sqrt(x.data), "sqrt")
    return apply_op("sqrt", out, [x], lambda g: [g * (0.5 / out)])


def relu(x: Tensor) -> Tensor:
    # the backward reads only the sign of the input (a BN output): keep that
    mask = x.data > 0.0 if _records([x]) else None
    return apply_op("relu", np.maximum(x.data, 0.0), [x], lambda g: [g * mask])


def sigmoid(x: Tensor) -> Tensor:
    s = _blocked(_sigmoid_np, x.data)
    return apply_op("sigmoid", s, [x],
                    lambda g: [_blocked(lambda g, s: g * s * (1.0 - s), g, s)])


def silu(x: Tensor) -> Tensor:
    xd = x.data

    def rule(g, x):  # recomputes the sigmoid rather than keep it
        s = _sigmoid_np(x)
        return g * (s * (1.0 + x * (1.0 - s)))

    return apply_op("silu", _blocked(lambda x: x * _sigmoid_np(x), xd), [x],
                    lambda g: [_blocked(rule, g, xd)])


def softplus(x: Tensor) -> Tensor:
    # log(1 + e^x) as max(x, 0) + log1p(e^-|x|): no overflow, and vector
    # kernels where np.logaddexp runs a scalar loop
    xd = x.data
    out = _blocked(lambda x: np.log1p(np.exp(-np.abs(x))) + np.maximum(x, 0.0), xd)
    return apply_op("softplus", out, [x],
                    lambda g: [_blocked(lambda g, x: g * _sigmoid_np(x), g, xd)])


def flip(x: Tensor, axis: int) -> Tensor:
    """Reverse one axis, as a view of ``x``'s data."""
    return apply_op("flip", np.flip(x.data, axis=axis), [x],
                    lambda g: [np.flip(g, axis=axis)])


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below, with
    # one division
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _blocked(formula, *arrays) -> np.ndarray:
    """``formula(*arrays)`` into a new array, over cache-sized blocks of the
    same-shape ``arrays`` read in C order: up to 8 block temporaries."""
    flat = [np.ascontiguousarray(a).reshape(-1) for a in arrays]
    out = np.empty(flat[0].size)
    step = BLOCK_BYTES // (8 * 8)
    for i in range(0, out.size, step):
        out[i:i + step] = formula(*(f[i:i + step] for f in flat))
    return out.reshape(np.shape(arrays[0]))


# ---------------------------------------------------------------------------
# affine / convolution

def linear(x: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: (..., Din) x (Dout, Din) -> (..., Dout)."""
    din = x.shape[-1]
    if w.ndim != 2 or w.shape[1] != din:
        raise ShapeError(f"linear: x last extent {din} vs weight {w.shape}")
    dout = w.shape[0]
    xshape, wd, has_bias = x.shape, w.data, bias is not None
    # one 2-D GEMM over all leading axes, not one per leading index
    x2 = x.data.reshape(-1, din)
    out = (x2 @ wd.T).reshape(xshape[:-1] + (dout,))
    parents = [x, w]
    if bias is not None:
        if bias.shape != (dout,):
            raise ShapeError(f"linear: bias {bias.shape} vs Dout {dout}")
        out += bias.data
        parents.append(bias)

    def bwd(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ wd).reshape(xshape)
        gw = g2.T @ x2
        if not has_bias:
            return [gx, gw]
        return [gx, gw, g2.sum(axis=0)]

    return apply_op("linear", out, parents, bwd)


def _conv_out_len(size: int, k: int, stride: int, pad: int) -> int:
    n = (size + 2 * pad - k) // stride + 1
    if n < 1:
        raise ShapeError(f"kernel {k} with pad {pad} does not fit extent {size}")
    return n


def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0),
           pool=None) -> Tensor:
    """Zero-padded 3D cross-correlation, without bias.

    x: (B, Cin, T, H, W), w: (Cout, Cin, kt, kh, kw). Output extents follow
    floor((S + 2p - k) / stride) + 1 per axis. One kernel runs the forward,
    both gradients and ``conv_transpose1d``: ``_conv``, a ring of kt
    gathered input planes and kt GEMMs per output-t slice, read straight
    from the unpadded input (padding is never materialized). The input
    gradient is a transposed conv, run as ``_conv`` of the output gradient
    at stride 1 with the flipped kernel, reading the gradient as if
    dilated by the stride. The recorded op keeps neither a padded input
    nor the planes, and forms no input gradient for an ``x`` that needs
    none.

    With a ``pool`` window (1, ph, pw) the result is bit for bit
    ``maxpool3d(conv3d(x, w, stride, padding), pool)``, NaN windows
    included, but no full-resolution output is made: each output frame
    lands in one reused buffer and is max-folded from there into the
    pooled output. Such a call has no backward, so one that would be
    recorded is a GraphError, and a window spanning time a ShapeError.
    """
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError("conv3d expects 5-D input and weight")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv3d: Cin mismatch {x.shape[1]} vs {w.shape[1]}")
    if min(stride) < 1:
        raise ShapeError("conv3d: stride components must be >= 1")
    if pool is not None:
        if len(pool) != 3 or pool[0] != 1 or min(pool) < 1:
            raise ShapeError(f"conv3d: pool window must be (1, ph, pw), got {pool}")
        if _records([x, w]):
            raise GraphError("conv3d: a pooled conv has no backward; "
                             "pool the recorded output with maxpool3d")
    ext = tuple(map(_conv_out_len, x.shape[2:], w.shape[2:], stride, padding))
    out = _conv(x.data, w.data, stride, padding, ext, pool=pool)
    xd, wd, need_gx = x.data, w.data, x.requires_grad

    def bwd(g):
        gw = _conv_weight_grad(xd, g, wd.shape[2:], stride, padding)
        # an input that needs no gradient (the network's frames) gets none
        gx = _conv_input_grad(g, wd, stride, padding, xd.shape[2:]) if need_gx else None
        return [gx, gw]

    return apply_op("conv3d", out, [x, w], bwd)


def _as_slice(idx):
    """The slice of an arithmetic progression of indices (at least one)."""
    step = int(idx[1] - idx[0]) if idx.size > 1 else 1
    return slice(int(idx[0]), int(idx[-1]) + 1, step)


def _axis_taps(n, k, s, d, p, o):
    """Per tap j of one axis: the (output, input) slice pair of the outputs
    where tap j reads a real element, or None if it reads none.

    The input of extent n is read as dilated by d (d - 1 zeros between
    elements) and padded by p before it (p < 0 crops); output i's tap j
    sits at i * s + j - p on that grid, for o outputs.
    """
    taps = []
    for j in range(k):
        v = np.arange(o) * s + j - p
        hit = np.flatnonzero((v % d == 0) & (v >= 0) & (v < n * d))
        taps.append((_as_slice(hit), _as_slice(v[hit] // d)) if hit.size else None)
    return taps


def _planes(x, kernel, stride, pad, ext, dilation):
    """Yield (ot, taps) for each output-t slice ot of a conv of x (B, Cin,
    T, H, W), taps listing (i, cols) for each temporal tap i that reads a
    real input plane: cols, (Cin*kh*kw, B*ho*wo), holds that plane's
    columns.

    The planes live in a ring of kt buffers, one per plane index mod kt,
    so a plane is gathered once, straight from x, and reused by every
    slice that reads it. Border columns (padding, or the zeros of a
    dilated read) are zero from the start and never written; a padding
    or dilation plane is no tap at all. Axes as in ``_axis_taps``.
    """
    (b, cin, t), (kt, kh, kw) = x.shape[:3], kernel
    rows, cols = (_axis_taps(*axis) for axis in zip(
        x.shape[3:], kernel[1:], stride[1:], dilation[1:], pad[1:], ext[1:]))
    spatial = [(j, k, r, c) for j, r in enumerate(rows)
               for k, c in enumerate(cols) if r and c]
    ring = np.zeros((kt, cin, kh, kw, b) + tuple(ext[1:]))
    held = [-1] * kt  # the input plane in each ring slot
    st, dt, pt = stride[0], dilation[0], pad[0]
    for ot in range(ext[0]):
        taps = []
        for i in range(kt):
            v = ot * st + i - pt
            if v % dt or not 0 <= v < t * dt:
                continue
            plane = v // dt
            slot = ring[plane % kt]
            if held[plane % kt] != plane:
                src = x[:, :, plane].swapaxes(0, 1)  # (Cin, B, H, W)
                for j, k, (oh, ih), (ow, iw) in spatial:
                    slot[:, j, k, :, oh, ow] = src[:, :, ih, iw]
                held[plane % kt] = plane
            taps.append((i, slot.reshape(cin * kh * kw, -1)))
        yield ot, taps


def _conv(x, w, stride, pad, ext, dilation=(1, 1, 1), pool=None):
    """Cross-correlation of x (B, Cin, T, H, W) with w (Cout, Cin, kt, kh,
    kw) into extents ``ext``, padding and dilation read on the fly (see
    ``_axis_taps``): output slice ot is the sum over its taps of the GEMMs
    w[:, :, i] @ cols_i of ``_planes``' ring. With a ``pool`` window (1,
    ph, pw) each slice is summed in one reused frame buffer and max-folded
    from there into a (B, Cout, T, H // ph, W // pw) output."""
    b, (cout, _, kt, *kernel) = x.shape[0], w.shape
    parts = [w[:, :, i].reshape(cout, -1) for i in range(kt)]
    if pool is None:
        out = np.empty((b, cout) + tuple(ext))
    else:
        pooled = tuple(map(_conv_out_len, ext[1:], pool[1:], pool[1:], (0, 0)))
        out = np.empty((b, cout, ext[0]) + pooled)
        windows = _pool_windows(pool[1:], pooled)
    prod = np.empty((cout, b * ext[1] * ext[2]))
    acc = np.empty_like(prod) if b > 1 or pool is not None else None
    for ot, taps in _planes(x, (kt, *kernel), stride, pad, ext, dilation):
        dst = out[:, :, ot].reshape(b, cout, -1).swapaxes(0, 1)
        # with one sample the GEMMs land in the output slice itself
        tgt = dst[:, 0] if acc is None else acc
        if not taps:
            tgt[...] = 0.0
        for n, (i, cols) in enumerate(taps):
            np.matmul(parts[i], cols, out=prod if n else tgt)
            if n:
                tgt += prod
        if pool is not None:
            _max_fold(acc.reshape(cout, b, ext[1], ext[2]), windows,
                      out[:, :, ot].swapaxes(0, 1))
        elif tgt is acc:
            dst[...] = acc.reshape(dst.shape)
    return out


def _conv_weight_grad(x, g, kernel, stride, pad):
    """Gradient of ``_conv(x, w, stride, pad, g.shape[2:])`` in w for output
    gradient g: per output-t slice and tap, one GEMM of that slice of g,
    (Cout, B*ho*wo), with the tap's plane columns."""
    cout, cin, kt = g.shape[1], x.shape[1], kernel[0]
    gt = g.transpose(1, 2, 0, 3, 4).reshape(cout, g.shape[2], -1)
    gw = np.zeros((kt, cout, cin * kernel[1] * kernel[2]))
    for ot, taps in _planes(x, kernel, stride, pad, g.shape[2:], (1, 1, 1)):
        for i, cols in taps:
            gw[i] += gt[:, ot] @ cols.T
    gw = gw.reshape((kt, cout, cin) + tuple(kernel[1:]))
    return np.ascontiguousarray(gw.transpose(1, 2, 0, 3, 4))


def _conv_input_grad(g, w, stride, padding, size):
    """Gradient of ``_conv(x, w, stride, padding, ...)`` in x of extents
    ``size``: the transposed conv as a stride-1 one, ``_conv`` of g read
    as dilated by the stride and padded by k-1-p per side (p > k-1 crops),
    with the kernel flipped and Cin and Cout swapped. The dilation's
    zero planes are skipped, not multiplied."""
    pad = tuple(k - 1 - p for k, p in zip(w.shape[2:], padding))
    return _conv(g, w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1], (1, 1, 1),
                 pad, tuple(size), tuple(stride))


def _causal_dw(x, w, bias):
    """``conv1d_depthwise_causal``'s formula into a new array, over
    cache-sized blocks of output rows [r0, r1); per element: 0, then the
    taps in k order, then the bias. Tap k reads x shifted K-1-k steps
    right; the zeros before t=0 add nothing."""
    (b, L, d), K = x.shape, w.shape[1]
    out = np.empty(x.shape)
    rows = max(1, BLOCK_BYTES // (3 * 8 * b * d))  # x, tap and out blocks
    tap = np.empty((b, min(rows, L), d))
    for r0 in range(0, L, rows):
        r1 = min(r0 + rows, L)
        blk = out[:, r0:r1]
        blk[...] = 0.0
        for k in range(K):
            lo = max(r0, K - 1 - k)  # first output row tap k reaches
            if lo >= r1:
                continue
            n = r1 - lo
            np.multiply(x[:, lo - (K - 1 - k):r1 - (K - 1 - k)], w[:, k],
                        out=tap[:, :n])
            blk[:, lo - r0:] += tap[:, :n]
        blk += bias
    return out


def conv1d_depthwise_causal(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal 1D conv: x (B, L, D), w (D, K), bias (D,), left
    pad K-1.

    y[b, l, d] = sum_k w[d, k] * x[b, l + k - (K-1), d] + bias[d], zeros
    before t=0, so sequences shorter than K are handled by the padding,
    never an error. The input gradient is the same kernel on the
    time-reversed gradient with a zero bias, reversed back.
    """
    if x.ndim != 3 or w.ndim != 2 or x.shape[2] != w.shape[0]:
        raise ShapeError(f"depthwise conv1d: x {x.shape} vs w {w.shape}")
    L, K = x.shape[1], w.shape[1]
    if bias.shape != (x.shape[2],):
        raise ShapeError("depthwise conv1d: bias must be (D,)")
    xd, wd = x.data, w.data

    def bwd(g):
        gw = np.empty_like(wd)
        for k in range(K):
            n = max(L - (K - 1 - k), 0)  # output rows tap k reaches
            gw[:, k] = np.einsum("bld,bld->d", g[:, L - n:], xd[:, :n])
        gx = _causal_dw(g[:, ::-1], wd, 0.0)[:, ::-1]
        return [gx, gw, g.sum(axis=(0, 1))]

    return apply_op("conv1d_dw", _causal_dw(xd, wd, bias.data), [x, w, bias],
                    bwd)


def conv_transpose1d(x: Tensor, w: Tensor, bias: Tensor,
                     stride: int = 2, padding: int = 1) -> Tensor:
    """Temporal transposed conv: x (B, Cin, T), w (Cin, Cout, K), bias
    (Cout,).

    Output length (T-1)*stride - 2*padding + K; with K=4, s=2, p=1 this is
    exactly 2T. The output is the input gradient of the conv from Cout to
    Cin channels with kernel w, stride and padding, for output gradient x;
    so it runs on conv3d's kernel (with H = W = 1), and its backward is
    that conv (for x) and the conv's weight gradient (for w).
    """
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"conv_transpose1d: x {x.shape} vs w {w.shape}")
    t, (_, cout, K) = x.shape[2], w.shape
    t_out = (t - 1) * stride - 2 * padding + K
    if t_out < 1:
        raise ShapeError("conv_transpose1d: output length would be < 1")
    if bias.shape != (cout,):
        raise ShapeError("conv_transpose1d: bias must be (Cout,)")
    xd, wd = x.data[..., None, None], w.data[..., None, None]
    strides, pads = (stride, 1, 1), (padding, 0, 0)
    out = _conv_input_grad(xd, wd, strides, pads, (t_out, 1, 1))[..., 0, 0]
    out += bias.data[None, :, None]

    def bwd(g):
        g5 = g[..., None, None]
        gx = _conv(g5, wd, strides, pads, xd.shape[2:])[..., 0, 0]
        gw = _conv_weight_grad(g5, xd, (K, 1, 1), strides, pads)[..., 0, 0]
        return [gx, gw, g.sum(axis=(0, 2))]

    return apply_op("conv_transpose1d", out, [x, w, bias], bwd)


def _pool_windows(kernel, ext):
    """Per window offset, in scan order (last axis fastest): the index of
    that offset of every window, for non-overlapping windows ``kernel``
    over the trailing axes, pooled extents ``ext``, after two whole axes."""
    whole = (slice(None), slice(None))
    return [whole + tuple(slice(i, i + k * (n - 1) + 1, k)
                          for i, k, n in zip(offset, kernel, ext))
            for offset in itertools.product(*map(range, kernel))]


def _max_fold(x, windows, out):
    """Fill ``out`` with the max of x over the window views ``windows``:
    the first copied, the rest folded in with ``np.maximum`` in order, so
    a NaN in a window makes its output NaN."""
    np.copyto(out, x[windows[0]])
    for win in windows[1:]:
        np.maximum(out, x[win], out=out)
    return out


def maxpool3d(x: Tensor, kernel) -> Tensor:
    """Max pooling over non-overlapping (T, H, W) windows (stride = kernel);
    extents follow the conv rule.

    The output is folded with ``np.maximum`` over the window offsets, so a
    NaN anywhere in a window makes that output NaN (and its gradient 0).
    Ties route gradient to the earliest window offset (fixed scan order),
    keeping backward deterministic. The recorded op keeps, per output, the
    index of that offset (-1 for a NaN window), not the input.
    """
    if x.ndim != 5 or len(kernel) != 3:
        raise ShapeError("maxpool3d expects (B, C, T, H, W) and a (kt, kh, kw) window")
    ext = tuple(_conv_out_len(n, k, k, 0) for n, k in zip(x.shape[2:], kernel))
    windows = _pool_windows(kernel, ext)
    out = _max_fold(x.data, windows, np.empty(x.shape[:2] + ext))
    first = None  # per output: the first offset holding its max, or -1
    if _records([x]):
        first = np.full(out.shape, -1, dtype=np.min_scalar_type(-len(windows)))
        hit, step = np.empty(out.shape, dtype=bool), np.empty_like(first)
        # last offset to first, first = i where hit, so the lowest hit
        # wins; the integer sums are exact (modulo the dtype's range)
        for i in reversed(range(len(windows))):
            np.equal(x.data[windows[i]], out, out=hit)
            np.subtract(i, first, out=step)
            step *= hit
            first += step
    xshape = x.shape

    def bwd(g):
        gx = np.zeros(xshape)
        for i, win in enumerate(windows):
            gx[win] += np.where(first == i, g, 0.0)
        return [gx]

    return apply_op("maxpool3d", out, [x], bwd)


# ---------------------------------------------------------------------------
# normalization

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool) -> Tensor:
    """Per-channel batch norm over axis 1 of (B, C, ...).

    Training mode normalizes by batch statistics (population variance) and
    updates the running buffers in place at rate ``BN_MOMENTUM``; eval mode
    uses (C,) copies of the buffers, so later changes to them do not reach
    the backward. A front end of ``_normalize``, as ``layer_norm`` is.
    """
    if x.ndim < 2:
        raise ShapeError("batch_norm expects a channel axis at dim 1")
    axes = (0,) + tuple(range(2, x.ndim))
    if training:
        mean = x.data.mean(axis=axes, keepdims=True)
        var = x.data.var(axis=axes, keepdims=True)
    else:
        bshape = (1, -1) + (1,) * (x.ndim - 2)
        mean = running_mean.reshape(bshape).copy()
        var = running_var.reshape(bshape)
    out = _normalize("batch_norm", x, gamma, beta, 1, axes, mean, var, training)
    if training:
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mean.reshape(-1)
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var.reshape(-1)
    return out


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine.

    A front end of ``_normalize``, as ``batch_norm`` is.
    """
    last = x.ndim - 1
    mean = x.data.mean(axis=last, keepdims=True)
    var = x.data.var(axis=last, keepdims=True)
    return _normalize("layer_norm", x, gamma, beta, last, (last,), mean, var,
                      True)


def _normalize(name: str, x: Tensor, gamma: Tensor, beta: Tensor, axis: int,
               stat_axes, mean: np.ndarray, var: np.ndarray,
               batch_stats: bool) -> Tensor:
    """The one norm kernel: out = gamma * (x - mean) * inv + beta along
    ``axis``, inv = 1 / sqrt(var + NORM_EPS).

    ``mean``/``var`` are keepdims statistics over ``stat_axes``; with
    ``batch_stats`` they are statistics of ``x`` itself and the backward
    differentiates through them. The output is the only full-size array
    the forward makes: it is normalized in place, and the backward
    recomputes the normalized input from ``x``. The backward makes 3
    full-size arrays: x-hat, a product buffer and gscaled, which becomes
    the input gradient in place, op for op as a fresh array per op would.
    """
    c = x.shape[axis]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"{name}: affine params must be ({c},), "
                         f"got {gamma.shape} and {beta.shape}")
    pshape = tuple(c if i == axis else 1 for i in range(x.ndim))
    param_axes = tuple(i for i in range(x.ndim) if i != axis)
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xd, gam = x.data, gamma.data.reshape(pshape)
    out = np.subtract(xd, mean)
    out *= inv
    out *= gam
    out += beta.data.reshape(pshape)

    def bwd(g):
        xhat = np.subtract(xd, mean)
        xhat *= inv
        prod = g * xhat  # reused for gscaled * xhat
        gg = prod.sum(axis=param_axes)
        # summed in C order whatever g's layout, as the seed's layer norm did
        gb = np.ascontiguousarray(g).sum(axis=param_axes)
        gx = g * gam  # gscaled, turned into gx in place
        if batch_stats:
            m1 = gx.mean(axis=stat_axes, keepdims=True)
            m2 = np.multiply(gx, xhat, out=prod).mean(axis=stat_axes, keepdims=True)
            # inv * (gscaled - m1 - xhat * m2), op for op
            gx -= m1
            xhat *= m2
            gx -= xhat
        gx *= inv
        return [gx, gg, gb]

    return apply_op(name, out, [x, gamma, beta], bwd)


# ---------------------------------------------------------------------------
# reductions

def _norm_axes(axes, ndim):
    if axes is None:
        return tuple(range(ndim))
    if isinstance(axes, int):
        axes = (axes,)
    return tuple(a % ndim for a in axes)


def reduce_sum(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    out = x.data.sum(axis=axes)
    xshape = x.shape

    def bwd(g):
        ge = np.expand_dims(g, axes) if g.ndim else g
        return [np.broadcast_to(ge, xshape).copy()]

    return apply_op("sum", out, [x], bwd)


def reduce_mean(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    n = int(np.prod([x.shape[a] for a in axes]))
    out = x.data.mean(axis=axes)
    xshape = x.shape

    def bwd(g):
        ge = np.expand_dims(g, axes) if g.ndim else g
        return [np.broadcast_to(ge, xshape) / n]

    return apply_op("mean", out, [x], bwd)


# ---------------------------------------------------------------------------
# shape movers

def reshape(x: Tensor, shape) -> Tensor:
    shape, xshape = tuple(shape), x.shape
    return apply_op("reshape", x.data.reshape(shape), [x],
                    lambda g: [g.reshape(xshape)])


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return apply_op("transpose", np.ascontiguousarray(x.data.transpose(axes)),
                    [x], lambda g: [g.transpose(inv)])


def concat(tensors: Iterable[Tensor], axis: int) -> Tensor:
    ts = list(tensors)
    out = np.concatenate([t.data for t in ts], axis=axis)
    sizes = [t.shape[axis] for t in ts]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return list(np.split(g, splits, axis=axis))

    return apply_op("concat", out, ts, bwd)


def upsample_nearest_time(x: Tensor, factor: int = 2) -> Tensor:
    """Nearest-neighbor upsampling along axis 2 of (B, C, T, H, W)."""
    if x.ndim != 5:
        raise ShapeError("upsample_nearest_time expects (B, C, T, H, W)")
    out = np.repeat(x.data, factor, axis=2)
    b, c, t, h, w = x.shape

    def bwd(g):
        return [g.reshape(b, c, t, factor, h, w).sum(axis=3)]

    return apply_op("upsample_time", out, [x], bwd)


def narrow(x: Tensor, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of one axis, as a view of ``x``'s data."""
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside extent {x.shape[axis]}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl, xshape = tuple(sl), x.shape

    def bwd(g):
        gx = np.zeros(xshape)
        gx[sl] = g
        return [gx]

    return apply_op("narrow", x.data[sl], [x], bwd)
