"""Dense float64 tensors with define-by-run reverse-mode autodiff.

The operation set is exactly what the network, its loss and its checks
use: 3D/1D convolutions (one gather-plus-GEMM kernel: an input gradient
is a transposed conv, itself a stride-1 conv with the flipped kernel),
pooling, affine maps, norms (batch and layer norm are front ends of one
kernel), sum/mean, the pointwise ops they apply and a handful of shape
movers. Computation is float64 throughout; float32 appears only at
checkpoint/dataset boundaries.

Every recorded op hangs a node, numbered in execution order, off its
output; nothing else holds it. A node links to its parents' nodes (or to
a leaf that needs a gradient), never to their tensors, and its backward
rule captures only the arrays and shapes it reads: ``relu`` keeps a bool
mask, ``maxpool3d`` a small-int index of each window's max. So an
activation no rule reads dies as soon as the forward drops it.
``backward`` runs the nodes reachable from the loss in decreasing number,
which is reverse execution order; running a node twice without a fresh
forward is a ``GraphError``. Nodes do not refer to their outputs, so a
graph holds no reference cycle and dies with its last tensor by reference
counting alone, and each node drops its links and backward rule once
``backward`` has run it, so what a rule read dies while the backward
runs, not after it. A node whose output has one consumer gets the array
that consumer's rule returned, as is, with no copy; several contributions
are summed into a fresh array, and no rule writes into its ``g``. Binary
elementwise ops accept equal shapes or a scalar operand only; anything
fancier (bias adds, channel gates, norm affines) is a dedicated op with
its own backward rule.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "no_grad", "is_grad_enabled",
    "tape_size", "backward",
    "add", "sub", "mul", "div", "scale",
    "exp", "sqrt", "relu", "silu", "sigmoid", "softplus", "flip",
    "linear", "conv3d", "conv1d_depthwise_causal",
    "conv_transpose1d", "maxpool3d", "batch_norm", "layer_norm",
    "reduce_sum", "reduce_mean",
    "reshape", "transpose", "concat", "upsample_nearest_time",
    "narrow", "channel_scale",
]

_grad_enabled = True
_SEQ = itertools.count()
_recorded = 0  # ops recorded since the last backward

# Cache-resident working set of one block of float64 work: one state
# block of the SSM scan, all block temporaries of SiLU and of the
# depthwise causal conv.
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
    """One executed op: one link per input, its backward rule, its output
    shape and its execution-order number.

    An input's link is the input's own node, the input itself if it is a
    leaf that requires grad, or None; so the graph holds no intermediate
    tensor. It holds no reference to its output, which refers to it: that
    would be a cycle.
    """

    __slots__ = ("name", "inputs", "bwd", "shape", "used", "seq")

    def __init__(self, name, parents, bwd, shape):
        self.name = name
        self.inputs = [p._node if p._node is not None
                       else (p if p.requires_grad else None) for p in parents]
        self.bwd = bwd
        self.shape = shape
        self.used = False
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


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64), requires_grad=requires_grad)


def _summed(acc: Optional[np.ndarray], g: np.ndarray) -> np.ndarray:
    """Gradient sum of a node's output: the first contribution as is, each
    later one summed into a fresh array, never ``+=``. A rule may return
    an array it shares: ``add`` hands one ``g`` to both parents, and
    ``reshape``, ``flip``, ``transpose`` and ``concat`` return views."""
    return g if acc is None else acc + g


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
        out._node = _Node(name, parents, bwd, out.data.shape)
        _recorded += 1
    return out


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss to every requires_grad leaf.

    Runs the nodes reachable from ``loss`` off a max-heap on their
    numbers, so each node runs after every node that reads its output.
    Nodes are single-use: a second backward through the same forward is a
    GraphError. Each node drops its links and backward rule as soon as it
    has run, so what the rule read is freed once the caller holds it no
    more. Until a node has run, ``pending`` gathers its output gradient
    (None while nothing has arrived), keyed by the node and summed by
    ``_summed``: the first contribution as is, later ones into a fresh
    array. A node is pushed when it first enters ``pending``. Leaves
    accumulate into ``Tensor.grad``, which they own.
    """
    global _recorded
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        raise GraphError("loss has no recorded graph (no recorded forward)")
    if root.used:
        raise GraphError("backward already ran for this forward pass")
    _recorded = 0

    loss._accumulate(np.ones_like(loss.data))
    pending = {root: loss.grad}
    heap = [(-root.seq, root)]
    while heap:
        node = heapq.heappop(heap)[1]
        if node.used:
            raise GraphError(f"graph node '{node.name}' already consumed by a previous backward")
        node.used = True
        gout = pending.pop(node)
        gins = node.bwd(gout if gout is not None else np.zeros(node.shape))
        for src, g in zip(node.inputs, gins):
            if isinstance(src, _Node):
                if src not in pending:
                    pending[src] = None
                    heapq.heappush(heap, (-src.seq, src))
                if g is not None:
                    pending[src] = _summed(pending[src], g)
            elif src is not None and g is not None:
                src._accumulate(g)
        node.bwd = None
        node.inputs = ()


def _check_finite(arr: np.ndarray, op: str) -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{op} produced non-finite values")
    return arr


# ---------------------------------------------------------------------------
# binary elementwise (equal shapes or scalar operand)

def _binary_shapes(a: Tensor, b: Tensor, op: str):
    if a.shape == b.shape or a.size == 1 or b.size == 1:
        return
    raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} (equal or scalar only)")


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum a gradient down to a scalar operand's shape."""
    if g.shape == tuple(shape):
        return g
    return np.sum(g).reshape(shape)


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


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op("scale", x.data * c, [x], lambda g: [g * c])


# ---------------------------------------------------------------------------
# unary elementwise

def exp(x: Tensor) -> Tensor:
    out = _check_finite(np.exp(x.data), "exp")
    return apply_op("exp", out, [x], lambda g: [g * out])


def sqrt(x: Tensor) -> Tensor:
    out = _check_finite(np.sqrt(x.data), "sqrt")
    return apply_op("sqrt", out, [x], lambda g: [g * (0.5 / out)])


def relu(x: Tensor) -> Tensor:
    # the backward reads only the sign of the input (a BN output): keep that
    mask = x.data > 0.0 if _records([x]) else None
    return apply_op("relu", np.maximum(x.data, 0.0), [x], lambda g: [g * mask])


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    return apply_op("sigmoid", s, [x], lambda g: [g * s * (1.0 - s)])


def silu(x: Tensor) -> Tensor:
    # cache-sized blocks keep the sigmoid's ~8 temporaries out of memory;
    # the backward recomputes the sigmoid
    xd = x.data
    xf = np.ascontiguousarray(xd).reshape(-1)
    out = np.empty(xd.shape)
    of = out.reshape(-1)
    step = BLOCK_BYTES // (8 * 8)
    for i in range(0, xf.size, step):
        blk = xf[i:i + step]
        np.multiply(blk, _sigmoid_np(blk), out=of[i:i + step])

    def bwd(g):
        s = _sigmoid_np(xd)
        return [g * (s * (1.0 + xd * (1.0 - s)))]

    return apply_op("silu", out, [x], bwd)


def softplus(x: Tensor) -> Tensor:
    xd = x.data
    return apply_op("softplus", np.logaddexp(0.0, xd), [x],
                    lambda g: [g * _sigmoid_np(xd)])


def flip(x: Tensor, axis: int) -> Tensor:
    """Reverse one axis, as a view of ``x``'s data."""
    return apply_op("flip", np.flip(x.data, axis=axis), [x],
                    lambda g: [np.flip(g, axis=axis)])


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


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


def conv3d(x: Tensor, w: Tensor, stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Zero-padded 3D cross-correlation, without bias.

    x: (B, Cin, T, H, W), w: (Cout, Cin, kt, kh, kw). Output extents follow
    floor((S + 2p - k) / stride) + 1 per axis. One kernel runs the forward,
    both gradients and ``conv_transpose1d``: ``_conv``'s column gather
    plus one GEMM per output-t slice. The input gradient is a transposed
    conv, run as ``_conv`` of the output gradient on the stride-1 grid
    with the flipped kernel. The recorded op keeps neither the padded input
    nor the columns, and forms no input gradient for an ``x`` that needs none.
    """
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError("conv3d expects 5-D input and weight")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv3d: Cin mismatch {x.shape[1]} vs {w.shape[1]}")
    if min(stride) < 1:
        raise ShapeError("conv3d: stride components must be >= 1")
    for n, k, s, p in zip(x.shape[2:], w.shape[2:], stride, padding):
        _conv_out_len(n, k, s, p)
    pads = ((0, 0), (0, 0)) + tuple((p, p) for p in padding)
    out = _conv(np.pad(x.data, pads), w.data, stride)
    xd, wd, need_gx = x.data, w.data, x.requires_grad

    def bwd(g):
        gw = _conv_weight_grad(np.pad(xd, pads), g, wd.shape[2:], stride)
        # an input that needs no gradient (the network's frames) gets none
        gx = _conv_input_grad(g, wd, stride, padding, xd.shape[2:]) if need_gx else None
        return [gx, gw]

    return apply_op("conv3d", out, [x, w], bwd)


def _gather_cols(xp, dst, it0, kernel, sh, sw):
    """Fill dst, a (B, Cin, taps, ho, wo) view, with the columns of the
    output-t slice that starts at plane ``it0`` of xp: one copy per tap."""
    ho, wo = dst.shape[3:]
    for idx, (i, j, k) in enumerate(itertools.product(*map(range, kernel))):
        dst[:, :, idx] = xp[:, :, it0 + i, j:j + sh * (ho - 1) + 1:sh,
                            k:k + sw * (wo - 1) + 1:sw]


def _conv(xp, w, stride):
    """Valid cross-correlation of a padded (B, Cin, T, H, W) input with
    w (Cout, Cin, kt, kh, kw): columns are gathered one output-t slice at
    a time (never a full im2col buffer), and one GEMM contracts each."""
    (b, cin), (cout, _, *kernel) = xp.shape[:2], w.shape
    to, ho, wo = map(_conv_out_len, xp.shape[2:], kernel, stride, (0, 0, 0))
    w2 = w.reshape(cout, -1)
    out = np.empty((b, cout, to, ho, wo))
    cols = np.empty((b, cin, w2.shape[1] // cin, ho, wo))
    for ot in range(to):
        _gather_cols(xp, cols, ot * stride[0], kernel, *stride[1:])
        np.matmul(w2, cols.reshape(b, -1, ho * wo),
                  out=out[:, :, ot].reshape(b, cout, ho * wo))
    return out


def _conv_weight_grad(xp, g, kernel, stride):
    """Gradient of ``_conv(xp, w, stride)`` in w for output gradient g:
    per output-t slice, the columns of all samples side by side,
    (Cin*taps, B*ho*wo), and one GEMM with that slice of g."""
    (b, cin), (cout, to, ho, wo) = xp.shape[:2], g.shape[1:]
    gt = g.transpose(1, 2, 0, 3, 4).reshape(cout, to, -1)
    cols = np.empty((cin, int(np.prod(kernel)), b, ho, wo))
    gw = np.zeros((cout, cin * cols.shape[1]))
    for ot in range(to):
        _gather_cols(xp, cols.transpose(2, 0, 1, 3, 4), ot * stride[0], kernel,
                     *stride[1:])
        gw += gt[:, ot] @ cols.reshape(gw.shape[1], -1).T
    return gw.reshape((cout, cin) + tuple(kernel))


def _conv_input_grad(g, w, stride, padding, size):
    """Gradient of ``_conv(pad(x), w, stride)`` in x of extents ``size``.

    The transposed conv as a stride-1 one: g goes onto the stride-1 grid
    (zeros between samples along a strided axis), padded by k-1-p per
    side, and ``_conv`` runs it with the kernel flipped and Cin and Cout
    swapped. Where p > k-1 it pads less, down to the full correlation,
    and crops the extra rows.
    """
    spread, crop, ext = [], [], []
    for n, o, k, s, p in zip(size, g.shape[2:], w.shape[2:], stride, padding):
        lo, hi = k - 1 - p, n + p - (o - 1) * s - 1  # lo + grid + hi = n + k - 1
        spread.append(slice(max(lo, 0), max(lo, 0) + (o - 1) * s + 1, s))
        crop.append(slice(max(-lo, 0), max(-lo, 0) + n))
        ext.append(max(lo, 0) + (o - 1) * s + 1 + max(hi, 0))
    gp = np.zeros(g.shape[:2] + tuple(ext))
    gp[(..., *spread)] = g
    gx = _conv(gp, w.transpose(1, 0, 2, 3, 4)[:, :, ::-1, ::-1, ::-1], (1, 1, 1))
    return gx[(..., *crop)]


def conv1d_depthwise_causal(x: Tensor, w: Tensor, bias: Tensor) -> Tensor:
    """Per-channel causal 1D conv: x (B, L, D), w (D, K), bias (D,), left
    pad K-1.

    y[b, l, d] = sum_k w[d, k] * x[b, l + k - (K-1), d] + bias[d], zeros
    before t=0, so sequences shorter than K are handled by the padding,
    never an error.
    """
    if x.ndim != 3 or w.ndim != 2 or x.shape[2] != w.shape[0]:
        raise ShapeError(f"depthwise conv1d: x {x.shape} vs w {w.shape}")
    b, L, d = x.shape
    K = w.shape[1]
    if bias.shape != (d,):
        raise ShapeError("depthwise conv1d: bias must be (D,)")
    xd, wd = x.data, w.data
    out = np.empty(x.shape)
    rows = max(1, BLOCK_BYTES // (3 * 8 * b * d))  # x, tap and out blocks
    tap = np.empty((b, min(rows, L), d))
    # cache-sized blocks of output rows [r0, r1); per element: 0, then
    # taps in k order, then bias. Tap k reads x shifted K-1-k steps
    # right; the zero pad adds nothing
    for r0 in range(0, L, rows):
        r1 = min(r0 + rows, L)
        blk = out[:, r0:r1]
        blk[...] = 0.0
        for k in range(K):
            lo = max(r0, K - 1 - k)  # first output row tap k reaches
            if lo >= r1:
                continue
            n = r1 - lo
            np.multiply(xd[:, lo - (K - 1 - k):r1 - (K - 1 - k)],
                        wd[:, k], out=tap[:, :n])
            blk[:, lo - r0:] += tap[:, :n]
        blk += bias.data

    def bwd(g):
        xp = np.pad(xd, ((0, 0), (K - 1, 0), (0, 0)))
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(wd)
        for k in range(K):
            gxp[:, k:k + L, :] += g * wd[:, k]
            gw[:, k] = np.einsum("bld,bld->d", g, xp[:, k:k + L, :])
        gx = gxp[:, K - 1:, :]
        return [gx, gw, g.sum(axis=(0, 1))]

    return apply_op("conv1d_dw", out, [x, w, bias], bwd)


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
    strides = (stride, 1, 1)
    out = _conv_input_grad(xd, wd, strides, (padding, 0, 0), (t_out, 1, 1))[..., 0, 0]
    out = out + bias.data[None, :, None]

    def bwd(g):
        gp = np.pad(g, ((0, 0), (0, 0), (padding, padding)))[..., None, None]
        gx = _conv(gp, wd, strides)[..., 0, 0]
        gw = _conv_weight_grad(gp, xd, (K, 1, 1), strides)[..., 0, 0]
        return [gx, gw, g.sum(axis=(0, 2))]

    return apply_op("conv_transpose1d", out, [x, w, bias], bwd)


def maxpool3d(x: Tensor, kernel) -> Tensor:
    """Max pooling over non-overlapping (T, H, W) windows (stride = kernel);
    extents follow the conv rule.

    The output is folded with ``np.maximum`` over the window offsets, so a
    NaN anywhere in a window makes that output NaN (and its gradient 0).
    Ties route gradient to the earliest window offset (fixed scan order),
    keeping backward deterministic. The recorded op keeps, per output, the
    index of that offset (-1 for a NaN window), not the input.
    """
    if x.ndim != 5:
        raise ShapeError("maxpool3d expects (B, C, T, H, W)")
    kt, kh, kw = kernel
    b, c, t, h, wd = x.shape
    to = _conv_out_len(t, kt, kt, 0)
    ho = _conv_out_len(h, kh, kh, 0)
    wo = _conv_out_len(wd, kw, kw, 0)
    # one strided view of x per window offset, in scan order
    windows = [(slice(None), slice(None), slice(i, i + kt * (to - 1) + 1, kt),
                slice(j, j + kh * (ho - 1) + 1, kh),
                slice(k, k + kw * (wo - 1) + 1, kw))
               for i in range(kt) for j in range(kh) for k in range(kw)]

    out = x.data[windows[0]].copy()
    for win in windows[1:]:
        np.maximum(out, x.data[win], out=out)
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


def channel_scale(x: Tensor, gate: Tensor) -> Tensor:
    """Multiply (B, C, ...) by a per-sample per-channel gate (B, C)."""
    if gate.ndim != 2 or x.shape[:2] != gate.shape:
        raise ShapeError(f"channel_scale: x {x.shape} vs gate {gate.shape}")
    gshape = gate.shape + (1,) * (x.ndim - 2)
    xd, gd = x.data, gate.data.reshape(gshape)
    out = xd * gd

    def bwd(g):
        gx = g * gd
        gg = (g * xd).sum(axis=tuple(range(2, xd.ndim)))
        return [gx, gg]

    return apply_op("channel_scale", out, [x, gate], bwd)
