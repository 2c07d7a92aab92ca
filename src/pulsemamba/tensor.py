"""Dense float64 tensors with tape-based reverse-mode autodiff.

The operation set is exactly what the video network's forward pass needs:
3D/1D convolutions, pooling, affine maps, norms, the usual pointwise
nonlinearities and a handful of shape movers. Computation is float64
throughout; float32 appears only at checkpoint/dataset boundaries.

Every recorded op appends one node to a module-level tape. ``backward``
replays the tape in exact reverse execution order over the subgraph that
reaches the loss; replaying the same node twice without a fresh forward is
a ``GraphError``. Nodes refer to their outputs weakly, so a graph holds no
reference cycle and is freed by reference counting alone. Binary
elementwise ops accept equal shapes or a scalar operand only; anything
fancier (bias adds, channel gates, norm affines) is a dedicated op with
its own backward rule.
"""

from __future__ import annotations

import weakref
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor", "tensor", "zeros", "ones", "no_grad", "is_grad_enabled",
    "clear_tape", "tape_size", "backward",
    "add", "sub", "mul", "div", "scale", "neg",
    "exp", "sqrt", "relu", "silu", "sigmoid", "softplus", "tanh", "flip",
    "elementwise", "linear", "conv3d", "conv1d_depthwise_causal",
    "conv_transpose1d", "maxpool3d", "batch_norm", "layer_norm",
    "reduce_sum", "reduce_mean", "reduce_std", "reduce_max",
    "reshape", "transpose", "concat", "upsample_nearest_time",
    "narrow", "channel_scale",
]

_grad_enabled = True
_TAPE: list["_Node"] = []

# Cache-resident working set of one block of float64 work: one state
# block of the SSM scan, all block temporaries of SiLU and of the
# depthwise causal conv.
BLOCK_BYTES = 1 << 20


class no_grad:
    """Context manager that suspends tape recording."""

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


def clear_tape() -> None:
    """Drop all recorded nodes (call between training steps)."""
    _TAPE.clear()


def tape_size() -> int:
    return len(_TAPE)


class _Node:
    """One executed op: its input tensors, a weak reference to its output
    (the output refers to the node, so a strong one would be a cycle) and
    its backward rule."""

    __slots__ = ("name", "out", "parents", "bwd", "used")

    def __init__(self, name, out, parents, bwd):
        self.name = name
        self.out = weakref.ref(out)
        self.parents = parents
        self.bwd = bwd
        self.used = False


class Tensor:
    """A float64 array with optional gradient tracking.

    ``data`` is row-major float64. ``grad`` is lazily allocated by the
    reverse pass and always matches ``data``'s shape.
    """

    __slots__ = ("data", "requires_grad", "grad", "_node", "__weakref__")

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

    def numpy(self) -> np.ndarray:
        return self.data

    def zero_grad(self) -> None:
        self.grad = None

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64)
        else:
            self.grad += g

    def backward(self) -> None:
        backward(self)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # operator sugar; scalars are accepted per the scalar-broadcast rule
    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __neg__(self):
        return neg(self)


def tensor(data, requires_grad: bool = False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(shape, dtype=np.float64), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(shape, dtype=np.float64), requires_grad=requires_grad)


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def apply_op(name: str, out_data, parents: Sequence[Tensor],
             bwd: Callable) -> Tensor:
    """Wrap ``out_data`` in a Tensor and record the op on the tape.

    ``bwd(gout) -> list`` maps the output gradient to one gradient (or
    None) per parent. Recording is skipped when grads are globally off or
    no parent requires them. Used by this module and by the fused scan op.
    """
    out = Tensor(out_data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._node = _Node(name, out, list(parents), bwd)
        _TAPE.append(out._node)
    return out


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss to every requires_grad leaf.

    Walks the tape strictly in reverse execution order, restricted to the
    nodes that can reach ``loss``. Nodes are single-use: a second backward
    through the same forward is a GraphError. When the walk ends, every
    node it ran drops its inputs and backward rule: the graph's
    activations are then freed as soon as the caller holds none of them,
    without waiting for ``clear_tape`` or the cyclic garbage collector.
    """
    if loss.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.shape}")
    root = loss._node
    if root is None:
        raise GraphError("loss is not connected to the tape (no recorded forward)")
    if root.used:
        raise GraphError("backward already ran for this forward pass")

    reachable: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in reachable:
            continue
        reachable.add(id(node))
        for p in node.parents:
            if p._node is not None and id(p._node) not in reachable:
                stack.append(p._node)

    loss._accumulate(np.ones_like(loss.data))
    ran = []
    try:
        for node in reversed(_TAPE):
            if id(node) not in reachable:
                continue
            if node.used:
                raise GraphError(f"tape node '{node.name}' already consumed by a previous backward")
            node.used = True
            ran.append(node)
            # alive: a reachable node's output is the loss or an input of
            # a later reachable node, whose parents are still held
            out = node.out()
            gins = node.bwd(out.grad if out.grad is not None
                            else np.zeros_like(out.data))
            for p, g in zip(node.parents, gins):
                if g is None:
                    continue
                if p.requires_grad or p._node is not None:
                    p._accumulate(g)
            # intermediate grads are not needed once propagated
            if out is not loss:
                out.grad = None
    finally:
        # only after the walk: an input released inside it could be
        # dropped before its own node runs, taking its pending gradient
        for node in ran:
            node.bwd = None
            node.parents = ()


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
    return apply_op("add", a.data + b.data, [a, b],
                    lambda g: [_reduce_to(g, a.shape), _reduce_to(g, b.shape)])


def sub(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "sub")
    return apply_op("sub", a.data - b.data, [a, b],
                    lambda g: [_reduce_to(g, a.shape), _reduce_to(-g, b.shape)])


def mul(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "mul")
    return apply_op("mul", a.data * b.data, [a, b],
                    lambda g: [_reduce_to(g * b.data, a.shape),
                               _reduce_to(g * a.data, b.shape)])


def div(a: Tensor, b: Tensor) -> Tensor:
    _binary_shapes(a, b, "div")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = a.data / b.data
    _check_finite(out, "div")
    return apply_op("div", out, [a, b],
                    lambda g: [_reduce_to(g / b.data, a.shape),
                               _reduce_to(-g * a.data / (b.data * b.data), b.shape)])


def scale(x: Tensor, c: float) -> Tensor:
    c = float(c)
    return apply_op("scale", x.data * c, [x], lambda g: [g * c])


def neg(x: Tensor) -> Tensor:
    return scale(x, -1.0)


# ---------------------------------------------------------------------------
# unary elementwise

def exp(x: Tensor) -> Tensor:
    out = _check_finite(np.exp(x.data), "exp")
    return apply_op("exp", out, [x], lambda g: [g * out])


def sqrt(x: Tensor) -> Tensor:
    out = _check_finite(np.sqrt(x.data), "sqrt")
    return apply_op("sqrt", out, [x], lambda g: [g * (0.5 / out)])


def relu(x: Tensor) -> Tensor:
    return apply_op("relu", np.maximum(x.data, 0.0), [x],
                    lambda g: [g * (x.data > 0.0)])


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid_np(x.data)
    return apply_op("sigmoid", s, [x], lambda g: [g * s * (1.0 - s)])


def silu(x: Tensor) -> Tensor:
    # cache-sized blocks keep the sigmoid's ~8 temporaries out of memory;
    # the backward recomputes the sigmoid
    xf = np.ascontiguousarray(x.data).reshape(-1)
    out = np.empty(x.shape)
    of = out.reshape(-1)
    step = BLOCK_BYTES // (8 * 8)
    for i in range(0, xf.size, step):
        blk = xf[i:i + step]
        np.multiply(blk, _sigmoid_np(blk), out=of[i:i + step])

    def bwd(g):
        s = _sigmoid_np(x.data)
        return [g * (s * (1.0 + x.data * (1.0 - s)))]

    return apply_op("silu", out, [x], bwd)


def softplus(x: Tensor) -> Tensor:
    out = np.logaddexp(0.0, x.data)
    return apply_op("softplus", out, [x], lambda g: [g * _sigmoid_np(x.data)])


def tanh(x: Tensor) -> Tensor:
    t = np.tanh(x.data)
    return apply_op("tanh", t, [x], lambda g: [g * (1.0 - t * t)])


def flip(x: Tensor, axis: int) -> Tensor:
    return apply_op("flip", np.flip(x.data, axis=axis).copy(), [x],
                    lambda g: [np.flip(g, axis=axis)])


def _sigmoid_np(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; 1/(1+e) for x >= 0, e/(1+e) below
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


_UNARY = {"exp": exp, "relu": relu, "silu": silu, "sigmoid": sigmoid,
          "softplus": softplus, "tanh": tanh, "sqrt": sqrt}
_BINARY = {"add": add, "sub": sub, "mul": mul, "div": div}


def elementwise(op_kind: str, x: Tensor, y: Optional[Tensor] = None,
                axis: Optional[int] = None, factor: Optional[float] = None) -> Tensor:
    """Dispatch the pointwise op family by name.

    ``flip`` takes ``axis``; ``scale`` takes ``factor``; binary kinds take
    ``y`` (equal shape or scalar).
    """
    if op_kind in _UNARY:
        return _UNARY[op_kind](x)
    if op_kind in _BINARY:
        if y is None:
            raise ShapeError(f"{op_kind} needs a second operand")
        return _BINARY[op_kind](x, _wrap(y))
    if op_kind == "flip":
        if axis is None:
            raise ShapeError("flip needs an axis")
        return flip(x, axis)
    if op_kind == "scale":
        if factor is None:
            raise ShapeError("scale needs a factor")
        return scale(x, factor)
    raise ShapeError(f"unknown elementwise kind '{op_kind}'")


# ---------------------------------------------------------------------------
# affine / convolution

def linear(x: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map over the last axis: (..., Din) x (Dout, Din) -> (..., Dout)."""
    din = x.shape[-1]
    if w.ndim != 2 or w.shape[1] != din:
        raise ShapeError(f"linear: x last extent {din} vs weight {w.shape}")
    dout = w.shape[0]
    # one 2-D GEMM over all leading axes, not one per leading index
    x2 = x.data.reshape(-1, din)
    out = (x2 @ w.data.T).reshape(x.shape[:-1] + (dout,))
    parents = [x, w]
    if bias is not None:
        if bias.shape != (dout,):
            raise ShapeError(f"linear: bias {bias.shape} vs Dout {dout}")
        out += bias.data
        parents.append(bias)

    def bwd(g):
        g2 = g.reshape(-1, dout)
        gx = (g2 @ w.data).reshape(x.shape)
        gw = g2.T @ x2
        if bias is None:
            return [gx, gw]
        return [gx, gw, g2.sum(axis=0)]

    return apply_op("linear", out, parents, bwd)


def _conv_out_len(size: int, k: int, stride: int, pad: int) -> int:
    n = (size + 2 * pad - k) // stride + 1
    if n < 1:
        raise ShapeError(f"kernel {k} with pad {pad} does not fit extent {size}")
    return n


def conv3d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
           stride=(1, 1, 1), padding=(0, 0, 0)) -> Tensor:
    """Zero-padded 3D cross-correlation.

    x: (B, Cin, T, H, W), w: (Cout, Cin, kt, kh, kw). Output extents follow
    floor((S + 2p - k) / stride) + 1 per axis. Columns are gathered one
    output-t slice at a time (never a full im2col buffer) and contracted
    with a single GEMM per slice; backward regathers columns instead of
    caching them.
    """
    if x.ndim != 5 or w.ndim != 5:
        raise ShapeError("conv3d expects 5-D input and weight")
    if x.shape[1] != w.shape[1]:
        raise ShapeError(f"conv3d: Cin mismatch {x.shape[1]} vs {w.shape[1]}")
    st, sh, sw = stride
    pt, ph, pw = padding
    if min(st, sh, sw) < 1:
        raise ShapeError("conv3d: stride components must be >= 1")
    b, cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    to = _conv_out_len(t, kt, st, pt)
    ho = _conv_out_len(h, kh, sh, ph)
    wo = _conv_out_len(wd, kw, sw, pw)
    pointwise = (kt, kh, kw) == (1, 1, 1) and (st, sh, sw) == (1, 1, 1) \
        and (pt, ph, pw) == (0, 0, 0)

    if pointwise:
        xp = x.data
        w2 = w.data.reshape(cout, cin)
        out = np.matmul(w2, x.data.reshape(b, cin, -1)).reshape(b, cout, t, h, wd)
    else:
        xp = np.pad(x.data, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
        w2 = w.data.reshape(cout, cin * kt * kh * kw)
        out = np.empty((b, cout, to, ho, wo), dtype=np.float64)
        cols = np.empty((b, cin, kt * kh * kw, ho * wo), dtype=np.float64)
        for ot in range(to):
            _gather_cols(xp, cols, ot * st, kt, kh, kw, sh, sw, ho, wo)
            np.matmul(w2, cols.reshape(b, -1, ho * wo),
                      out=out[:, :, ot].reshape(b, cout, ho * wo))

    parents = [x, w]
    if bias is not None:
        if bias.shape != (cout,):
            raise ShapeError("conv3d: bias must be (Cout,)")
        out += bias.data[None, :, None, None, None]
        parents.append(bias)

    def bwd(g):
        if pointwise:
            g2 = g.reshape(b, cout, -1)
            x2 = x.data.reshape(b, cin, -1)
            gw = np.einsum("bop,bcp->oc", g2, x2, optimize=True).reshape(w.shape)
            gx = np.matmul(w2.T, g2).reshape(x.shape)
        else:
            gxp = np.zeros_like(xp)
            gw2 = np.zeros((cout, cin * kt * kh * kw), dtype=np.float64)
            cols_b = np.empty_like(cols)
            for ot in range(to):
                _gather_cols(xp, cols_b, ot * st, kt, kh, kw, sh, sw, ho, wo)
                g_slice = g[:, :, ot].reshape(b, cout, ho * wo)
                for bi in range(b):
                    gw2 += g_slice[bi] @ cols_b[bi].reshape(-1, ho * wo).T
                gcols = np.matmul(w2.T, g_slice).reshape(b, cin, kt * kh * kw, ho, wo)
                _scatter_cols(gxp, gcols, ot * st, kt, kh, kw, sh, sw, ho, wo)
            gw = gw2.reshape(w.shape)
            gx = gxp[:, :, pt:pt + t, ph:ph + h, pw:pw + wd]
        if bias is None:
            return [gx, gw]
        return [gx, gw, g.sum(axis=(0, 2, 3, 4))]

    return apply_op("conv3d", out, parents, bwd)


def _gather_cols(xp, cols, it0, kt, kh, kw, sh, sw, ho, wo):
    """Fill cols (B, Cin, kt*kh*kw, ho*wo) from one output-t slice of xp."""
    idx = 0
    for i in range(kt):
        plane = xp[:, :, it0 + i]
        for j in range(kh):
            for k in range(kw):
                cols[:, :, idx, :] = plane[:, :, j:j + sh * (ho - 1) + 1:sh,
                                           k:k + sw * (wo - 1) + 1:sw].reshape(
                    xp.shape[0], xp.shape[1], -1)
                idx += 1


def _scatter_cols(gxp, gcols, it0, kt, kh, kw, sh, sw, ho, wo):
    """Accumulate column gradients back into the padded input gradient."""
    idx = 0
    for i in range(kt):
        for j in range(kh):
            for k in range(kw):
                gxp[:, :, it0 + i, j:j + sh * (ho - 1) + 1:sh,
                    k:k + sw * (wo - 1) + 1:sw] += gcols[:, :, idx]
                idx += 1


def conv1d_depthwise_causal(x: Tensor, w: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Per-channel causal 1D conv: x (B, L, D), w (D, K), left pad K-1.

    y[b, l, d] = sum_k w[d, k] * x[b, l + k - (K-1), d], zeros before t=0,
    so sequences shorter than K are handled by the padding, never an error.
    """
    if x.ndim != 3 or w.ndim != 2 or x.shape[2] != w.shape[0]:
        raise ShapeError(f"depthwise conv1d: x {x.shape} vs w {w.shape}")
    b, L, d = x.shape
    K = w.shape[1]
    parents = [x, w]
    if bias is not None:
        if bias.shape != (d,):
            raise ShapeError("depthwise conv1d: bias must be (D,)")
        parents.append(bias)
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
            np.multiply(x.data[:, lo - (K - 1 - k):r1 - (K - 1 - k)],
                        w.data[:, k], out=tap[:, :n])
            blk[:, lo - r0:] += tap[:, :n]
        if bias is not None:
            blk += bias.data

    def bwd(g):
        xp = np.pad(x.data, ((0, 0), (K - 1, 0), (0, 0)))
        gxp = np.zeros_like(xp)
        gw = np.zeros_like(w.data)
        for k in range(K):
            gxp[:, k:k + L, :] += g * w.data[:, k]
            gw[:, k] = np.einsum("bld,bld->d", g, xp[:, k:k + L, :])
        gx = gxp[:, K - 1:, :]
        if bias is None:
            return [gx, gw]
        return [gx, gw, g.sum(axis=(0, 1))]

    return apply_op("conv1d_dw", out, parents, bwd)


def conv_transpose1d(x: Tensor, w: Tensor, bias: Optional[Tensor] = None,
                     stride: int = 2, padding: int = 1) -> Tensor:
    """Temporal transposed conv: x (B, Cin, T), w (Cin, Cout, K).

    Output length (T-1)*stride - 2*padding + K; with K=4, s=2, p=1 this is
    exactly 2T.
    """
    if x.ndim != 3 or w.ndim != 3 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"conv_transpose1d: x {x.shape} vs w {w.shape}")
    b, cin, t = x.shape
    _, cout, K = w.shape
    t_full = (t - 1) * stride + K
    t_out = t_full - 2 * padding
    if t_out < 1:
        raise ShapeError("conv_transpose1d: output length would be < 1")
    full = np.zeros((b, cout, t_full), dtype=np.float64)
    for k in range(K):
        full[:, :, k:k + stride * (t - 1) + 1:stride] += np.einsum(
            "io,bit->bot", w.data[:, :, k], x.data, optimize=True)
    out = full[:, :, padding:padding + t_out]
    parents = [x, w]
    if bias is not None:
        if bias.shape != (cout,):
            raise ShapeError("conv_transpose1d: bias must be (Cout,)")
        out = out + bias.data[None, :, None]
        parents.append(bias)

    def bwd(g):
        gfull = np.zeros((b, cout, t_full), dtype=np.float64)
        gfull[:, :, padding:padding + t_out] = g
        gx = np.zeros_like(x.data)
        gw = np.zeros_like(w.data)
        for k in range(K):
            gsl = gfull[:, :, k:k + stride * (t - 1) + 1:stride]
            gx += np.einsum("io,bot->bit", w.data[:, :, k], gsl, optimize=True)
            gw[:, :, k] = np.einsum("bit,bot->io", x.data, gsl, optimize=True)
        if bias is None:
            return [gx, gw]
        return [gx, gw, g.sum(axis=(0, 2))]

    return apply_op("conv_transpose1d", out, parents, bwd)


def maxpool3d(x: Tensor, kernel=(1, 2, 2), stride=None) -> Tensor:
    """Max pooling over (T, H, W) windows; extents follow the conv rule.

    The output is folded with ``np.maximum`` over the window offsets, so a
    NaN anywhere in a window makes that output NaN (and its gradient 0).
    Ties route gradient to the earliest window offset (fixed scan order),
    keeping backward deterministic.
    """
    if x.ndim != 5:
        raise ShapeError("maxpool3d expects (B, C, T, H, W)")
    if stride is None:
        stride = kernel
    kt, kh, kw = kernel
    st, sh, sw = stride
    b, c, t, h, wd = x.shape
    to = _conv_out_len(t, kt, st, 0)
    ho = _conv_out_len(h, kh, sh, 0)
    wo = _conv_out_len(wd, kw, sw, 0)
    # one strided view of x per window offset, in scan order
    windows = [(slice(None), slice(None), slice(i, i + st * (to - 1) + 1, st),
                slice(j, j + sh * (ho - 1) + 1, sh),
                slice(k, k + sw * (wo - 1) + 1, sw))
               for i in range(kt) for j in range(kh) for k in range(kw)]

    out = x.data[windows[0]].copy()
    for win in windows[1:]:
        np.maximum(out, x.data[win], out=out)

    def bwd(g):
        gx = np.zeros_like(x.data)
        unrouted = np.ones(out.shape, dtype=bool)
        for win in windows:
            hit = np.equal(x.data[win], out)
            hit &= unrouted
            gx[win] += np.where(hit, g, 0.0)
            unrouted &= ~hit
        return [gx]

    return apply_op("maxpool3d", out, [x], bwd)


# ---------------------------------------------------------------------------
# normalization

def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor,
               running_mean: np.ndarray, running_var: np.ndarray,
               training: bool, momentum: float = 0.1, eps: float = 1e-5) -> Tensor:
    """Per-channel batch norm over axis 1 of (B, C, ...).

    Training mode normalizes by batch statistics (population variance) and
    updates the running buffers in place; eval mode uses the buffers. The
    output is the only full-size array the forward makes; the backward
    recomputes the normalized input from ``x`` and (C,) copies of the
    statistics, so later changes to the running buffers do not reach it.
    """
    if x.ndim < 2:
        raise ShapeError("batch_norm expects a channel axis at dim 1")
    c = x.shape[1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError("batch_norm: affine params must be (C,)")
    axes = (0,) + tuple(range(2, x.ndim))
    bshape = (1, c) + (1,) * (x.ndim - 2)

    if training:
        mean = x.data.mean(axis=axes)
        var = x.data.var(axis=axes)
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean
        running_var *= 1.0 - momentum
        running_var += momentum * var
    else:
        mean = running_mean.copy()
        var = running_var

    inv = 1.0 / np.sqrt(var + eps)
    out = np.subtract(x.data, mean.reshape(bshape))
    out *= inv.reshape(bshape)
    out *= gamma.data.reshape(bshape)
    out += beta.data.reshape(bshape)

    def bwd(g):
        xhat = np.subtract(x.data, mean.reshape(bshape))
        xhat *= inv.reshape(bshape)
        gg = (g * xhat).sum(axis=axes)
        gb = g.sum(axis=axes)
        gscaled = g * gamma.data.reshape(bshape)
        if training:
            m1 = gscaled.mean(axis=axes).reshape(bshape)
            m2 = (gscaled * xhat).mean(axis=axes).reshape(bshape)
            gx = inv.reshape(bshape) * (gscaled - m1 - xhat * m2)
        else:
            gx = gscaled * inv.reshape(bshape)
        return [gx, gg, gb]

    return apply_op("batch_norm", out, [x, gamma, beta], bwd)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then affine."""
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError("layer_norm: affine params must match the last axis")
    mean = x.data.mean(axis=-1, keepdims=True)
    var = x.data.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mean) * inv
    out = gamma.data * xhat + beta.data

    def bwd(g):
        gg = (g * xhat).reshape(-1, d).sum(axis=0)
        gb = g.reshape(-1, d).sum(axis=0)
        gs = g * gamma.data
        m1 = gs.mean(axis=-1, keepdims=True)
        m2 = (gs * xhat).mean(axis=-1, keepdims=True)
        gx = inv * (gs - m1 - xhat * m2)
        return [gx, gg, gb]

    return apply_op("layer_norm", out, [x, gamma, beta], bwd)


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

    def bwd(g):
        ge = np.expand_dims(g, axes) if g.ndim else g
        return [np.broadcast_to(ge, x.shape).copy()]

    return apply_op("sum", out, [x], bwd)


def reduce_mean(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    n = int(np.prod([x.shape[a] for a in axes]))
    out = x.data.mean(axis=axes)

    def bwd(g):
        ge = np.expand_dims(g, axes) if g.ndim else g
        return [np.broadcast_to(ge, x.shape) / n]

    return apply_op("mean", out, [x], bwd)


def reduce_std(x: Tensor, axes=None, eps: float = 0.0) -> Tensor:
    """Population standard deviation over ``axes`` with an eps guard.

    eps is added under the square root. A single-element reduction with
    eps=0 has no usable gradient and raises NumericError.
    """
    axes = _norm_axes(axes, x.ndim)
    n = int(np.prod([x.shape[a] for a in axes]))
    if n < 2 and eps == 0.0:
        raise NumericError("std over a single element with eps=0 is degenerate")
    mean = x.data.mean(axis=axes, keepdims=True)
    centered = x.data - mean
    var = (centered * centered).mean(axis=axes)
    out = np.sqrt(var + eps)

    def bwd(g):
        ge = np.expand_dims(g, axes)
        se = np.expand_dims(out, axes)
        return [ge * centered / (n * np.maximum(se, 1e-300))]

    return apply_op("std", out, [x], bwd)


def reduce_max(x: Tensor, axes=None) -> Tensor:
    axes = _norm_axes(axes, x.ndim)
    out = x.data.max(axis=axes)

    def bwd(g):
        oe = np.expand_dims(out, axes)
        mask = x.data == oe
        counts = mask.sum(axis=axes, keepdims=True)
        ge = np.expand_dims(g, axes)
        return [np.where(mask, ge / counts, 0.0)]

    return apply_op("max", out, [x], bwd)


# ---------------------------------------------------------------------------
# shape movers

def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    return apply_op("reshape", x.data.reshape(shape), [x],
                    lambda g: [g.reshape(x.shape)])


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
    """Contiguous slice of one axis."""
    axis = axis % x.ndim
    if start < 0 or start + length > x.shape[axis]:
        raise ShapeError(f"narrow: [{start}, {start + length}) outside extent {x.shape[axis]}")
    sl = [slice(None)] * x.ndim
    sl[axis] = slice(start, start + length)
    sl = tuple(sl)

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[sl] = g
        return [gx]

    return apply_op("narrow", x.data[sl].copy(), [x], bwd)


def channel_scale(x: Tensor, gate: Tensor) -> Tensor:
    """Multiply (B, C, ...) by a per-sample per-channel gate (B, C)."""
    if gate.ndim != 2 or x.shape[:2] != gate.shape:
        raise ShapeError(f"channel_scale: x {x.shape} vs gate {gate.shape}")
    gshape = gate.shape + (1,) * (x.ndim - 2)
    out = x.data * gate.data.reshape(gshape)

    def bwd(g):
        gx = g * gate.data.reshape(gshape)
        gg = (g * x.data).sum(axis=tuple(range(2, x.ndim)))
        return [gx, gg]

    return apply_op("channel_scale", out, [x, gate], bwd)
