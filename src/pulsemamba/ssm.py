"""State-space scan kernels and the bidirectional Mamba layer.

Covers zero-order-hold discretization, the sequential (recurrent) and
global-convolution evaluations of a time-invariant diagonal SSM, the
input-dependent selective scan with a hand-written backward rule, and the
full Mamba layer (shared in/out projections and depthwise Conv1d, separate
per-direction SSM parameter sets).

Conventions: A is diagonal per (channel d, state n) and strictly negative,
stored as log(-a). The discrete transition uses the full ZOH form
    Abar = exp(delta * a),   Bbar = (expm1(delta * a) / a) * b,
where expm1 keeps Bbar accurate down to delta * a -> 0 without a series
branch. Abar is taken as 1 + expm1(delta * a), from the same expm1: it
is within 1.2e-16 of exp(delta * a), and each (token, n, d) value costs
one transcendental.

The selective scan works through time-major (chunk, B, N, D) blocks,
the chunk sized from the operand shape so one block stays about 1 MiB
(cache resident). It is the Mamba layer's whole inner path as one op:
from the layer's x it forms each chunk's causal depthwise conv (reading
the K - 1 tokens before the chunk), SiLU, the B/C/delta-down projections
and the step delta = softplus(dt_low @ w_dt_up^T + dt_bias) itself, for
one direction or for both, the backward direction walking reversed views
of x and adding into the same output. So no full-size conv output, SiLU
output, projection or delta exists, and a recorded op keeps only x and
the states at chunk starts. One chunk routine makes a chunk's inputs and
one its states, for the forward and for the backward's rebuild, and one
recurrence kernel runs in both time directions. The state is held
N-major, so every per-token broadcast (delta, u, B) and the readout
y_t = C_t h_t run along the contiguous channel axis D; ``a`` keeps its
(D, N) shape at the API.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError
from .module import Module
from .tensor import BLOCK_BYTES, Tensor

__all__ = [
    "discretize_zoh",
    "scan_recurrent", "scan_convolutional", "SSMParams",
    "selective_scan_op", "selective_scan_reference",
    "MambaLayer",
]

DT_MIN, DT_MAX = 1e-3, 1e-1  # range of the initial step softplus(dt_bias)
CONV_KERNEL = 4  # width of the Mamba layer's causal depthwise conv
# one scan direction's parameters, in ``selective_scan_op``'s order
SCAN_PARAMS = ("a_log", "w_b", "w_c", "w_dt_down", "w_dt_up", "dt_bias",
               "b_bias", "c_bias")


def _zoh(a: np.ndarray, delta: np.ndarray, abar=None, growth=None):
    """ZOH factors (abar, growth) with growth = expm1(delta*a) / a and
    abar = 1 + expm1(delta*a): one transcendental per value.

    ``a`` and ``delta`` broadcast against each other, in either layout:
    (D, N) with (..., D, 1), or (N, D) with (..., 1, D); Bbar is
    growth * b. ``a`` is never 0 (a = -exp(a_log)).
    ``abar``/``growth`` are optional output buffers of the result shape.
    The product delta*a is an einsum: NumPy's broadcasting multiply
    buffers its broadcast operands, einsum does not, and is faster.
    """
    growth = np.einsum("...,...->...", delta, a, out=growth)
    np.expm1(growth, out=growth)
    abar = np.add(growth, 1.0, out=abar)
    growth *= 1.0 / a
    return abar, growth


def discretize_zoh(a: np.ndarray, b: np.ndarray, delta):
    """ZOH discretization of a diagonal continuous-time SSM.

    a: (D, N) strictly nonzero (negative for stability); b: (N,);
    delta: positive scalar, or (L, D) per token/channel.

    Returns (abar, bbar): (D, N) for a scalar delta, (L, D, N) per token.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    delta = np.asarray(delta, dtype=np.float64)
    if np.any(delta <= 0.0):
        raise NumericError("discretize_zoh requires delta > 0")
    if a.ndim != 2 or b.shape != a.shape[1:] or delta.ndim not in (0, 2):
        raise ShapeError(f"discretize_zoh: a {a.shape}, b {b.shape}, "
                         f"delta {delta.shape}")
    abar, growth = _zoh(a, delta[..., None])
    return abar, growth * b


def _timed(a: np.ndarray, reverse: bool) -> np.ndarray:
    """A (B, L, ...) array in one scan direction's time order: a view."""
    return a[:, ::-1] if reverse else a


def _chunk_len(bsz: int, d: int, n: int) -> int:
    return max(1, BLOCK_BYTES // (8 * bsz * d * n))


def _scan_core(abar, h, prev) -> None:
    """In-place diagonal recurrence h[t] = abar[t] * h[t-1] + h[t].

    abar, h: time-major (c, B, N, D) blocks, h holding the drive on entry
    and the states on return; prev is the state before h[0]. The
    selective backward runs it on reversed views, in reverse time.
    """
    tmp = np.empty_like(prev)
    for at, ht in zip(abar, h):
        np.multiply(at, prev, out=tmp)
        ht += tmp
        prev = ht


def _readout(c, h, y) -> None:
    """y[t, b, d] = sum_n c[t, b, n(, d)] * h[t, b, n, d] for one chunk.

    A per-token C (c, B, N) is one matmul per token; a per-channel C
    (c, B, N, D) (only time-invariant ``scan_recurrent`` has one) is
    summed over N.
    """
    if c.ndim == 3:
        np.matmul(c[:, :, None, :], h, out=y[:, :, None, :])
    else:
        np.einsum("tbnd,tbnd->tbd", c, h, out=y)


def _times(rows, w):
    """rows @ w^T for a 2-D (m, k) block of rows. NumPy takes a 1-row
    product down its gemv path, which rounds differently from the GEMM a
    longer block takes, so a lone row is multiplied as two."""
    if len(rows) == 1:
        return (np.concatenate([rows, rows]) @ w.T)[:1]
    return rows @ w.T


def _chunk_inputs(xv, s, e, conv, proj, n, w_up, dt_bias):
    """The scan inputs of the tokens [s, e) of ``xv``, a (B, L, D) view of
    x in one direction's time order: the causal depthwise conv, reading
    the K - 1 tokens before s from ``xv`` itself (they may span several
    chunks), SiLU, one GEMM for the B, C and delta-down projections
    (``proj``: their stacked weights and the optional B and C biases),
    then raw = low @ w_up^T + dt_bias and delta = ``T.softplus(raw)``.

    Returns time-major (e - s, B, .) blocks (sig, u, b, c, low, delta),
    sig being the sigmoid of the conv output. The forward and the
    backward's rebuild both run it, so the backward sees the forward's
    values bit for bit.
    """
    w_proj, b_bias, c_bias = proj
    lo = max(0, s - (conv[0].shape[1] - 1))
    v = T.conv1d_depthwise_causal(Tensor(xv[:, lo:e]), *conv).data[:, s - lo:]
    v = np.ascontiguousarray(np.swapaxes(v, 0, 1))
    sig = T._sigmoid_np(v)
    u = np.multiply(v, sig, out=v)  # T.silu's formula, over the conv output
    d = u.shape[2]
    p = _times(u.reshape(-1, d), w_proj).reshape(e - s, -1, w_proj.shape[0])
    b, c, low = p[..., :n], p[..., n:2 * n], p[..., 2 * n:]
    if b_bias is not None:
        b += b_bias
    if c_bias is not None:
        c += c_bias
    low = low.reshape(-1, low.shape[2])
    raw = _times(low, w_up).reshape(u.shape)
    raw += dt_bias
    return sig, u, b, c, low, T.softplus(Tensor(raw)).data


def _direction_arrays(ops):
    """One direction's ``selective_scan_op`` operands (``SCAN_PARAMS``) as
    the chunk routines take them: (a N-major, (the stacked B, C and
    delta-down weights, b_bias, c_bias), w_dt_up, dt_bias)."""
    a_log, w_b, w_c, w_dt_down, w_dt_up, dt_bias, b_bias, c_bias = (
        None if t is None else t.data for t in ops)
    av = np.ascontiguousarray(-T._check_finite(np.exp(a_log), "exp(a_log)").T)
    return (av, (np.concatenate([w_b, w_c, w_dt_down]), b_bias, c_bias),
            w_dt_up, dt_bias)


def _chunk_states(av, dt, bt, ut, h, buf):
    """States of one chunk's tokens from h[0], given their delta, b and u
    blocks: the chunk's ZOH into buf[0] and buf[1], the drive
    growth * b * u into h[1:], then the recurrence. The forward and the
    backward's rebuild both run it, so the backward sees the forward's
    states bit for bit. Returns (abar, growth)."""
    abar, growth = _zoh(av, dt[:, :, None, :], *buf[:2, :len(h) - 1])
    np.multiply(growth, bt[:, :, :, None], out=h[1:])
    h[1:] *= ut[:, :, None, :]
    _scan_core(abar, h[1:], h[0])
    return abar, growth


def _check_state(y: np.ndarray, offset: int):
    if not np.isfinite(y).all():
        finite_per_step = np.isfinite(y).reshape(y.shape[0], -1).all(axis=1)
        bad_t = int(np.argmin(finite_per_step))
        raise NumericError(f"non-finite scan state at step {offset + bad_t}")


def scan_recurrent(abar, bbar, c, x):
    """Sequential evaluation h(t) = Abar h(t-1) + Bbar x(t), y(t) = C h(t).

    Time-invariant mode: abar/bbar (D, N), c (D, N). Per-token
    mode: abar/bbar (L, D, N), c (L, N). x is (L, D); h starts at zero and
    y(t) depends only on x(1..t). Returns y (L, D). An oracle: it runs
    the selective scan's kernels on the whole sequence's states at once.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"scan_recurrent: x must be (L, D), got {x.shape}")
    L, d = x.shape
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    n = abar.shape[-1]

    # N-major views: (..., D, N) -> (..., N, D)
    if abar.ndim == 2:
        a_seq = np.broadcast_to(abar.T, (L, 1, n, d))
        b_seq = np.broadcast_to(bbar.T, (L, 1, n, d))
    elif abar.ndim == 3:
        a_seq = np.swapaxes(abar, 1, 2)[:, None]
        b_seq = np.swapaxes(bbar, 1, 2)[:, None]
    else:
        raise ShapeError(f"scan_recurrent: abar shape {abar.shape}")
    if c.shape == (d, n):
        c_seq = np.broadcast_to(c.T, (L, 1, n, d))
    elif c.ndim == 2 and c.shape[0] == L:
        c_seq = c[:, None]
    else:
        raise ShapeError(f"scan_recurrent: c shape {c.shape}")

    h, y = np.zeros((L + 1, 1, n, d)), np.empty((L, 1, d))
    np.multiply(b_seq, x[:, None, None, :], out=h[1:])
    _scan_core(a_seq, h[1:], h[0])
    _readout(c_seq, h[1:], y)
    _check_state(y, 0)
    return y[:, 0]


def scan_convolutional(abar, bbar, c, x):
    """Time-invariant scan via the global convolution kernel.

    Kbar[k, d] = sum_n c[d,n] abar[d,n]^k bbar[d,n], c (D, N); y = causal
    conv of x with Kbar per channel. Valid only for LTI parameters;
    per-token shapes are a mode error.
    """
    abar = np.asarray(abar, dtype=np.float64)
    bbar = np.asarray(bbar, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if abar.ndim != 2 or bbar.ndim != 2:
        raise ShapeError("scan_convolutional needs time-invariant (D, N) parameters")
    if x.ndim != 2:
        raise ShapeError(f"scan_convolutional: x must be (L, D), got {x.shape}")
    L, d = x.shape
    n = abar.shape[-1]

    powers = np.empty((L, d, n), dtype=np.float64)
    powers[0] = 1.0
    if L > 1:
        np.cumprod(np.broadcast_to(abar, (L - 1, d, n)), axis=0, out=powers[1:])
    kernel = np.einsum("kdn,dn->kd", powers, c * bbar, optimize=True)
    y = np.empty_like(x)
    for ch in range(d):
        y[:, ch] = np.convolve(x[:, ch], kernel[:, ch])[:L]
    return y


class SSMParams(Module):
    """Parameter bundle of one selective-SSM direction.

    A is stored as a_log with a = -exp(a_log); delta comes from a
    rank-reduced projection plus a per-channel bias pushed through
    softplus. b_bias/c_bias are optional constant shifts used to build
    constant-output (time-invariant) projections in tests; the network
    layer leaves them at None.
    """

    def __init__(self, d_inner: int, state_dim: int, dt_rank: int,
                 rng: np.random.Generator):
        super().__init__()
        # a_{d,n} = -(n+1), standard diagonal-real initialization
        self.a_log = Tensor(np.log(np.tile(np.arange(1.0, state_dim + 1.0),
                                           (d_inner, 1))), requires_grad=True)
        scale = 1.0 / math.sqrt(d_inner)
        self.w_b = Tensor(rng.normal(0.0, scale, (state_dim, d_inner)), requires_grad=True)
        self.w_c = Tensor(rng.normal(0.0, scale, (state_dim, d_inner)), requires_grad=True)
        self.w_dt_down = Tensor(rng.normal(0.0, scale, (dt_rank, d_inner)), requires_grad=True)
        bound = 1.0 / math.sqrt(dt_rank)
        self.w_dt_up = Tensor(rng.uniform(-bound, bound, (d_inner, dt_rank)), requires_grad=True)
        # softplus(dt_bias) log-uniform in [DT_MIN, DT_MAX]
        dt = np.exp(rng.uniform(math.log(DT_MIN), math.log(DT_MAX), d_inner))
        self.dt_bias = Tensor(np.log(np.expm1(dt)), requires_grad=True)
        self.b_bias: Optional[Tensor] = None
        self.c_bias: Optional[Tensor] = None

    def operands(self) -> tuple:
        """The direction's ``selective_scan_op`` operands (``SCAN_PARAMS``)."""
        return tuple(getattr(self, name) for name in SCAN_PARAMS)


def selective_scan_op(x: Tensor, conv: Sequence[Tensor], a_log: Tensor,
                      w_b: Tensor, w_c: Tensor, w_dt_down: Tensor,
                      w_dt_up: Tensor, dt_bias: Tensor,
                      b_bias: Optional[Tensor] = None,
                      c_bias: Optional[Tensor] = None,
                      reverse: Optional[Sequence[Optional[Tensor]]] = None
                      ) -> Tensor:
    """The Mamba layer's inner path, streamed chunk by chunk: causal
    depthwise conv, SiLU, B/C/delta projections, ZOH and the recurrence,
    for one scan direction or two.

    x: (B, L, D); conv: (w (D, K), bias (D,)), shared by the directions;
    then one direction's parameters (``SSMParams.operands()``): a_log
    (D, N), a = -exp(a_log); w_b, w_c (N, D); w_dt_down (r, D); w_dt_up
    (D, r); dt_bias (D,); optional b_bias, c_bias (N,). Per token,
    u = silu(conv(x)), B = w_b u + b_bias, C = w_c u + c_bias and
    delta = softplus(w_dt_up w_dt_down u + dt_bias); then
    h_t = Abar_t h_{t-1} + Bbar_t u_t and y_t = C_t h_t. ``reverse``
    holds a second direction's parameters in the same order: it scans x
    in reverse time, conv included, through reversed views, and adds its
    output into the same y. Each chunk (``_chunk_len`` tokens, derived
    from the shape) is made by ``_chunk_inputs`` and ``_chunk_states``;
    a step <= 0 is a NumericError naming its token.

    A recorded op keeps x and each direction's h at its chunk starts,
    (ceil(L / chunk), B, N, D), and nothing else of full size. The
    backward walks each direction's chunks in reverse, rebuilds each
    chunk's inputs and states, runs the recurrence in reverse time for
    dL/dh, and back through delta, the projections, SiLU and the conv;
    the weight gradients are summed chunk by chunk, and both directions
    write dL/dx into one buffer. Its chunk temporaries fit in 5 chunk
    blocks (the states, abar, growth, dL/dh and b * u) and a few
    (chunk, B, D) arrays.
    """
    dirs = [(a_log, w_b, w_c, w_dt_down, w_dt_up, dt_bias, b_bias, c_bias)]
    if reverse is not None:
        dirs.append(tuple(reverse))
    if x.ndim != 3 or a_log.ndim != 2 or w_dt_down.ndim != 2:
        raise ShapeError(f"selective_scan: x {x.shape}, a_log {a_log.shape}, "
                         f"w_dt_down {w_dt_down.shape}")
    bsz, L, d = x.shape
    n, r = a_log.shape[1], w_dt_down.shape[0]
    conv_w, conv_b = conv
    if conv_w.ndim != 2 or conv_w.shape[0] != d or conv_b.shape != (d,):
        raise ShapeError(f"selective_scan: conv {conv_w.shape} / "
                         f"{conv_b.shape} vs D={d}")
    want = [(d, n), (n, d), (n, d), (r, d), (d, r), (d,), (n,), (n,)]
    for ops in dirs:
        for name, t, shape in zip(SCAN_PARAMS, ops, want):
            if t is not None and t.shape != shape:
                raise ShapeError(f"selective_scan: {name} {t.shape} vs "
                                 f"{shape} for (D={d}, N={n}, r={r})")

    parents = [x, conv_w, conv_b] + [t for ops in dirs for t in ops
                                     if t is not None]
    recording = T._records(parents)
    chunk = _chunk_len(bsz, d, n)
    c = min(chunk, L)
    conv = (Tensor(conv_w.data), Tensor(conv_b.data))  # never recorded
    const = [(i == 1, *_direction_arrays(ops)) for i, ops in enumerate(dirs)]
    h_buf = np.empty((c + 1, bsz, n, d))  # row 0: the state before the chunk
    buf = np.empty((2, c, bsz, n, d))  # abar, growth
    y = np.empty((bsz, L, d), dtype=np.float64)
    yb = np.empty((c, bsz, d))  # a reverse chunk's output, before its add
    starts = []
    for rev, av, proj, w_up, bias in const:
        xv, yt = _timed(x.data, rev), np.swapaxes(_timed(y, rev), 0, 1)
        st = (np.empty((-(-L // chunk), bsz, n, d), dtype=np.float64)
              if recording else None)
        h_buf[0] = 0.0
        for k, s in enumerate(range(0, L, chunk)):
            e = min(s + chunk, L)
            h = h_buf[:e - s + 1]
            if recording:
                st[k] = h[0]
            _, u, b, cm, _, dt = _chunk_inputs(xv, s, e, conv, proj, n,
                                               w_up, bias)
            stepless = (dt <= 0.0).reshape(e - s, -1).any(axis=1)
            if stepless.any():
                raise NumericError("selective_scan requires delta > 0: step <= 0 "
                                   f"at token {s + int(np.argmax(stepless))}")
            _chunk_states(av, dt, b, u, h, buf)
            out = yb[:e - s] if rev else yt[s:e]
            _readout(cm, h[1:], out)
            _check_state(out, s)
            if rev:
                yt[s:e] += out
            h[0] = h[-1]
        starts.append(st)
    if not recording:
        return Tensor(y)
    xd, cw = x.data, conv_w.data
    K = cw.shape[1]

    def bwd(gy):
        gx = np.zeros((bsz, L, d), dtype=np.float64)
        gcw, gcb = np.zeros_like(cw), np.zeros(d)
        grads = [gx, gcw, gcb]
        # h (q once C's gradient has read it), then abar, growth, gh, bu
        h_buf = np.empty((c + 1, bsz, n, d), dtype=np.float64)
        buf = np.empty((4, c, bsz, n, d), dtype=np.float64)
        m = 2 * n + r  # rows of the stacked B, C and delta-down weights
        for (rev, av, proj, w_up, bias), st in zip(const, starts):
            w_proj = proj[0]
            xv, gxv = _timed(xd, rev), _timed(gx, rev)
            gyt = np.swapaxes(_timed(gy, rev), 0, 1)
            ga, gw_proj = np.zeros_like(av), np.zeros_like(w_proj)
            gw_up, g_bias = np.zeros_like(w_up), np.zeros(d)
            g_bc = [(i, np.zeros(n)) for i, t in enumerate(proj[1:])
                    if t is not None]  # the B and C biases given
            carry = np.zeros((bsz, n, d), dtype=np.float64)  # abar_e * dL/dh_e
            for k in reversed(range(len(st))):
                s, e = k * chunk, min(k * chunk + chunk, L)
                h = h_buf[:e - s + 1]  # h_{s-1} .. h_{e-1}, the forward's
                h[0] = st[k]
                sig, us, bs, cs, low, dt = _chunk_inputs(xv, s, e, conv, proj,
                                                         n, w_up, bias)
                abar, growth = _chunk_states(av, dt, bs, us, h, buf)
                gys = gyt[s:e]
                # dL/dh_t = C_t (x) gy_t + abar_{t+1} * dL/dh_{t+1}
                gh = np.einsum("tbn,tbd->tbnd", cs, gys, out=buf[2, :e - s])
                gh[-1] += carry
                _scan_core(abar[:0:-1], gh[-2::-1], gh[-1])
                np.multiply(abar[0], gh[0], out=carry)
                # dL/d(B, C, low), as one (e - s, B, 2N + r) block
                gp = np.empty((e - s, bsz, m))
                np.matmul(h[1:], gys[..., None], out=gp[..., n:2 * n, None])
                # (einsum forms these outer products without NumPy's
                # broadcast buffers)
                bu = np.einsum("tbn,tbd->tbnd", bs, us, out=buf[3, :e - s])
                # dL/d(delta) per (n, d): abar * gh * (a * h_{t-1} + b * u)
                q = np.multiply(av, h[:-1], out=h[:-1])
                q += bu
                q *= gh
                q *= abar
                g = q.sum(axis=2)  # dL/d(delta), then dL/d(raw), then dL/du
                # dL/d(a_log) = dL/da * a = delta * q - gg * b * u, with
                # gg = gh * growth the gradient of the drive growth * b * u
                ga += np.einsum("tbd,tbnd->nd", dt, q)
                gg = np.multiply(gh, growth, out=growth)
                ga -= np.einsum("tbnd,tbnd->nd", gg, bu)
                gu = np.matmul(bs[:, :, None, :], gg)[:, :, 0]
                np.matmul(gg, us[..., None], out=gp[..., :n, None])
                # softplus' = sigmoid(raw) = -expm1(-delta), formed in place
                g *= np.expm1(np.negative(dt, out=dt), out=dt)
                np.negative(g, out=g)
                del bs, cs, dt
                # raw = low @ w_up^T + dt_bias; (B, C, low) = u @ w_proj^T
                g2, gp2 = g.reshape(-1, d), gp.reshape(-1, m)
                g_bias += g2.sum(axis=0)
                gw_up += g2.T @ low
                np.matmul(g2, w_up, out=gp2[:, 2 * n:])
                gw_proj += gp2.T @ us.reshape(-1, d)
                for i, gbc in g_bc:
                    gbc += gp[..., i * n:(i + 1) * n].sum(axis=(0, 1))
                gu += np.matmul(gp2, w_proj, out=g2).reshape(gu.shape)
                # u = v * sig(v): silu' = sig * (1 + v * (1 - sig)), which
                # is sig + u * (1 - sig); then the conv's backward
                np.subtract(1.0, sig, out=g)
                g *= us
                g += sig
                gu *= g
                del sig, us
                gv, tmp = np.swapaxes(gu, 0, 1), np.swapaxes(g, 0, 1)
                gcb += gv.sum(axis=(0, 1))
                for j in range(K):  # tap j reads x shifted K-1-j steps right
                    sh = K - 1 - j
                    t0 = max(s, sh)  # first token the tap reaches
                    if t0 >= e:
                        continue
                    gcw[:, j] += np.einsum("bld,bld->d", gv[:, t0 - s:],
                                           xv[:, t0 - sh:e - sh])
                    gxv[:, t0 - sh:e - sh] += np.multiply(
                        gv[:, t0 - s:], cw[:, j], out=tmp[:, t0 - s:])
                # so the next chunk's temporaries do not sit beside these
                del low, gp, gp2, g, g2, gu, gv, tmp
            grads += [ga.T, gw_proj[:n], gw_proj[n:2 * n], gw_proj[2 * n:],
                      gw_up, g_bias] + [gbc for _, gbc in g_bc]
        return grads

    return T.apply_op("selective_scan", y, parents, bwd)


def selective_scan_reference(params: SSMParams, conv, x) -> np.ndarray:
    """Straight-line interpreter of one forward ``selective_scan_op``
    direction, for oracle tests.

    Deliberately independent of the vectorized path: plain Python loops,
    math.exp/expm1/log1p, explicit conv taps and recurrence. ``conv`` is
    the causal depthwise conv's (w (D, K), bias (D,)) as arrays; x is
    (L, D).
    """
    x = np.asarray(x, dtype=np.float64)
    L, d = x.shape
    conv_w, conv_b = (np.asarray(p, dtype=np.float64) for p in conv)
    K = conv_w.shape[1]
    u = [[0.0] * d for _ in range(L)]
    for t in range(L):
        for i in range(d):
            v = conv_b[i] + sum(conv_w[i][k] * x[t + k - (K - 1)][i]
                                for k in range(K) if t + k >= K - 1)
            u[t][i] = v / (1.0 + math.exp(-v))  # silu
    n = params.a_log.shape[1]
    r = params.w_dt_down.shape[0]
    w_b = params.w_b.data
    w_c = params.w_c.data
    w_down = params.w_dt_down.data
    w_up = params.w_dt_up.data
    dt_bias = params.dt_bias.data
    b_bias = params.b_bias.data if params.b_bias is not None else np.zeros(n)
    c_bias = params.c_bias.data if params.c_bias is not None else np.zeros(n)
    a = [[-math.exp(params.a_log.data[i][j]) for j in range(n)] for i in range(d)]

    y = np.zeros((L, d), dtype=np.float64)
    h = [[0.0] * n for _ in range(d)]
    for t in range(L):
        bt = [b_bias[j] + sum(w_b[j][k] * u[t][k] for k in range(d)) for j in range(n)]
        ct = [c_bias[j] + sum(w_c[j][k] * u[t][k] for k in range(d)) for j in range(n)]
        low = [sum(w_down[j][k] * u[t][k] for k in range(d)) for j in range(r)]
        for i in range(d):
            raw = dt_bias[i] + sum(w_up[i][j] * low[j] for j in range(r))
            # softplus, stable for large |raw|
            dt = math.log1p(math.exp(-abs(raw))) + max(raw, 0.0)
            acc = 0.0
            for j in range(n):
                dai = dt * a[i][j]
                abar = math.exp(dai)
                growth = math.expm1(dai) / a[i][j]
                h[i][j] = abar * h[i][j] + growth * bt[j] * u[t][i]
                acc += ct[j] * h[i][j]
            y[t][i] = acc
    return y


class MambaLayer(Module):
    """Bidirectional Mamba layer over a flattened token sequence.

    Internal layer norm, a shared input projection ``w_in`` whose two
    halves give the inner sequence x and the gate z (expansion factor E),
    a shared causal depthwise Conv1d, one selective-SSM parameter set per
    direction, SiLU gating of the two directions' sum by z, and a shared
    output projection back to C.

    The conv, SiLU, projections and both scan directions are one
    ``selective_scan_op``, which streams them chunk by chunk, so of the
    full-size (B, L, E*C) arrays only x and the directions' summed output
    y exist until the gate; z is projected only after the scan, and each
    array dies with its last reader. At C = 32, E = 2, N = 16,
    L = 16,384 a no_grad call peaks at 3.07 such arrays over its entry
    (tracemalloc), y, z and the gate; a recorded call holds 5.79 beyond
    its output: x, y, z, the gate, their product, half an array for the
    normalized input, and the chunk-start states.
    """

    def __init__(self, c_model: int, state_dim: int, expand: int,
                 rng: np.random.Generator):
        super().__init__()
        d_inner = expand * c_model
        dt_rank = max(1, math.ceil(c_model / 16))
        self.d_inner = d_inner

        self.ln_gamma = Tensor(np.ones(c_model), requires_grad=True)
        self.ln_beta = Tensor(np.zeros(c_model), requires_grad=True)
        self.w_in = Tensor(rng.normal(0.0, 1.0 / math.sqrt(c_model),
                                      (2 * d_inner, c_model)), requires_grad=True)
        bound = 1.0 / math.sqrt(CONV_KERNEL)
        self.conv_w = Tensor(rng.uniform(-bound, bound, (d_inner, CONV_KERNEL)),
                             requires_grad=True)
        self.conv_b = Tensor(np.zeros(d_inner), requires_grad=True)
        self.ssm_fwd = SSMParams(d_inner, state_dim, dt_rank, rng)
        self.ssm_bwd = SSMParams(d_inner, state_dim, dt_rank, rng)
        self.w_out = Tensor(rng.normal(0.0, 1.0 / math.sqrt(d_inner),
                                       (c_model, d_inner)), requires_grad=True)

    def __call__(self, h: Tensor) -> Tensor:
        """h: (B, L, C) -> (B, L, C); the residual add is the caller's."""
        d = self.d_inner
        hn = T.layer_norm(h, self.ln_gamma, self.ln_beta)
        x = T.linear(hn, T.narrow(self.w_in, 0, 0, d))
        # each full-size array is dropped right after its last reader
        y = selective_scan_op(x, (self.conv_w, self.conv_b),
                              *self.ssm_fwd.operands(),
                              reverse=self.ssm_bwd.operands())
        del x
        # z is projected only now, and gates the directions' sum once
        z = T.linear(hn, T.narrow(self.w_in, 0, d, d))
        del hn
        gate = T.silu(z)
        del z
        y = T.mul(y, gate)
        del gate
        return T.linear(y, self.w_out)
