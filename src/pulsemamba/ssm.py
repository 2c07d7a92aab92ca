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
(cache resident). One chunk routine makes a chunk's states for the
forward and for the backward's rebuild, and one recurrence kernel runs
in both time directions. The state is held N-major, so every per-token
broadcast (delta, u, B) and the readout y_t = C_t h_t run along the
contiguous channel axis D; ``a`` keeps its (D, N) shape at the API.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import tensor as T
from .errors import NumericError, ShapeError
from .module import Module
from .tensor import BLOCK_BYTES, Tensor

__all__ = [
    "discretize_zoh",
    "scan_recurrent", "scan_convolutional", "SSMParams",
    "selective_scan", "selective_scan_op", "selective_scan_reference",
    "MambaLayer",
]

DT_MIN, DT_MAX = 1e-3, 1e-1  # range of the initial step softplus(dt_bias)
CONV_KERNEL = 4  # width of the Mamba layer's causal depthwise conv


def _zoh(a: np.ndarray, delta: np.ndarray, abar=None, growth=None):
    """ZOH factors (abar, growth) with growth = expm1(delta*a) / a and
    abar = 1 + expm1(delta*a): one transcendental per value.

    ``a`` and ``delta`` broadcast against each other, in either layout:
    (D, N) with (..., D, 1), or (N, D) with (..., 1, D); Bbar is
    growth * b. ``a`` is never 0 (a = -exp(a_log)).
    ``abar``/``growth`` are optional output buffers of the result shape.
    """
    growth = np.multiply(delta, a, out=growth)
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


def _chunk_states(av, dt, bt, ut, sl, h, buf):
    """States of the tokens ``sl`` from h[0]: the chunk's ZOH into buf[0]
    and buf[1], the drive growth * b * u into h[1:], then the recurrence.
    The forward and the backward's rebuild both run it, so the backward
    sees the forward's states bit for bit. Returns (abar, growth)."""
    abar, growth = _zoh(av, dt[sl, :, None, :], *buf[:2, :len(h) - 1])
    np.multiply(growth, bt[sl, :, :, None], out=h[1:])
    h[1:] *= ut[sl, :, None, :]
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


def selective_scan_op(u: Tensor, delta: Tensor, a_log: Tensor,
                      bmat: Tensor, cmat: Tensor) -> Tensor:
    """Fused input-dependent scan: per-token ZOH then the recurrence.

    u, delta: (B, L, D); a_log: (D, N), a = -exp(a_log); bmat, cmat: (B, L, N).
    Abar/Bbar and the states exist one chunk at a time (``_chunk_len``
    tokens, derived from the shape), made by ``_chunk_states``. When the
    op is recorded, the only array kept for the backward is h at the
    chunk starts, (ceil(L / chunk), B, N, D). The backward walks the
    chunks in reverse: ``_chunk_states`` rebuilds the chunk's ZOH and
    states from its start state, the recurrence runs in reverse time for
    dL/dh, and every input gradient is formed from them (a_log's as
    dL/da * a). Its temporaries share one buffer of 5 chunk blocks.
    """
    if u.ndim != 3 or delta.shape != u.shape:
        raise ShapeError(f"selective_scan: u {u.shape} vs delta {delta.shape}")
    bsz, L, d = u.shape
    n = a_log.shape[1]
    if bmat.shape != (bsz, L, n) or cmat.shape != (bsz, L, n):
        raise ShapeError(f"selective_scan: B {bmat.shape} / C {cmat.shape} "
                         f"inconsistent with (B={bsz}, L={L}, N={n})")
    if np.any(delta.data <= 0.0):
        raise NumericError("selective_scan requires delta > 0 (softplus upstream)")

    parents = [u, delta, a_log, bmat, cmat]
    recording = T._records(parents)
    chunk = _chunk_len(bsz, d, n)
    c = min(chunk, L)
    # time-major (L, B, ...) views: chunks and scan steps slice axis 0;
    # the state and a run N-major, (..., N, D)
    av = np.ascontiguousarray(-T._check_finite(np.exp(a_log.data), "exp(a_log)").T)
    ut, dt, bt, ct = (np.swapaxes(p.data, 0, 1) for p in (u, delta, bmat, cmat))
    buf = np.zeros((3, c + 1, bsz, n, d))  # abar, growth, h (row 0: carry)
    starts = (np.empty((-(-L // chunk), bsz, n, d), dtype=np.float64)
              if recording else None)
    y = np.empty((bsz, L, d), dtype=np.float64)
    yt = np.swapaxes(y, 0, 1)
    for k, s in enumerate(range(0, L, chunk)):
        sl = slice(s, min(s + chunk, L))
        h = buf[2, :sl.stop - s + 1]
        if recording:
            starts[k] = h[0]
        _chunk_states(av, dt, bt, ut, sl, h, buf)
        _readout(ct[sl], h[1:], yt[sl])
        _check_state(yt[sl], s)
        h[0] = h[-1]
    if not recording:
        return Tensor(y)

    def bwd(gy):
        gyt = np.swapaxes(gy, 0, 1)
        # returned batch-major, (B, L, .), written through time-major views
        gu = np.empty((bsz, L, d), dtype=np.float64)
        gdelta = np.empty_like(gu)
        gb = np.empty((bsz, L, n), dtype=np.float64)
        gc = np.empty_like(gb)
        gut, gdt, gbt, gct = (np.swapaxes(g, 0, 1) for g in (gu, gdelta, gb, gc))
        ga = np.zeros_like(av)
        # abar, growth, h (q once gc has read h), gh, bu
        buf = np.empty((5, c + 1, bsz, n, d), dtype=np.float64)
        carry = np.zeros((bsz, n, d), dtype=np.float64)  # abar_e * dL/dh_e
        for k in reversed(range(len(starts))):
            s, e = k * chunk, min(k * chunk + chunk, L)
            sl = slice(s, e)
            h = buf[2, :e - s + 1]  # h_{s-1} .. h_{e-1}, the forward's
            h[0] = starts[k]
            abar, growth = _chunk_states(av, dt, bt, ut, sl, h, buf)
            # dL/dh_t = C_t (x) gy_t + abar_{t+1} * dL/dh_{t+1}
            gh = np.multiply(ct[sl, :, :, None], gyt[sl, :, None, :], out=buf[3, :e - s])
            gh[-1] += carry
            _scan_core(abar[:0:-1], gh[-2::-1], gh[-1])
            np.multiply(abar[0], gh[0], out=carry)
            np.matmul(h[1:], gyt[sl, :, :, None], out=gct[sl, :, :, None])
            # drive = growth * b * u
            gg = np.multiply(gh, growth, out=growth)
            np.matmul(bt[sl, :, None, :], gg, out=gut[sl, :, None, :])
            np.matmul(gg, ut[sl, :, :, None], out=gbt[sl, :, :, None])
            bu = np.multiply(bt[sl, :, :, None], ut[sl, :, None, :], out=buf[4, :e - s])
            # dL/d(delta) per (n, d): abar * gh * (a * h_{t-1} + b * u)
            q = np.multiply(av, h[:-1], out=h[:-1])
            q += bu
            q *= gh
            q *= abar
            q.sum(axis=2, out=gdt[sl])
            # dL/d(a_log) = dL/da * a = delta * q - gg * b * u
            q *= dt[sl, :, None, :]
            gg *= bu
            q -= gg
            ga += q.sum(axis=(0, 1))
        return [gu, gdelta, ga.T, gb, gc]

    return T.apply_op("selective_scan", y, parents, bwd)


def selective_scan(params: SSMParams, x: Tensor) -> Tensor:
    """Input-dependent scan over the (B, L, D) Tensor x; returns (B, L, D).

    B(t), C(t), delta(t) come from the parameter projections of x itself,
    delta through a softplus; with constant-output projections this
    reduces exactly (bitwise) to the time-invariant recurrence on the same
    discretized values.
    """
    bmat = T.linear(x, params.w_b, params.b_bias)
    cmat = T.linear(x, params.w_c, params.c_bias)
    delta = T.softplus(T.linear(T.linear(x, params.w_dt_down),
                                params.w_dt_up, params.dt_bias))
    return selective_scan_op(x, delta, params.a_log, bmat, cmat)


def selective_scan_reference(params: SSMParams, x) -> np.ndarray:
    """Straight-line interpreter of the selective scan, for oracle tests.

    Deliberately independent of the vectorized path: plain Python loops,
    math.exp/expm1/log1p, explicit recurrence. Accepts x of shape (L, D).
    """
    x = np.asarray(x, dtype=np.float64)
    L, d = x.shape
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
        bt = [b_bias[j] + sum(w_b[j][k] * x[t][k] for k in range(d)) for j in range(n)]
        ct = [c_bias[j] + sum(w_c[j][k] * x[t][k] for k in range(d)) for j in range(n)]
        low = [sum(w_down[j][k] * x[t][k] for k in range(d)) for j in range(r)]
        for i in range(d):
            raw = dt_bias[i] + sum(w_up[i][j] * low[j] for j in range(r))
            # softplus, stable for large |raw|
            dt = math.log1p(math.exp(-abs(raw))) + max(raw, 0.0)
            acc = 0.0
            for j in range(n):
                dai = dt * a[i][j]
                abar = math.exp(dai)
                growth = math.expm1(dai) / a[i][j]
                h[i][j] = abar * h[i][j] + growth * bt[j] * x[t][i]
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

    Each full-size (B, L, E*C) array dies with its last reader: x once
    both directions' convs have read it, each conv output once its scan
    has, and z is projected only after both scans. At C = 32, E = 2, N = 16,
    L = 16,384 a no_grad call peaks at 5.40 such arrays over its entry
    (tracemalloc; 8.0 with the (L, 2*E*C) projection held and gating apart).
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

    def _conv_silu(self, x: Tensor) -> Tensor:
        return T.silu(T.conv1d_depthwise_causal(x, self.conv_w, self.conv_b))

    def __call__(self, h: Tensor) -> Tensor:
        """h: (B, L, C) -> (B, L, C); the residual add is the caller's."""
        d = self.d_inner
        hn = T.layer_norm(h, self.ln_gamma, self.ln_beta)
        x = T.linear(hn, T.narrow(self.w_in, 0, 0, d))
        # the backward direction scans x time-reversed and flips back
        xf, xb = self._conv_silu(x), self._conv_silu(T.flip(x, axis=1))
        del x  # each full-size array is dropped once its last reader ran
        y = selective_scan(self.ssm_fwd, xf)
        del xf
        y = T.add(y, T.flip(selective_scan(self.ssm_bwd, xb), axis=1))
        del xb
        # z is projected only now, and gates the directions' sum once
        z = T.linear(hn, T.narrow(self.w_in, 0, d, d))
        return T.linear(T.mul(y, T.silu(z)), self.w_out)
