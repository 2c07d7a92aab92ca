"""Forward-value oracles for the tensor engine: loop-oracle equivalence
for conv/linear/pooling, analytic values for the pointwise ops, shape
algebra, and the error contracts."""

import ast
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemamba import synth, training
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba import tensor as T
from pulsemamba.errors import GraphError, NumericError, ShapeError


# ---------------------------------------------------------------------------
# loop oracles

def conv3d_oracle(x, w, stride, pad):
    """Six-nested-loop direct summation."""
    st_, sh, sw = stride
    pt, ph, pw = pad
    b, cin, t, h, wd = x.shape
    cout, _, kt, kh, kw = w.shape
    to = (t + 2 * pt - kt) // st_ + 1
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (wd + 2 * pw - kw) // sw + 1
    xp = np.pad(x, ((0, 0), (0, 0), (pt, pt), (ph, ph), (pw, pw)))
    out = np.zeros((b, cout, to, ho, wo))
    for bb in range(b):
        for co in range(cout):
            for ot in range(to):
                for oh in range(ho):
                    for ow in range(wo):
                        acc = 0.0
                        for ci in range(cin):
                            for i in range(kt):
                                for j in range(kh):
                                    for k in range(kw):
                                        acc += w[co, ci, i, j, k] * xp[
                                            bb, ci, ot * st_ + i,
                                            oh * sh + j, ow * sw + k]
                        out[bb, co, ot, oh, ow] = acc
    return out


def linear_oracle(x, w, b):
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = np.zeros((x2.shape[0], w.shape[0]))
    for r in range(x2.shape[0]):
        for o in range(w.shape[0]):
            acc = b[o] if b is not None else 0.0
            for i in range(x.shape[-1]):
                acc += x2[r, i] * w[o, i]
            out[r, o] = acc
    return out.reshape(lead + (w.shape[0],))


def maxpool_oracle(x, kernel, stride):
    kt, kh, kw = kernel
    st_, sh, sw = stride
    b, c, t, h, wd = x.shape
    to = (t - kt) // st_ + 1
    ho = (h - kh) // sh + 1
    wo = (wd - kw) // sw + 1
    out = np.full((b, c, to, ho, wo), -np.inf)
    for bb in range(b):
        for cc in range(c):
            for ot in range(to):
                for oh in range(ho):
                    for ow in range(wo):
                        out[bb, cc, ot, oh, ow] = x[
                            bb, cc,
                            ot * st_:ot * st_ + kt,
                            oh * sh:oh * sh + kh,
                            ow * sw:ow * sw + kw].max()
    return out


def test_conv3d_all_ones_summation():
    ones = T.tensor(np.ones((1, 1, 3, 1, 1)))
    out = T.conv3d(ones, ones)
    assert out.shape == (1, 1, 1, 1, 1)
    assert out.item() == 3.0


def test_conv3d_identity_kernel(rng):
    x = rng.normal(size=(2, 3, 4, 5, 5))
    w = np.zeros((3, 3, 1, 1, 1))
    for c in range(3):
        w[c, c, 0, 0, 0] = 1.0
    out = T.conv3d(T.tensor(x), T.tensor(w))
    np.testing.assert_array_equal(out.data, x)


def test_conv3d_matches_loop_oracle_spec_case(rng):
    x = rng.normal(size=(1, 2, 4, 3, 3))
    w = rng.normal(size=(2, 2, 3, 3, 3))
    ours = T.conv3d(T.tensor(x), T.tensor(w), stride=(1, 1, 1),
                    padding=(1, 1, 1)).data
    ref = conv3d_oracle(x, w, (1, 1, 1), (1, 1, 1))
    rel = np.abs(ours - ref).max() / np.abs(ref).max()
    assert rel <= 1e-12


def _conv_draw(rng):
    """One random conv: kernel extents 1-3, a temporal stride of 1-4 (at
    stride >= kt no input plane is read twice), spatial strides 1-2 and
    padding 0-2 (p > k - 1 pads past what the kernel can reach)."""
    cin, cout = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    kernel = tuple(int(rng.integers(1, 4)) for _ in range(3))
    stride = (int(rng.integers(1, 5)), int(rng.integers(1, 3)),
              int(rng.integers(1, 3)))
    pad = tuple(int(rng.integers(0, 3)) for _ in range(3))
    thw = tuple(int(rng.integers(k, k + 4)) for k in kernel)
    x = rng.normal(size=(int(rng.integers(1, 3)), cin) + thw)
    w = rng.normal(size=(cout, cin) + kernel)
    return x, w, stride, pad


def _assert_draws_cover_the_ring_edges(draws):
    kernels = [w.shape[2:] for _, w, _, _ in draws]
    strides = [s for _, _, s, _ in draws]
    pads = [p for _, _, _, p in draws]
    assert any(s[0] >= k[0] > 1 for k, s in zip(kernels, strides))
    assert any(s[0] < k[0] for k, s in zip(kernels, strides))
    assert any(p[0] > k[0] - 1 for k, p in zip(kernels, pads))
    assert any(p[1] > k[1] - 1 for k, p in zip(kernels, pads))


def test_conv3d_oracle_randomized_shapes(rng):
    """100 random shape/stride/padding draws against the loop oracle."""
    draws = [_conv_draw(rng) for _ in range(100)]
    _assert_draws_cover_the_ring_edges(draws)
    for x, w, st_, pad in draws:
        ours = T.conv3d(T.tensor(x), T.tensor(w), stride=st_, padding=pad).data
        ref = conv3d_oracle(x, w, st_, pad)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(ours - ref).max() / scale <= 1e-12


def conv3d_weight_grad_oracle(x, g, kernel, stride, pad):
    """dL/dw by direct summation: each tap sums g times the input it read."""
    st_, sh, sw = stride
    xp = np.pad(x, ((0, 0), (0, 0)) + tuple((p, p) for p in pad))
    b, cout, to, ho, wo = g.shape
    gw = np.zeros((cout, x.shape[1]) + tuple(kernel))
    for co in range(cout):
        for ci in range(x.shape[1]):
            for i, j, k in np.ndindex(*kernel):
                acc = 0.0
                for bb, ot, oh, ow in np.ndindex(b, to, ho, wo):
                    acc += g[bb, co, ot, oh, ow] * xp[bb, ci, ot * st_ + i,
                                                      oh * sh + j, ow * sw + k]
                gw[co, ci, i, j, k] = acc
    return gw


def test_conv3d_weight_grad_matches_loop_oracle(rng):
    draws = [_conv_draw(rng) for _ in range(60)]
    _assert_draws_cover_the_ring_edges(draws)
    for x, w, st_, pad in draws:
        ws = T.tensor(w, requires_grad=True)
        out = T.conv3d(T.tensor(x), ws, stride=st_, padding=pad)
        g = rng.normal(size=out.shape)
        T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
        ref = conv3d_weight_grad_oracle(x, g, w.shape[2:], st_, pad)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(ws.grad - ref).max() / scale <= 1e-12


def _adjoint_errors(op, x, w, **kw):
    """Relative gaps of <g, op(x, w)> = <gx, x> = <gw, w> for a random g:
    the conv is linear in each operand, so its gradients are its adjoints."""
    xs, ws = T.tensor(x, requires_grad=True), T.tensor(w, requires_grad=True)
    out = op(xs, ws, **kw)
    g = np.random.default_rng(x.size).normal(size=out.shape)
    T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
    ref = float(np.sum(g * out.data))
    scale = max(np.sum(np.abs(g * out.data)), 1e-300)
    return (abs(float(np.sum(xs.grad * x)) - ref) / scale,
            abs(float(np.sum(ws.grad * w)) - ref) / scale)


def test_conv3d_gradients_are_adjoints_randomized_shapes(rng):
    """The randomized-shape draw; padding past k - 1 runs the input
    gradient's crop path, and a temporal stride its skipped planes."""
    draws = [_conv_draw(rng) for _ in range(100)]
    _assert_draws_cover_the_ring_edges(draws)
    for x, w, st_, pad in draws:
        assert max(_adjoint_errors(T.conv3d, x, w, stride=st_, padding=pad)) <= 1e-12


def conv_transpose1d_oracle(x, w, stride, pad):
    """The definition: input step t adds x[t] * w[:, :, k] at output
    t * stride + k - pad."""
    b, cin, t = x.shape
    _, cout, K = w.shape
    out = np.zeros((b, cout, (t - 1) * stride - 2 * pad + K))
    for bb in range(b):
        for ci in range(cin):
            for co in range(cout):
                for ti in range(t):
                    for k in range(K):
                        o = ti * stride + k - pad
                        if 0 <= o < out.shape[2]:
                            out[bb, co, o] += x[bb, ci, ti] * w[ci, co, k]
    return out


def _conv_transpose1d_zero_bias(x, w, **kw):
    return T.conv_transpose1d(x, w, T.tensor(np.zeros(w.shape[1])), **kw)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_conv_transpose1d_matches_loop_oracle_and_adjoint(K, rng):
    for s in (1, 2, 3):
        for p in (0, 1, 2):
            x = rng.normal(size=(2, 3, 5))
            w = rng.normal(size=(3, 2, K))
            ours = _conv_transpose1d_zero_bias(T.tensor(x), T.tensor(w),
                                               stride=s, padding=p).data
            ref = conv_transpose1d_oracle(x, w, s, p)
            assert ours.shape == ref.shape
            assert np.abs(ours - ref).max() <= 1e-12 * np.abs(ref).max()
            errs = _adjoint_errors(_conv_transpose1d_zero_bias, x, w,
                                   stride=s, padding=p)
            assert max(errs) <= 1e-12


def test_recorded_conv3d_keeps_no_padded_input(rng):
    x = T.tensor(rng.normal(size=(1, 4, 16, 32, 32)), requires_grad=True)
    w = T.tensor(rng.normal(size=(4, 4, 3, 3, 3)), requires_grad=True)
    padded = 8 * 4 * 18 * 34 * 34
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = T.conv3d(x, w, padding=(1, 1, 1))
        held = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    # the node's own bookkeeping only: no padded copy, no column buffer
    assert held < padded // 8
    T.backward(T.reduce_sum(out))
    # every tap of every output channel reaches an interior voxel once
    per_channel = w.data.sum(axis=(0, 2, 3, 4))[:, None, None, None]
    np.testing.assert_allclose(x.grad[0, :, 1:-1, 1:-1, 1:-1],
                               np.broadcast_to(per_channel, (4, 14, 30, 30)),
                               rtol=1e-12)


def test_no_grad_conv3d_allocates_output_and_ring_only(rng):
    # a padded copy of x (4 * 18 * 34 * 34 values) would overshoot the margin
    x = T.tensor(rng.normal(size=(1, 4, 16, 32, 32)))
    w = T.tensor(rng.normal(size=(8, 4, 3, 3, 3)))
    ring = 8 * 3 * (4 * 3 * 3) * 32 * 32
    out_slice = 8 * 8 * 32 * 32
    with T.no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = T.conv3d(x, w, padding=(1, 1, 1))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # a GEMM buffer of one output slice, NumPy's ufunc buffers (8192
    # values per operand), the kernel's parts and bookkeeping
    margin = out_slice + 3 * 8192 * 8 + w.data.nbytes + (16 << 10)
    assert out.data.nbytes + ring <= peak <= out.data.nbytes + ring + margin


def test_conv3d_forms_no_input_gradient_for_constant_input(rng, monkeypatch):
    x = rng.normal(size=(2, 3, 4, 6, 6))
    w = rng.normal(size=(4, 3, 1, 3, 3))
    calls = []
    input_grad = T._conv_input_grad
    monkeypatch.setattr(T, "_conv_input_grad",
                        lambda *a: calls.append(a) or input_grad(*a))

    def w_grad(x_needs_grad):
        xs = T.tensor(x, requires_grad=x_needs_grad)
        ws = T.tensor(w, requires_grad=True)
        out = T.conv3d(xs, ws, stride=(1, 2, 1), padding=(0, 1, 1))
        g = np.cos(np.arange(out.size)).reshape(out.shape)
        T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
        assert (xs.grad is not None) == x_needs_grad
        return ws.grad

    gw_with_gx = w_grad(True)
    assert calls
    calls.clear()
    gw = w_grad(False)
    assert calls == []
    assert _bits_equal(gw, gw_with_gx)


def test_linear_identity_and_hand_case():
    out = T.linear(T.tensor([1.0, 2.0]), T.tensor([[1.0, 0.0], [0.0, 1.0]]),
                   T.tensor([0.0, 0.0]))
    np.testing.assert_array_equal(out.data, [1.0, 2.0])
    out2 = T.linear(T.tensor([1.0, 2.0]), T.tensor([[3.0, 4.0]]),
                    T.tensor([1.0]))
    np.testing.assert_array_equal(out2.data, [12.0])


def test_linear_matches_loop_oracle(rng):
    for _ in range(100):
        lead = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 3))))
        din = int(rng.integers(1, 6))
        dout = int(rng.integers(1, 6))
        x = rng.normal(size=lead + (din,))
        w = rng.normal(size=(dout, din))
        b = rng.normal(size=dout)
        ours = T.linear(T.tensor(x), T.tensor(w), T.tensor(b)).data
        ref = linear_oracle(x, w, b)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(ours - ref).max() / scale <= 1e-12


def test_maxpool_matches_loop_oracle(rng):
    for _ in range(100):
        kernel = tuple(int(rng.integers(1, 3)) for _ in range(3))
        t, h, w = (int(rng.integers(k, k + 4)) for k in kernel)
        x = rng.normal(size=(2, 2, t, h, w))
        ours = T.maxpool3d(T.tensor(x), kernel).data
        ref = maxpool_oracle(x, kernel, kernel)
        np.testing.assert_array_equal(ours, ref)


def test_maxpool_propagates_nan_and_routes_ties_first():
    x = np.array([[1.0, np.nan], [0.5, 0.5], [2.0, 2.0], [3.0, 1.0]])
    x = x.reshape(1, 1, 1, 4, 2)
    t = T.tensor(x, requires_grad=True)
    out = T.maxpool3d(t, (1, 1, 2))
    assert np.isnan(out.data[0, 0, 0, 0, 0])
    np.testing.assert_array_equal(out.data[0, 0, 0, 1:, 0], [0.5, 2.0, 3.0])
    T.backward(T.reduce_sum(T.mul(out, T.tensor(np.full(out.shape, 2.0)))))
    # a NaN window routes nowhere; a tie goes to the earlier offset
    np.testing.assert_array_equal(t.grad.reshape(4, 2),
                                  [[0, 0], [2, 0], [2, 0], [2, 0]])


# the stem's convs: conv1's (1, 5, 5) kernel and conv3's (3, 3, 3)
@pytest.mark.parametrize("kernel, padding", [((1, 5, 5), (0, 2, 2)),
                                             ((3, 3, 3), (1, 1, 1))])
@pytest.mark.parametrize("b", [1, 2])  # B = 2 sums in _conv's accumulator
def test_pooled_conv3d_bit_equal_to_pooling_its_output(kernel, padding, b, rng):
    x = rng.normal(size=(b, 3, 4, 9, 11))  # odd H and W: a row and column drop
    x[-1, 1, 2, 4, 5] = np.nan  # NaN in the windows its 5x5 or 3x3 reach
    x[0, :, 1, :4, :4] = 0.25  # a flat patch: tied windows
    w = rng.normal(size=(5, 3) + kernel)
    xt, wt = T.tensor(x), T.tensor(w, requires_grad=True)
    with T.no_grad():
        got = T.conv3d(xt, wt, (1, 1, 1), padding, (1, 2, 2)).data
        want = T.maxpool3d(T.conv3d(xt, wt, (1, 1, 1), padding), (1, 2, 2)).data
    assert got.shape == (b, 5, 4, 4, 5)
    assert np.isnan(want).any() and not np.isnan(want).all()
    assert _bits_equal(got, want)


def test_pooled_conv3d_is_never_recorded(rng):
    x = T.tensor(rng.normal(size=(1, 2, 2, 4, 4)))
    w = T.tensor(rng.normal(size=(3, 2, 1, 3, 3)), requires_grad=True)
    with pytest.raises(GraphError):
        T.conv3d(x, w, (1, 1, 1), (0, 1, 1), (1, 2, 2))
    with T.no_grad():
        assert T.conv3d(x, w, (1, 1, 1), (0, 1, 1), (1, 2, 2)).shape == (1, 3, 2, 2, 2)


def test_pooled_conv3d_window_must_not_span_time(rng):
    x = T.tensor(rng.normal(size=(1, 2, 2, 4, 4)))
    w = T.tensor(rng.normal(size=(3, 2, 1, 3, 3)))
    with pytest.raises(ShapeError):
        T.conv3d(x, w, (1, 1, 1), (0, 1, 1), (2, 2, 2))


# ---------------------------------------------------------------------------
# pointwise analytic values

def test_activation_values():
    assert T.silu(T.tensor(0.0)).item() == 0.0
    assert T.sigmoid(T.tensor(0.0)).item() == 0.5
    assert abs(T.softplus(T.tensor(0.0)).item() - math.log(2.0)) < 1e-12
    assert abs(T.silu(T.tensor(1.0)).item() - 1.0 / (1.0 + math.exp(-1.0))) < 1e-12


def _seed_sigmoid(x):
    """The sign-split sigmoid the pointwise ops must stay bit-equal to."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _bits_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def _op_and_grad(op, x, g):
    t = T.tensor(x, requires_grad=True)
    out = op(t)
    T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
    return out.data, t.grad


def test_pointwise_ops_bit_equal_to_seed_formulas(rng):
    edge = np.array([1000.0, -1000.0, 1e-300, -1e-300, 0.0, -0.0])
    x = np.concatenate([edge, rng.normal(0.0, 8.0, 200)])
    g = rng.normal(size=x.shape)
    s = _seed_sigmoid(x)
    with np.errstate(over="raise"):
        assert _bits_equal(T._sigmoid_np(x), s)
        out, gx = _op_and_grad(T.sigmoid, x, g)
        assert _bits_equal(out, s) and _bits_equal(gx, g * s * (1.0 - s))
        out, gx = _op_and_grad(T.silu, x, g)
        assert _bits_equal(out, x * s)
        assert _bits_equal(gx, g * (s * (1.0 + x * (1.0 - s))))
        out, gx = _op_and_grad(T.softplus, x, g)
        softplus = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
        assert _bits_equal(out, softplus) and _bits_equal(gx, g * s)
        out, gx = _op_and_grad(T.relu, x, g)
        mask = x > 0.0
        assert _bits_equal(out, np.where(mask, x, 0.0)) and _bits_equal(gx, g * mask)
    # relu is np.maximum: unlike the seed's where(), it propagates NaN
    assert np.isnan(T.relu(T.tensor([np.nan])).data).all()


@pytest.mark.parametrize("training", [True, False])
def test_batch_norm_bit_equal_to_seed_formula(training, rng):
    x = rng.normal(0.0, 3.0, (3, 4, 2, 3, 3))
    x[0, :, 0, 0, :3] = [1000.0, -1000.0, 1e-300]
    x[1, :, 0, 0, :3] = [-1e-300, 0.0, -0.0]
    gamma, beta = rng.normal(size=4), rng.normal(size=4)
    rm, rv = rng.normal(size=4), rng.uniform(0.5, 2.0, 4)
    axes, bshape = (0, 2, 3, 4), (1, 4, 1, 1, 1)
    mean, var = (x.mean(axis=axes), x.var(axis=axes)) if training else (rm, rv)
    inv = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean.reshape(bshape)) * inv.reshape(bshape)
    ref = gamma.reshape(bshape) * xhat + beta.reshape(bshape)
    with np.errstate(over="raise"):
        out = T.batch_norm(T.tensor(x), T.tensor(gamma), T.tensor(beta),
                           rm.copy(), rv.copy(), training)
    assert _bits_equal(out.data, ref)


def test_batch_norm_eval_backward_ignores_later_buffer_changes(rng):
    # eval mode normalizes by the running buffers; changing them after the
    # forward (as a training step on the same module would) must not move
    # the gradient of that forward
    x = rng.normal(0.0, 3.0, (2, 3, 2, 2, 2))
    g = rng.normal(size=x.shape)
    gamma, beta = rng.normal(size=3), rng.normal(size=3)
    rm, rv = rng.normal(size=3), rng.uniform(0.5, 2.0, 3)

    def grads(mutate):
        xs, gs, bs = (T.tensor(a, requires_grad=True) for a in (x, gamma, beta))
        m, v = rm.copy(), rv.copy()
        out = T.batch_norm(xs, gs, bs, m, v, training=False)
        if mutate:
            m += 5.0
            v *= 3.0
        T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
        return xs.grad, gs.grad, bs.grad

    for a, b in zip(grads(False), grads(True)):
        assert _bits_equal(a, b)


@pytest.mark.parametrize("transposed", [False, True])
def test_layer_norm_matches_seed_formula(transposed, rng):
    # the seed kept x-hat for the backward; the shared norm kernel
    # recomputes it, so only the gradients may move, at rounding level.
    # transposed: the upstream gradient reaches the norm non-contiguous
    x = rng.normal(0.0, 3.0, (3, 5, 6))
    x[0, 0] = [1000.0, -1000.0, 1e-300, -1e-300, 0.0, -0.0]
    gamma, beta = rng.normal(size=6), rng.normal(size=6)
    g = rng.normal(size=(5, 3, 6) if transposed else (3, 5, 6))
    g_norm = g.transpose(1, 0, 2) if transposed else g
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
    gs = g_norm * gamma
    ref_gx = inv * (gs - gs.mean(axis=-1, keepdims=True)
                    - xhat * (gs * xhat).mean(axis=-1, keepdims=True))
    ref_gg = (g_norm * xhat).reshape(-1, 6).sum(axis=0)
    ref_gb = g_norm.reshape(-1, 6).sum(axis=0)

    xs, gs_t, bs = (T.tensor(a, requires_grad=True) for a in (x, gamma, beta))
    out = T.layer_norm(xs, gs_t, bs)
    assert _bits_equal(out.data, gamma * xhat + beta)
    y = T.transpose(out, (1, 0, 2)) if transposed else out
    T.backward(T.reduce_sum(T.mul(y, T.tensor(g))))
    for got, ref in ((xs.grad, ref_gx), (gs_t.grad, ref_gg), (bs.grad, ref_gb)):
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def _one_array_per_op_norm_rule(g, x, mean, inv, gam, param_axes, stat_axes,
                                batch_stats):
    """The norm backward with a fresh array per op (about five full-size
    temporaries): the oracle the in-place rule must equal bit for bit."""
    xhat = np.subtract(x, mean)
    xhat *= inv
    gg = (g * xhat).sum(axis=param_axes)
    gb = np.ascontiguousarray(g).sum(axis=param_axes)
    gscaled = g * gam
    if batch_stats:
        m1 = gscaled.mean(axis=stat_axes, keepdims=True)
        m2 = (gscaled * xhat).mean(axis=stat_axes, keepdims=True)
        gx = inv * (gscaled - m1 - xhat * m2)
    else:
        gx = gscaled * inv
    return [gx, gg, gb]


@pytest.mark.parametrize("transposed", [False, True])
@pytest.mark.parametrize("case", ["batch_train", "batch_eval", "layer"])
def test_norm_backward_bit_equal_to_one_array_per_op(case, transposed, rng):
    shape = (3, 5, 6) if case == "layer" else (3, 4, 2, 3, 5)
    axis = len(shape) - 1 if case == "layer" else 1
    c = shape[axis]
    pshape = tuple(c if i == axis else 1 for i in range(len(shape)))
    param_axes = tuple(i for i in range(len(shape)) if i != axis)
    x = rng.normal(0.0, 3.0, shape)
    gamma, beta = rng.normal(size=c), rng.normal(size=c)
    rm, rv = rng.normal(size=c), rng.uniform(0.5, 2.0, c)
    # transposed: the upstream gradient is a non-contiguous view
    g = rng.normal(size=shape[::-1]).T if transposed else rng.normal(size=shape)
    stat_axes = (axis,) if case == "layer" else param_axes
    if case == "batch_eval":
        mean, var = rm.reshape(pshape), rv.reshape(pshape)
    else:
        mean = x.mean(axis=stat_axes, keepdims=True)
        var = x.var(axis=stat_axes, keepdims=True)
    xs, gs, bs = (T.tensor(a, requires_grad=True) for a in (x, gamma, beta))
    if case == "layer":
        out = T.layer_norm(xs, gs, bs)
    else:
        out = T.batch_norm(xs, gs, bs, rm.copy(), rv.copy(), case == "batch_train")
    got = out._node.bwd(g)
    ref = _one_array_per_op_norm_rule(g, x, mean, 1.0 / np.sqrt(var + 1e-5),
                                      gamma.reshape(pshape), param_axes,
                                      stat_axes, case != "batch_eval")
    for a, b in zip(got, ref):
        assert _bits_equal(a, b)


def test_batch_norm_backward_peaks_at_three_full_size_arrays(rng):
    x = T.tensor(rng.normal(size=(2, 16, 8, 32, 32)), requires_grad=True)
    gamma, beta = (T.tensor(rng.normal(size=16), requires_grad=True)
                   for _ in range(2))
    out = T.batch_norm(x, gamma, beta, np.zeros(16), np.ones(16), training=True)
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out._node.bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # x-hat, g * x-hat (then gscaled * x-hat), and gscaled, which becomes gx
    assert peak <= 3.1 * x.data.nbytes


def _seed_conv1d(x, w, bias):
    # the single-pass formula: 0, then each tap in k order, then the bias
    L, K = x.shape[1], w.shape[1]
    out = np.zeros_like(x)
    for k in range(max(K - L, 0), K):
        n = L - (K - 1 - k)
        out[:, L - n:] += x[:, :n] * w[:, k]
    return out + bias


def _padded_conv1d_backward(g, x, w):
    # the gradients through a zero-padded copy of x, tap by tap
    L, K = x.shape[1], w.shape[1]
    xp = np.pad(x, ((0, 0), (K - 1, 0), (0, 0)))
    gxp, gw = np.zeros_like(xp), np.zeros_like(w)
    for k in range(K):
        gxp[:, k:k + L, :] += g * w[:, k]
        gw[:, k] = np.einsum("bld,bld->d", g, xp[:, k:k + L, :])
    return gxp[:, K - 1:, :], gw, g.sum(axis=(0, 1))


@pytest.mark.parametrize("block_rows", [None, 5])
@pytest.mark.parametrize("L", [1, 3, 4, 23])
def test_conv1d_depthwise_causal_bit_equal_to_seed_formula(L, block_rows, rng,
                                                           monkeypatch):
    if block_rows:  # (B=2, D=3) rows: L = 23 crosses four block edges
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * 8 * 2 * 3 * block_rows)
    x = rng.normal(size=(2, L, 3))
    x[0, 0] = [0.0, -0.0, 1e-300]
    w, bias = rng.normal(size=(3, 4)), rng.normal(size=3)
    params = [T.tensor(a, requires_grad=True) for a in (x, w, bias)]
    out = T.conv1d_depthwise_causal(*params)
    assert _bits_equal(out.data, _seed_conv1d(x, w, bias))
    g = rng.normal(size=x.shape)
    g[1, -1] = [0.0, -0.0, 1e-300]
    T.backward(T.reduce_sum(T.mul(out, T.tensor(g))))
    for p, want in zip(params, _padded_conv1d_backward(g, x, w)):
        assert _bits_equal(p.grad, want)


def test_conv1d_depthwise_causal_backward_peak_memory(rng):
    # no padded copy of x or of g and no full-size temporary per tap: the
    # input gradient is the only full-size array the rule makes
    x, w, bias = (T.tensor(rng.normal(size=s), requires_grad=True)
                  for s in ((1, 2048, 128), (128, 4), (128,)))
    out = T.conv1d_depthwise_causal(x, w, bias)
    g = rng.normal(size=out.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out._node.bwd(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * g.nbytes


# op -> its seed forward of (x, s) and backward of (x, s, g), s the sigmoid
_SEED_RULES = {
    "sigmoid": (T.sigmoid, lambda x, s: s, lambda x, s, g: g * s * (1.0 - s)),
    "silu": (T.silu, lambda x, s: x * s,
             lambda x, s, g: g * (s * (1.0 + x * (1.0 - s)))),
    "softplus": (T.softplus,
                 lambda x, s: np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))),
                 lambda x, s, g: g * s),
}


@pytest.mark.parametrize("name", sorted(_SEED_RULES))
def test_activation_blocks_bit_equal_to_seed_formulas(name, rng, monkeypatch):
    monkeypatch.setattr(T, "BLOCK_BYTES", 8 * 8 * 7)  # 7-element blocks
    op, fwd, bwd = _SEED_RULES[name]
    # a transposed view: the blocks read it in C order, 60 = 8 * 7 + 4
    x = rng.normal(0.0, 8.0, (2, 10, 3)).transpose(2, 1, 0)
    g = rng.normal(size=x.shape)
    s = _seed_sigmoid(x)
    out, gx = _op_and_grad(op, x, g)
    assert _bits_equal(out, fwd(x, s)) and _bits_equal(gx, bwd(x, s, g))


@pytest.mark.parametrize("op", [T.silu, T.softplus], ids=["silu", "softplus"])
def test_activation_forward_and_backward_peak_near_two_inputs(op, rng):
    # the output, the input gradient and a few blocks: no full-size temporary
    x = T.tensor(rng.normal(size=(1, 1 << 14, 64)), requires_grad=True)
    g = rng.normal(size=x.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = op(x)
        gx = out._node.bwd(g)[0]
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert gx.shape == x.shape
    assert peak <= 2.25 * x.data.nbytes


def test_flip_is_a_view(rng):
    x = T.tensor(rng.normal(size=(2, 5, 3)))
    y = T.flip(x, 1)
    assert np.shares_memory(y.data, x.data)
    np.testing.assert_array_equal(y.data, x.data[:, ::-1])


def test_flip_is_involution(rng):
    x = T.tensor(rng.normal(size=(2, 3, 4)))
    np.testing.assert_array_equal(T.flip(T.flip(x, 2), 2).data, x.data)


def test_div_by_zero_detected():
    with pytest.raises(NumericError):
        T.div(T.tensor([1.0]), T.tensor([0.0]))


def test_binary_shape_contract(rng):
    with pytest.raises(ShapeError):
        T.add(T.tensor(rng.normal(size=(2, 3))), T.tensor(rng.normal(size=(3, 2))))
    # scalar broadcast is allowed
    out = T.add(T.tensor(rng.normal(size=(2, 3))), T.tensor(5.0))
    assert out.shape == (2, 3)
    # so is any NumPy broadcast: size-1 and missing leading axes
    out = T.mul(T.tensor(rng.normal(size=(2, 1, 4))),
                T.tensor(rng.normal(size=(3, 1))))
    assert out.shape == (2, 3, 4)
    with pytest.raises(ShapeError):
        T.sub(T.tensor(rng.normal(size=(2, 3, 4))),
              T.tensor(rng.normal(size=(2, 4))))


# ---------------------------------------------------------------------------
# reductions and norms

def test_mean_and_population_std():
    x = T.tensor([1.0, 2.0, 3.0])
    assert T.reduce_mean(x).item() == 2.0
    # the norms divide by the population std (1/n variance), eps inside
    xhat = T.layer_norm(T.reshape(x, (1, 3)), T.tensor(np.ones(3)),
                        T.tensor(np.zeros(3))).data
    np.testing.assert_allclose(
        xhat[0], np.array([-1.0, 0.0, 1.0]) / math.sqrt(2.0 / 3.0 + 1e-5),
        rtol=1e-12)


def test_layer_norm_constant_vector_is_zero():
    x = T.tensor(np.full((4, 6), 3.7))
    out = T.layer_norm(x, T.tensor(np.ones(6)), T.tensor(np.zeros(6)))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_standardizes_last_axis(rng):
    x = T.tensor(rng.normal(2.0, 3.0, size=(5, 32)))
    out = T.layer_norm(x, T.tensor(np.ones(32)), T.tensor(np.zeros(32))).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)


def test_batch_norm_eval_identity_statistics(rng):
    x = T.tensor(rng.normal(size=(2, 4, 3, 2, 2)))
    out = T.batch_norm(x, T.tensor(np.ones(4)), T.tensor(np.zeros(4)),
                       np.zeros(4), np.ones(4), training=False)
    np.testing.assert_allclose(out.data, x.data / np.sqrt(1.0 + T.NORM_EPS),
                               rtol=1e-15)


def test_batch_norm_train_updates_running_stats(rng):
    x = T.tensor(rng.normal(3.0, 2.0, size=(4, 2, 3, 2, 2)))
    rm, rv = np.zeros(2), np.ones(2)
    T.batch_norm(x, T.tensor(np.ones(2)), T.tensor(np.zeros(2)), rm, rv,
                 training=True)
    assert T.BN_MOMENTUM == 0.1
    axes = (0, 2, 3, 4)
    np.testing.assert_allclose(rm, 0.1 * x.data.mean(axis=axes))
    np.testing.assert_allclose(rv, 0.9 + 0.1 * x.data.var(axis=axes))


# ---------------------------------------------------------------------------
# shape algebra

@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2),
       st.integers(1, 10))
def test_conv_extent_formula(k, stride, pad, extra):
    size = k + extra
    x = T.tensor(np.zeros((1, 1, size, size, size)))
    w = T.tensor(np.zeros((1, 1, k, k, k)))
    out = T.conv3d(x, w, stride=(stride,) * 3, padding=(pad,) * 3)
    expected = (size + 2 * pad - k) // stride + 1
    assert out.shape == (1, 1, expected, expected, expected)


def test_conv_kernel_must_fit():
    with pytest.raises(ShapeError):
        T.conv3d(T.tensor(np.zeros((1, 1, 2, 2, 2))),
                 T.tensor(np.zeros((1, 1, 3, 3, 3))))


def test_conv_cin_mismatch():
    with pytest.raises(ShapeError):
        T.conv3d(T.tensor(np.zeros((1, 2, 4, 4, 4))),
                 T.tensor(np.zeros((1, 3, 3, 3, 3))))


def test_linear_din_mismatch():
    with pytest.raises(ShapeError):
        T.linear(T.tensor(np.zeros((2, 3))), T.tensor(np.zeros((4, 5))))


def test_narrow_bounds():
    with pytest.raises(ShapeError):
        T.narrow(T.tensor(np.zeros((2, 3))), 1, 2, 2)


def test_invariant_product_shape_equals_data_length(rng):
    x = T.tensor(rng.normal(size=(3, 4, 5)))
    assert int(np.prod(x.shape)) == x.data.size


def test_determinism_bit_identical(rng):
    x = rng.normal(size=(1, 2, 4, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    a = T.conv3d(T.tensor(x), T.tensor(w), padding=(1, 1, 1)).data
    b = T.conv3d(T.tensor(x), T.tensor(w), padding=(1, 1, 1)).data
    assert np.array_equal(a, b)


def test_every_tensor_op_has_a_user_in_src():
    # the op set is exactly what the network, its loss and its checks use:
    # each public name is read as T.<name> or imported from .tensor by
    # another module; tape_size is read only by the benchmark's tracer
    used = set()
    for path in Path(T.__file__).parent.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id == "T"):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "tensor":
                used.update(alias.name for alias in node.names)
    assert set(T.__all__) - used == {"tape_size"}


def test_every_benchmark_row_names_a_public_function():
    # the traced benchmark times public functions by name and fails when a
    # row is missing; tier-1 does not run it, so renaming or deleting one
    # of these functions would otherwise pass here
    bench = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
    modules = {"tensor": T, "synth": synth, "training": training}
    named = 0
    for row in bench["per_layer"]:
        m = re.fullmatch(r"(tensor)\.(\w+)\.self_s|(synth|training)\.(\w+)\.s",
                         row["name"])
        if m:
            mod, name = m.group(1, 2) if m.group(1) else m.group(3, 4)
            assert name in modules[mod].__all__, row["name"]
            named += 1
    assert named


@pytest.mark.parametrize("recording", [True, False], ids=["recorded", "no_grad"])
def test_a_desk_forward_calls_every_timed_benchmark_op(recording, monkeypatch):
    # a traced benchmark run fails when a ``tensor.<op>.self_s`` row reads
    # nothing, so every such op must stay on the forward's path: a
    # training forward (recorded) and an eval one (no_grad)
    bench = json.loads((Path(__file__).resolve().parents[1]
                        / "BENCHMARK.json").read_text())
    timed = {m.group(1) for row in bench["per_layer"]
             if (m := re.fullmatch(r"tensor\.(\w+)\.self_s", row["name"]))}
    assert timed
    called = set()

    def watch(name, fn):
        def wrapped(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return wrapped

    for name in timed:
        monkeypatch.setattr(T, name, watch(name, getattr(T, name)))
    net = PulseMambaNet(ModelConfig(channels=32, blocks_per_stream=2), seed=0)
    x = T.Tensor(np.random.default_rng(0).normal(size=(1, 3, 32, 16, 16)))
    if recording:
        net.train()(x)
    else:
        with T.no_grad():
            net.eval()(x)
    assert timed - called == set()


def test_every_private_module_name_has_a_reader_in_src():
    # a module-level _name that no src/pulsemamba code reads is a dead
    # helper; reads inside the statement that defines it (recursion, a
    # docstring mention) do not count
    defined, reads = {}, {}
    for path in Path(T.__file__).parent.glob("*.py"):
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            where = (path.name, i)
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
            else:
                names = []
            for name in names:
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = where
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read = [node.id]
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    read = [alias.name for alias in node.names]
                else:
                    read = []
                for name in read:
                    reads.setdefault(name, set()).add(where)
    assert defined
    dead = sorted(f"{where[0]}:{name}" for name, where in defined.items()
                  if not reads.get(name, set()) - {where})
    assert dead == []
