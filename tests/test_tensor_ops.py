"""Forward-value oracles for the tensor engine: loop-oracle equivalence
for conv/linear/pooling, analytic values for the pointwise ops, shape
algebra, and the error contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemamba import tensor as T
from pulsemamba.errors import NumericError, ShapeError


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
    out = T.conv3d(T.ones((1, 1, 3, 1, 1)), T.ones((1, 1, 3, 1, 1)))
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


def test_conv3d_oracle_randomized_shapes(rng):
    """100 random shape/stride/padding draws against the loop oracle."""
    for _ in range(100):
        cin = int(rng.integers(1, 4))
        cout = int(rng.integers(1, 4))
        kt, kh, kw = (int(rng.integers(1, 4)) for _ in range(3))
        st_ = (int(rng.integers(1, 3)), int(rng.integers(1, 3)),
               int(rng.integers(1, 3)))
        pad = (int(rng.integers(0, 2)), int(rng.integers(0, 2)),
               int(rng.integers(0, 2)))
        t = int(rng.integers(kt, kt + 4))
        h = int(rng.integers(kh, kh + 4))
        wd = int(rng.integers(kw, kw + 4))
        x = rng.normal(size=(int(rng.integers(1, 3)), cin, t, h, wd))
        w = rng.normal(size=(cout, cin, kt, kh, kw))
        ours = T.conv3d(T.tensor(x), T.tensor(w), stride=st_, padding=pad).data
        ref = conv3d_oracle(x, w, st_, pad)
        scale = max(np.abs(ref).max(), 1e-300)
        assert np.abs(ours - ref).max() / scale <= 1e-12


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
        stride = tuple(int(rng.integers(1, 3)) for _ in range(3))
        t, h, w = (int(rng.integers(k, k + 4)) for k in kernel)
        x = rng.normal(size=(2, 2, t, h, w))
        ours = T.maxpool3d(T.tensor(x), kernel, stride).data
        ref = maxpool_oracle(x, kernel, stride)
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
        assert _bits_equal(out, np.logaddexp(0.0, x)) and _bits_equal(gx, g * s)
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


def _seed_conv1d(x, w, bias):
    # the single-pass formula: 0, then each tap in k order, then the bias
    L, K = x.shape[1], w.shape[1]
    out = np.zeros_like(x)
    for k in range(max(K - L, 0), K):
        n = L - (K - 1 - k)
        out[:, L - n:] += x[:, :n] * w[:, k]
    return out + bias


@pytest.mark.parametrize("block_rows", [None, 5])
@pytest.mark.parametrize("L", [1, 3, 4, 23])
def test_conv1d_depthwise_causal_bit_equal_to_seed_formula(L, block_rows, rng,
                                                           monkeypatch):
    if block_rows:  # (B=2, D=3) rows: L = 23 crosses four block edges
        monkeypatch.setattr(T, "BLOCK_BYTES", 3 * 8 * 2 * 3 * block_rows)
    x = rng.normal(size=(2, L, 3))
    x[0, 0] = [0.0, -0.0, 1e-300]
    w, bias = rng.normal(size=(3, 4)), rng.normal(size=3)
    out = T.conv1d_depthwise_causal(T.tensor(x), T.tensor(w), T.tensor(bias))
    assert _bits_equal(out.data, _seed_conv1d(x, w, bias))
    no_bias = T.conv1d_depthwise_causal(T.tensor(x), T.tensor(w))
    assert _bits_equal(no_bias.data, _seed_conv1d(x, w, 0.0))


def test_silu_blocks_bit_equal_to_seed_formula(rng, monkeypatch):
    monkeypatch.setattr(T, "BLOCK_BYTES", 8 * 8 * 7)  # 7-element blocks
    x = rng.normal(0.0, 8.0, (3, 10, 2))
    assert _bits_equal(T.silu(T.tensor(x)).data, x * _seed_sigmoid(x))


def test_flip_is_involution(rng):
    x = T.tensor(rng.normal(size=(2, 3, 4)))
    np.testing.assert_array_equal(T.flip(T.flip(x, 2), 2).data, x.data)


def test_elementwise_dispatch(rng):
    x = T.tensor(rng.normal(size=(3, 3)))
    y = T.tensor(rng.normal(size=(3, 3)))
    np.testing.assert_array_equal(T.elementwise("add", x, y).data,
                                  x.data + y.data)
    np.testing.assert_array_equal(T.elementwise("flip", x, axis=0).data,
                                  np.flip(x.data, 0))
    np.testing.assert_array_equal(T.elementwise("scale", x, factor=2.5).data,
                                  2.5 * x.data)
    with pytest.raises(ShapeError):
        T.elementwise("nonsense", x)


def test_div_by_zero_detected():
    with pytest.raises(NumericError):
        T.div(T.tensor([1.0]), T.tensor([0.0]))


def test_binary_shape_contract(rng):
    with pytest.raises(ShapeError):
        T.add(T.tensor(rng.normal(size=(2, 3))), T.tensor(rng.normal(size=(3, 2))))
    # scalar broadcast is allowed
    out = T.add(T.tensor(rng.normal(size=(2, 3))), T.tensor(5.0))
    assert out.shape == (2, 3)


# ---------------------------------------------------------------------------
# reductions and norms

def test_mean_and_population_std():
    x = T.tensor([1.0, 2.0, 3.0])
    assert T.reduce_mean(x).item() == 2.0
    assert abs(T.reduce_std(x).item() - math.sqrt(2.0 / 3.0)) < 1e-12


def test_std_degenerate_reduction():
    with pytest.raises(NumericError):
        T.reduce_std(T.tensor([4.0]), eps=0.0)
    # the eps guard makes it legal
    assert T.reduce_std(T.tensor([4.0]), eps=1e-5).item() == pytest.approx(
        math.sqrt(1e-5))


def test_layer_norm_constant_vector_is_zero():
    x = T.tensor(np.full((4, 6), 3.7))
    out = T.layer_norm(x, T.ones(6), T.zeros(6))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_standardizes_last_axis(rng):
    x = T.tensor(rng.normal(2.0, 3.0, size=(5, 32)))
    out = T.layer_norm(x, T.ones(32), T.zeros(32)).data
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-10)
    np.testing.assert_allclose(out.var(axis=-1), 1.0, atol=1e-3)


def test_batch_norm_eval_identity_statistics(rng):
    x = T.tensor(rng.normal(size=(2, 4, 3, 2, 2)))
    out = T.batch_norm(x, T.ones(4), T.zeros(4), np.zeros(4), np.ones(4),
                       training=False, eps=0.0)
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_batch_norm_train_updates_running_stats(rng):
    x = T.tensor(rng.normal(3.0, 2.0, size=(4, 2, 3, 2, 2)))
    rm, rv = np.zeros(2), np.ones(2)
    T.batch_norm(x, T.ones(2), T.zeros(2), rm, rv, training=True, momentum=0.1)
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
    x = T.zeros((1, 1, size, size, size))
    w = T.zeros((1, 1, k, k, k))
    out = T.conv3d(x, w, stride=(stride,) * 3, padding=(pad,) * 3)
    expected = (size + 2 * pad - k) // stride + 1
    assert out.shape == (1, 1, expected, expected, expected)


def test_conv_kernel_must_fit():
    with pytest.raises(ShapeError):
        T.conv3d(T.zeros((1, 1, 2, 2, 2)), T.zeros((1, 1, 3, 3, 3)))


def test_conv_cin_mismatch():
    with pytest.raises(ShapeError):
        T.conv3d(T.zeros((1, 2, 4, 4, 4)), T.zeros((1, 3, 3, 3, 3)))


def test_linear_din_mismatch():
    with pytest.raises(ShapeError):
        T.linear(T.zeros((2, 3)), T.zeros((4, 5)))


def test_narrow_bounds():
    with pytest.raises(ShapeError):
        T.narrow(T.zeros((2, 3)), 1, 2, 2)


def test_invariant_product_shape_equals_data_length(rng):
    x = T.tensor(rng.normal(size=(3, 4, 5)))
    assert int(np.prod(x.shape)) == x.data.size


def test_determinism_bit_identical(rng):
    x = rng.normal(size=(1, 2, 4, 6, 6))
    w = rng.normal(size=(3, 2, 3, 3, 3))
    a = T.conv3d(T.tensor(x), T.tensor(w), padding=(1, 1, 1)).data
    b = T.conv3d(T.tensor(x), T.tensor(w), padding=(1, 1, 1)).data
    assert np.array_equal(a, b)
