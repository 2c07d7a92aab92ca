"""Network blocks: temporal-difference conv oracle, channel attention,
block/stem/lateral/head shape algebra, full-network contracts and the
analytic profile."""

import copy
import gc
import hashlib
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemamba import blocks
from pulsemamba import tensor as T
from pulsemamba.blocks import (ChannelAttention, LateralConnection,
                               ModelConfig, PredictorHead, PulseMambaNet,
                               Stem, TemporalDifferenceConv3d,
                               TemporalDifferenceMambaBlock)
from pulsemamba.errors import CapacityError, ConfigError, ShapeError
from pulsemamba.profiling import profile_model
from pulsemamba.signal import neg_pearson_loss
from pulsemamba.tensor import Tensor


def tdc_oracle(x, w, theta):
    """Double-sum evaluation of the temporal-difference convolution.

    Vanilla term over the full 3x3x3 neighborhood plus
    -theta * x(p0) * sum of weights in the adjacent-time kernel planes.
    """
    b, cin, t, h, wd = x.shape
    cout = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1), (1, 1)))
    out = np.zeros((b, cout, t, h, wd))
    for bb in range(b):
        for co in range(cout):
            for ot in range(t):
                for oh in range(h):
                    for ow in range(wd):
                        acc = 0.0
                        diff = 0.0
                        for ci in range(cin):
                            for i in range(3):
                                for j in range(3):
                                    for k in range(3):
                                        acc += w[co, ci, i, j, k] * xp[
                                            bb, ci, ot + i, oh + j, ow + k]
                                        if i != 1:
                                            diff += w[co, ci, i, j, k] * x[
                                                bb, ci, ot, oh, ow]
                        out[bb, co, ot, oh, ow] = acc - theta * diff
    return out


def test_tdc_theta_zero_is_bit_identical_to_conv(rng):
    layer = TemporalDifferenceConv3d(2, 3, theta=0.0, rng=rng)
    x = Tensor(rng.normal(size=(1, 2, 4, 5, 5)))
    with T.no_grad():
        y_tdc = layer(x).data
        y_conv = T.conv3d(x, layer.weight, padding=(1, 1, 1)).data
    assert np.array_equal(y_tdc, y_conv)


def test_tdc_hand_evaluated_single_pixel(rng):
    # ones on the kernel's centre column only, theta 0.5, pixel stream
    # (..., 0, 1, 0, ...): vanilla term 1, difference term -0.5 * 1 * 2
    # -> output 0 at center
    layer = TemporalDifferenceConv3d(1, 1, theta=0.5, rng=rng)
    layer.weight.data[:] = 0.0
    layer.weight.data[..., 1, 1] = 1.0
    x = np.zeros((1, 1, 5, 1, 1))
    x[0, 0, 2] = 1.0
    with T.no_grad():
        y = layer(Tensor(x)).data
    assert y[0, 0, 2, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_tdc_matches_double_sum_oracle(rng):
    layer = TemporalDifferenceConv3d(2, 2, theta=0.5, rng=rng)
    x = rng.normal(size=(1, 2, 4, 4, 4))
    with T.no_grad():
        ours = layer(Tensor(x)).data
    ref = tdc_oracle(x, layer.weight.data, 0.5)
    rel = np.abs(ours - ref).max() / np.abs(ref).max()
    assert rel <= 1e-12


def two_conv_tdc(x, weight, theta, padding):
    """The difference term as its own pointwise conv (kernel S = sum of the
    adjacent-time planes), subtracted from the vanilla conv."""
    vanilla = T.conv3d(x, weight, (1, 1, 1), padding)
    adj = T.add(T.narrow(weight, 2, 0, 1), T.narrow(weight, 2, 2, 1))
    s = T.reduce_sum(adj, axes=(2, 3, 4))
    diff = T.conv3d(x, T.reshape(s, s.shape + (1, 1, 1)))
    return T.sub(vanilla, T.mul(diff, T.tensor(theta)))


def test_tdc_folded_kernel_matches_two_conv_form(rng):
    from pulsemamba.checks import signal_rel_err
    layer = TemporalDifferenceConv3d(3, 4, theta=0.7, rng=rng)
    x = Tensor(rng.normal(size=(2, 3, 4, 5, 5)), requires_grad=True)
    weights = Tensor(rng.normal(size=(2, 4, 4, 5, 5)))

    def run(forward):
        x.grad = layer.weight.grad = None
        y = forward()
        T.backward(T.reduce_sum(T.mul(y, weights)))
        return y.data, x.grad.copy(), layer.weight.grad.copy()

    folded = run(lambda: layer(x))
    ref = run(lambda: two_conv_tdc(x, layer.weight, 0.7, layer.padding))
    assert signal_rel_err(folded[0], ref[0]) <= 1e-14
    assert signal_rel_err(folded[1], ref[1]) <= 1e-12
    assert signal_rel_err(folded[2], ref[2]) <= 1e-12


def test_channel_attention_zero_weights_halve_input(rng):
    ca = ChannelAttention(8, ratio=4, rng=rng)
    for p in (ca.w1, ca.b1, ca.w2, ca.b2):
        p.data[:] = 0.0
    x = rng.normal(size=(2, 8, 3, 2, 2))
    with T.no_grad():
        y = ca(Tensor(x)).data
    np.testing.assert_allclose(y, 0.5 * x, rtol=1e-14)


def test_channel_attention_zero_input(rng):
    ca = ChannelAttention(8, ratio=4, rng=rng)
    with T.no_grad():
        y = ca(T.tensor(np.zeros((1, 8, 2, 2, 2)))).data
    np.testing.assert_array_equal(y, 0.0)


def test_channel_attention_gates_in_unit_interval(rng):
    ca = ChannelAttention(8, ratio=8, rng=rng)
    x = Tensor(rng.normal(size=(2, 8, 3, 4, 4)))
    with T.no_grad():
        squeezed = T.reduce_mean(x, axes=(2, 3, 4))
        gate = T.sigmoid(T.linear(T.relu(T.linear(squeezed, ca.w1, ca.b1)),
                                  ca.w2, ca.b2)).data
        y = ca(x)
    assert y.shape == x.shape
    assert np.all(gate > 0.0) and np.all(gate < 1.0)


# ---------------------------------------------------------------------------
# the TD-Mamba block

def test_block_zero_out_projection_leaves_residual_path(rng):
    block = TemporalDifferenceMambaBlock(4, state_dim=4, expand=2, theta=0.5,
                                         ca_ratio=4, rng=rng)
    block.mamba.w_out.data[:] = 0.0
    block.eval()
    x = Tensor(rng.normal(size=(1, 4, 2, 3, 3)))
    with T.no_grad():
        y = block(x).data
        # residual-only reference: CA(reshape(LN(h_k))) with h_k the
        # flattened TDC/BN-ReLU features
        f = block.bn(block.tdc(x))
        h_k = T.reshape(T.transpose(f, (0, 2, 3, 4, 1)), (1, 18, 4))
        g = T.transpose(T.reshape(block.post_ln(h_k), (1, 2, 3, 3, 4)),
                        (0, 4, 1, 2, 3))
        ref = block.ca(g).data
    np.testing.assert_allclose(y, ref, rtol=1e-12, atol=1e-12)


def test_block_preserves_shape(rng):
    block = TemporalDifferenceMambaBlock(8, state_dim=8, expand=2, theta=0.5,
                                         ca_ratio=4, rng=rng)
    block.eval()
    with T.no_grad():
        y = block(Tensor(rng.normal(size=(1, 8, 4, 4, 4))))
    assert y.shape == (1, 8, 4, 4, 4)
    assert np.isfinite(y.data).all()


def test_seq_budget_caps_block_0_before_the_forward(rng, monkeypatch):
    # block 0 of either stream flattens (T/4)(H/4)(W/4) tokens of C
    # channels, the most of any block: 2*4*4*8 = 256 for (8, 16, 16), C=8
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    sizes = []
    for stream in (net.blocks_slow, net.blocks_fast):
        for i, block in enumerate(stream):
            def record(v, block=block):
                sizes.append(v.size)
                return block(v)
            stream[i] = record
    x = Tensor(rng.normal(size=(1, 3, 8, 16, 16)))
    monkeypatch.setattr(blocks, "SEQ_BUDGET", 256)
    cfg.validate_input(8, 16, 16)
    with T.no_grad():
        net(x)
    assert max(sizes) == 256 == sizes[0] == sizes[1]  # slow, fast block 0
    monkeypatch.setattr(blocks, "SEQ_BUDGET", 255)
    sizes.clear()
    with pytest.raises(CapacityError, match="32x8 exceeds budget 255"):
        cfg.validate_input(8, 16, 16)
    with T.no_grad(), pytest.raises(CapacityError):
        net(x)
    assert sizes == []  # refused before any block ran


def test_block_gradients(rng):
    from pulsemamba import checks
    block = TemporalDifferenceMambaBlock(4, state_dim=4, expand=2, theta=0.5,
                                         ca_ratio=4, rng=rng)
    block.train()
    x = Tensor(rng.normal(size=(1, 4, 4, 2, 2)))

    def build():
        return T.reduce_mean(block(x))

    result = checks.gradcheck("td_mamba_block", build,
                              list(block.named_parameters()),
                              np.random.default_rng(2), samples_per_leaf=2)
    assert result.passed, result.line()


@pytest.mark.parametrize("kwargs, shape", [
    (dict(channels=32, blocks_per_stream=2), (4, 3, 32, 16, 16)),
    (dict(), (1, 3, 32, 64, 64)),
], ids=["desk_config", "long_train_shape"])
def test_network_gradient_along_a_random_direction(kwargs, shape):
    # the benchmark's training shapes, whose scans cross chunk edges (the
    # long-train fast block-0 scan has L = 4096); every parameter moves
    from pulsemamba import checks
    net = PulseMambaNet(ModelConfig(**kwargs), seed=0).train()
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=shape))
    y = Tensor(rng.normal(size=(shape[0], shape[2])))
    result = checks.directional_gradcheck(
        "network_direction", lambda: neg_pearson_loss(net(x), y),
        list(net.parameters()), rng)
    assert result.passed, result.line()


# ---------------------------------------------------------------------------
# stem / streams / head

def test_stem_and_split_toy_shape_algebra(rng):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = Tensor(rng.normal(size=(2, 3, 8, 16, 16)))
    with T.no_grad():
        feats = net.stem(x)
        slow = net.down_slow(feats)
        fast = net.down_fast(feats)
    assert feats.shape == (2, 8, 8, 4, 4)
    assert slow.shape == (2, 8, 2, 4, 4)
    assert fast.shape == (2, 4, 4, 4, 4)


def test_stem_zero_input_gives_zero_in_eval(rng):
    stem = Stem((4, 6, 8), rng=rng)
    stem.eval()
    with T.no_grad():
        y = stem(T.tensor(np.zeros((1, 3, 4, 16, 16))))
    np.testing.assert_array_equal(y.data, 0.0)


@pytest.mark.parametrize("case, bn1_rows", [("nonnegative", 8), ("mixed", 16),
                                             ("bn1_training", 16)])
def test_eval_stem_pools_first_bit_equal_to_pooling_last(case, bn1_rows, rng,
                                                          monkeypatch):
    stem = Stem((4, 6, 8), rng=rng).eval()
    for bn in (stem.bn1, stem.bn2, stem.bn3):
        c = bn.gamma.shape[0]
        bn.gamma.data = rng.uniform(0.1, 2.0, c)
        if case == "mixed":
            bn.gamma.data[::2] *= -1.0
            bn.gamma.data[1] = 0.0
        bn.beta.data = rng.normal(size=c)
        bn.running_mean[:] = rng.normal(size=c)
        bn.running_var[:] = rng.uniform(0.5, 2.0, c)
    if case == "bn1_training":
        stem.bn1.train()   # e.g. re-estimating BN statistics
    ref = copy.deepcopy(stem)
    x = rng.normal(size=(1, 3, 4, 16, 16))
    x[0, :, 1, :8, :8] = 0.25   # flat patch: tied windows at every stage
    if case != "bn1_training":
        x[0, 1, 2, 12, 3] = np.nan  # one NaN spreads through the convs

    seen = []
    batch_norm = T.batch_norm

    def spy(x, *args, **kwargs):
        seen.append(x.shape[-1])
        return batch_norm(x, *args, **kwargs)

    monkeypatch.setattr(T, "batch_norm", spy)
    with T.no_grad():
        got = stem(Tensor(x)).data

        def pool_last(conv, bn, h):
            return T.maxpool3d(bn(conv(h)), (1, 2, 2))

        h = pool_last(ref.conv1, ref.bn1, Tensor(x))
        h = ref.bn2(ref.conv2(h))
        want = pool_last(ref.conv3, ref.bn3, h).data
    assert seen[0] == bn1_rows
    if case == "bn1_training":
        assert not np.isnan(want).any()
        np.testing.assert_array_equal(stem.bn1.running_mean, ref.bn1.running_mean)
        np.testing.assert_array_equal(stem.bn1.running_var, ref.bn1.running_var)
    else:
        assert np.isnan(want).any() and not np.isnan(want).all()
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    finite = ~np.isnan(want)
    np.testing.assert_array_equal(got[finite].view(np.uint64),
                                  want[finite].view(np.uint64))


def test_eval_stem_drops_each_array_after_its_last_reader(rng, monkeypatch):
    """In an eval no_grad stem a stage's input is gone once its conv has
    returned, and a halving stage's conv returns its pooled output: no
    full-resolution conv output is ever made, and no separate pool runs."""
    stem = Stem((4, 6, 8), rng=rng).eval()
    x = Tensor(rng.normal(size=(1, 3, 4, 16, 16)))
    convs, alive_at_bn = [], []
    real_conv, real_bn = T.conv3d, T.batch_norm

    def conv(h, *args):
        out = real_conv(h, *args)
        convs.append((weakref.ref(h.data), weakref.ref(out.data), out.shape))
        return out

    def bn(h, *args, **kwargs):
        alive_at_bn.append([[r() is not None for r in c[:2]] for c in convs])
        return real_bn(h, *args, **kwargs)

    def pool(*args):
        raise AssertionError("the eval stem pools inside its convs")

    monkeypatch.setattr(T, "conv3d", conv)
    monkeypatch.setattr(T, "batch_norm", bn)
    monkeypatch.setattr(T, "maxpool3d", pool)
    with T.no_grad():
        stem(x)
    assert [c[2] for c in convs] == [(1, 4, 4, 8, 8), (1, 6, 4, 8, 8),
                                     (1, 8, 4, 4, 4)]
    # [input, output] of each conv so far; the stem's input is the caller's
    # and each conv's output is the BN input
    assert alive_at_bn == [[[True, True]],
                           [[True, False], [False, True]],
                           [[True, False], [False, False], [False, True]]]


def _eval_stem_stage_peaks(stem, x, monkeypatch):
    """Per stage of an eval no_grad stem forward of ``x``: the tracemalloc
    peak from its conv's call to the next stage's (the last stage's: to
    the stem's return), over what was held at that call less the stage's
    input, which its caller holds."""
    real_conv, held, peaks = T.conv3d, [], []

    def close_stage():
        if held:
            peaks.append(tracemalloc.get_traced_memory()[1] - held[-1])

    def conv(h_, *args):
        close_stage()
        held.append(tracemalloc.get_traced_memory()[0] - h_.data.nbytes)
        tracemalloc.reset_peak()
        return real_conv(h_, *args)

    monkeypatch.setattr(T, "conv3d", conv)
    tracemalloc.start()
    try:
        with T.no_grad():
            stem(x)
        close_stage()
    finally:
        tracemalloc.stop()
    return peaks


def _assert_halving_stage_peak(stage, rng, monkeypatch):
    """A halving stage holds at most its input, its conv's ring of planes,
    the pooled output and the conv's two frame buffers (the frame sum and
    the GEMM product): no full-resolution conv output, no padded input."""
    widths = (4, 6, 8)
    stem = Stem(widths, rng=rng).eval()
    x = Tensor(rng.normal(size=(1, 3, 16, 128, 128)))
    cin, cout, (kt, kh, kw) = ((3, widths[0], (1, 5, 5)) if stage == 0
                               else (widths[1], widths[2], (3, 3, 3)))
    t, h, w = (16, 128, 128) if stage == 0 else (16, 64, 64)
    stage_in = 8 * cin * t * h * w
    pooled = 8 * cout * t * h * w // 4
    ring = 8 * kt * cin * kh * kw * h * w
    frame = 8 * cout * h * w
    # NumPy's ufunc buffers (8192 values per operand), the kernel's parts
    # and bookkeeping
    margin = 3 * 8192 * 8 + 8 * cout * cin * kt * kh * kw + (16 << 10)
    peak = _eval_stem_stage_peaks(stem, x, monkeypatch)[stage]
    assert peak < stage_in + pooled + ring + 2 * frame + margin


def test_eval_stem_first_halving_stage_peak(rng, monkeypatch):
    _assert_halving_stage_peak(0, rng, monkeypatch)


def test_eval_stem_halving_stage_peak(rng, monkeypatch):
    _assert_halving_stage_peak(2, rng, monkeypatch)


def test_lateral_shape_and_zero_behaviour(rng):
    lat = LateralConnection(4, rng=rng)
    with T.no_grad():
        y = lat(Tensor(rng.normal(size=(1, 4, 8, 5, 5))))
        zero = lat(T.tensor(np.zeros((1, 4, 8, 5, 5))))
    assert y.shape == (1, 8, 4, 5, 5)
    np.testing.assert_array_equal(zero.data, 0.0)


def test_lateral_impulse_support(rng):
    """Impulse response support matches kernel 3, stride 2, padding 1."""
    lat = LateralConnection(1, rng=rng)
    x = np.zeros((1, 1, 8, 1, 1))
    x[0, 0, 4] = 1.0
    with T.no_grad():
        y = lat(Tensor(x)).data[0, :, :, 0, 0]
    # input index 4 reaches output t where 2t + k - 1 = 4, k in {0,1,2}
    nonzero_t = sorted(set(np.nonzero(y)[1].tolist()))
    assert set(nonzero_t) <= {1, 2}
    # oracle loop conv over the temporal axis
    w = lat.conv.weight.data[:, 0, :, 0, 0]
    expected = np.zeros((2, 4))
    xp = np.pad(x[0, 0, :, 0, 0], 1)
    for co in range(2):
        for ot in range(4):
            expected[co, ot] = sum(w[co, k] * xp[2 * ot + k] for k in range(3))
    np.testing.assert_allclose(y, expected, rtol=1e-14)


def test_head_constant_features_give_shift_invariant_signal(rng):
    """Constant features map to a signal invariant under the head's
    natural shift (2 samples for the stride-2 transposed conv); each
    polyphase branch is constant away from the zero-padded edges."""
    head = PredictorHead(8, 4, 6, rng=rng)
    slow = Tensor(np.full((1, 8, 2, 3, 3), 0.7))
    fast = Tensor(np.full((1, 4, 4, 3, 3), -0.2))
    with T.no_grad():
        y = head(slow, fast).data
    assert y.shape == (1, 8)
    interior = y[0, 1:-1]
    np.testing.assert_allclose(interior[::2], interior[0], rtol=1e-12)
    np.testing.assert_allclose(interior[1::2], interior[1], rtol=1e-12)


def test_head_rejects_time_mismatch(rng):
    head = PredictorHead(8, 4, 6, rng=rng)
    with pytest.raises(ShapeError):
        head(Tensor(np.zeros((1, 8, 2, 3, 3))),
             Tensor(np.zeros((1, 4, 6, 3, 3))))


# ---------------------------------------------------------------------------
# whole network

def test_toy_network_shape(rng):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    with T.no_grad():
        y = net(Tensor(rng.normal(size=(2, 3, 16, 16, 16))))
    assert y.shape == (2, 16)
    assert np.isfinite(y.data).all()


@settings(max_examples=8, deadline=None)
@given(st.sampled_from([8, 16, 24]), st.sampled_from([16, 32]))
def test_network_shape_algebra_property(t, hw):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, t, hw, hw)))
    with T.no_grad():
        y = net(x)
    assert y.shape == (1, t)


def test_network_rejects_bad_divisibility(rng):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0)
    with pytest.raises(ConfigError):
        net(Tensor(rng.normal(size=(1, 3, 10, 16, 16))))
    with pytest.raises(ConfigError):
        net(Tensor(rng.normal(size=(1, 3, 8, 12, 12))))


def test_network_depends_on_every_frame(rng):
    """Receptive-field coverage: perturbing any single frame changes Y."""
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = rng.normal(size=(1, 3, 8, 16, 16))
    with T.no_grad():
        y0 = net(Tensor(x)).data
    for frame in range(8):
        x2 = x.copy()
        x2[0, :, frame] += 0.5
        with T.no_grad():
            y1 = net(Tensor(x2)).data
        assert np.abs(y1 - y0).max() > 1e-9, f"frame {frame} has no effect"


def test_network_not_scale_invariant_in_train_mode(rng):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).train()
    x = rng.normal(size=(2, 3, 8, 16, 16))
    y1 = net(Tensor(x)).data.copy()
    y2 = net(Tensor(2.0 * x)).data
    assert np.abs(y1 - y2).max() > 1e-9


def test_network_seeded_construction_is_deterministic():
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    a = PulseMambaNet(cfg, seed=5)
    b = PulseMambaNet(cfg, seed=5)
    for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
        assert np.array_equal(pa.data, pb.data)


# ---------------------------------------------------------------------------
# concurrent slow/fast streams

DESK = ModelConfig(channels=32, blocks_per_stream=2)


def sequential_forward(net, x):
    """The network's forward written out as one submodule call at a time."""
    feats = net.stem(x)
    slow, fast = net.down_slow(feats), net.down_fast(feats)
    last = len(net.blocks_slow) - 1
    for i, (bs, bf) in enumerate(zip(net.blocks_slow, net.blocks_fast)):
        slow, fast = bs(slow), bf(fast)
        if i < last:
            slow = T.maxpool3d(slow, (1, 2, 2))
            fast = T.maxpool3d(fast, (1, 2, 2))
            slow = T.add(slow, net.laterals[i](fast))
    return net.head(slow, fast)


@pytest.fixture
def every_stage_concurrent(monkeypatch):
    monkeypatch.setattr(blocks, "_CONCURRENT_MIN_ELEMS", 0)


def test_stream_stage_placement():
    ran_on = {}

    def stage(name):
        def run(x):
            ran_on[name] = threading.current_thread()
            return x
        return run

    big = Tensor(np.zeros(blocks._CONCURRENT_MIN_ELEMS))
    small = Tensor(np.zeros(blocks._CONCURRENT_MIN_ELEMS - 1))
    main = threading.current_thread()
    for x, grads, slow_off_main in ((big, False, True), (small, False, False),
                                    (big, True, False)):
        ran_on.clear()
        if grads:
            blocks._both_streams(stage("slow"), x, stage("fast"), x)
        else:
            with T.no_grad():
                blocks._both_streams(stage("slow"), x, stage("fast"), x)
        assert ran_on["fast"] is main
        assert (ran_on["slow"] is not main) == slow_off_main


def test_concurrent_forward_bitwise_equals_sequential(every_stage_concurrent):
    net = PulseMambaNet(DESK, seed=0).eval()
    x = Tensor(np.random.default_rng(3).normal(size=(4, 3, 32, 16, 16)))
    with T.no_grad():
        ref = sequential_forward(net, x).data
        for _ in range(2):
            assert np.array_equal(net(x).data, ref)


@pytest.mark.parametrize("failing", ["slow", "fast"])
def test_stream_error_reaches_caller_and_worker_is_joined(
        failing, every_stage_concurrent):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 8, 16, 16)))
    with T.no_grad():
        ref = net(x).data
    streams = {"slow": net.blocks_slow, "fast": net.blocks_fast}
    original = streams[failing][0]
    other = streams["fast" if failing == "slow" else "slow"]
    other_block = other[0]
    finished = []

    def fail(_):
        raise CapacityError("injected")

    def finish_late(v):
        time.sleep(0.05)
        out = other_block(v)
        finished.append(True)
        return out

    streams[failing][0] = fail
    other[0] = finish_late
    with T.no_grad(), pytest.raises(CapacityError, match="injected"):
        net(x)
    assert finished == [True]  # the other stream ran to its end first
    streams[failing][0] = original
    other[0] = other_block
    with T.no_grad():
        assert np.array_equal(net(x).data, ref)


def _graph_nodes(out):
    """The nodes reachable from ``out``, in recording order."""
    seen, stack = {}, [out._node]
    while stack:
        node = stack.pop()
        if isinstance(node, T._Node) and id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.inputs)  # parent nodes, leaves or None
    return sorted(seen.values(), key=lambda n: n.seq)


def _graph_op_names(out):
    """Names of the nodes reachable from ``out``, in recording order."""
    return [node.name for node in _graph_nodes(out)]


def test_recording_forwards_record_the_same_graph(every_stage_concurrent):
    cfg = ModelConfig(channels=8, blocks_per_stream=3, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = Tensor(np.random.default_rng(5).normal(size=(1, 3, 8, 32, 32)))
    graphs = [_graph_op_names(net(x)) for _ in range(2)]
    assert graphs[0] == graphs[1] == _graph_op_names(sequential_forward(net, x))


def _holds_graph_tensor(obj) -> bool:
    """Whether ``obj`` reaches a non-leaf Tensor through containers and
    closure cells."""
    if isinstance(obj, Tensor):
        return obj._node is not None
    if isinstance(obj, (list, tuple)):
        return any(_holds_graph_tensor(o) for o in obj)
    cells = getattr(obj, "__closure__", None) or ()
    return any(_holds_graph_tensor(c.cell_contents) for c in cells)


def _toy_training_loss(seed=6):
    cfg = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4, state_dim=4)
    net = PulseMambaNet(cfg, seed=0).train()
    rng = np.random.default_rng(seed)
    x = Tensor(rng.normal(size=(2, 3, 8, 16, 16)))
    y = Tensor(rng.normal(size=(2, 8)))
    return net, lambda: neg_pearson_loss(net(x), y)


def test_recorded_graph_holds_no_intermediate_tensor():
    _, build = _toy_training_loss()
    nodes = _graph_nodes(build())
    assert {"batch_norm", "relu", "maxpool3d", "selective_scan"} <= {
        n.name for n in nodes}
    pinned = sorted({n.name for n in nodes
                     if _holds_graph_tensor(n.bwd) or _holds_graph_tensor(n.inputs)})
    assert pinned == []


def test_activations_no_rule_reads_die_in_the_forward(monkeypatch):
    """A BN-ReLU output that feeds a max-pool or a transpose is freed once
    the forward has consumed it (the op keeps its input, not its output
    or a ReLU mask), and the backward's gradients do not change."""
    net, build = _toy_training_loss()
    probes = []

    def step():
        for p in net.parameters():
            p.grad = None
        loss = build()
        alive = sum(r() is not None for r in probes)
        T.backward(loss)
        return alive, loss.data, [p.grad for p in net.parameters()]

    def probing(real):
        def call(x, *args):
            if x._node is not None and x._node.name == "batch_norm":
                probes.append(weakref.ref(x.data))
            return real(x, *args)
        return call

    _, loss_ref, grads_ref = step()
    for op in ("maxpool3d", "transpose"):
        monkeypatch.setattr(T, op, probing(getattr(T, op)))
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        alive, loss, grads = step()
    finally:
        if was_enabled:
            gc.enable()
    # 6 of the 9 BN-ReLU outputs: 2 pooled in the stem, 4 transposed in
    # the blocks (the other 3 are conv inputs, which the conv rules read)
    assert len(probes) == 6
    assert alive == 0
    assert np.array_equal(loss, loss_ref)
    assert all(np.array_equal(g, r) for g, r in zip(grads, grads_ref))


def test_no_grad_forward_frees_stem_and_conv_features_before_the_mamba_layers(
        monkeypatch):
    """Under no_grad nothing records them: the stem output and each
    block's conv features (its BN-ReLU output) die before any Mamba layer
    runs, and the output stays bitwise."""
    net = PulseMambaNet(ModelConfig(channels=16, blocks_per_stream=2,
                                    ca_ratio=4), seed=0).eval()
    x = Tensor(np.random.default_rng(4).normal(size=(1, 3, 16, 16, 16)))
    with T.no_grad():
        ref = net(x).data
    probes, alive, in_block = [], [], []
    real_stem, real_bn = blocks.Stem.__call__, T.batch_norm
    real_block = blocks.TemporalDifferenceMambaBlock.__call__
    real_mamba = blocks.MambaLayer.__call__

    def stem(self, x):
        out = real_stem(self, x)
        probes.append(weakref.ref(out.data))
        return out

    def block(self, x):
        in_block.append(self)
        try:
            return real_block(self, x)
        finally:
            in_block.pop()

    def batch_norm(x, *args, **kwargs):
        out = real_bn(x, *args, **kwargs)
        if in_block:
            probes.append(weakref.ref(out.data))
        return out

    def mamba(self, h):
        alive.append(sum(r() is not None for r in probes))
        return real_mamba(self, h)

    monkeypatch.setattr(blocks.Stem, "__call__", stem)
    monkeypatch.setattr(blocks.TemporalDifferenceMambaBlock, "__call__", block)
    monkeypatch.setattr(T, "batch_norm", batch_norm)
    monkeypatch.setattr(blocks.MambaLayer, "__call__", mamba)
    with T.no_grad():
        out = net(x).data
    assert len(alive) == 4 and len(probes) == 5  # the stem's, 4 blocks'
    assert alive == [0, 0, 0, 0]
    assert np.array_equal(out, ref)


# ---------------------------------------------------------------------------
# profile

# (config, input THW) -> (params, MACs, sha256 prefix of repr(rows))
PINNED_PROFILES = [
    (dict(), (128, 128, 128), 682469, 42703660800, "789043a0473578e0"),
    (dict(), (32, 64, 64), 682469, 2669204736, "50779c8a705a701e"),
    (dict(channels=32, blocks_per_stream=2), (32, 16, 16),
     131421, 46714240, "a44e0906fbd52dae"),
    (dict(channels=16, blocks_per_stream=2, ca_ratio=4), (8, 16, 16),
     38413, 3611808, "6558f17506dc2bd4"),
    (dict(channels=8, blocks_per_stream=3, ca_ratio=4, state_dim=4),
     (8, 16, 16), 13906, 1873608, "76562b1907ce2f20"),
    (dict(channels=16, blocks_per_stream=2, ca_ratio=4, expand=3, state_dim=5),
     (8, 16, 16), 35965, 3284128, "ff337df1efda7297"),
]


@pytest.mark.parametrize("kwargs, thw, params, macs, digest", PINNED_PROFILES)
def test_profile_rows_are_pinned(kwargs, thw, params, macs, digest):
    report = profile_model(ModelConfig(**kwargs), thw)
    assert (report.param_count, report.mac_count) == (params, macs)
    assert hashlib.sha256(repr(report.rows).encode()).hexdigest()[:16] == digest


def test_profile_matches_instantiated_model():
    cfg = ModelConfig()
    report = profile_model(cfg, (128, 128, 128))
    net = PulseMambaNet(cfg, seed=0)
    assert report.param_count == net.num_parameters()


def test_profile_within_acceptance_bands():
    report = profile_model(ModelConfig(), (128, 128, 128))
    assert 0.45e6 <= report.param_count <= 0.70e6
    assert 38e9 <= report.mac_count <= 57e9


def test_profile_toy_config_counts_match():
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    report = profile_model(cfg, (8, 16, 16))
    net = PulseMambaNet(cfg, seed=0)
    assert report.param_count == net.num_parameters()
    assert report.mac_count > 0
