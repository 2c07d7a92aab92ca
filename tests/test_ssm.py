"""Scan kernels: ZOH values and limits, recurrent/convolutional
equivalence, causality, stability, selective-scan oracles and the
bidirectional layer."""

import math
import tracemalloc

import numpy as np
import pytest

from pulsemamba import checks, ssm
from pulsemamba import tensor as T
from pulsemamba.errors import NumericError, ShapeError
from pulsemamba.ssm import (MambaLayer, SSMParams, discretize_zoh,
                            scan_convolutional, scan_recurrent,
                            selective_scan, selective_scan_reference)
from pulsemamba.tensor import Tensor


# ---------------------------------------------------------------------------
# discretization

def test_zoh_closed_form_values():
    abar, bbar = discretize_zoh(np.array([[-1.0]]), np.array([1.0]), 0.1)
    assert abs(abar[0, 0] - math.exp(-0.1)) < 1e-15
    assert abs(bbar[0, 0] - (math.exp(-0.1) - 1.0) / (-1.0)) < 1e-15
    assert abs(abar[0, 0] - 0.904837) < 1e-6
    assert abs(bbar[0, 0] - 0.0951626) < 1e-7


def test_zoh_small_delta_limit():
    abar, bbar = discretize_zoh(np.array([[-1.0]]), np.array([1.0]), 1e-15)
    assert abs(abar[0, 0] - 1.0) < 1e-12
    assert abs(bbar[0, 0]) < 1e-12


def test_zoh_tiny_delta_matches_mpmath():
    # the float64 exact form loses ~5 digits to cancellation at
    # |delta*a| = 1e-12, so the oracle is a 50-digit evaluation
    import mpmath as mp
    mp.mp.dps = 50
    _, bbar = discretize_zoh(np.array([[-1.0]]), np.array([1.0]), 1e-12)
    ref = float((mp.e ** (mp.mpf(1e-12) * -1) - 1) / -1)
    assert abs(bbar[0, 0] - ref) / abs(ref) <= 1e-10


@pytest.mark.parametrize("a", [-1.0, -3.0, -0.7])
def test_zoh_one_expm1_matches_exp_and_mpmath(a):
    """abar = 1 + expm1(da) stays within 2.3e-16 of exp(da), and growth
    within 4 ulp of expm1(da) / a at 50 digits, from |da| = 1e-12 to 700."""
    import mpmath as mp
    mp.mp.dps = 50
    das = np.array([-1e-12, -2e-8, -1e-4, -1.0, -30.0, -700.0])
    delta = das / a
    abar, growth = ssm._zoh(np.array([[a]]), delta[:, None, None])
    for da, ab, gr in zip(delta * a, abar.ravel(), growth.ravel()):
        assert abs(ab - math.exp(da)) <= 2.3e-16
        ref = float(mp.expm1(mp.mpf(float(da))) / a)
        assert abs(gr - ref) <= 4 * math.ulp(ref)


def test_zoh_rejects_nonpositive_delta():
    with pytest.raises(NumericError):
        discretize_zoh(np.array([[-1.0]]), np.array([1.0]), 0.0)


def test_zoh_selective_mode_shapes(rng):
    a = -rng.uniform(0.5, 2.0, (3, 4))
    b = rng.normal(size=4)
    delta = rng.uniform(0.05, 0.5, (5, 3))
    abar, bbar = discretize_zoh(a, b, delta)
    assert abar.shape == (5, 3, 4) and bbar.shape == (5, 3, 4)
    # 0 < Abar < 1 for delta > 0, a < 0
    assert np.all(abar > 0.0) and np.all(abar < 1.0)
    with pytest.raises(ShapeError):  # b is time-invariant, (N,)
        discretize_zoh(a, rng.normal(size=(5, 4)), delta)


# ---------------------------------------------------------------------------
# recurrent / convolutional evaluation

def test_scan_recurrent_hand_unrolled():
    y = scan_recurrent(np.array([[0.5]]), np.array([[1.0]]),
                       np.array([[1.0]]), np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(y[:, 0], [1.0, 1.5])


def test_scan_recurrent_memoryless_when_abar_zero(rng):
    d, n, L = 3, 4, 8
    bbar = rng.normal(size=(d, n))
    c = rng.normal(size=(d, n))
    x = rng.normal(size=(L, d))
    y = scan_recurrent(np.zeros((d, n)), bbar, c, x)
    expected = x * (c * bbar).sum(axis=1)
    np.testing.assert_allclose(y, expected, rtol=1e-12)


def test_scan_recurrent_zero_input_zero_output(rng):
    d, n = 2, 16
    abar = rng.uniform(0.1, 0.9, (d, n))
    y = scan_recurrent(abar, rng.normal(size=(d, n)), rng.normal(size=(d, n)),
                       np.zeros((10, d)))
    np.testing.assert_array_equal(y, 0.0)


def test_scan_convolutional_kernel_values():
    # Abar=0.5, Bbar=1, C=1 -> kernel (1, 0.5, ...)
    y = scan_convolutional(np.array([[0.5]]), np.array([[1.0]]),
                           np.array([[1.0]]), np.array([[1.0], [1.0]]))
    np.testing.assert_allclose(y[:, 0], [1.0, 1.5])


def test_scan_convolutional_pointwise_when_abar_zero(rng):
    d, n, L = 2, 3, 6
    bbar = rng.normal(size=(d, n))
    c = rng.normal(size=(d, n))
    x = rng.normal(size=(L, d))
    y = scan_convolutional(np.zeros((d, n)), bbar, c, x)
    np.testing.assert_allclose(y, x * (c * bbar).sum(axis=1), rtol=1e-12)


def test_scan_convolutional_rejects_selective_parameters(rng):
    with pytest.raises(ShapeError):
        scan_convolutional(rng.uniform(0.1, 0.9, (5, 2, 3)),
                           rng.normal(size=(5, 2, 3)),
                           rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))


@pytest.mark.parametrize("L", [1, 2, 17, 64])
def test_cross_mode_equivalence(L, rng):
    d, n = 4, 16
    a = -rng.uniform(0.1, 3.0, (d, n))
    b = rng.normal(size=n)
    c = rng.normal(size=(d, n))
    abar, bbar = discretize_zoh(a, b, float(rng.uniform(0.01, 0.5)))
    x = rng.normal(size=(L, d))
    y_rec = scan_recurrent(abar, bbar, c, x)
    y_conv = scan_convolutional(abar, bbar, c, x)
    assert checks.signal_rel_err(y_rec, y_conv) <= 1e-8


def test_causality(rng):
    d, n, L = 3, 8, 20
    abar = rng.uniform(0.2, 0.9, (d, n))
    bbar = rng.normal(size=(d, n))
    c = rng.normal(size=(d, n))
    x = rng.normal(size=(L, d))
    y = scan_recurrent(abar, bbar, c, x)
    t0 = 11
    x2 = x.copy()
    x2[t0] += 1.0
    y2 = scan_recurrent(abar, bbar, c, x2)
    np.testing.assert_array_equal(y[:t0], y2[:t0])
    assert np.abs(y[t0:] - y2[t0:]).max() > 0.0


def test_stability_bound_over_long_sequence(rng):
    d, n, L = 4, 16, 4096
    a = -rng.uniform(0.05, 2.0, (d, n))
    b = rng.normal(size=n)
    c = rng.normal(size=(d, n))
    abar, bbar = discretize_zoh(a, b, 0.2)
    x = rng.uniform(-1.0, 1.0, (L, d))
    y = scan_recurrent(abar, bbar, c, x)
    assert np.isfinite(y).all()
    # |h| <= bound, so |y_d| = |sum_n c_dn h_dn| <= sum_n |c_dn| * bound
    bound = np.abs(bbar).max() * np.abs(x).max() / (1.0 - abar.max())
    assert np.abs(y).max() <= np.abs(c).sum(axis=1).max() * bound * (1.0 + 1e-9)


def test_scan_reports_nan_step_index(rng):
    d, n, L = 2, 3, 12
    abar = rng.uniform(0.2, 0.8, (d, n))
    bbar = rng.normal(size=(d, n))
    c = rng.normal(size=(d, n))
    x = rng.normal(size=(L, d))
    x[7] = np.nan
    with pytest.raises(NumericError, match="step 7"):
        scan_recurrent(abar, bbar, c, x)


# ---------------------------------------------------------------------------
# selective scan

@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_selective_scan_refuses_an_overflowing_a(rng):
    # a = -exp(a_log) = -inf would zero that state's drive without a word
    params = SSMParams(3, 4, 1, rng)
    params.a_log.data[1, 2] = 1000.0
    with pytest.raises(NumericError, match="exp"):
        selective_scan(params, Tensor(rng.normal(size=(1, 5, 3))))


def test_selective_scan_zero_input_is_zero(rng):
    params = SSMParams(4, 16, 1, rng)
    with T.no_grad():
        y = selective_scan(params, Tensor(np.zeros((1, 12, 4))))
    np.testing.assert_array_equal(y.data, 0.0)


def test_selective_scan_matches_reference(rng):
    for _ in range(5):
        d = int(rng.integers(2, 6))
        params = SSMParams(d, 16, max(1, d // 2), rng)
        x = rng.normal(size=(32, d))
        with T.no_grad():
            y = selective_scan(params, Tensor(x[None])).data[0]
        y_ref = selective_scan_reference(params, x)
        assert checks.signal_rel_err(y, y_ref) <= 1e-10


@pytest.mark.parametrize("da", [2e-8, 1e-6, 1e-4])
def test_reference_growth_accurate_at_small_delta_a(da, rng):
    # one channel, one state, a = -1, B = C = x = 1: y is the growth
    # factor expm1(delta*a)/a itself, checked against 50 digits
    import mpmath as mp
    params = SSMParams(1, 1, 1, rng)
    for p in (params.a_log, params.w_b, params.w_c, params.w_dt_down):
        p.data[...] = 0.0
    params.dt_bias.data[...] = math.log(math.expm1(da))
    params.b_bias = Tensor(np.ones(1))
    params.c_bias = Tensor(np.ones(1))
    raw = params.dt_bias.data[0]
    delta = math.log1p(math.exp(-abs(raw))) + max(raw, 0.0)  # as the reference
    y = selective_scan_reference(params, np.ones((1, 1)))[0, 0]
    with mp.workdps(50):
        ref = -mp.expm1(-mp.mpf(delta))
        assert abs((mp.mpf(y) - ref) / ref) <= 1e-15


def test_selective_scan_constant_projection_bitwise():
    result = checks.constant_projection_bitwise(seed=11)
    assert result.passed, result.line()


def test_constant_projection_bitwise_across_chunks(monkeypatch):
    # 7-token chunks: the op runs 7 chunks of L = 48 against the
    # whole-sequence scan_recurrent, so a chunk edge changes no bit
    monkeypatch.setattr(ssm, "_chunk_len", lambda *_: 7)
    result = checks.constant_projection_bitwise(seed=11)
    assert result.passed, result.line()


def test_selective_scan_batched_consistency(rng):
    params = SSMParams(3, 8, 1, rng)
    x = rng.normal(size=(2, 10, 3))
    with T.no_grad():
        y_batched = selective_scan(params, Tensor(x)).data
        y0 = selective_scan(params, Tensor(x[:1])).data[0]
        y1 = selective_scan(params, Tensor(x[1:])).data[0]
    np.testing.assert_array_equal(y_batched[0], y0)
    np.testing.assert_array_equal(y_batched[1], y1)


def test_selective_scan_gradients(rng):
    u = Tensor(rng.normal(size=(1, 7, 3)), requires_grad=True)
    delta = Tensor(rng.uniform(0.05, 0.6, (1, 7, 3)), requires_grad=True)
    a_log = Tensor(np.log(rng.uniform(0.3, 2.0, (3, 5))), requires_grad=True)
    bm = Tensor(rng.normal(size=(1, 7, 5)), requires_grad=True)
    cm = Tensor(rng.normal(size=(1, 7, 5)), requires_grad=True)
    weights = np.sin(np.arange(21)).reshape(1, 7, 3)

    def build():
        y = ssm.selective_scan_op(u, delta, a_log, bm, cm)
        return T.reduce_sum(T.mul(y, Tensor(weights)))

    result = checks.gradcheck("selective", build,
                              [("u", u), ("delta", delta), ("a_log", a_log),
                               ("B", bm), ("C", cm)],
                              np.random.default_rng(0), samples_per_leaf=6)
    assert result.passed, result.line()


@pytest.mark.parametrize("bsz", [1, 2])
def test_selective_scan_chunking_invariance(bsz, rng, monkeypatch):
    params = SSMParams(3, 8, 1, rng)
    xt = Tensor(rng.normal(size=(bsz, 50, 3)), requires_grad=True)
    weights = Tensor(np.cos(np.arange(150.0 * bsz)).reshape(bsz, 50, 3))
    leaves = [xt, params.a_log, params.w_b, params.w_c, params.w_dt_down,
              params.w_dt_up, params.dt_bias]
    shape_chunk = ssm._chunk_len  # 50 tokens at this shape: one chunk

    def run(chunk):
        monkeypatch.setattr(ssm, "_chunk_len",
                            (lambda *_: chunk) if chunk else shape_chunk)
        with T.no_grad():
            y = selective_scan(params, xt).data
        for p in leaves:
            p.grad = None
        T.backward(T.reduce_sum(T.mul(selective_scan(params, xt), weights)))
        return y, [p.grad.copy() for p in leaves]

    (y_small, g_small), (y_big, g_big) = run(7), run(None)
    np.testing.assert_array_equal(y_small, y_big)
    for a, b in zip(g_small, g_big):
        assert checks.signal_rel_err(a, b) <= 1e-12


def test_recorded_scan_keeps_only_chunk_start_states(rng):
    bsz, L, d, n = 1, 4096, 64, 16
    chunk = ssm._chunk_len(bsz, d, n)
    assert L // chunk >= 16  # many chunks, so the full history would dwarf one
    u = Tensor(rng.normal(size=(bsz, L, d)), requires_grad=True)
    delta = Tensor(rng.uniform(0.01, 0.1, (bsz, L, d)))
    a_log = Tensor(np.log(np.tile(np.arange(1.0, n + 1.0), (d, 1))))
    bmat, cmat = (Tensor(rng.normal(size=(bsz, L, n))) for _ in range(2))
    state = bsz * n * d * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = ssm.selective_scan_op(u, delta, a_log, bmat, cmat)
        held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
    finally:
        tracemalloc.stop()
    boundary = -(-L // chunk) * state
    assert held <= boundary + (chunk + 1) * state
    assert held < (L + 1) * state / 16
    T.backward(T.reduce_sum(y))
    assert u.grad is not None and np.isfinite(u.grad).all()


def _backward_peak_in_token_rows(rng, monkeypatch, bsz, chunk):
    """The scan rule's tracemalloc peak above its returned gradients, in
    (B, N, D) token rows, at L = 1024, D = 64, N = 16, with ``chunk``-token
    chunks."""
    monkeypatch.setattr(ssm, "_chunk_len", lambda *_: chunk)
    L, d, n = 1024, 64, 16
    u = Tensor(rng.normal(size=(bsz, L, d)), requires_grad=True)
    delta = Tensor(rng.uniform(0.01, 0.1, (bsz, L, d)), requires_grad=True)
    a_log = Tensor(np.log(np.tile(np.arange(1.0, n + 1.0), (d, 1))),
                   requires_grad=True)
    bmat, cmat = (Tensor(rng.normal(size=(bsz, L, n)), requires_grad=True)
                  for _ in range(2))
    y = ssm.selective_scan_op(u, delta, a_log, bmat, cmat)
    gy = rng.normal(size=y.shape)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        grads = y._node.bwd(gy)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return (peak - sum(g.nbytes for g in grads)) / (bsz * n * d * 8)


def test_scan_backward_keeps_its_temporaries_in_five_chunk_blocks(rng,
                                                                  monkeypatch):
    # abar, growth, the states (then q), gh and b * u: 5 blocks of chunk + 1
    chunk = 64
    assert _backward_peak_in_token_rows(rng, monkeypatch, bsz=1,
                                        chunk=chunk) <= 5.5 * chunk


def test_scan_backward_returns_batch_major_gradients_without_copies(
        rng, monkeypatch):
    # the gradients are written batch-major in place, so no time-major
    # originals sit next to them; at chunk 16 the buffer's extra row per
    # block counts, so blocks are measured as chunk + 1 rows
    chunk = 16
    assert _backward_peak_in_token_rows(rng, monkeypatch, bsz=4,
                                        chunk=chunk) <= 5.5 * (chunk + 1)


# ---------------------------------------------------------------------------
# full Mamba layer

def test_mamba_layer_zero_c_projection_gives_zero(rng):
    layer = MambaLayer(6, state_dim=8, expand=2, rng=rng)
    for params in (layer.ssm_fwd, layer.ssm_bwd):
        params.w_c.data[:] = 0.0
    x = rng.normal(size=(2, 9, 6))
    with T.no_grad():
        y = layer(Tensor(x))
    np.testing.assert_array_equal(y.data, 0.0)


def _shared_direction_layer(rng):
    layer = MambaLayer(4, state_dim=8, expand=2, rng=rng)
    for name in ("a_log", "w_b", "w_c", "w_dt_down", "w_dt_up", "dt_bias"):
        getattr(layer.ssm_bwd, name).data = getattr(layer.ssm_fwd, name).data.copy()
    return layer


def test_mamba_layer_palindrome_symmetry(rng):
    layer = _shared_direction_layer(rng)
    half = rng.normal(size=(5, 4))
    x = np.concatenate([half, half[::-1]], axis=0)  # palindromic in time
    with T.no_grad():
        y = layer(Tensor(x[None])).data[0]
    # the backward direction is the forward one, time-reversed, so their
    # gated sum is palindromic too; a missing output flip breaks this
    np.testing.assert_allclose(y, y[::-1], rtol=1e-12, atol=1e-12)


def test_mamba_layer_time_reversal_equivariance(rng):
    # with shared direction parameters, reversing the input swaps the two
    # directions, so the output reverses too; dropping either the input or
    # the output flip of the backward direction breaks this
    layer = _shared_direction_layer(rng)
    x = rng.normal(size=(2, 10, 4))
    with T.no_grad():
        y = layer(Tensor(x)).data
        y_rev = layer(Tensor(x[:, ::-1].copy())).data
    np.testing.assert_allclose(y_rev, y[:, ::-1], rtol=1e-12, atol=1e-12)


def test_mamba_layer_gradients_with_flip_view_equal_a_copying_flip(rng, monkeypatch):
    layer = MambaLayer(6, state_dim=8, expand=2, rng=rng)
    x = rng.normal(size=(2, 40, 6))
    g = rng.normal(size=x.shape)

    def grads():
        layer.zero_grad()
        xs = Tensor(x, requires_grad=True)
        T.backward(T.reduce_sum(T.mul(layer(xs), Tensor(g))))
        return [xs.grad] + [p.grad for p in layer.parameters()]

    viewed = grads()
    monkeypatch.setattr(T, "flip", lambda t, axis: T.apply_op(
        "flip", np.flip(t.data, axis).copy(), [t], lambda gy: [np.flip(gy, axis)]))
    copied = grads()
    for a, b in zip(viewed, copied):
        np.testing.assert_array_equal(a, b)


def test_no_grad_mamba_layer_peak_in_inner_arrays(rng):
    """At L = 16,384 a no_grad call holds under 7.5 (L, d_inner) arrays at
    its peak: holding the (L, 2 d_inner) input projection and gating
    each direction apart comes to about 8."""
    layer = MambaLayer(32, state_dim=16, expand=2, rng=rng)
    L = 1 << 14
    x = Tensor(rng.normal(size=(1, L, 32)))
    with T.no_grad():
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            layer(x)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    assert peak < 7.5 * L * layer.d_inner * 8


def test_mamba_layer_shape_contract(rng):
    layer = MambaLayer(8, state_dim=16, expand=2, rng=rng)
    x = rng.normal(size=(2, 16, 8))
    with T.no_grad():
        y = layer(Tensor(x))
    assert y.shape == (2, 16, 8)
    assert np.isfinite(y.data).all()


def test_mamba_layer_short_sequence_padding(rng):
    layer = MambaLayer(4, state_dim=4, expand=2, rng=rng)
    x = rng.normal(size=(2, 4))  # shorter than the conv kernel
    with T.no_grad():
        y = layer(Tensor(x[None]))
    assert y.shape == (1, 2, 4)
    assert np.isfinite(y.data).all()


def test_scan_suites_pass():
    assert checks.scan_equivalence_suite(n_systems=30, seed=5).passed
    assert checks.selective_oracle_suite(n_cases=8, seed=5).passed
