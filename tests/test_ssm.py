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
                            selective_scan_reference)
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

def _conv(rng, d):
    """A causal depthwise conv's (w (D, K), bias (D,)) leaves."""
    return (Tensor(rng.uniform(-0.5, 0.5, (d, ssm.CONV_KERNEL)), requires_grad=True),
            Tensor(rng.uniform(-0.5, 0.5, d), requires_grad=True))


def _scan_operands(rng, bsz, L, d, n, r):
    """x, the conv and two directions' ``SSMParams`` for
    ``selective_scan_op``, with steps of about 0.01 to 1."""
    dirs = [SSMParams(d, n, r, rng) for _ in range(2)]
    for p in dirs:
        p.w_dt_down.data = rng.normal(0.0, 0.5 / math.sqrt(d), (r, d))
        p.w_dt_up.data = rng.uniform(-1.0, 1.0, (d, r))
        p.dt_bias.data = np.log(np.expm1(rng.uniform(0.02, 0.2, d)))
    x = Tensor(rng.normal(size=(bsz, L, d)), requires_grad=True)
    return x, _conv(rng, d), dirs


def _scan(x, conv, dirs):
    """``selective_scan_op`` over one direction, or two."""
    reverse = dirs[1].operands() if len(dirs) > 1 else None
    return ssm.selective_scan_op(x, conv, *dirs[0].operands(), reverse=reverse)


def _leaves(x, conv, dirs):
    return ([("x", x), ("conv_w", conv[0]), ("conv_b", conv[1])]
            + [(f"{tag}.{name}", t) for tag, p in zip(("fwd", "bwd"), dirs)
               for name, t in p.named_parameters()])


@pytest.mark.filterwarnings("ignore:overflow encountered in exp")
def test_selective_scan_refuses_an_overflowing_a(rng):
    # a = -exp(a_log) = -inf would zero that state's drive without a word
    x, conv, dirs = _scan_operands(rng, 1, 5, 3, 4, 1)
    dirs[1].a_log.data[1, 2] = 1000.0
    with pytest.raises(NumericError, match="exp"):
        _scan(x, conv, dirs)


def test_selective_scan_zero_input_is_zero(rng):
    _, conv, dirs = _scan_operands(rng, 1, 12, 4, 16, 1)
    conv[1].data[:] = 0.0  # so that u = silu(conv(0)) = 0
    with T.no_grad():
        y = _scan(Tensor(np.zeros((1, 12, 4))), conv, dirs)
    np.testing.assert_array_equal(y.data, 0.0)


def test_selective_scan_matches_reference(rng):
    # the backward direction is the reference run on the reversed input
    for _ in range(5):
        d = int(rng.integers(2, 6))
        dirs = [SSMParams(d, 16, max(1, d // 2), rng) for _ in range(2)]
        conv = _conv(rng, d)
        x = rng.normal(size=(32, d))
        arrays = [t.data for t in conv]
        y_fwd = selective_scan_reference(dirs[0], arrays, x)
        y_ref = y_fwd + selective_scan_reference(dirs[1], arrays, x[::-1])[::-1]
        with T.no_grad():
            y = _scan(Tensor(x[None]), conv, dirs).data[0]
            y_one = _scan(Tensor(x[None]), conv, dirs[:1]).data[0]
        assert checks.signal_rel_err(y, y_ref) <= 1e-10
        assert checks.signal_rel_err(y_one, y_fwd) <= 1e-10


@pytest.mark.parametrize("da", [2e-8, 1e-6, 1e-4])
def test_reference_growth_accurate_at_small_delta_a(da, rng):
    # one channel, one state, a = -1, B = C = 1 and a conv that makes
    # u = silu(1): y / u is the growth factor expm1(delta*a)/a itself,
    # checked against 50 digits
    import mpmath as mp
    params = SSMParams(1, 1, 1, rng)
    for p in (params.a_log, params.w_b, params.w_c, params.w_dt_down):
        p.data[...] = 0.0
    params.dt_bias.data[...] = math.log(math.expm1(da))
    params.b_bias = Tensor(np.ones(1))
    params.c_bias = Tensor(np.ones(1))
    raw = params.dt_bias.data[0]
    delta = math.log1p(math.exp(-abs(raw))) + max(raw, 0.0)  # as the reference
    u = 1.0 / (1.0 + math.exp(-1.0))  # silu(1), as the reference
    conv = (np.zeros((1, ssm.CONV_KERNEL)), np.ones(1))
    y = selective_scan_reference(params, conv, np.ones((1, 1)))[0, 0]
    with mp.workdps(50):
        ref = -mp.expm1(-mp.mpf(delta)) * mp.mpf(u)
        assert abs((mp.mpf(y) - ref) / ref) <= 1e-15


def test_selective_scan_constant_projection_bitwise():
    result = checks.constant_projection_bitwise(seed=11)
    assert result.passed, result.line()


def test_constant_projection_bitwise_across_chunks(monkeypatch):
    # the op runs L = 48 in many chunks against the whole-sequence conv,
    # SiLU and scan_recurrent, so a chunk edge changes no bit; 1- and
    # 2-token chunks read the conv's K - 1 earlier tokens from as many
    # chunks back
    for chunk in (7, 2, 1):
        monkeypatch.setattr(ssm, "_chunk_len", lambda *_: chunk)
        result = checks.constant_projection_bitwise(seed=11)
        assert result.passed, (chunk, result.line())


def test_selective_scan_batched_consistency(rng):
    x, conv, dirs = _scan_operands(rng, 2, 10, 3, 8, 1)
    with T.no_grad():
        y_batched = _scan(x, conv, dirs).data
        y0 = _scan(Tensor(x.data[:1]), conv, dirs).data[0]
        y1 = _scan(Tensor(x.data[1:]), conv, dirs).data[0]
    np.testing.assert_array_equal(y_batched[0], y0)
    np.testing.assert_array_equal(y_batched[1], y1)


def _check_scan_gradients(rng):
    # B and C biases on one direction each, so their gradients are checked
    x, conv, dirs = _scan_operands(rng, 1, 7, 3, 5, 2)
    dirs[0].b_bias = Tensor(rng.normal(size=5), requires_grad=True)
    dirs[1].c_bias = Tensor(rng.normal(size=5), requires_grad=True)
    weights = np.sin(np.arange(21)).reshape(1, 7, 3)

    def build():
        return T.reduce_sum(T.mul(_scan(x, conv, dirs), Tensor(weights)))

    result = checks.gradcheck("selective", build, _leaves(x, conv, dirs),
                              np.random.default_rng(0), samples_per_leaf=6)
    assert result.passed, result.line()


def test_selective_scan_gradients(rng):
    _check_scan_gradients(rng)


def test_selective_scan_gradients_across_chunk_edges(rng, monkeypatch):
    # 3-token chunks: L = 7 ends in a 1-token chunk, and the backward's
    # rebuild of each chunk's conv and delta crosses two chunk edges
    monkeypatch.setattr(ssm, "_chunk_len", lambda *_: 3)
    _check_scan_gradients(rng)


def test_selective_scan_names_the_token_whose_step_is_not_positive(
        rng, monkeypatch):
    # a conv that passes x through and an input of 1e4 at token 9 of
    # batch 1: softplus(-3e4) underflows to 0 there, inside the third of
    # the 4-token chunks
    monkeypatch.setattr(ssm, "_chunk_len", lambda *_: 4)
    x, conv, dirs = _scan_operands(rng, 2, 16, 3, 4, 1)
    conv[0].data[:] = 0.0
    conv[0].data[:, -1] = 1.0
    conv[1].data[:] = 0.0
    x.data[1, 9] = 1e4
    dirs[0].w_dt_down.data[:] = -1.0
    dirs[0].w_dt_up.data[:] = 1.0
    dirs[0].dt_bias.data[:] = 0.0
    with pytest.raises(NumericError, match="delta > 0.*token 9$"):
        _scan(x, conv, dirs[:1])


@pytest.mark.parametrize("bsz", [1, 2])
def test_selective_scan_chunking_invariance(bsz, rng, monkeypatch):
    x, conv, dirs = _scan_operands(rng, bsz, 50, 3, 8, 1)
    weights = Tensor(np.cos(np.arange(150.0 * bsz)).reshape(bsz, 50, 3))
    leaves = [t for _, t in _leaves(x, conv, dirs)]
    shape_chunk = ssm._chunk_len  # 50 tokens at this shape: one chunk

    def run(chunk):
        monkeypatch.setattr(ssm, "_chunk_len",
                            (lambda *_: chunk) if chunk else shape_chunk)
        with T.no_grad():
            y = _scan(x, conv, dirs).data
        for p in leaves:
            p.grad = None
        T.backward(T.reduce_sum(T.mul(_scan(x, conv, dirs), weights)))
        return y, [p.grad.copy() for p in leaves]

    y_big, g_big = run(None)
    for chunk in (7, 2, 1):
        y_small, g_small = run(chunk)
        np.testing.assert_array_equal(y_small, y_big)
        for a, b in zip(g_small, g_big):
            assert checks.signal_rel_err(a, b) <= 1e-12


def _longdouble_path(x, conv, p):
    """One direction's u and the scan's y for the (L, D) x, in
    ``np.longdouble`` (80-bit on x86-64): conv, SiLU, projections and
    delta = softplus(raw), then the recurrence token by token."""
    ld = np.longdouble
    x, w, bias = (np.asarray(v, dtype=ld) for v in (x, *conv))
    K = w.shape[1]
    v = np.tile(bias, (len(x), 1))
    for k in range(K):  # tap k reads x shifted K-1-k steps right
        v[K - 1 - k:] += w[:, k] * x[:len(x) - (K - 1 - k)]
    u = v / (1 + np.exp(-v))
    wb, wc, wdn, wup, dtb = (np.asarray(t.data, dtype=ld) for t in (
        p.w_b, p.w_c, p.w_dt_down, p.w_dt_up, p.dt_bias))
    b, c = u @ wb.T, u @ wc.T
    raw = (u @ wdn.T) @ wup.T + dtb
    a = -np.exp(np.asarray(p.a_log.data, dtype=ld))
    delta = np.log1p(np.exp(-np.abs(raw))) + np.maximum(raw, ld(0))
    y = np.empty(u.shape, dtype=ld)
    h = np.zeros(a.shape, dtype=ld)
    for s in range(0, len(u), 4096):
        da = delta[s:s + 4096, :, None] * a
        abar = np.exp(da)
        drive = np.expm1(da) / a * b[s:s + 4096, None, :] * u[s:s + 4096, :, None]
        for t in range(len(da)):
            h = abar[t] * h + drive[t]
            y[s + t] = h @ c[s + t]
    return y


def test_scan_at_paper_length_matches_a_longdouble_recurrence(rng):
    # L = 65,536 as the fast block-0 scan at paper scale, in both time
    # directions (the backward one reads reversed views); float64 error
    # that grew with L would pass every short oracle and fail here
    L, d = 1 << 16, 4
    x, conv, dirs = _scan_operands(rng, 1, L, d, 16, 1)
    xs, arrays = x.data[0], [t.data for t in conv]
    y_fwd = _longdouble_path(xs, arrays, dirs[0])
    ref = y_fwd + _longdouble_path(xs[::-1], arrays, dirs[1])[::-1]
    with T.no_grad():
        y = _scan(x, conv, dirs).data[0]
        y_one = _scan(x, conv, dirs[:1]).data[0]
    assert np.abs(y - ref).max() / np.abs(ref).max() <= 1e-13
    assert np.abs(y_one - y_fwd).max() / np.abs(y_fwd).max() <= 1e-13


def _recorded_scan_held(rng, bsz, L, d, n, r):
    """(bytes a recorded two-direction op holds beyond its output and its
    inputs, bytes of the two directions' chunk-start states, chunk)."""
    x, conv, dirs = _scan_operands(rng, bsz, L, d, n, r)
    chunk = ssm._chunk_len(bsz, d, n)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        y = _scan(x, conv, dirs)
        held = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
    finally:
        tracemalloc.stop()
    T.backward(T.reduce_sum(y))
    assert np.isfinite(x.grad).all() and np.isfinite(dirs[1].w_dt_up.grad).all()
    return held, 2 * -(-L // chunk) * bsz * n * d * 8, chunk


def test_recorded_scan_keeps_only_chunk_start_states(rng):
    bsz, L, d, n = 1, 4096, 64, 16
    held, starts, chunk = _recorded_scan_held(rng, bsz, L, d, n, 1)
    assert L // chunk >= 16  # many chunks, so the full history would dwarf one
    state = bsz * n * d * 8
    assert held <= starts + (chunk + 1) * state
    assert held < 2 * (L + 1) * state / 16


def test_recorded_selective_scan_holds_no_full_size_delta(rng):
    """What a recorded op holds beyond its inputs and output is the chunk
    starts and a few parameter-sized arrays: no (B, L, D) step, conv
    output, SiLU output or projection, not even a (B, L, r) one."""
    bsz, L, d, n, r = 1, 4096, 64, 16, 4
    held, starts, _ = _recorded_scan_held(rng, bsz, L, d, n, r)
    assert held - starts < bsz * L * r * 8


def _backward_peak_in_token_rows(rng, monkeypatch, bsz, chunk):
    """The scan rule's tracemalloc peak above its returned gradients, in
    (B, N, D) token rows, at L = 1024, D = 64, N = 16, with
    ``chunk``-token chunks."""
    monkeypatch.setattr(ssm, "_chunk_len", lambda *_: chunk)
    L, d, n = 1024, 64, 16
    y = _scan(*_scan_operands(rng, bsz, L, d, n, 1))
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
    # dL/dx is written batch-major in place, so no time-major original
    # sits next to it; at chunk 16 the buffer's extra row per block
    # counts, so blocks are measured as chunk + 1 rows
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
    # gated sum is palindromic too; an output left in reversed time
    # breaks this
    np.testing.assert_allclose(y, y[::-1], rtol=1e-12, atol=1e-12)


def test_mamba_layer_time_reversal_equivariance(rng):
    # with shared direction parameters, reversing the input swaps the two
    # directions, so the output reverses too; a backward direction that
    # read x or wrote y in forward time breaks this
    layer = _shared_direction_layer(rng)
    x = rng.normal(size=(2, 10, 4))
    with T.no_grad():
        y = layer(Tensor(x)).data
        y_rev = layer(Tensor(x[:, ::-1].copy())).data
    np.testing.assert_allclose(y_rev, y[:, ::-1], rtol=1e-12, atol=1e-12)


def _layer_bytes(rng, recording):
    """(bytes, one (L, d_inner) array's bytes) for a C = 32, L = 16,384
    layer call: the no_grad peak over its entry, or what a recorded call
    holds beyond its output."""
    layer = MambaLayer(32, state_dim=16, expand=2, rng=rng)
    L = 1 << 14
    x = Tensor(rng.normal(size=(1, L, 32)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if recording:
            y = layer(x)
            used = tracemalloc.get_traced_memory()[0] - before - y.data.nbytes
        else:
            with T.no_grad():
                layer(x)
            used = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    return used, L * layer.d_inner * 8


def test_no_grad_mamba_layer_peak_in_inner_arrays(rng):
    """At L = 16,384 a no_grad call holds under 3.6 (L, d_inner) arrays
    at its peak (3.07 measured): y, z and the gate, plus the scan's chunk
    buffers. With the conv, SiLU and each direction's projections run
    whole-sequence around a per-direction scan it was 4.46."""
    peak, inner = _layer_bytes(rng, recording=False)
    assert peak < 3.6 * inner


def test_recorded_mamba_layer_holds_under_six_inner_arrays(rng):
    """A recorded call holds x, y, z, the gate and their product, half an
    array of normalized input and the chunk starts (5.79 measured); with
    the conv, SiLU, projections and flips as separate ops it was 10.85."""
    held, inner = _layer_bytes(rng, recording=True)
    assert held <= 6.0 * inner


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
