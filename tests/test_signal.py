"""Signal pipeline: diff-normalization, NegPearson, HR estimation and the
metric definitions."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pulsemamba import tensor as T
from pulsemamba.errors import InsufficientDataError, ShapeError
from pulsemamba.signal import (MetricsReport, compute_metrics,
                               diff_normalize, diff_normalize_label,
                               estimate_hr, neg_pearson_loss, pearson,
                               write_metrics_csv)
from pulsemamba.tensor import Tensor


# ---------------------------------------------------------------------------
# diff-normalization

def test_diff_normalize_hand_arithmetic():
    # pixel stream [1, 3, 1]: raw diffs [0.5, -0.5], std 0.5 -> [1, -1]
    frames = np.zeros((3, 3, 2, 2))
    for c in range(3):
        frames[c, 0], frames[c, 1], frames[c, 2] = 1.0, 3.0, 1.0
    out = diff_normalize(frames)
    assert out.shape == (3, 2, 2, 2)
    np.testing.assert_allclose(out[:, 0], 1.0, atol=1e-5)
    np.testing.assert_allclose(out[:, 1], -1.0, atol=1e-5)


def test_diff_normalize_constant_video_is_zero():
    frames = np.full((3, 5, 4, 4), 0.6)
    np.testing.assert_array_equal(diff_normalize(frames), 0.0)


def test_diff_normalize_scale_invariance(rng):
    frames = rng.uniform(0.2, 0.8, (3, 6, 4, 4))
    a = diff_normalize(frames)
    b = diff_normalize(3.0 * frames)
    assert np.abs(a - b).max() <= 1e-6


def test_diff_normalize_unit_variance(rng):
    frames = rng.uniform(0.2, 0.8, (3, 8, 6, 6))
    out = diff_normalize(frames)
    assert abs(out.std() - 1.0) <= 1e-6


def test_diff_normalize_label_mirrors_frames(rng):
    label = np.cumsum(rng.normal(size=20))
    out = diff_normalize_label(label)
    assert out.shape == (19,)
    assert abs(out.std() - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# NegPearson

def test_neg_pearson_perfect_correlation():
    x = Tensor([[1.0, 2.0, 3.0]])
    assert neg_pearson_loss(x, Tensor([[1.0, 2.0, 3.0]])).item() == pytest.approx(0.0, abs=1e-8)


def test_neg_pearson_perfect_anticorrelation():
    loss = neg_pearson_loss(Tensor([[1.0, 2.0, 3.0]]), Tensor([[3.0, 2.0, 1.0]]))
    assert loss.item() == pytest.approx(2.0, abs=1e-8)


def test_neg_pearson_scale_invariance():
    loss = neg_pearson_loss(Tensor([[1.0, 2.0, 3.0]]), Tensor([[2.0, 4.0, 6.0]]))
    assert loss.item() == pytest.approx(0.0, abs=1e-8)


def test_neg_pearson_affine_invariance(rng):
    x = rng.normal(size=(2, 40))
    y = rng.normal(size=(2, 40))
    base = neg_pearson_loss(Tensor(x), Tensor(y)).item()
    moved = neg_pearson_loss(Tensor(3.5 * x + 1.2), Tensor(0.8 * y - 4.0)).item()
    assert abs(base - moved) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.floats(-1e7, 1e7), st.floats(-1e7, 1e7))
def test_neg_pearson_offset_invariance_property(seed, off_x, off_y):
    # signals and offsets on a 2**-20 grid, so x + offset is exact and any
    # drift is the loss's own rounding (criterion 7's bound)
    r = np.random.default_rng(seed)
    grid = 2.0 ** 20
    x, y = np.round(r.normal(size=(2, 2, 64)) * grid) / grid
    off_x, off_y = round(off_x * grid) / grid, round(off_y * grid) / grid
    base = neg_pearson_loss(Tensor(x), Tensor(y)).item()
    moved = neg_pearson_loss(Tensor(x + off_x), Tensor(y + off_y)).item()
    assert abs(base - moved) <= 1e-9


def test_neg_pearson_zero_variance_warns_and_returns_one():
    with pytest.warns(RuntimeWarning):
        loss = neg_pearson_loss(Tensor([[2.0, 2.0, 2.0]]),
                                Tensor([[1.0, 2.0, 3.0]]))
    assert loss.item() == pytest.approx(1.0, abs=1e-4)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000))
def test_neg_pearson_range_property(seed):
    r = np.random.default_rng(seed)
    x = r.normal(size=(1, 16))
    y = r.normal(size=(1, 16))
    val = neg_pearson_loss(Tensor(x), Tensor(y)).item()
    assert -1e-9 <= val <= 2.0 + 1e-9


def test_neg_pearson_is_differentiable(rng):
    x = Tensor(rng.normal(size=(2, 16)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 16)))
    loss = neg_pearson_loss(x, y)
    T.backward(loss)
    assert x.grad is not None and np.isfinite(x.grad).all()


def test_neg_pearson_shape_contract():
    with pytest.raises(ShapeError):
        neg_pearson_loss(Tensor([[1.0, 2.0]]), Tensor([[1.0, 2.0, 3.0]]))
    with pytest.raises(ShapeError):  # one row is (1, T), not (T,)
        neg_pearson_loss(Tensor([1.0, 2.0, 3.0]), Tensor([3.0, 2.0, 1.0]))


# ---------------------------------------------------------------------------
# HR estimation

def make_sine(freq_hz, fs=30.0, seconds=10.0, noise=0.0, seed=0):
    t = np.arange(int(fs * seconds)) / fs
    x = np.sin(2.0 * np.pi * freq_hz * t)
    if noise:
        x = x + noise * np.random.default_rng(seed).normal(size=t.size)
    return x, fs


def test_estimate_hr_pure_sinusoid():
    assert abs(estimate_hr(*make_sine(1.5)) - 90.0) <= 1.0


def test_estimate_hr_noisy_sinusoid():
    assert abs(estimate_hr(*make_sine(1.0, noise=0.1)) - 60.0) <= 1.0


def test_estimate_hr_dc_trace_returns_band_edge():
    with pytest.warns(RuntimeWarning):
        hr = estimate_hr(np.full(300, 0.4), 30.0)
    assert hr == pytest.approx(45.0)


def test_estimate_hr_short_trace_is_an_error():
    with pytest.raises(InsufficientDataError):
        estimate_hr(np.ones(59), 30.0)


@pytest.mark.parametrize("fs", [0.0, -30.0])
def test_estimate_hr_rejects_non_positive_rate(fs):
    with pytest.raises(ShapeError):
        estimate_hr(np.ones(300), fs)


def test_estimate_hr_frequency_sweep():
    """50 frequencies across the band recover 60 f within resolution."""
    for freq in np.linspace(0.8, 2.4, 50):
        hr = estimate_hr(*make_sine(float(freq)))
        assert abs(hr - 60.0 * freq) <= 1.0, f"{freq} Hz -> {hr} bpm"


def test_estimate_hr_locks_to_fundamental_with_harmonic():
    t = np.arange(300) / 30.0
    x = np.sin(2 * np.pi * 1.2 * t) + 0.3 * np.sin(2 * np.pi * 2.4 * t)
    assert abs(estimate_hr(x, 30.0) - 72.0) <= 1.0


# ---------------------------------------------------------------------------
# metrics

def test_metrics_hand_arithmetic():
    rep = compute_metrics([72.0, 80.0], [70.0, 84.0])
    assert rep.mae_bpm == pytest.approx(3.0)
    assert rep.rmse_bpm == pytest.approx(math.sqrt(10.0))
    assert rep.mape_percent == pytest.approx(3.809523, abs=1e-4)


def test_metrics_perfect_prediction():
    rep = compute_metrics([60.0, 75.0, 90.0], [60.0, 75.0, 90.0])
    assert rep.mae_bpm == 0.0 and rep.rmse_bpm == 0.0 and rep.mape_percent == 0.0
    assert rep.pearson_rho == pytest.approx(1.0)


def test_metrics_uniform_shift():
    rep = compute_metrics([65.0, 80.0, 95.0], [60.0, 75.0, 90.0])
    assert rep.mae_bpm == pytest.approx(5.0)
    assert rep.rmse_bpm == pytest.approx(5.0)
    assert rep.pearson_rho == pytest.approx(1.0)


def test_metrics_empty_and_mismatched_inputs():
    with pytest.raises(ShapeError):
        compute_metrics([], [])
    with pytest.raises(ShapeError):
        compute_metrics([60.0], [60.0, 70.0])


def test_metrics_constant_list_warns():
    with pytest.warns(RuntimeWarning):
        rep = compute_metrics([70.0, 70.0], [60.0, 80.0])
    assert rep.pearson_rho == 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 12))
def test_mae_never_exceeds_rmse(seed, n):
    r = np.random.default_rng(seed)
    pred = r.uniform(45.0, 150.0, n)
    gt = r.uniform(45.0, 150.0, n)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = compute_metrics(pred, gt)
    assert rep.mae_bpm <= rep.rmse_bpm + 1e-12
    assert -1.0 - 1e-12 <= rep.pearson_rho <= 1.0 + 1e-12


def test_metrics_csv_round_trip(tmp_path):
    path = tmp_path / "metrics.csv"
    rep = compute_metrics([72.0, 80.0], [70.0, 84.0])
    write_metrics_csv(path, ["clip_0000", "clip_0001"],
                      [72.0, 80.0], [70.0, 84.0], rep)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "clip_id,pred_bpm,gt_bpm"
    assert lines[1].startswith("clip_0000,72.0")
    assert "summary" in lines[-1] and "mae=3.0" in lines[-1]
    assert isinstance(rep, MetricsReport)


def test_pearson_helper(rng):
    x = rng.normal(size=50)
    assert pearson(x, 2.0 * x + 1.0) == pytest.approx(1.0)
    assert pearson(x, -x) == pytest.approx(-1.0)
