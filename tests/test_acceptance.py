"""Acceptance suite. Each test enforces one release criterion at its
stated tolerance and prints a PASS/FAIL line (run with -s to stream them).

1. LTI scan equivalence (recurrent vs convolutional), 100 systems, <10 s.
2. Selective-scan oracle <=1e-10 plus bitwise constant-projection reduction.
3. Gradient suite: every op and a 2-block toy network, <=1e-4, >=100
   sampled parameters, < 5 min.
4. Shape contract: (1,3,128,128,128) -> (1,128); toy algebra; property.
5. Analytic profile inside the published bands, exact values reported.
6. Desk-scale end-to-end: toy model on 30 clean synthetic clips,
   held-out MAE < 3 bpm and rho > 0.9, < 30 min.
7. Signal-pipeline properties (loss range/affine invariance, HR sweep,
   diff-normalization invariants).
8. Determinism and formats: bit-identical seeded runs, byte-exact
   round-trips, CLI exit codes.
"""

import time
import warnings

import numpy as np
import pytest

from pulsemamba import checks, cli
from pulsemamba import tensor as T
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba.profiling import profile_model
from pulsemamba.signal import (compute_metrics, diff_normalize,
                               estimate_hr, neg_pearson_loss)
from pulsemamba.synth import SynthConfig, generate_clip, read_dataset, write_dataset
from pulsemamba.tensor import Tensor
from pulsemamba.training import (AdamState, TrainConfig, evaluate_checkpoint,
                                 load_checkpoint, save_checkpoint, train_loop)


def report(criterion: str, passed: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})"
    print(line)
    assert passed, line


def make_clips(n, seed0, duration_s=10.0, res=(24, 24), master_seed=2024):
    rng = np.random.default_rng(master_seed + seed0)
    clips = []
    for i in range(n):
        hr = float(rng.uniform(55.0, 140.0))
        clips.append(generate_clip(SynthConfig(
            seed=seed0 + i, duration_s=duration_s, resolution=res,
            hr_start_bpm=hr)))
    return clips


def test_criterion_1_scan_equivalence():
    t0 = time.time()
    result = checks.scan_equivalence_suite(n_systems=100, seed=0)
    elapsed = time.time() - t0
    report("1 scan-equivalence", result.passed and elapsed < 10.0,
           f"max rel err {result.max_err:.3e} <= 1e-8 over 100 systems, "
           f"{elapsed:.1f}s < 10s")


def test_criterion_2_selective_oracle():
    oracle = checks.selective_oracle_suite(n_cases=20, seed=0)
    bitwise = checks.constant_projection_bitwise(seed=0)
    report("2 selective-oracle", oracle.passed and bitwise.passed,
           f"reference max rel err {oracle.max_err:.3e} <= 1e-10 on 20 cases; "
           f"constant-projection reduction bitwise exact: {bitwise.passed}")


def test_criterion_3_gradient_suite():
    t0 = time.time()
    results = checks.op_gradient_suite(full=False, seed=0)
    model_result = checks.model_gradient_suite(min_samples=100, seed=0)
    results.append(model_result)
    elapsed = time.time() - t0
    worst = max(r.max_err for r in results)
    total = sum(r.n_checked for r in results)
    ok = all(r.passed for r in results) and model_result.n_checked >= 100 \
        and elapsed < 300.0
    report("3 gradient-suite", ok,
           f"{len(results)} checks, worst rel err {worst:.3e} <= 1e-4, "
           f"{model_result.n_checked} model params sampled, {elapsed:.0f}s < 300s")


def test_criterion_4_shape_contract():
    net = PulseMambaNet(ModelConfig(), seed=0).eval()
    x = Tensor(np.random.default_rng(0).normal(size=(1, 3, 128, 128, 128)))
    with T.no_grad():
        y = net(x)
    full_ok = y.shape == (1, 128) and bool(np.isfinite(y.data).all())

    toy_ok = True
    toy = PulseMambaNet(ModelConfig(channels=8, blocks_per_stream=2,
                                    ca_ratio=4, state_dim=4), seed=0).eval()
    for t, hw in ((8, 16), (16, 16), (24, 32)):
        xt = Tensor(np.random.default_rng(1).normal(size=(2, 3, t, hw, hw)))
        with T.no_grad():
            yt = toy(xt)
        toy_ok = toy_ok and yt.shape == (2, t)
    report("4 shape-contract", full_ok and toy_ok,
           f"(1,3,128,128,128) -> {tuple(y.shape)}, finite; "
           f"toy algebra holds for T in (8,16,24)")


def test_criterion_5_profile():
    rep = profile_model(ModelConfig(), (128, 128, 128))
    params_ok = 0.45e6 <= rep.param_count <= 0.70e6
    macs_ok = 38e9 <= rep.mac_count <= 57e9
    report("5 profile", params_ok and macs_ok,
           f"exact params {rep.param_count} ({rep.param_count / 1e6:.4f} M) "
           f"in [0.45M, 0.70M]; exact MACs {rep.mac_count} "
           f"({rep.mac_count / 1e9:.2f} G) in [38G, 57G]; "
           f"reference 0.56 M / 47.3 G")


def test_criterion_6_desk_scale_end_to_end(tmp_path):
    t0 = time.time()
    write_dataset(tmp_path / "train", make_clips(30, 0))
    write_dataset(tmp_path / "held", make_clips(8, 5000))

    model_cfg = ModelConfig(channels=32, blocks_per_stream=2)
    train_cfg = TrainConfig(lr=1e-3, weight_decay=5e-4, epochs=8,
                            batch_size=4, seed=0, chunk_len=32,
                            input_hw=(16, 16))

    # untrained baseline, recorded for the log (not asserted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        untrained = PulseMambaNet(model_cfg, seed=0)
        state = AdamState()
        save_checkpoint(tmp_path / "untrained", untrained, model_cfg, state, 0, 0)
        base_rep, *_ = evaluate_checkpoint(tmp_path / "untrained",
                                           tmp_path / "held", None,
                                           chunk_len=32, input_hw=(16, 16))

    ckpt, log = train_loop(model_cfg, tmp_path / "train", train_cfg,
                           tmp_path / "run")
    rep, _, pred, gt, _ = evaluate_checkpoint(ckpt, tmp_path / "held", None,
                                              chunk_len=32, input_hw=(16, 16))
    elapsed = time.time() - t0
    by_epoch = {}
    for e, _, v in log:
        by_epoch.setdefault(e, []).append(v)
    means = [float(np.mean(v)) for _, v in sorted(by_epoch.items())]
    trend_ok = means[min(4, len(means) - 1)] < means[0]
    ok = rep.mae_bpm < 3.0 and rep.pearson_rho > 0.9 and elapsed < 1800.0 \
        and trend_ok
    report("6 desk-scale-end-to-end", ok,
           f"held-out MAE {rep.mae_bpm:.2f} < 3 bpm, rho "
           f"{rep.pearson_rho:.3f} > 0.9, {elapsed:.0f}s < 1800s; "
           f"epoch-mean loss {means[0]:.3f} -> {means[-1]:.3f}; "
           f"untrained baseline MAE {base_rep.mae_bpm:.1f} (recorded)")


def test_criterion_7_signal_pipeline_properties(rng):
    # NegPearson range and affine invariance
    range_ok = True
    affine_worst = 0.0
    for seed in range(25):
        r = np.random.default_rng(seed)
        x, y = r.normal(size=(2, 1, 32))
        val = neg_pearson_loss(Tensor(x), Tensor(y)).item()
        range_ok = range_ok and -1e-9 <= val <= 2.0 + 1e-9
        moved = neg_pearson_loss(Tensor(2.5 * x + 0.7),
                                 Tensor(0.4 * y - 1.1)).item()
        affine_worst = max(affine_worst, abs(val - moved))

    # HR sweep over 50 frequencies
    sweep_worst = 0.0
    t = np.arange(300) / 30.0
    for f in np.linspace(0.8, 2.4, 50):
        hr = estimate_hr(np.sin(2 * np.pi * f * t), 30.0)
        sweep_worst = max(sweep_worst, abs(hr - 60.0 * f))

    # diff-normalization invariants
    frames = rng.uniform(0.2, 0.8, (3, 10, 8, 8))
    d1 = diff_normalize(frames)
    d2 = diff_normalize(2.0 * frames)
    scale_err = np.abs(d1 - d2).max()
    var_err = abs(d1.std() - 1.0)

    ok = range_ok and affine_worst <= 1e-9 and sweep_worst <= 1.0 \
        and scale_err <= 1e-6 and var_err <= 1e-6
    report("7 signal-pipeline", ok,
           f"loss in [0,2], affine drift {affine_worst:.1e} <= 1e-9; "
           f"HR sweep worst {sweep_worst:.2f} bpm <= 1; diff-norm scale "
           f"err {scale_err:.1e}, unit-variance err {var_err:.1e}")


def test_criterion_8_determinism_and_formats(tmp_path):
    # bit-identical seeded runs
    write_dataset(tmp_path / "data", make_clips(4, 50, duration_s=4.0))
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    tcfg = TrainConfig(lr=1e-3, weight_decay=5e-4, epochs=2, batch_size=2,
                       seed=3, chunk_len=32, input_hw=(16, 16))
    _, log_a = train_loop(cfg, tmp_path / "data", tcfg, tmp_path / "a")
    _, log_b = train_loop(cfg, tmp_path / "data", tcfg, tmp_path / "b")
    runs_ok = log_a == log_b and (
        (tmp_path / "a" / "checkpoint_final" / "state.bin").read_bytes()
        == (tmp_path / "b" / "checkpoint_final" / "state.bin").read_bytes())

    # dataset round trip at stored precision
    clips = make_clips(2, 99, duration_s=2.0)
    write_dataset(tmp_path / "ds", clips)
    back = read_dataset(tmp_path / "ds")
    ds_ok = all(np.array_equal(a.frames.astype(np.float32),
                               b.frames.astype(np.float32))
                for a, b in zip(clips, back))

    # checkpoint save -> load -> save byte identity
    meta, arrays = load_checkpoint(tmp_path / "a" / "checkpoint_final")
    model = PulseMambaNet(cfg, seed=1)
    from pulsemamba.training import restore_model
    state = restore_model(meta, arrays, model)
    save_checkpoint(tmp_path / "resaved", model, cfg, state,
                    meta["epoch"], meta["global_step"])
    ckpt_ok = ((tmp_path / "a" / "checkpoint_final" / "state.bin").read_bytes()
               == (tmp_path / "resaved" / "state.bin").read_bytes())

    # CLI exit-code contract
    codes_ok = (
        cli.main(["profile", "--input", "16x16x16", "--set", "channels=8",
                  "--set", "blocks_per_stream=2", "--set", "ca_ratio=4",
                  "--out", str(tmp_path)]) == 0
        and cli.main(["train", "--data", str(tmp_path / "missing"),
                      "--out", str(tmp_path / "r")]) == 3
        and cli.main(["synth", "--out", str(tmp_path / "d"),
                      "--set", "nope=1"]) == 2
        and cli.main(["bogus-subcommand"]) == 2
    )
    ok = runs_ok and ds_ok and ckpt_ok and codes_ok
    report("8 determinism-and-formats", ok,
           f"seeded runs bit-identical: {runs_ok}; dataset round-trip exact: "
           f"{ds_ok}; checkpoint byte-exact: {ckpt_ok}; exit codes 0/2/3: "
           f"{codes_ok}")
