"""Optimizer arithmetic, loop determinism, checkpoint byte-exactness and
resume behaviour."""

import json
import tracemalloc

import numpy as np
import pytest

from pulsemamba import tensor as T
from pulsemamba import training
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba.errors import ConfigError, FormatError, NumericError
from pulsemamba.synth import (ClipRecord, SynthConfig, chunk_and_resize,
                              generate_clip, read_dataset, write_dataset)
from pulsemamba.tensor import Tensor
from pulsemamba.training import (AdamState, TrainConfig, adam_step,
                                 config_hash, evaluate_checkpoint,
                                 evaluate_records, load_checkpoint,
                                 prepare_chunk, restore_model,
                                 save_checkpoint, start_state, train_loop)

TOY_MODEL = dict(channels=16, blocks_per_stream=2, ca_ratio=4)


def make_dataset(path, n_clips, seed0=0, duration_s=4.0, res=(24, 24)):
    rng = np.random.default_rng(seed0 + 999)
    records = []
    for i in range(n_clips):
        hr = float(rng.uniform(55.0, 140.0))
        records.append(generate_clip(SynthConfig(
            seed=seed0 + i, duration_s=duration_s, resolution=res,
            hr_start_bpm=hr)))
    write_dataset(path, records)
    return records


def toy_train_cfg(**kw):
    base = dict(lr=1e-3, weight_decay=5e-4, epochs=2, batch_size=3, seed=0,
                chunk_len=32, input_hw=(16, 16))
    base.update(kw)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# Adam

def test_adam_hand_computed_first_step():
    # w = 1, f(w) = w^2, lr = 0.1: mhat = 2, vhat = 4, w -> 1 - 0.1*2/(2+1e-8)
    w = Tensor(np.array([1.0]), requires_grad=True)
    w.grad = np.array([2.0])
    state = AdamState()
    adam_step([("w", w)], state, lr=0.1, weight_decay=0.0)
    expected = 1.0 - 0.1 * 2.0 / (2.0 + 1e-8)
    assert w.data[0] == pytest.approx(expected, rel=1e-12)
    assert w.data[0] == pytest.approx(0.9, abs=1e-8)


def test_adam_zero_gradient_is_noop():
    w = Tensor(np.array([3.0, -1.5]), requires_grad=True)
    w.grad = np.zeros(2)
    adam_step([("w", w)], AdamState(), lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(w.data, [3.0, -1.5])


def test_adam_nan_gradient_aborts_with_name():
    w = Tensor(np.array([1.0]), requires_grad=True)
    w.grad = np.array([np.nan])
    with pytest.raises(NumericError, match="stem.weird"):
        adam_step([("stem.weird", w)], AdamState(), lr=0.1)


def test_adam_weight_decay_enters_gradient():
    w = Tensor(np.array([2.0]), requires_grad=True)
    w.grad = np.array([0.0])
    state = AdamState()
    adam_step([("w", w)], state, lr=0.1, weight_decay=0.5)
    # effective gradient 0 + 0.5*2 = 1 -> mhat = 1, vhat = 1
    assert w.data[0] == pytest.approx(2.0 - 0.1 * 1.0 / (1.0 + 1e-8), rel=1e-12)


def test_lr_zero_and_wd_zero_freeze_parameters(tmp_path):
    make_dataset(tmp_path / "data", 3)
    cfg = ModelConfig(**TOY_MODEL)
    reference = PulseMambaNet(cfg, seed=0)
    ckpt, log = train_loop(cfg, tmp_path / "data",
                           toy_train_cfg(lr=0.0, weight_decay=0.0, epochs=2),
                           tmp_path / "run")
    meta, arrays = load_checkpoint(ckpt)
    for name, p in reference.named_parameters():
        stored = arrays[f"param:{name}"]
        np.testing.assert_array_equal(stored,
                                      p.data.astype(np.float32).astype(np.float64),
                                      err_msg=name)
    # loss constant across epochs at lr 0
    by_epoch = {}
    for e, _, v in log:
        by_epoch.setdefault(e, []).append(v)
    means = [np.mean(v) for _, v in sorted(by_epoch.items())]
    assert means[0] == pytest.approx(means[1], rel=1e-12)


# ---------------------------------------------------------------------------
# training loop

def test_training_reduces_loss(tmp_path):
    make_dataset(tmp_path / "data", 8)
    _, log = train_loop(ModelConfig(**TOY_MODEL), tmp_path / "data",
                        toy_train_cfg(epochs=3), tmp_path / "run")
    by_epoch = {}
    for e, _, v in log:
        by_epoch.setdefault(e, []).append(v)
    means = [float(np.mean(v)) for _, v in sorted(by_epoch.items())]
    assert means[-1] < means[0]


def test_training_determinism_bitwise(tmp_path):
    make_dataset(tmp_path / "data", 4)
    cfg = ModelConfig(**TOY_MODEL)
    _, log_a = train_loop(cfg, tmp_path / "data", toy_train_cfg(),
                          tmp_path / "run_a")
    _, log_b = train_loop(cfg, tmp_path / "data", toy_train_cfg(),
                          tmp_path / "run_b")
    assert log_a == log_b
    bin_a = (tmp_path / "run_a" / "checkpoint_final" / "state.bin").read_bytes()
    bin_b = (tmp_path / "run_b" / "checkpoint_final" / "state.bin").read_bytes()
    assert bin_a == bin_b
    csv_a = (tmp_path / "run_a" / "loss_log.csv").read_bytes()
    csv_b = (tmp_path / "run_b" / "loss_log.csv").read_bytes()
    assert csv_a == csv_b


def test_resume_matches_uninterrupted_run(tmp_path):
    make_dataset(tmp_path / "data", 4)
    cfg = ModelConfig(**TOY_MODEL)
    train_loop(cfg, tmp_path / "data", toy_train_cfg(epochs=4),
               tmp_path / "straight")
    train_loop(cfg, tmp_path / "data", toy_train_cfg(epochs=2),
               tmp_path / "part1")
    train_loop(cfg, tmp_path / "data", toy_train_cfg(epochs=4),
               tmp_path / "part2",
               start=start_state(cfg, toy_train_cfg(epochs=4),
                                 tmp_path / "part1" / "checkpoint_epoch_001"))
    a = (tmp_path / "straight" / "checkpoint_final" / "state.bin").read_bytes()
    b = (tmp_path / "part2" / "checkpoint_final" / "state.bin").read_bytes()
    assert a == b


def test_single_clip_overfit(tmp_path):
    """One clean clip, 200 optimizer steps, NegPearson below 0.1."""
    make_dataset(tmp_path / "data", 1, seed0=7, duration_s=4.0)
    # 200 steps = 200 epochs of one single-chunk batch
    cfg = ModelConfig(**TOY_MODEL)
    tcfg = toy_train_cfg(epochs=200, batch_size=1, lr=1e-3, weight_decay=0.0)
    _, log = train_loop(cfg, tmp_path / "data", tcfg, tmp_path / "run")
    assert len(log) == 200
    assert log[-1][2] < 0.1, f"final loss {log[-1][2]}"


def test_train_loop_cuts_each_batchs_windows_when_it_runs(tmp_path, monkeypatch):
    # 7 clips, one too short for a window: 6 windows, batches of 4 and 2
    make_dataset(tmp_path / "data", 6, duration_s=4.0)
    write_dataset(tmp_path / "short", [generate_clip(SynthConfig(
        seed=99, duration_s=1.0, resolution=(24, 24)))])
    (tmp_path / "short" / "clip_0000").rename(tmp_path / "data" / "clip_0006")
    tcfg = toy_train_cfg(epochs=2, batch_size=4)
    # the oracle: every epoch's windows cut up front, as one list
    records = read_dataset(tmp_path / "data")
    rng = np.random.default_rng(tcfg.seed)
    expected = []
    with pytest.warns(RuntimeWarning):
        for idx in rng.permutation(len(records)):
            expected += [(c.meta["seed"], c.meta["window_start"])
                         for c in chunk_and_resize(records[idx], tcfg.chunk_len,
                                                   tcfg.input_hw, mode="train",
                                                   rng=rng)]
    assert len(expected) == 6

    cut, per_forward = [], []
    real_chunk, real_loss = training.chunk_and_resize, training.neg_pearson_loss

    def counting_chunk(*args, **kwargs):
        got = real_chunk(*args, **kwargs)
        cut.extend((c.meta["seed"], c.meta["window_start"]) for c in got)
        return got

    def counting_loss(pred, target):
        per_forward.append(len(cut) - sum(per_forward))
        return real_loss(pred, target)

    monkeypatch.setattr(training, "chunk_and_resize", counting_chunk)
    monkeypatch.setattr(training, "neg_pearson_loss", counting_loss)
    with pytest.warns(RuntimeWarning):
        train_loop(ModelConfig(**TOY_MODEL), tmp_path / "data", tcfg,
                   tmp_path / "run")
    assert cut == 2 * expected
    # each loss sees the chunks cut since the previous one: its own batch
    assert per_forward == [4, 2, 4, 2]


def test_empty_dataset_raises_format_error(tmp_path):
    (tmp_path / "data").mkdir()
    with pytest.raises(FormatError):
        train_loop(ModelConfig(**TOY_MODEL), tmp_path / "data",
                   toy_train_cfg(), tmp_path / "run")


def test_prepare_chunk_alignment():
    clip = generate_clip(SynthConfig(seed=1, duration_s=2.0, resolution=(16, 16)))
    frames, label = prepare_chunk(clip)
    assert frames.shape[1] == clip.frames.shape[1]
    assert label.shape[0] == clip.label.shape[0]
    assert frames[:, -1].max() == 0.0 and label[-1] == 0.0


def test_prepare_chunk_peak_is_at_most_two_and_a_quarter_chunks(rng):
    # the diff-normalized frames and one temporary at a time (the
    # denominator, the std's deviations or the zero-padded copy), plus
    # bool masks; the out-of-place formula peaked near 4 chunks
    t = 32
    clip = ClipRecord(rng.uniform(0.2, 0.8, (3, t, 32, 32)),
                      np.sin(np.arange(float(t))), 30.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        prepare_chunk(clip)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * clip.frames.nbytes


# ---------------------------------------------------------------------------
# checkpoints

def _toy_checkpoint(tmp_path):
    cfg = ModelConfig(**TOY_MODEL)
    model = PulseMambaNet(cfg, seed=1)
    state = AdamState(t=17)
    for name, p in model.named_parameters():
        state.m[name] = np.full_like(p.data, 0.25)
        state.v[name] = np.full_like(p.data, 0.5)
    path = save_checkpoint(tmp_path / "ckpt", model, state, epoch=2)
    return cfg, model, state, path


def test_toy_net_entry_names_pinned():
    # checkpoint entries and Adam's moments follow these names and orders
    model = PulseMambaNet(ModelConfig(**TOY_MODEL), seed=1)
    bn = ["stem.bn1", "stem.bn2", "stem.bn3", "down_slow.bn", "down_fast.bn",
          "blocks_slow.0.bn", "blocks_slow.1.bn", "blocks_fast.0.bn",
          "blocks_fast.1.bn"]
    assert [n for n, _ in model.named_buffers()] == [
        f"{m}.{b}" for m in bn for b in ("running_mean", "running_var")]
    params = [n for n, _ in model.named_parameters()]
    assert len(params) == 128
    assert params[0] == "stem.conv1.weight" and params[-1] == "head.point_b"


def test_checkpoint_round_trip_exact(tmp_path):
    cfg, model, state, path = _toy_checkpoint(tmp_path)
    meta, arrays = load_checkpoint(path)
    assert meta["epoch"] == 2 and meta["global_step"] == 17
    fresh = PulseMambaNet(cfg, seed=99)
    restored = restore_model(meta, arrays, fresh)
    for (name, a), (_, b) in zip(model.named_parameters(),
                                 fresh.named_parameters()):
        np.testing.assert_array_equal(
            a.data.astype(np.float32), b.data.astype(np.float32), err_msg=name)
    assert restored.t == 17


def test_checkpoint_save_load_save_is_byte_identical(tmp_path):
    cfg, model, state, path = _toy_checkpoint(tmp_path)
    meta, arrays = load_checkpoint(path)
    fresh = PulseMambaNet(cfg, seed=99)
    state2 = restore_model(meta, arrays, fresh)
    path2 = save_checkpoint(tmp_path / "ckpt2", fresh, state2, epoch=2)
    assert (path / "state.bin").read_bytes() == (path2 / "state.bin").read_bytes()
    assert (path / "meta.json").read_bytes() == (path2 / "meta.json").read_bytes()


@pytest.mark.parametrize("stale", [0, 2 ** 62])
def test_stored_adam_t_is_ignored_and_t_is_global_step(stale, tmp_path):
    # older checkpoints also store Adam's step count as adam_t
    cfg, _, _, path = _toy_checkpoint(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["adam_t"] = stale
    (path / "meta.json").write_text(json.dumps(meta))
    meta, arrays = load_checkpoint(path)
    assert restore_model(meta, arrays, PulseMambaNet(cfg)).t == 17


def test_checkpoint_writes_exactly_the_keys_its_reader_checks(tmp_path):
    _, _, _, path = _toy_checkpoint(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    assert set(meta) == set(training._META)
    assert all(set(entry) == set(training._ENTRY) for entry in meta["entries"])


@pytest.mark.filterwarnings("ignore:overflow encountered in cast")
def test_checkpoint_refuses_values_not_finite_in_float32(tmp_path):
    # 1e308 is finite in float64 but inf once stored as float32, as an
    # lr of 1e308 makes every parameter after one step
    cfg = ModelConfig(**TOY_MODEL)
    model = PulseMambaNet(cfg)
    named = list(model.named_parameters())
    named[3][1].data[0] = 1e308
    with pytest.raises(NumericError, match=f"param:{named[3][0]}"):
        save_checkpoint(tmp_path / "ckpt", model, AdamState(), 1)
    assert not (tmp_path / "ckpt").exists()


def test_checkpoint_wrong_version_rejected(tmp_path):
    _, _, _, path = _toy_checkpoint(tmp_path)
    meta = json.loads((path / "meta.json").read_text())
    meta["format_version"] = 999
    (path / "meta.json").write_text(json.dumps(meta))
    with pytest.raises(FormatError, match="version"):
        load_checkpoint(path)


def test_checkpoint_corrupt_blob_rejected(tmp_path):
    _, _, _, path = _toy_checkpoint(tmp_path)
    raw = bytearray((path / "state.bin").read_bytes())
    raw[10] ^= 0xFF
    (path / "state.bin").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        load_checkpoint(path)


def test_config_hash_mismatch_is_config_error(tmp_path):
    make_dataset(tmp_path / "data", 2)
    cfg = ModelConfig(**TOY_MODEL)
    ckpt, _ = train_loop(cfg, tmp_path / "data", toy_train_cfg(epochs=1),
                         tmp_path / "run")
    other = ModelConfig(channels=8, blocks_per_stream=2, ca_ratio=4)
    with pytest.raises(ConfigError):
        start_state(other, toy_train_cfg(epochs=2), ckpt)


def test_config_hash_changes_with_config():
    assert config_hash(ModelConfig()) != config_hash(ModelConfig(theta=0.3))


# ---------------------------------------------------------------------------
# evaluation

def test_oracle_predictor_reaches_zero_error(tmp_path):
    records = make_dataset(tmp_path / "data", 4, seed0=20, duration_s=6.0)

    targets = []
    for rec in records:
        from pulsemamba.synth import chunk_and_resize
        chunks = chunk_and_resize(rec, 32, (16, 16), mode="eval")
        targets.append(np.stack([prepare_chunk(c)[1] for c in chunks]))
    target_iter = iter(targets)

    clip_ids, pred_hrs, gt_hrs, _ = evaluate_records(
        lambda frames: next(target_iter), records, 32, (16, 16))
    from pulsemamba.signal import compute_metrics
    rep = compute_metrics(pred_hrs, gt_hrs)
    assert rep.mae_bpm == 0.0
    assert rep.pearson_rho == pytest.approx(1.0)


def _padded_targets(records, chunk_len):
    """Per clip, the (n_chunks, chunk_len) targets evaluate_records runs on."""
    from pulsemamba.synth import chunk_and_resize
    return [np.stack([prepare_chunk(c)[1] for c in
                      chunk_and_resize(rec, chunk_len, (16, 16), mode="eval")])
            for rec in records]


def test_evaluate_records_fills_each_chunks_pad_sample(tmp_path):
    records = make_dataset(tmp_path / "data", 2, seed0=30, duration_s=6.0)
    chunk_len = 32
    padded = _padded_targets(records, chunk_len)
    padded_iter = iter(padded)  # the oracle predicts the padded targets
    clip_ids, _, _, traces = evaluate_records(
        lambda frames: next(padded_iter), records, chunk_len, (16, 16))
    for cid, chunks in zip(clip_ids, padded):
        pred, target = traces[cid]
        # one sample per frame difference of the tiled frames
        assert target.shape == (len(chunks) * chunk_len - 1,)
        assert np.all(target != 0.0)
        np.testing.assert_array_equal(pred, target)


def test_evaluate_records_keeps_the_clips_time_axis(tmp_path):
    # a stitched trace shorter than the frames it spans reads every rate
    # high by chunk_len / (chunk_len - 1): +2.3 bpm at 72 bpm here
    records = make_dataset(tmp_path / "data", 4, seed0=50, duration_s=8.0)
    padded_iter = iter(_padded_targets(records, 32))
    _, pred_hrs, gt_hrs, _ = evaluate_records(
        lambda frames: next(padded_iter), records, 32, (16, 16))
    for rec, pred_hr, gt_hr in zip(records, pred_hrs, gt_hrs):
        assert gt_hr == pred_hr
        assert abs(gt_hr - rec.meta["gt_mean_bpm"]) <= 1.0


def test_evaluate_checkpoint_end_to_end(tmp_path):
    make_dataset(tmp_path / "data", 3, seed0=40, duration_s=4.0)
    cfg = ModelConfig(**TOY_MODEL)
    ckpt, _ = train_loop(cfg, tmp_path / "data", toy_train_cfg(epochs=2),
                         tmp_path / "run")
    report, clip_ids, pred_hrs, gt_hrs, traces = evaluate_checkpoint(
        ckpt, tmp_path / "data", tmp_path / "run" / "eval",
        chunk_len=32, input_hw=(16, 16))
    assert len(clip_ids) == 3
    assert (tmp_path / "run" / "eval" / "per_clip_metrics.csv").exists()
    for cid in clip_ids:
        pred, target = traces[cid]
        assert pred.shape == target.shape
