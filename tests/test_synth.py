"""Synthetic clip generation, dataset round-trips and chunking."""

import json
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

from pulsemamba import synth
from pulsemamba.errors import ConfigError, FormatError
from pulsemamba.signal import diff_normalize, estimate_hr, pearson
from pulsemamba.synth import (ClipRecord, StoredClip, SynthConfig,
                              bilinear_resize, chunk_and_resize, generate_clip,
                              read_dataset, write_dataset)


def small_cfg(**kw):
    base = dict(seed=3, duration_s=4.0, resolution=(24, 24), hr_start_bpm=90.0)
    base.update(kw)
    return SynthConfig(**base)


def test_generate_clip_determinism():
    a = generate_clip(small_cfg())
    b = generate_clip(small_cfg())
    assert np.array_equal(a.frames, b.frames)
    assert np.array_equal(a.label, b.label)


@pytest.mark.parametrize("noise,motion,crc", [(0.01, 1.0, "55eacf48"),
                                              (0.0, 0.0, "57339ee8")],
                         ids=["moving_noisy", "still"])
def test_generate_clip_returns_its_stored_float32_frames(noise, motion, crc):
    clip = generate_clip(SynthConfig(seed=7, duration_s=1.0, resolution=(16, 16),
                                     hr_start_bpm=80.0, noise_sigma=noise,
                                     motion_amplitude_px=motion))
    assert clip.frames.dtype == np.float32 and clip.label.dtype == np.float64
    # the checksum of the frames when they were rendered and kept in float64
    assert f"{zlib.crc32(clip.frames.tobytes()):08x}" == crc


def test_render_peaks_near_twice_the_float64_buffer():
    # the premise of MAX_CLIP_BYTES: the render buffer plus the noise draw
    cfg = small_cfg(duration_s=2.0, noise_sigma=0.01, motion_amplitude_px=3.0)
    buffer = 3 * cfg.num_frames * 24 * 24 * 8
    tracemalloc.start()
    try:
        generate_clip(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.1 * buffer


def test_distinct_seeds_distinct_frames():
    a = generate_clip(small_cfg(seed=1, noise_sigma=0.01))
    b = generate_clip(small_cfg(seed=2, noise_sigma=0.01))
    assert not np.array_equal(a.frames, b.frames)


def test_null_signal_clip_is_temporally_constant():
    clip = generate_clip(small_cfg(pulse_amplitude=0.0))
    assert np.abs(np.diff(clip.frames, axis=1)).max() == 0.0
    np.testing.assert_array_equal(diff_normalize(clip.frames), 0.0)


def test_label_recovers_configured_hr():
    clip = generate_clip(small_cfg(duration_s=10.0, hr_start_bpm=90.0))
    hr = estimate_hr(clip.label, clip.fs)
    assert abs(hr - 90.0) <= 1.0


def test_frames_stay_in_unit_interval():
    clip = generate_clip(small_cfg(noise_sigma=0.1, pulse_amplitude=0.05))
    assert clip.frames.min() >= 0.0 and clip.frames.max() <= 1.0


def test_label_pixel_coherence():
    """Masked green diff trace correlates > 0.9 with the diff label."""
    clip = generate_clip(small_cfg(duration_s=8.0))
    green = clip.frames[1]
    mask = np.abs(green[0] - np.median(green[0])) > 1e-12
    # fall back to center block if the first frame catches pulse = 0
    if mask.sum() < 4:
        h, w = green.shape[1:]
        mask = np.zeros_like(green[0], dtype=bool)
        mask[h // 3:-h // 3, w // 3:-w // 3] = True
    trace = green[:, mask].mean(axis=1)
    rho = pearson(np.diff(trace), np.diff(clip.label))
    assert rho > 0.9


def test_resolution_floor():
    with pytest.raises(ConfigError):
        SynthConfig(resolution=(8, 8))


def test_hr_band_enforced():
    with pytest.raises(ConfigError):
        SynthConfig(hr_start_bpm=30.0)


def test_motion_moves_the_mask():
    still = generate_clip(small_cfg())
    moving = generate_clip(small_cfg(motion_amplitude_px=3.0))
    assert not np.array_equal(still.frames, moving.frames)


# ---------------------------------------------------------------------------
# dataset round trip

def test_dataset_round_trip(tmp_path):
    records = [generate_clip(small_cfg(seed=i)) for i in range(3)]
    write_dataset(tmp_path / "ds", records)
    back = read_dataset(tmp_path / "ds")
    assert len(back) == 3
    for orig, loaded in zip(records, back):
        np.testing.assert_array_equal(orig.frames.astype(np.float32),
                                      loaded.frames.astype(np.float32))
        np.testing.assert_array_equal(orig.label.astype(np.float32),
                                      loaded.label.astype(np.float32))
        assert loaded.fs == orig.fs


def test_clip_header_holds_the_read_keys_and_the_clip_meta(tmp_path):
    clip = generate_clip(small_cfg())
    write_dataset(tmp_path, [clip])
    meta = json.loads((tmp_path / "clip_0000" / "meta.json").read_text())
    assert set(meta) == set(synth._HEADER) | set(clip.meta)


def test_dataset_write_is_byte_stable(tmp_path):
    records = [generate_clip(small_cfg())]
    write_dataset(tmp_path / "a", records)
    write_dataset(tmp_path / "b", records)
    for name in ("meta.json", "frames.f32", "label.f32"):
        assert (tmp_path / "a" / "clip_0000" / name).read_bytes() == \
               (tmp_path / "b" / "clip_0000" / name).read_bytes()


def test_write_dataset_streams_a_generator_byte_identically(tmp_path):
    cfgs = [small_cfg(seed=i, noise_sigma=0.01) for i in range(3)]
    write_dataset(tmp_path / "list", [generate_clip(c) for c in cfgs])
    write_dataset(tmp_path / "gen", (generate_clip(c) for c in cfgs))
    for i in range(3):
        for name in ("meta.json", "frames.f32", "label.f32"):
            a, b = (tmp_path / d / f"clip_{i:04d}" / name for d in ("list", "gen"))
            assert a.read_bytes() == b.read_bytes()


def test_read_dataset_leaves_frames_on_disk(tmp_path):
    # 3 clips of 2.07 MB frames; checksumming reads through one block
    clip = generate_clip(small_cfg(duration_s=10.0))
    write_dataset(tmp_path / "ds", [clip] * 3)
    size = sum(f.stat().st_size for f in (tmp_path / "ds").rglob("*.f32"))
    assert size > 6e6
    tracemalloc.start()
    try:
        records = read_dataset(tmp_path / "ds")
        read_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        window = records[1].window(100, 132)
        window_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_peak < synth.CRC_BLOCK + 100_000
    assert all(isinstance(r, StoredClip) for r in records)
    # a window costs its own frames: 3 x 32 x 24 x 24 float32 = 221 kB
    assert window_peak < window.nbytes + 50_000
    assert window.flags.writeable and window.dtype == np.float32
    np.testing.assert_array_equal(window, clip.frames[:, 100:132])


@pytest.mark.parametrize("damage", ["flip_byte", "truncate", "remove"])
def test_stored_clip_checks_each_window_against_the_read_file(damage, tmp_path):
    clip = generate_clip(small_cfg(noise_sigma=0.01))  # 120 frames
    write_dataset(tmp_path / "ds", [clip])
    (rec,) = read_dataset(tmp_path / "ds")
    blob_path = tmp_path / "ds" / "clip_0000" / "frames.f32"
    frame = 24 * 24 * 4
    if damage == "flip_byte":  # channel 1, frame 10, in place
        with open(blob_path, "r+b") as fh:
            fh.seek((120 + 10) * frame + 7)
            byte = fh.read(1)[0]
            fh.seek(-1, 1)
            fh.write(bytes([byte ^ 0x01]))
        np.testing.assert_array_equal(rec.window(0, 10), clip.frames[:, :10])
        np.testing.assert_array_equal(rec.window(11, 40), clip.frames[:, 11:40])
    elif damage == "truncate":
        with open(blob_path, "r+b") as fh:
            fh.truncate(3 * 120 * frame // 2)
    else:
        blob_path.unlink()
    with pytest.raises(FormatError, match="frames.f32"):
        rec.window(5, 15 if damage == "flip_byte" else 120)
    with pytest.raises(FormatError, match="frames.f32"):
        chunk_and_resize(rec, 32, (16, 16), mode="eval")


def test_read_dataset_keeps_no_file_open(tmp_path):
    # more clips than the child's descriptor limit: each must be closed
    code = """if True:
        import resource, sys
        import numpy as np
        from pulsemamba.synth import ClipRecord, chunk_and_resize, read_dataset, write_dataset
        root = sys.argv[1]
        resource.setrlimit(resource.RLIMIT_NOFILE, (64, resource.getrlimit(resource.RLIMIT_NOFILE)[1]))
        clips = (ClipRecord(np.full((3, 4, 16, 16), i / 100, np.float32), np.zeros(4), 30.0)
                 for i in range(100))
        write_dataset(root, clips)
        records = read_dataset(root)
        chunks = [c for r in records for c in chunk_and_resize(r, 4, (16, 16))]
        assert len(chunks) == 100 and chunks[99].frames[0, 0, 0, 0] == np.float32(0.99)
        print("ok")
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "ds")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0 and done.stdout == "ok\n", done.stderr[-2000:]


def test_empty_clip_reads_back(tmp_path):
    empty = ClipRecord(frames=np.zeros((3, 0, 16, 16), np.float32),
                       label=np.zeros(0), fs=30.0)
    write_dataset(tmp_path / "ds", [empty])
    (rec,) = read_dataset(tmp_path / "ds")
    assert rec.frames.shape == (3, 0, 16, 16) and rec.label.shape == (0,)


@pytest.mark.parametrize("damage", ["flip_byte", "truncate", "grow_4_bytes"])
def test_damaged_frames_file_is_format_error(damage, tmp_path):
    # frames of 1.4 blocks: the flipped byte is in the second block
    write_dataset(tmp_path / "ds", [generate_clip(small_cfg(duration_s=7.0))])
    blob_path = tmp_path / "ds" / "clip_0000" / "frames.f32"
    raw = bytearray(blob_path.read_bytes())
    assert synth.CRC_BLOCK < len(raw) < 2 * synth.CRC_BLOCK
    if damage == "flip_byte":
        raw[-5] ^= 0x01
    elif damage == "truncate":
        del raw[-4:]
    else:
        raw += bytes(4)
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="frames.f32"):
        read_dataset(tmp_path / "ds")


def test_truncated_tensor_file_is_format_error(tmp_path):
    write_dataset(tmp_path / "ds", [generate_clip(small_cfg())])
    blob_path = tmp_path / "ds" / "clip_0000" / "frames.f32"
    blob_path.write_bytes(blob_path.read_bytes()[:-8])
    with pytest.raises(FormatError, match="frames.f32"):
        read_dataset(tmp_path / "ds")


@pytest.mark.parametrize("damage", ["flip_byte", "drop_three_bytes"])
def test_read_frames_stay_float32_and_chunk_bitwise_as_float64(damage, tmp_path):
    clip = generate_clip(small_cfg(noise_sigma=0.01))
    write_dataset(tmp_path / "ds", [clip])
    (rec,) = read_dataset(tmp_path / "ds")
    assert rec.frames.dtype == np.float32 and rec.label.dtype == np.float64
    assert rec.frames.flags.writeable and rec.frames.flags.c_contiguous
    np.testing.assert_array_equal(rec.frames, clip.frames.astype(np.float32))
    wide = ClipRecord(frames=rec.frames.astype(np.float64), label=rec.label,
                      fs=rec.fs, meta=rec.meta)
    for hw in ((24, 24), (16, 16)):  # the same-size branch, then a resize
        got, ref = (chunk_and_resize(r, 32, hw, mode="eval") for r in (rec, wide))
        assert len(got) == len(ref) > 1
        for a, b in zip(got, ref):
            assert a.frames.dtype == np.float64 and a.label.dtype == np.float64
            assert a.frames.tobytes() == b.frames.tobytes()
            assert a.label.tobytes() == b.label.tobytes()

    blob_path = tmp_path / "ds" / "clip_0000" / "frames.f32"
    raw = bytearray(blob_path.read_bytes())
    if damage == "flip_byte":
        raw[len(raw) // 2] ^= 0x01
    else:
        del raw[-3:]
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="frames.f32"):
        read_dataset(tmp_path / "ds")


def test_checksum_mismatch_is_format_error(tmp_path):
    write_dataset(tmp_path / "ds", [generate_clip(small_cfg())])
    blob_path = tmp_path / "ds" / "clip_0000" / "label.f32"
    raw = bytearray(blob_path.read_bytes())
    raw[0] ^= 0xFF
    blob_path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="checksum"):
        read_dataset(tmp_path / "ds")


def test_corrupt_header_is_format_error(tmp_path):
    write_dataset(tmp_path / "ds", [generate_clip(small_cfg())])
    (tmp_path / "ds" / "clip_0000" / "meta.json").write_text("{not json")
    with pytest.raises(FormatError, match="meta.json"):
        read_dataset(tmp_path / "ds")


def test_empty_dataset_directory(tmp_path):
    (tmp_path / "empty").mkdir()
    assert read_dataset(tmp_path / "empty") == []


def test_missing_dataset_directory(tmp_path):
    with pytest.raises(FormatError):
        read_dataset(tmp_path / "nope")


def test_meta_json_lists_required_keys(tmp_path):
    write_dataset(tmp_path / "ds", [generate_clip(small_cfg())])
    meta = json.loads((tmp_path / "ds" / "clip_0000" / "meta.json").read_text())
    for key in ("dtype", "fs", "frames_shape", "label_shape",
                "frames_crc32", "label_crc32", "seed"):
        assert key in meta


# ---------------------------------------------------------------------------
# chunking and resizing

def test_eval_tiling_drops_tail():
    clip = generate_clip(small_cfg(duration_s=10.0))  # 300 frames
    chunks = chunk_and_resize(clip, chunk_len=128, out_hw=(16, 16), mode="eval")
    assert len(chunks) == 2
    assert chunks[0].meta["window_start"] == 0
    assert chunks[1].meta["window_start"] == 128
    assert chunks[0].frames.shape == (3, 128, 16, 16)
    np.testing.assert_array_equal(chunks[0].label, clip.label[:128])


def test_resize_preserves_constants():
    frames = np.full((3, 4, 20, 20), 0.37)
    out = bilinear_resize(frames, (16, 16))
    np.testing.assert_allclose(out, 0.37, rtol=1e-12)


def test_train_mode_window_is_seeded():
    clip = generate_clip(small_cfg(duration_s=8.0))
    a = chunk_and_resize(clip, 64, (16, 16), mode="train",
                         rng=np.random.default_rng(9))
    b = chunk_and_resize(clip, 64, (16, 16), mode="train",
                         rng=np.random.default_rng(9))
    assert a[0].meta["window_start"] == b[0].meta["window_start"]
    np.testing.assert_array_equal(a[0].frames, b[0].frames)


def test_short_clip_skipped_with_warning():
    clip = generate_clip(small_cfg(duration_s=2.0))  # 60 frames
    with pytest.warns(RuntimeWarning):
        chunks = chunk_and_resize(clip, chunk_len=128, out_hw=(16, 16),
                                  mode="eval")
    assert chunks == []


def test_clip_record_label_alignment():
    with pytest.raises(FormatError):
        ClipRecord(frames=np.zeros((3, 5, 4, 4)), label=np.zeros(4), fs=30.0)
