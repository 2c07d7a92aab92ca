"""CLI surface: subcommand behaviour, exit-code contract, config parsing
and the resolved_config snapshot."""

import csv
import json
import os
import shutil
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from pulsemamba import cli
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba.svgplot import line_plot
from pulsemamba.synth import SynthConfig, generate_clip, read_dataset
from pulsemamba.training import AdamState, save_checkpoint


def run_cli(argv):
    return cli.main(argv)


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("ds")
    code = run_cli(["synth", "--out", str(out), "--set", "num_clips=3",
                    "--set", "duration_s=4", "--set", "height=24",
                    "--set", "width=24", "--set", "seed=5"])
    assert code == 0
    return out


def test_synth_writes_dataset_and_snapshot(tiny_dataset):
    assert (tiny_dataset / "resolved_config.txt").exists()
    clips = sorted(p.name for p in tiny_dataset.iterdir() if p.is_dir())
    assert clips == ["clip_0000", "clip_0001", "clip_0002"]
    snapshot = (tiny_dataset / "resolved_config.txt").read_text()
    assert "num_clips = 3" in snapshot
    assert "subcommand = synth" in snapshot


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "synth.cfg"
    cfg.write_text("# a comment\nnum_clips = 2\nheight = 24  # trailing\n"
                   "width = 24\nduration_s = 4\n")
    code = run_cli(["synth", "--config", str(cfg), "--out",
                    str(tmp_path / "ds")])
    assert code == 0
    assert "num_clips = 2" in (tmp_path / "ds" / "resolved_config.txt").read_text()


def test_unknown_config_key_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("definitely_not_a_key = 1\n")
    assert run_cli(["synth", "--config", str(cfg),
                    "--out", str(tmp_path / "ds")]) == cli.EXIT_USAGE


def test_bad_value_exits_2(tmp_path):
    assert run_cli(["synth", "--out", str(tmp_path / "ds"),
                    "--set", "num_clips=banana"]) == cli.EXIT_USAGE


def test_missing_config_file_exits_3(tmp_path):
    assert run_cli(["synth", "--config", str(tmp_path / "nope.cfg"),
                    "--out", str(tmp_path / "ds")]) == cli.EXIT_IO


def test_usage_error_exits_2():
    assert run_cli(["synth"]) == cli.EXIT_USAGE          # missing --out
    assert run_cli(["not-a-subcommand"]) == cli.EXIT_USAGE


def test_train_missing_data_dir_exits_3(tmp_path, capsys):
    code = run_cli(["train", "--data", str(tmp_path / "missing"),
                    "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_IO
    assert "missing" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("frames_shape", "ab"), ("fs", "x"),
                                       ("fs", float("inf")),
                                       ("format_version", 2)],
                         ids=["string_frames_shape", "string_fs", "infinite_fs",
                              "format_version_2"])
def test_malformed_dataset_header_exits_3(key, value, tiny_dataset, tmp_path,
                                          capsys):
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    meta_path = data / "clip_0000" / "meta.json"
    meta = json.loads(meta_path.read_text())
    meta[key] = value
    meta_path.write_text(json.dumps(meta))
    code = run_cli(["train", "--data", str(data), "--out", str(tmp_path / "run")])
    assert code == cli.EXIT_IO
    assert f"bad {key}" in capsys.readouterr().err


@pytest.mark.parametrize("shape,what", [
    ([3, 120, 0, 0], "bad frames_shape"),
    ([2 ** 32, 2 ** 32, 1, 1], "expected 73786976294838206464"),
], ids=["no_pixels", "overflowing_size"])
def test_clip_shape_without_frames_exits_3(shape, what, tiny_dataset, tmp_path,
                                           capsys):
    # an empty frames file whose checksum matches, under a shape that has
    # no pixels or whose element count a wrapping product would make 0
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    clip = data / "clip_0000"
    meta = json.loads((clip / "meta.json").read_text())
    meta.update(frames_shape=shape, frames_crc32="00000000")
    (clip / "meta.json").write_text(json.dumps(meta))
    (clip / "frames.f32").write_bytes(b"")
    ckpt = _untrained_checkpoint(tmp_path / "ckpt")
    code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "eval"), "--set", "chunk_len=32",
                    "--set", "input_h=16", "--set", "input_w=16"])
    assert code == cli.EXIT_IO
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("what", ["dataset", "checkpoint"])
def test_undecodable_header_exits_3(what, tiny_dataset, tmp_path, capsys):
    # a meta.json that is not UTF-8 is a malformed header, like bad JSON
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    ckpt = _untrained_checkpoint(tmp_path / "ckpt")
    meta = ckpt if what == "checkpoint" else data / "clip_0000"
    (meta / "meta.json").write_bytes(b"\xff\xfe{")
    code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(data),
                    "--out", str(tmp_path / "eval"), "--set", "chunk_len=32",
                    "--set", "input_h=16", "--set", "input_w=16"])
    assert code == cli.EXIT_IO
    assert "unreadable header" in capsys.readouterr().err


TINY_MODEL = ["--set", "input_h=16", "--set", "input_w=16",
              "--set", "channels=16", "--set", "blocks_per_stream=2",
              "--set", "ca_ratio=4"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_training_exits_4(tiny_dataset, tmp_path, capsys):
    # an absurd step size makes the second forward overflow (numpy warns
    # on the way; the test is about the exit code)
    code = run_cli(["train", "--data", str(tiny_dataset),
                    "--out", str(tmp_path / "run"), "--set", "epochs=1",
                    "--set", "batch_size=1", "--set", "chunk_len=32",
                    "--set", "lr=1e300"] + TINY_MODEL)
    assert code == cli.EXIT_NUMERIC
    assert "numeric error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_shape_error_exits_5(tiny_dataset, tmp_path, capsys):
    # every clip (120 frames) is shorter than a 128-frame window, so there
    # is no heart rate to score
    code = run_cli(["eval", "--ckpt",
                    str(_untrained_checkpoint(tmp_path / "ckpt")),
                    "--data", str(tiny_dataset), "--out", str(tmp_path / "eval"),
                    "--set", "chunk_len=128", "--set", "input_h=16",
                    "--set", "input_w=16"])
    assert code == cli.EXIT_SHAPE
    assert "shape error" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_with_no_window_exits_5(tiny_dataset, tmp_path, capsys):
    # every clip is 4 s (120 frames), shorter than a 128-frame window
    run = tmp_path / "run"
    code = run_cli(["train", "--data", str(tiny_dataset), "--out", str(run),
                    "--set", "epochs=1", "--set", "chunk_len=128"] + TINY_MODEL)
    assert code == cli.EXIT_SHAPE
    assert "ran no step" in capsys.readouterr().err
    assert list(run.glob("checkpoint_*")) == []
    assert not (run / "loss_log.csv").exists()


@pytest.mark.parametrize("epochs", [1, 2])
def test_resume_with_no_epoch_left_exits_2(epochs, tiny_dataset, tmp_path,
                                           capsys):
    # the checkpoint is stamped epoch 2: at or past it nothing is left to run
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    ckpt = save_checkpoint(tmp_path / "ckpt", PulseMambaNet(cfg),
                           AdamState(t=6), 2)
    run = tmp_path / "run"
    code = run_cli(["train", "--resume", str(ckpt), "--data", str(tiny_dataset),
                    "--out", str(run), "--set", f"epochs={epochs}",
                    "--set", "chunk_len=32"] + TINY_MODEL)
    assert code == cli.EXIT_USAGE
    assert "no epoch to run" in capsys.readouterr().err
    assert list(run.glob("checkpoint_*")) == []
    assert not (run / "loss_log.csv").exists()


def test_resume_with_no_epoch_left_exits_2_before_reading_data(tmp_path,
                                                              capsys):
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    ckpt = save_checkpoint(tmp_path / "ckpt", PulseMambaNet(cfg),
                           AdamState(t=6), 2)
    run = tmp_path / "run"
    code = run_cli(["train", "--resume", str(ckpt), "--data",
                    str(tmp_path / "missing"), "--out", str(run),
                    "--set", "epochs=1", "--set", "chunk_len=32"] + TINY_MODEL)
    assert code == cli.EXIT_USAGE
    assert "no epoch to run" in capsys.readouterr().err
    # the checkpoint is checked before anything is written
    assert not run.exists()


def _untrained_checkpoint(path):
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    return save_checkpoint(path, PulseMambaNet(cfg), AdamState(), 0)


@pytest.mark.parametrize("subcommand", ["train", "eval"])
@pytest.mark.parametrize("item", ["chunk_len=0", "chunk_len=-4", "input_h=-2",
                                  "input_w=0"])
def test_non_positive_chunk_extent_exits_2(subcommand, item, tiny_dataset,
                                           tmp_path, capsys):
    argv = [subcommand, "--data", str(tiny_dataset), "--out",
            str(tmp_path / "out")]
    if subcommand == "train":
        argv += ["--set", "epochs=1"] + TINY_MODEL
    else:
        argv += ["--ckpt", str(_untrained_checkpoint(tmp_path / "ckpt"))]
    assert run_cli(argv + ["--set", item]) == cli.EXIT_USAGE
    assert "must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand", ["train", "eval"])
@pytest.mark.parametrize("item", ["chunk_len=30", "input_h=20"])
def test_window_the_model_cannot_take_exits_2(subcommand, item, tiny_dataset,
                                              tmp_path, capsys):
    # T must be divisible by 4, H and W by 8 on a 2-block model
    out = tmp_path / "out"
    argv = [subcommand, "--data", str(tiny_dataset), "--out", str(out),
            "--set", "chunk_len=32"]
    if subcommand == "train":
        argv += ["--set", "epochs=1"] + TINY_MODEL
    else:
        argv += ["--ckpt", str(_untrained_checkpoint(tmp_path / "ckpt")),
                 "--set", "input_h=16", "--set", "input_w=16"]
    assert run_cli(argv + ["--set", item]) == cli.EXIT_USAGE
    assert "must be divisible" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("item", ["lr=nan", "lr=inf", "weight_decay=inf",
                                  "weight_decay=nan"])
def test_non_finite_lr_or_weight_decay_exits_2(item, tiny_dataset, tmp_path,
                                              capsys):
    run_dir = tmp_path / "run"
    code = run_cli(["train", "--data", str(tiny_dataset), "--out", str(run_dir),
                    "--set", "epochs=1", "--set", "chunk_len=32", "--set", item]
                   + TINY_MODEL)
    assert code == cli.EXIT_USAGE
    assert "must be finite" in capsys.readouterr().err
    assert not (run_dir / "checkpoint_final").exists()


def test_negative_counts_exit_2(tiny_dataset, tmp_path, capsys):
    assert run_cli(["synth", "--out", str(tmp_path / "ds"),
                    "--set", "num_clips=-1"]) == cli.EXIT_USAGE
    assert not (tmp_path / "ds").exists()
    code = run_cli(["eval", "--ckpt",
                    str(_untrained_checkpoint(tmp_path / "ckpt")),
                    "--data", str(tiny_dataset), "--out", str(tmp_path / "eval"),
                    "--set", "chunk_len=32", "--set", "input_h=16",
                    "--set", "input_w=16", "--set", "max_plots=-1"])
    assert code == cli.EXIT_USAGE
    assert list((tmp_path / "eval").glob("overlay_*.svg")) == []
    assert capsys.readouterr().err.count(">= 0") == 2


def test_synth_defaults_are_synth_config_defaults(tmp_path):
    out = tmp_path / "ds"
    assert run_cli(["synth", "--out", str(out), "--set", "num_clips=2",
                    "--set", "seed=3"]) == 0
    rng = np.random.default_rng(3)
    for i, rec in enumerate(read_dataset(out)):
        hr = float(rng.uniform(55.0, 140.0))
        clip = generate_clip(SynthConfig(seed=3 * 100003 + i, hr_start_bpm=hr))
        frames = rec.window(0, rec.label.shape[0])
        assert frames.tobytes() == clip.frames.tobytes()
        np.testing.assert_array_equal(rec.label, clip.label.astype(np.float32))


def test_clip_too_short_for_hr_exits_5(tmp_path, capsys):
    data = tmp_path / "short"
    assert run_cli(["synth", "--out", str(data), "--set", "num_clips=1",
                    "--set", "duration_s=1.5", "--set", "height=24",
                    "--set", "width=24"]) == 0
    code = run_cli(["eval", "--ckpt", str(_untrained_checkpoint(tmp_path / "ckpt")),
                    "--data", str(data), "--out", str(tmp_path / "eval"),
                    "--set", "chunk_len=32", "--set", "input_h=16",
                    "--set", "input_w=16"])
    assert code == cli.EXIT_SHAPE
    assert "need >= 2 s" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["entries", "model_config", "crc32"])
def test_checkpoint_meta_missing_key_exits_3(key, tiny_dataset, tmp_path, capsys):
    ckpt = _untrained_checkpoint(tmp_path / "ckpt")
    meta = json.loads((ckpt / "meta.json").read_text())
    del (meta["entries"][0] if key == "crc32" else meta)[key]
    (ckpt / "meta.json").write_text(json.dumps(meta))
    code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tiny_dataset),
                    "--out", str(tmp_path / "eval"), "--set", "chunk_len=32",
                    "--set", "input_h=16", "--set", "input_w=16"])
    assert code == cli.EXIT_IO
    assert key in capsys.readouterr().err


def _unknown_config_key(meta):
    meta["model_config"]["not_a_field"] = 1


def _unpaired_moment(meta):
    first_v = next(e for e in meta["entries"] if e["name"].startswith("adam_v:"))
    meta["entries"].remove(first_v)


def _reshaped_buffer(meta):
    # same size and crc, so only the shape check can catch it
    entry = next(e for e in meta["entries"] if e["name"].startswith("buffer:"))
    n, = entry["shape"]
    entry["shape"] = [2, n // 2]


def _no_buffers(meta):
    meta["entries"] = [e for e in meta["entries"]
                       if not e["name"].startswith("buffer:")]


def _string_offset(meta):
    entry = meta["entries"][0]
    entry["offset"] = str(entry["offset"])


def _string_shape(meta):
    meta["entries"][0]["shape"] = "ab"


def _entries_not_a_list(meta):
    meta["entries"] = 7


def _overflowing_shape(meta):
    # 2**64 elements: a wrapping product would size the entry as empty
    meta["entries"][0].update(shape=[2 ** 32, 2 ** 32], crc32="00000000")


def _set_header(key, value):
    def corrupt(meta):
        meta[key] = value
    return corrupt


def _set_entry(key, value):
    def corrupt(meta):
        meta["entries"][0][key] = value
    return corrupt


def _set_model_config(key, value):
    def corrupt(meta):
        meta["model_config"][key] = value
    return corrupt


@pytest.mark.parametrize("corrupt,subcommand,what", [
    (_unknown_config_key, "eval", "not_a_field"),
    (_unpaired_moment, "train", "adam_v:"),
    (_reshaped_buffer, "eval", "shape mismatch"),
    (_no_buffers, "eval", "missing buffer:"),
    (_no_buffers, "train", "missing buffer:"),
    (_string_offset, "eval", "bad offset"),
    (_string_shape, "eval", "bad shape"),
    (_entries_not_a_list, "eval", "bad entries"),
    (_overflowing_shape, "eval", "truncated"),
    (_set_header("epoch", "x"), "train", "bad epoch"),
    (_set_header("global_step", 1.5), "train", "bad global_step"),
    (_set_header("format_version", True), "eval", "bad format_version"),
    (_set_header("format_version", 1), "eval", "version 1"),
    (_set_model_config("theta", 5), "eval", "theta"),
    (_set_model_config("theta", 5), "train", "theta"),
    (_set_header("config_hash", "0" * 16), "eval", "config_hash"),
    (_set_header("config_hash", "0" * 16), "train", "config_hash"),
    (_set_model_config("channels", 0), "eval", "channels"),
    (_set_entry("dtype", "<f8"), "eval", "bad dtype"),
], ids=["unknown_config_key", "unpaired_adam_moment", "reshaped_buffer",
        "no_buffers", "no_buffers_on_resume",
        "string_offset", "string_shape", "entries_not_a_list",
        "overflowing_shape",
        "string_epoch", "float_global_step",
        "boolean_format_version", "old_format_version", "stored_theta_5",
        "stored_theta_5_on_resume", "contradicting_config_hash",
        "contradicting_config_hash_on_resume",
        "stored_channels_0", "float64_entry"])
def test_malformed_checkpoint_contents_exit_3(corrupt, subcommand, what,
                                              tiny_dataset, tmp_path, capsys):
    cfg = ModelConfig(channels=16, blocks_per_stream=2, ca_ratio=4)
    model = PulseMambaNet(cfg)
    named = list(model.named_parameters())
    state = AdamState(t=1, m={n: np.zeros(p.shape) for n, p in named},
                      v={n: np.ones(p.shape) for n, p in named})
    ckpt = save_checkpoint(tmp_path / "ckpt", model, state, 1)
    meta = json.loads((ckpt / "meta.json").read_text())
    corrupt(meta)
    (ckpt / "meta.json").write_text(json.dumps(meta))
    if subcommand == "eval":
        argv = ["eval", "--ckpt", str(ckpt), "--set", "chunk_len=32",
                "--set", "input_h=16", "--set", "input_w=16"]
    else:
        argv = ["train", "--resume", str(ckpt), "--set", "epochs=2",
                "--set", "chunk_len=32"] + TINY_MODEL
    code = run_cli(argv + ["--data", str(tiny_dataset),
                           "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_IO
    assert what in capsys.readouterr().err


def test_line_plot_escapes_markup(tmp_path):
    path = line_plot([("a<b & c>d", np.arange(3.0), np.arange(3.0))],
                     tmp_path / "esc.svg", title="<title> & co",
                     x_label="x < 1", y_label="y > 0 & 'q'")
    texts = [el.text for el in ET.parse(path).getroot().iter()
             if el.tag.endswith("text")]
    for label in ("a<b & c>d", "<title> & co", "x < 1", "y > 0 & 'q'"):
        assert label in texts


def test_profile_prints_reference_deltas(capsys, tmp_path):
    assert run_cli(["profile", "--input", "128x128x128",
                    "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "0.56 M" in out and "47.3 G" in out
    assert "delta" in out and "total" in out


def test_verify_commands_write_nothing_without_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli(["profile", "--input", "16x16x16", "--set", "channels=8",
                    "--set", "blocks_per_stream=2", "--set", "ca_ratio=4"]) == 0
    assert run_cli(["scancheck"]) == 0
    assert list(tmp_path.iterdir()) == []


def test_profile_bad_input_exits_2(tmp_path):
    assert run_cli(["profile", "--input", "128by128",
                    "--out", str(tmp_path)]) == cli.EXIT_USAGE


@pytest.mark.parametrize("args,what", [
    (["--set", "channels=0"], "channels"),
    (["--set", "ca_ratio=0"], "ca_ratio"),
    (["--input=-16x-16x-16"], "positive"),
], ids=["channels_0", "ca_ratio_0", "negative_input"])
def test_profile_bad_model_or_input_exits_2(args, what, capsys):
    assert run_cli(["profile"] + args) == cli.EXIT_USAGE
    assert what in capsys.readouterr().err


def test_scancheck_passes(capsys, tmp_path):
    assert run_cli(["scancheck", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "max relative error" in out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_plot_from_csv(tmp_path):
    src = tmp_path / "curve.csv"
    with open(src, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss"])
        for i in range(20):
            writer.writerow([i, np.exp(-0.1 * i)])
    out = tmp_path / "curve.svg"
    assert run_cli(["plot", "--csv", str(src), "--out", str(out)]) == 0
    root = ET.parse(out).getroot()
    assert root.tag.endswith("svg")
    assert any(child.tag.endswith("polyline") for child in root.iter())


def test_plot_missing_csv_exits_3(tmp_path):
    assert run_cli(["plot", "--csv", str(tmp_path / "no.csv"),
                    "--out", str(tmp_path / "x.svg")]) == cli.EXIT_IO


def test_plot_non_numeric_csv_exits_3(tmp_path):
    src = tmp_path / "junk.csv"
    src.write_text("a,b\nfoo,bar\n")
    assert run_cli(["plot", "--csv", str(src),
                    "--out", str(tmp_path / "x.svg")]) == cli.EXIT_IO


def test_train_eval_round_trip(tiny_dataset, tmp_path):
    run_dir = tmp_path / "run"
    code = run_cli(["train", "--data", str(tiny_dataset), "--out", str(run_dir),
                    "--set", "epochs=1", "--set", "batch_size=3",
                    "--set", "chunk_len=32", "--set", "input_h=16",
                    "--set", "input_w=16", "--set", "channels=16",
                    "--set", "blocks_per_stream=2", "--set", "ca_ratio=4",
                    "--set", "lr=0.001"])
    assert code == 0
    assert (run_dir / "loss_log.csv").exists()
    assert (run_dir / "resolved_config.txt").exists()
    ckpt = run_dir / "checkpoint_final"
    assert (ckpt / "meta.json").exists()

    eval_dir = tmp_path / "eval"
    code = run_cli(["eval", "--ckpt", str(ckpt), "--data", str(tiny_dataset),
                    "--out", str(eval_dir), "--set", "chunk_len=32",
                    "--set", "input_h=16", "--set", "input_w=16"])
    assert code == 0
    assert (eval_dir / "per_clip_metrics.csv").exists()
    overlays = list(eval_dir.glob("overlay_clip_*.svg"))
    assert len(overlays) == 3
    ET.parse(overlays[0])  # parseable XML


def test_gradcheck_subcommand(tmp_path, capsys):
    assert run_cli(["gradcheck", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "all passed" in out


def test_console_entry_point_runs():
    # the child imports the package from where this process found it
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "pulsemamba.cli",
                           "profile", "--input", "16x16x16",
                           "--set", "channels=8", "--set", "blocks_per_stream=2",
                           "--set", "ca_ratio=4"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "parameters" in proc.stdout


def test_loss_log_plots(tiny_dataset, tmp_path):
    run_dir = tmp_path / "runp"
    assert run_cli(["train", "--data", str(tiny_dataset), "--out", str(run_dir),
                    "--set", "epochs=1", "--set", "batch_size=3",
                    "--set", "chunk_len=32", "--set", "input_h=16",
                    "--set", "input_w=16", "--set", "channels=16",
                    "--set", "blocks_per_stream=2", "--set", "ca_ratio=4"]) == 0
    # loss_log.csv has a header plus epoch,step,loss rows; plot column 2 vs 1
    rows = list(csv.reader(open(run_dir / "loss_log.csv")))
    assert rows[0] == ["epoch", "step", "loss"]
    two_col = tmp_path / "steploss.csv"
    with open(two_col, "w", newline="") as fh:
        w = csv.writer(fh)
        for r in rows[1:]:
            w.writerow([r[1], r[2]])
    assert run_cli(["plot", "--csv", str(two_col),
                    "--out", str(tmp_path / "loss.svg")]) == 0
