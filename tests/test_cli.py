"""CLI surface: subcommand behaviour, exit-code contract, config parsing
and the resolved_config snapshot."""

import csv
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from pulsemamba import cli
from pulsemamba.svgplot import line_plot


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
    proc = subprocess.run([sys.executable, "-m", "pulsemamba.cli",
                           "profile", "--input", "16x16x16",
                           "--set", "channels=8", "--set", "blocks_per_stream=2",
                           "--set", "ca_ratio=4"],
                          capture_output=True, text=True)
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
