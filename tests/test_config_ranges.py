"""Config key ranges: every CLI key has exactly one declared range, and a
sweep of bad and extreme values over every key maps each to its exit code
without writing anything it should not."""

import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from pulsemamba import cli
from pulsemamba.blocks import ModelConfig, PulseMambaNet
from pulsemamba.errors import CapacityError
from pulsemamba.synth import SynthConfig, read_dataset
from pulsemamba.training import (AdamState, TrainConfig, load_checkpoint,
                                 save_checkpoint)

TABLES = {"ModelConfig": ModelConfig.RANGES, "SynthConfig": SynthConfig.RANGES,
          "TrainConfig": TrainConfig.RANGES, "cli": cli.CLI_RANGES}
SCHEMAS = {"synth": cli.SYNTH_KEYS, "train": cli.TRAIN_KEYS,
           "eval": cli.EVAL_KEYS, "profile": cli.MODEL_KEYS}


@pytest.mark.parametrize("cls", [ModelConfig, SynthConfig, TrainConfig])
def test_every_config_field_has_a_range(cls):
    assert set(cls.RANGES) == {f.name for f in fields(cls)}


@pytest.mark.parametrize("schema", SCHEMAS)
def test_every_cli_key_maps_to_one_table_entry(schema):
    for key, (_, _, rng) in SCHEMAS[schema].items():
        owners = [f"{table}.{name}" for table, entries in TABLES.items()
                  for name, entry in entries.items() if entry is rng]
        assert len(owners) == 1, f"{schema} key {key}: {owners}"


# a 4-channel, 1-block model on 16x16 windows of 16 frames
TINY = ["--set", "channels=4", "--set", "blocks_per_stream=1",
        "--set", "ca_ratio=4"]
WINDOW = ["--set", "chunk_len=16", "--set", "input_h=16", "--set", "input_w=16"]
SWEEP_VALUES = ["0", "-1", "nan", "inf", "-inf", "1e308"]
SWEEP = [(cmd, key) for cmd, schema in SCHEMAS.items() for key in schema]


@pytest.fixture(scope="module")
def sweep_inputs(tmp_path_factory):
    """One 4 s clip of 16x16 (long enough for eval's HR estimate at chunk
    16) and one untrained checkpoint of the tiny model."""
    root = tmp_path_factory.mktemp("sweep")
    assert cli.main(["synth", "--out", str(root / "data"), "--set", "num_clips=1",
                     "--set", "height=16", "--set", "width=16",
                     "--set", "duration_s=4"]) == cli.EXIT_OK
    cfg = ModelConfig(channels=4, blocks_per_stream=1, ca_ratio=4)
    ckpt = save_checkpoint(root / "ckpt", PulseMambaNet(cfg), AdamState(), 0)
    return root / "data", ckpt


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", SWEEP_VALUES)
@pytest.mark.parametrize("command,key", SWEEP)
def test_every_key_value_maps_to_its_exit_code(command, key, value,
                                               sweep_inputs, tmp_path):
    data, ckpt = sweep_inputs
    out = tmp_path / "out"
    argv = {"synth": ["synth", "--set", "num_clips=1", "--set", "height=16",
                      "--set", "width=16", "--set", "duration_s=2"],
            "train": ["train", "--data", str(data), "--set", "epochs=1"]
            + TINY + WINDOW,
            "eval": ["eval", "--data", str(data), "--ckpt", str(ckpt)] + WINDOW,
            "profile": ["profile", "--input", "16x16x16"] + TINY}[command]
    code = cli.main(argv + ["--out", str(out), "--set", f"{key}={value}"])
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_NUMERIC)
    if code == cli.EXIT_USAGE:
        assert not out.exists()
    elif code == cli.EXIT_OK and command == "synth":
        for rec in read_dataset(out):
            assert np.isfinite(rec.frames).all()
    elif code == cli.EXIT_OK and command == "train":
        for saved in out.glob("checkpoint_*"):
            _, arrays = load_checkpoint(saved)
            assert all(np.isfinite(a).all() for a in arrays.values()), saved


def test_oversized_clip_is_refused_before_any_allocation(tmp_path, capsys):
    tracemalloc.start()
    try:
        code = cli.main(["synth", "--out", str(tmp_path / "ds"),
                         "--set", "fs=1e308"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_USAGE
    assert "byte cap" in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()
    assert peak < 1 << 20
    with pytest.raises(CapacityError):
        SynthConfig(duration_s=1e308)
    with pytest.raises(CapacityError):
        SynthConfig(resolution=(10 ** 400, 16))


@pytest.mark.parametrize("command", ["profile", "train"])
def test_oversized_model_or_window_is_refused_before_any_allocation(
        command, sweep_inputs, tmp_path, capsys):
    # block 0 would flatten 4*4*4 tokens of 1e12 channels, or 4*16384*16384
    # tokens of 4: far over SEQ_BUDGET, and terabytes if allocated
    data, _ = sweep_inputs
    out = tmp_path / "out"
    argv = {"profile": ["profile", "--input", "16x16x16",
                        "--set", "channels=1000000000000"],
            "train": ["train", "--data", str(data), "--set", "epochs=1",
                      "--set", "chunk_len=16", "--set", "input_h=65536",
                      "--set", "input_w=65536"] + TINY}[command]
    tracemalloc.start()
    try:
        code = cli.main(argv + ["--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_USAGE
    assert "exceeds budget" in capsys.readouterr().err
    assert not out.exists()
    assert peak < 1 << 20


@pytest.mark.parametrize("items,what", [
    (["seed=-1"], "seed must be >= 0"), (["fs=0"], "fs must be > 0"),
    (["duration_s=-1"], "duration_s must be > 0"),
    (["base_g=nan"], "base_g must be finite"),
    (["hr_min_bpm=100", "hr_max_bpm=90"], "hr_max_bpm must be >= 100"),
    (["hr_max_bpm=0"], "hr_max_bpm must be >= 48"),
    (["fs=0.01"], "is 0 frames, < 2"),
], ids=["seed", "fs", "duration", "base_color", "hr_order", "hr_band",
        "frame_count"])
def test_synth_names_the_value_out_of_range(items, what, tmp_path, capsys):
    sets = [arg for item in items for arg in ("--set", item)]
    code = cli.main(["synth", "--out", str(tmp_path / "ds")] + sets)
    assert code == cli.EXIT_USAGE
    assert what in capsys.readouterr().err
    assert not (tmp_path / "ds").exists()


def test_train_rejects_zero_epochs_before_writing(tmp_path, capsys):
    code = cli.main(["train", "--data", str(tmp_path / "data"), "--out",
                     str(tmp_path / "run"), "--set", "epochs=0"])
    assert code == cli.EXIT_USAGE
    assert "epochs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()
