"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench

They run toy-sized models only, so they take seconds.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402
from pulsemamba import synth, training  # noqa: E402
from pulsemamba import tensor as T  # noqa: E402
from pulsemamba.blocks import ModelConfig, PulseMambaNet  # noqa: E402
from pulsemamba.profiling import profile_model  # noqa: E402


def toy(blocks_per_stream=2):
    return ModelConfig(channels=8, blocks_per_stream=blocks_per_stream,
                       ca_ratio=4, state_dim=4)


def bindings():
    """Every package-level name and class ``__call__`` the tracer may touch."""
    snap = {}
    for mod_name, mod in list(sys.modules.items()):
        if not mod_name.startswith("pulsemamba") or mod is None:
            continue
        for attr, val in vars(mod).items():
            snap[(mod_name, attr)] = val
            if inspect.isclass(val) and "__call__" in vars(val):
                snap[(mod_name, attr, "__call__")] = vars(val)["__call__"]
    return snap


def toy_pipeline(root: Path):
    """Synthesize, train one epoch and evaluate a toy model; return outputs."""
    clips = [synth.generate_clip(synth.SynthConfig(seed=i, duration_s=4.0,
                                       resolution=(16, 16),
                                       hr_start_bpm=70.0 + 10 * i))
             for i in range(2)]
    synth.write_dataset(root / "data", clips)
    cfg = training.TrainConfig(lr=1e-3, epochs=1, batch_size=2, chunk_len=16,
                      input_hw=(16, 16))
    ckpt, log = training.train_loop(toy(), root / "data", cfg, root / "run")
    _, _, pred, _, _ = training.evaluate_checkpoint(ckpt, root / "data", None,
                                           chunk_len=16, input_hw=(16, 16))
    return log, (ckpt / "state.bin").read_bytes(), pred


def test_restore_puts_every_original_back():
    before = bindings()
    with spans.Tracer():
        during = bindings()
    after = bindings()
    wrapped = [k for k in before if during[k] is not before[k]]
    assert len(wrapped) > 50
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []


def test_restore_after_exception():
    before = bindings()
    with pytest.raises(RuntimeError):
        with spans.Tracer():
            raise RuntimeError("boom")
    assert all(bindings()[k] is v for k, v in before.items())


@pytest.mark.parametrize("blocks_per_stream", [2, 3])
def test_block_rows_match_profile_model(blocks_per_stream):
    cfg = toy(blocks_per_stream)
    thw = (8, 16, 16)
    net = PulseMambaNet(cfg, seed=0).eval()
    x = T.Tensor(np.random.default_rng(0).normal(size=(2, 3) + thw))
    tracer = spans.Tracer()
    with tracer, T.no_grad():
        net(x)
    rows = [name for name, _, _ in profile_model(cfg, thw).rows]
    metrics = spans.layer_metrics(tracer)
    measured = {n[len("blocks."):-len(".s")] for n in metrics
                if n.startswith("blocks.") and n.endswith(".s")}
    assert measured == set(rows)
    # rows split the forward: together they cover most of it, never more
    forward = tracer.stats["blocks.PulseMambaNet"].total_s
    assert 0.8 * forward < sum(tracer.row_s.values()) <= forward
    for row, _, macs in profile_model(cfg, thw).rows:
        assert tracer.counters[f"macs:{row}"] == 2 * macs


def test_traced_and_untraced_outputs_identical(tmp_path):
    cfg = toy()
    x = T.Tensor(np.random.default_rng(1).normal(size=(1, 3, 8, 16, 16)))
    with T.no_grad():
        plain = PulseMambaNet(cfg, seed=0).eval()(x).data
    with spans.Tracer(), T.no_grad():
        traced = PulseMambaNet(cfg, seed=0).eval()(x).data
    assert np.array_equal(plain, traced)

    plain_run = toy_pipeline(tmp_path / "plain")
    with spans.Tracer():
        traced_run = toy_pipeline(tmp_path / "traced")
    assert plain_run[0] == traced_run[0]
    assert plain_run[1] == traced_run[1]
    assert plain_run[2] == traced_run[2]


def test_benchmark_per_layer_metrics_are_measured(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tracer = spans.Tracer()
    with tracer:
        toy_pipeline(tmp_path)
    metrics = spans.layer_metrics(tracer)
    for entry in spec["per_layer"]:
        assert entry["name"] in metrics, entry["name"]
        value, unit = metrics[entry["name"]]
        assert unit == entry["unit"] and value > 0, entry
    assert metrics["tensor.graph_nodes"][0] > 0
    assert metrics["tensor.backward.s"][0] > 0


def test_step_intervals_stay_inside_an_epoch(tmp_path):
    import workloads

    clips = [synth.generate_clip(synth.SynthConfig(seed=i, duration_s=2.0,
                                       resolution=(16, 16)))
             for i in range(3)]
    synth.write_dataset(tmp_path / "data", clips)
    cfg = training.TrainConfig(lr=1e-3, epochs=2, batch_size=1, chunk_len=16,
                               input_hw=(16, 16))
    out = workloads.Outcome()
    ckpt, log = workloads._train(out, toy(), tmp_path / "data", cfg,
                                 tmp_path / "run")
    assert len(log) == 6 and len(out.rss_mb) == 6
    # three steps per epoch: two intervals each, none across the boundary
    assert len(out.unit_s) == 4 and all(t > 0 for t in out.unit_s)
