"""Command-line entry point.

Subcommands: synth, train, eval, gradcheck, scancheck, profile, plot.
Configuration files are plain `key = value` text (one key per line, `#`
comments); unknown keys are rejected and every run writes a
``resolved_config.txt`` snapshot into its output directory (gradcheck,
scancheck and profile only when given ``--out``).

Exit codes: 0 success, 1 verification failure, 2 usage/config error,
3 I/O or format error (including a malformed checkpoint or dataset
header), 4 numeric failure (a non-finite value where finite ones are
required, e.g. a training loss), 5 shape error (data whose extents the
model or an operation cannot take, e.g. a clip too short for heart-rate
estimation).
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from . import checks
from .blocks import ModelConfig
from .errors import (ConfigError, FormatError, InsufficientDataError,
                     NumericError, ShapeError)
from .profiling import REFERENCE_MACS, REFERENCE_PARAMS, profile_model
from .svgplot import line_plot
from .synth import SynthConfig, generate_clip, write_dataset
from .training import TrainConfig, evaluate_checkpoint, train_loop

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SHAPE = 5

# key -> (caster, default); config files and --set overrides share these
SYNTH_KEYS = {
    "seed": (int, 0), "num_clips": (int, 30), "fs": (float, 30.0),
    "duration_s": (float, 10.0), "height": (int, 64), "width": (int, 64),
    "base_r": (float, 0.70), "base_g": (float, 0.55), "base_b": (float, 0.45),
    "pulse_amplitude": (float, 0.02), "hr_min_bpm": (float, 55.0),
    "hr_max_bpm": (float, 140.0), "noise_sigma": (float, 0.0),
    "motion_amplitude_px": (float, 0.0), "skin_mask": (float, 0.6),
}
MODEL_KEYS = {
    "channels": (int, 64), "blocks_per_stream": (int, 3),
    "state_dim": (int, 16), "expand": (int, 2), "theta": (float, 0.5),
    "ca_ratio": (int, 8),
}
TRAIN_KEYS = {
    **MODEL_KEYS,
    "lr": (float, 3e-3), "weight_decay": (float, 5e-4), "epochs": (int, 20),
    "batch_size": (int, 4), "seed": (int, 0), "chunk_len": (int, 128),
    "input_h": (int, 128), "input_w": (int, 128), "val_fraction": (float, 0.0),
}
EVAL_KEYS = {"chunk_len": (int, 128), "input_h": (int, 128),
             "input_w": (int, 128), "max_plots": (int, 8)}


def parse_config_file(path: Optional[str], schema: Dict) -> Dict:
    """Read `key = value` lines against a schema; unknown keys are errors."""
    resolved = {k: default for k, (_, default) in schema.items()}
    if path is None:
        return resolved
    p = Path(path)
    if not p.exists():
        raise FormatError(f"config file {p} does not exist")
    for ln, raw in enumerate(p.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{p}:{ln}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        if key not in schema:
            raise ConfigError(f"{p}:{ln}: unknown key '{key}'")
        caster = schema[key][0]
        try:
            resolved[key] = caster(val)
        except ValueError as exc:
            raise ConfigError(f"{p}:{ln}: bad value for '{key}': {val!r}") from exc
    return resolved


def apply_overrides(resolved: Dict, overrides: Sequence[str], schema: Dict) -> Dict:
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"--set needs key=value, got {item!r}")
        key, val = (s.strip() for s in item.split("=", 1))
        if key not in schema:
            raise ConfigError(f"--set: unknown key '{key}'")
        try:
            resolved[key] = schema[key][0](val)
        except ValueError as exc:
            raise ConfigError(f"--set: bad value for '{key}': {val!r}") from exc
    return resolved


def write_resolved(out_dir, resolved: Dict, extra: Optional[Dict] = None) -> Path:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in sorted({**resolved, **(extra or {})}.items())]
    target = out_dir / "resolved_config.txt"
    target.write_text("\n".join(lines) + "\n")
    return target


def _model_config(resolved: Dict) -> ModelConfig:
    return ModelConfig(channels=resolved["channels"],
                       blocks_per_stream=resolved["blocks_per_stream"],
                       state_dim=resolved["state_dim"],
                       expand=resolved["expand"],
                       theta=resolved["theta"],
                       ca_ratio=resolved["ca_ratio"])


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = apply_overrides(parse_config_file(args.config, SYNTH_KEYS),
                          args.set, SYNTH_KEYS)
    write_resolved(args.out, cfg, {"subcommand": "synth"})
    rng = np.random.default_rng(cfg["seed"])
    records = []
    for i in range(cfg["num_clips"]):
        hr = float(rng.uniform(cfg["hr_min_bpm"], cfg["hr_max_bpm"]))
        clip_cfg = SynthConfig(
            seed=cfg["seed"] * 100003 + i, fs=cfg["fs"],
            duration_s=cfg["duration_s"],
            resolution=(cfg["height"], cfg["width"]),
            base_color=(cfg["base_r"], cfg["base_g"], cfg["base_b"]),
            pulse_amplitude=cfg["pulse_amplitude"], hr_start_bpm=hr,
            noise_sigma=cfg["noise_sigma"],
            motion_amplitude_px=cfg["motion_amplitude_px"],
            skin_mask=cfg["skin_mask"])
        records.append(generate_clip(clip_cfg))
    paths = write_dataset(args.out, records)
    print(f"wrote {len(paths)} clips to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = apply_overrides(parse_config_file(args.config, TRAIN_KEYS),
                          args.set, TRAIN_KEYS)
    write_resolved(args.out, cfg, {"subcommand": "train", "data": args.data})
    model_cfg = _model_config(cfg)
    train_cfg = TrainConfig(lr=cfg["lr"], weight_decay=cfg["weight_decay"],
                            epochs=cfg["epochs"], batch_size=cfg["batch_size"],
                            seed=cfg["seed"], chunk_len=cfg["chunk_len"],
                            input_hw=(cfg["input_h"], cfg["input_w"]),
                            val_fraction=cfg["val_fraction"])
    ckpt, log = train_loop(model_cfg, args.data, train_cfg, args.out,
                           resume_from=args.resume, log_fn=print)
    print(f"final checkpoint: {ckpt} ({len(log)} steps)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = apply_overrides(parse_config_file(args.config, EVAL_KEYS),
                          args.set, EVAL_KEYS)
    write_resolved(args.out, cfg, {"subcommand": "eval", "ckpt": args.ckpt,
                                   "data": args.data})
    report, clip_ids, pred_hrs, gt_hrs, traces = evaluate_checkpoint(
        args.ckpt, args.data, args.out, chunk_len=cfg["chunk_len"],
        input_hw=(cfg["input_h"], cfg["input_w"]))
    out_dir = Path(args.out)
    for cid in clip_ids[:cfg["max_plots"]]:
        pred, target = traces[cid]
        t = np.arange(pred.size)
        line_plot([("predicted", t, pred), ("ground truth", t, target)],
                  out_dir / f"overlay_{cid}.svg",
                  title=f"{cid}: predicted vs ground-truth pulse",
                  x_label="frame", y_label="normalized amplitude")
    print(f"MAE {report.mae_bpm:.3f} bpm  RMSE {report.rmse_bpm:.3f} bpm  "
          f"MAPE {report.mape_percent:.3f} %  rho {report.pearson_rho:.3f}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    if args.out:
        write_resolved(args.out, {"full": bool(args.full)},
                       {"subcommand": "gradcheck"})
    results = checks.op_gradient_suite(full=args.full)
    results.append(checks.model_gradient_suite())
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    print("gradcheck:", "all passed" if ok else "FAILURES")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_scancheck(args) -> int:
    if args.out:
        write_resolved(args.out, {}, {"subcommand": "scancheck"})
    results = [checks.scan_equivalence_suite(),
               checks.selective_oracle_suite(),
               checks.constant_projection_bitwise()]
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.passed
    print(f"scancheck: max relative error "
          f"{max(r.max_err for r in results[:2]):.3e}",
          "(all passed)" if ok else "(FAILURES)")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_profile(args) -> int:
    cfg = apply_overrides(parse_config_file(args.config, MODEL_KEYS),
                          args.set, MODEL_KEYS)
    if args.out:
        write_resolved(args.out, cfg, {"subcommand": "profile", "input": args.input})
    try:
        t, h, w = (int(s) for s in args.input.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--input must look like 128x128x128, got {args.input!r}") from exc
    report = profile_model(_model_config(cfg), (t, h, w))
    print(report.format_table())
    print()
    print(f"parameters: {report.param_count} ({report.param_count / 1e6:.4f} M), "
          f"reference {REFERENCE_PARAMS / 1e6:.2f} M, "
          f"delta {(report.param_count - REFERENCE_PARAMS) / 1e6:+.4f} M")
    print(f"MACs @ {t}x{h}x{w}: {report.mac_count} "
          f"({report.mac_count / 1e9:.2f} G), "
          f"reference {REFERENCE_MACS / 1e9:.1f} G, "
          f"delta {(report.mac_count - REFERENCE_MACS) / 1e9:+.2f} G")
    return EXIT_OK


def cmd_plot(args) -> int:
    src = Path(args.csv)
    if not src.exists():
        raise FormatError(f"csv file {src} does not exist")
    xs, ys = [], []
    with open(src, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2:
                continue
            try:
                x, y = float(row[0]), float(row[1])
            except ValueError:
                continue  # header or summary row
            xs.append(x)
            ys.append(y)
    if not xs:
        raise FormatError(f"{src}: no numeric 2-column rows found")
    out = Path(args.out)
    write_resolved(out.parent if out.parent != Path("") else Path("."),
                   {"csv": str(src)}, {"subcommand": "plot"})
    line_plot([(src.stem, np.asarray(xs), np.asarray(ys))], out,
              title=src.name)
    print(f"wrote {out}")
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsemamba",
        description="Pulse-from-video network: synthesize data, train, "
                    "evaluate, verify and profile.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p, needs_out=True):
        p.add_argument("--config", default=None, help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    add_common(p)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("train", help="train on a dataset directory")
    add_common(p)
    p.add_argument("--data", required=True, help="dataset directory")
    p.add_argument("--resume", default=None, help="checkpoint to resume from")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    add_common(p)
    p.add_argument("--ckpt", required=True, help="checkpoint directory")
    p.add_argument("--data", required=True, help="dataset directory")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suites")
    p.add_argument("--full", action="store_true", help="more samples per op")
    p.add_argument("--out", default=None,
                   help="where to write resolved_config (none if omitted)")
    p.set_defaults(fn=cmd_gradcheck)

    p = sub.add_parser("scancheck", help="scan kernel equivalence suites")
    p.add_argument("--out", default=None,
                   help="where to write resolved_config (none if omitted)")
    p.set_defaults(fn=cmd_scancheck)

    p = sub.add_parser("profile", help="analytic parameter / MAC counts")
    p.add_argument("--config", default=None)
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.add_argument("--input", default="128x128x128", help="TxHxW input size")
    p.add_argument("--out", default=None,
                   help="where to write resolved_config (none if omitted)")
    p.set_defaults(fn=cmd_profile)

    p = sub.add_parser("plot", help="line plot of a 2-column CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(fn=cmd_plot)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors
        return int(exc.code) if exc.code is not None else EXIT_USAGE
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, FileNotFoundError, NotADirectoryError, OSError) as exc:
        print(f"io/format error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ShapeError, InsufficientDataError) as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return EXIT_SHAPE


if __name__ == "__main__":
    sys.exit(main())
