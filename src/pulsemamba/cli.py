"""Command-line entry point.

Subcommands: synth, train, eval, gradcheck, scancheck, profile, plot.
Configuration files are plain `key = value` text (one key per line, `#`
comments); unknown keys are rejected and every run writes a
``resolved_config.txt`` snapshot into its output directory (gradcheck,
scancheck and profile only when given ``--out``).

Exit codes: 0 success, 1 verification failure, 2 usage/config error
(including a value outside its range, a clip over the size cap, window
extents the model cannot take or whose flattened sequence exceeds the
token budget ``blocks.SEQ_BUDGET``, or a resume checkpoint of another
model config or with no epoch left, checked before anything is written), 3 I/O
or format error (including a malformed or self-contradicting checkpoint or
dataset header), 4 numeric failure (a non-finite value where finite ones
are required, e.g. a training loss or a checkpoint value), 5 shape error
(data whose extents the model or an operation cannot take, e.g. a clip too
short for heart-rate estimation).
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from . import checks
from .blocks import ModelConfig
from .errors import (ConfigError, FormatError, InsufficientDataError,
                     NumericError, ShapeError, check_ranges)
from .profiling import REFERENCE_MACS, REFERENCE_PARAMS, profile_model
from .svgplot import line_plot
from .synth import SynthConfig, generate_clip, write_dataset
from .training import TrainConfig, evaluate_checkpoint, start_state, train_loop

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_SHAPE = 5


def _field_keys(cls, *names, **items) -> Dict:
    """Schema entries for dataclass fields, and for the items of tuple fields
    (``field=(key, ...)``); each default's type casts."""
    keys = [(n, n, getattr(cls, n)) for n in names] + [
        (f, n, d) for f, ns in items.items() for n, d in zip(ns, getattr(cls, f))]
    return {n: (type(d), d, cls.RANGES[f]) for f, n, d in keys}


# key -> (caster, default, range); config files and --set overrides share
# these. A range is the RANGES entry of the field that the key sets, or the
# CLI's own: CLI_RANGES, and hr_start_bpm's for the clips' hr draw.
CLI_RANGES = {"num_clips": (0, math.inf), "max_plots": (0, math.inf)}
HR_RANGE = SynthConfig.RANGES["hr_start_bpm"]
# SynthConfig fields set one to one; the other fields come from tuples
SYNTH_FIELDS = ("fs", "duration_s", "pulse_amplitude", "noise_sigma",
                "motion_amplitude_px", "skin_mask")
SYNTH_KEYS = {
    "num_clips": (int, 30, CLI_RANGES["num_clips"]),
    "hr_min_bpm": (float, 55.0, HR_RANGE), "hr_max_bpm": (float, 140.0, HR_RANGE),
    **_field_keys(SynthConfig, "seed", *SYNTH_FIELDS, resolution=("height", "width"),
                  base_color=("base_r", "base_g", "base_b")),
}
MODEL_KEYS = _field_keys(ModelConfig, "channels", "blocks_per_stream",
                        "state_dim", "expand", "theta", "ca_ratio")
# TrainConfig fields set one to one; input_h/input_w make its input_hw
TRAIN_FIELDS = ("lr", "weight_decay", "epochs", "batch_size", "seed",
                "chunk_len")
TRAIN_KEYS = {**MODEL_KEYS, **_field_keys(TrainConfig, *TRAIN_FIELDS,
                                          input_hw=("input_h", "input_w"))}
EVAL_KEYS = {**{k: TRAIN_KEYS[k] for k in ("chunk_len", "input_h", "input_w")},
             "max_plots": (int, 8, CLI_RANGES["max_plots"])}


def _assign(resolved: Dict, schema: Dict, item: str, where: str) -> None:
    """Apply one `key = value` item (a config line or a --set) to resolved."""
    if "=" not in item:
        raise ConfigError(f"{where}: expected key = value, got {item!r}")
    key, val = (s.strip() for s in item.split("=", 1))
    if key not in schema:
        raise ConfigError(f"{where}: unknown key '{key}'")
    try:
        resolved[key] = schema[key][0](val)
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for '{key}': {val!r}") from exc


def _resolve(args, schema: Dict) -> Dict:
    """The defaults, then the --config file's lines, then each --set; every
    value is then checked against its range."""
    resolved = {k: default for k, (_, default, _) in schema.items()}
    if args.config is not None:
        text = Path(args.config).read_text()
        for ln, raw in enumerate(text.splitlines(), start=1):
            if line := raw.split("#", 1)[0].strip():
                _assign(resolved, schema, line, f"{args.config}:{ln}")
    for item in args.set or ():
        _assign(resolved, schema, item, "--set")
    check_ranges(resolved, {k: rng for k, (_, _, rng) in schema.items()})
    return resolved


def write_resolved(out_dir, resolved: Dict, extra: Optional[Dict] = None) -> None:
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {v}" for k, v in sorted({**resolved, **(extra or {})}.items())]
    (Path(out_dir) / "resolved_config.txt").write_text("\n".join(lines) + "\n")


def _model_config(resolved: Dict) -> ModelConfig:
    return ModelConfig(**{k: resolved[k] for k in MODEL_KEYS})


def _synth_config(cfg: Dict, seed: int, hr: float) -> SynthConfig:
    return SynthConfig(seed=seed, resolution=(cfg["height"], cfg["width"]),
                       base_color=(cfg["base_r"], cfg["base_g"], cfg["base_b"]),
                       hr_start_bpm=hr, **{k: cfg[k] for k in SYNTH_FIELDS})


# ---------------------------------------------------------------------------
# subcommands

def cmd_synth(args) -> int:
    cfg = _resolve(args, SYNTH_KEYS)
    check_ranges(cfg, {"hr_max_bpm": (cfg["hr_min_bpm"], math.inf)})
    for hr in (cfg["hr_min_bpm"], cfg["hr_max_bpm"]):  # clips differ in seed, hr
        _synth_config(cfg, cfg["seed"], hr)
    write_resolved(args.out, cfg, {"subcommand": "synth"})
    rng = np.random.default_rng(cfg["seed"])

    def clips():  # rendered one at a time, as write_dataset takes them
        for i in range(cfg["num_clips"]):
            hr = float(rng.uniform(cfg["hr_min_bpm"], cfg["hr_max_bpm"]))
            yield generate_clip(_synth_config(cfg, cfg["seed"] * 100003 + i, hr))

    paths = write_dataset(args.out, clips())
    print(f"wrote {len(paths)} clips to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _resolve(args, TRAIN_KEYS)
    model_cfg, train_cfg = _model_config(cfg), TrainConfig(
        input_hw=(cfg["input_h"], cfg["input_w"]), **{k: cfg[k] for k in TRAIN_FIELDS})
    model_cfg.validate_input(train_cfg.chunk_len, *train_cfg.input_hw)
    # a resume checkpoint is checked before anything is written
    start = start_state(model_cfg, train_cfg, args.resume)
    write_resolved(args.out, cfg, {"subcommand": "train", "data": args.data})
    ckpt, log = train_loop(model_cfg, args.data, train_cfg, args.out,
                           log_fn=print, start=start)
    print(f"final checkpoint: {ckpt} ({len(log)} steps)")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args, EVAL_KEYS)
    report, clip_ids, pred_hrs, gt_hrs, traces = evaluate_checkpoint(
        args.ckpt, args.data, args.out, chunk_len=cfg["chunk_len"],
        input_hw=(cfg["input_h"], cfg["input_w"]))
    write_resolved(args.out, cfg, {"subcommand": "eval", "ckpt": args.ckpt,
                                   "data": args.data})
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
    return _report("gradcheck", results)


def cmd_scancheck(args) -> int:
    if args.out:
        write_resolved(args.out, {}, {"subcommand": "scancheck"})
    results = [checks.scan_equivalence_suite(),
               checks.selective_oracle_suite(),
               checks.constant_projection_bitwise()]
    return _report("scancheck", results, f"max relative error "
                   f"{max(r.max_err for r in results[:2]):.3e}, ")


def _report(command: str, results, summary: str = "") -> int:
    """Print one line per check result and a verdict; the exit code."""
    for r in results:
        print(r.line())
    ok = all(r.passed for r in results)
    print(f"{command}: {summary}" + ("all passed" if ok else "FAILURES"))
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_profile(args) -> int:
    cfg = _resolve(args, MODEL_KEYS)
    try:
        t, h, w = (int(s) for s in args.input.lower().split("x"))
    except ValueError as exc:
        raise ConfigError(f"--input must look like 128x128x128, got {args.input!r}") from exc
    report = profile_model(_model_config(cfg), (t, h, w))
    if args.out:
        write_resolved(args.out, cfg, {"subcommand": "profile", "input": args.input})
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
    write_resolved(out.parent, {"csv": str(src)}, {"subcommand": "plot"})
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
    add_common(p, needs_out=False)
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
