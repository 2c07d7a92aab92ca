"""Exception types, header checks (``read_header``) and range checks
(``check_ranges``; ``ModelConfig`` owns every layer default and range)."""

import json
import math


class ShapeError(ValueError):
    """Operand extents are inconsistent with an operation's contract."""


class GraphError(RuntimeError):
    """Backward requested on a tensor with no recorded graph, or replayed twice."""


class NumericError(ArithmeticError):
    """A NaN/Inf showed up where the contract requires finite values."""


class ConfigError(ValueError):
    """A configuration value violates its documented invariants."""


class CapacityError(ConfigError):
    """A size exceeds a size cap (a flattened sequence's token budget, or
    the byte cap of a synthesized clip)."""


class FormatError(ValueError):
    """An on-disk artifact (dataset, checkpoint, config) is malformed."""


class InsufficientDataError(ValueError):
    """Too few samples to run a spectral operation."""


def is_count(v) -> bool:
    """A non-negative JSON integer (true/false are not counts)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_shape(v) -> bool:
    """A JSON list of counts."""
    return isinstance(v, list) and all(map(is_count, v))


def check_header(obj, table, what: str) -> None:
    """FormatError unless dict ``obj`` has each key with ``table[key](v)``."""
    missing = [k for k in table if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise FormatError(f"{what} lacks {', '.join(missing)}")
    for key, ok in table.items():
        if not ok(obj[key]):
            raise FormatError(f"{what}: bad {key} {obj[key]!r}")


def read_header(path, table) -> dict:
    """The JSON file ``path``, checked against ``table``; FormatError if not."""
    try:
        header = json.loads(path.read_text())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: unreadable header ({exc})") from exc
    check_header(header, table, f"{path}: header")
    return header


def check_ranges(values: dict, ranges) -> None:
    """Check ``values[key]`` against each ``ranges`` entry: ``(lo, hi)`` for
    lo <= v <= hi, ``(lo, hi, True)`` for lo < v <= hi. Each item of a tuple
    is checked, NaN and +-inf never pass; a failure is a ConfigError."""
    for key, (lo, hi, *open_lo) in ranges.items():
        v = values[key]
        for x in v if isinstance(v, (tuple, list)) else (v,):
            bad = ("finite" if not -math.inf < x < math.inf else
                   f"> {lo}" if open_lo and x <= lo else
                   f">= {lo}" if x < lo else f"<= {hi}" if x > hi else "")
            if bad:
                raise ConfigError(f"{key} must be {bad}, got {x}")
