"""Exception types and the header value and range checks of the package."""

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
    """A flattened sequence exceeds the configured token budget."""


class FormatError(ValueError):
    """An on-disk artifact (dataset, checkpoint, config) is malformed."""


class InsufficientDataError(ValueError):
    """Too few samples to run a spectral operation."""


def require_keys(obj, keys, what: str) -> None:
    missing = [k for k in keys if not isinstance(obj, dict) or k not in obj]
    if missing:
        raise FormatError(f"{what} lacks {', '.join(missing)}")


def is_count(v) -> bool:
    """A non-negative JSON integer (true/false are not counts)."""
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def is_shape(v) -> bool:
    """A JSON list of counts."""
    return isinstance(v, list) and all(map(is_count, v))


def check_types(obj: dict, types, what: str) -> None:
    for key, ok in types.items():
        if key in obj and not ok(obj[key]):
            raise FormatError(f"{what}: bad {key} {obj[key]!r}")


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
