"""Shared exception types and the [0, 1] check."""

import math


class ValidationError(ValueError):
    """A value violates a declared range or shape constraint."""


class ConfigError(ValueError):
    """A configuration file or key could not be parsed or validated."""


def check_unit(name: str, value: float) -> None:
    """Raise ValidationError naming `name` unless value is a finite number in [0, 1]."""
    if value.__class__ is float and 0.0 <= value <= 1.0:  # False for NaN
        return
    if not (isinstance(value, (int, float)) and math.isfinite(value)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    if value < 0.0 or value > 1.0:
        raise ValidationError(f"{name}={value!r} outside [0, 1]")
