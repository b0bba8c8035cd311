"""Argument-validation helpers with consistent error messages.

Raising early with a precise message is the cheapest form of
documentation; these helpers keep the call sites one-liners.
"""

from __future__ import annotations

from typing import Any, Type, TypeVar

T = TypeVar("T")


class ConfigurationError(ValueError):
    """Invalid configuration: a spec, generator or resolver-set setting
    that cannot describe a working system.

    Defined in the util layer so every layer above can raise it without
    importing :mod:`repro.core` (whose package import pulls in the DoH
    client and would loop back into the importer).
    """


def check_probability(value: float, name: str = "probability") -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    return value


def check_fraction(value: float, name: str = "fraction") -> float:
    """Validate a fraction in the half-open interval (0, 1]."""
    value = float(value)
    if not 0.0 < value <= 1.0:
        raise ValueError(f"{name} must be in (0, 1], got {value!r}")
    return value


def check_positive(value: float, name: str = "value") -> float:
    """Validate a strictly positive number."""
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def check_non_negative(value: float, name: str = "value") -> float:
    """Validate a number that is zero or greater."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def check_type(value: Any, expected: Type[T], name: str = "value") -> T:
    """Validate ``isinstance(value, expected)`` with a clear message."""
    if not isinstance(value, expected):
        raise TypeError(
            f"{name} must be {expected.__name__}, got {type(value).__name__}"
        )
    return value
