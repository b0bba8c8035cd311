"""Errors raised by the secure pool-generation core."""

from __future__ import annotations

from repro.util.validation import ConfigurationError


class PoolGenerationError(RuntimeError):
    """Pool generation could not satisfy its security requirements.

    Raised (or reported through outcome objects) when, e.g., fewer
    resolvers answered than the configured minimum, or truncation
    collapsed the pool to zero (the DoS case of §II footnote 2).
    """


class UnknownPresetError(ConfigurationError):
    """A scenario preset name not present in the registry.

    Carries the valid names so a typo'd campaign axis fails with an
    actionable message instead of a bare ``KeyError``.
    """

    def __init__(self, name: str, known) -> None:
        self.name = name
        self.known = sorted(known)
        super().__init__(
            f"unknown scenario preset {name!r}; known: {self.known}")
