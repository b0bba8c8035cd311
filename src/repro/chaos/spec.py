"""Declarative chaos timelines: frozen, JSON-round-tripping failure
schedules.

A :class:`ChaosSpec` is a virtual-time *timeline* of failure events the
:class:`~repro.chaos.controller.ChaosController` executes against a
compiled world: crash/restart outages, link flaps, region partitions,
resolver cache wipes and server overload windows. Events are plain
frozen dataclasses on :class:`repro.util.specbase.SpecBase`, so they
sweep like every other spec axis (``chaos.events[0].duration``) and
serialize into the scenario JSON that shards and campaign workers
rebuild worlds from.

Serialization uses a tagged union: every encoded event carries a
``"kind"`` discriminator (see :data:`EVENT_KINDS`), because a timeline
freely mixes event types and ``SpecBase._NESTED`` only expresses
homogeneous nesting.

Determinism contract: the only randomness any event may consume is the
fractional :class:`ServerOutage` victim sample, drawn from a dedicated
``("chaos", ...)`` stream — a world whose spec has no chaos events
builds no controller and draws nothing, staying byte-identical to the
golden fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, ClassVar, Dict, Mapping, Tuple

from repro.util.specbase import SpecBase
from repro.util.validation import (
    ConfigurationError,
    check_non_negative,
    check_probability,
)

#: Valid targets for scope-addressed events: the DoH/DNS providers, the
#: authoritative DNS servers, or the NTP pool hosts.
SCOPES = ("providers", "dns", "pool")

#: Overload overflow policies: silently drop excess queries, or answer
#: them with SERVFAIL (HTTP 503 on the DoH engine).
OVERFLOW_POLICIES = ("drop", "servfail")


def _check_choice(value: str, name: str, choices: Tuple[str, ...]) -> None:
    if value not in choices:
        raise ConfigurationError(
            f"{name} must be one of {sorted(choices)}, got {value!r}")


@dataclass(frozen=True)
class ServerOutage(SpecBase):
    """Crash the named (or sampled) servers at ``at``; restart them
    ``duration`` seconds later.

    Targets resolve against ``scope``: explicit ``hosts`` name hosts
    directly, otherwise ``fraction`` of the scope's hosts are sampled
    from the world's ``("chaos", "outage", <index>)`` stream — the one
    place the chaos layer consumes randomness.
    """

    KIND: ClassVar[str] = "outage"
    _NESTED = {"hosts": ("scalars", None)}

    hosts: Tuple[str, ...] = ()
    scope: str = "providers"
    fraction: float = 0.0
    at: float = 0.0
    duration: float = 30.0

    def __post_init__(self) -> None:
        _check_choice(self.scope, "scope", SCOPES)
        check_probability(self.fraction, "fraction")
        check_non_negative(self.at, "at")
        check_non_negative(self.duration, "duration")


@dataclass(frozen=True)
class LinkFlap(SpecBase):
    """Degrade the named links (canonical ``"a--b"`` names) with an
    extra ``loss_rate`` for ``duration`` seconds; the default 1.0 is a
    hard flap. Composes with (and restores) any fault model the
    scenario already installed."""

    KIND: ClassVar[str] = "link-flap"
    _NESTED = {"links": ("scalars", None)}

    links: Tuple[str, ...] = ()
    at: float = 0.0
    duration: float = 30.0
    loss_rate: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative(self.at, "at")
        check_non_negative(self.duration, "duration")
        check_probability(self.loss_rate, "loss_rate")


@dataclass(frozen=True)
class Partition(SpecBase):
    """Split the topology: every link with exactly one endpoint in
    ``isolate`` (topology node names) is removed at ``at`` and restored
    — profile and fault model included — ``duration`` seconds later.
    Both edits bump ``Topology.version`` so cached flight plans
    invalidate."""

    KIND: ClassVar[str] = "partition"
    _NESTED = {"isolate": ("scalars", None)}

    isolate: Tuple[str, ...] = ()
    at: float = 0.0
    duration: float = 30.0

    def __post_init__(self) -> None:
        check_non_negative(self.at, "at")
        check_non_negative(self.duration, "duration")


@dataclass(frozen=True)
class CacheWipe(SpecBase):
    """Flush the named providers' recursive-resolver caches at ``at``
    (empty ``resolvers`` wipes every provider) — the restart-without-
    state event that forces full re-resolution storms."""

    KIND: ClassVar[str] = "cache-wipe"
    _NESTED = {"resolvers": ("scalars", None)}

    resolvers: Tuple[str, ...] = ()
    at: float = 0.0

    def __post_init__(self) -> None:
        check_non_negative(self.at, "at")


@dataclass(frozen=True)
class Overload(SpecBase):
    """Impose a bounded-queue capacity model on the scope's serve
    engines for ``duration`` seconds: requests are serviced at most
    ``qps`` per second (each taking ``service_time``), at most
    ``queue_depth`` may wait, and overflow is dropped or answered with
    SERVFAIL per ``overflow``. Queue state lands in the
    ``srv.queue_depth`` / ``srv.rejected`` telemetry."""

    KIND: ClassVar[str] = "overload"
    _NESTED = {"servers": ("scalars", None)}

    servers: Tuple[str, ...] = ()
    scope: str = "providers"
    at: float = 0.0
    duration: float = 30.0
    qps: float = 50.0
    queue_depth: int = 8
    service_time: float = 0.002
    overflow: str = "drop"

    def __post_init__(self) -> None:
        _check_choice(self.scope, "scope", SCOPES)
        _check_choice(self.overflow, "overflow", OVERFLOW_POLICIES)
        check_non_negative(self.at, "at")
        check_non_negative(self.duration, "duration")
        check_non_negative(self.service_time, "service_time")
        if self.qps <= 0.0:
            raise ConfigurationError(f"qps must be > 0, got {self.qps}")
        if self.queue_depth < 0:
            raise ConfigurationError(
                f"queue_depth must be >= 0, got {self.queue_depth}")


#: The tagged-union registry: discriminator value -> event class.
EVENT_KINDS: Dict[str, type] = {
    cls.KIND: cls
    for cls in (ServerOutage, LinkFlap, Partition, CacheWipe, Overload)
}


def encode_event(event: SpecBase) -> Dict[str, Any]:
    """One event as a JSON-ready dict carrying its ``kind`` tag."""
    kind = getattr(type(event), "KIND", None)
    if kind not in EVENT_KINDS:
        raise ConfigurationError(
            f"not a chaos event: {type(event).__name__}")
    data = event.to_dict()
    data["kind"] = kind
    return data


def decode_event(data: Mapping[str, Any]) -> SpecBase:
    """Inverse of :func:`encode_event` (unknown kinds fail loudly)."""
    payload = dict(data)
    kind = payload.pop("kind", None)
    cls = EVENT_KINDS.get(kind)
    if cls is None:
        raise ConfigurationError(
            f"unknown chaos event kind {kind!r}; "
            f"known: {sorted(EVENT_KINDS)}")
    return cls.from_dict(payload)


@dataclass(frozen=True)
class ChaosSpec(SpecBase):
    """A timeline of failure events, executed in virtual time.

    Events need not be sorted; the controller schedules each at its own
    ``at``. An empty timeline is equivalent to no chaos at all (no
    controller is built, nothing is drawn or recorded).
    """

    events: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        for event in self.events:
            if getattr(type(event), "KIND", None) not in EVENT_KINDS:
                raise ConfigurationError(
                    f"not a chaos event: {type(event).__name__}")

    def to_dict(self) -> Dict[str, Any]:
        return {"events": [encode_event(event) for event in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChaosSpec":
        unknown = set(data) - {"events"}
        if unknown:
            raise ConfigurationError(
                f"ChaosSpec.from_dict: unknown fields {sorted(unknown)}; "
                f"known: ['events']")
        return cls(events=tuple(decode_event(item)
                                for item in data.get("events", ())))


__all__ = [
    "CacheWipe",
    "ChaosSpec",
    "EVENT_KINDS",
    "LinkFlap",
    "Overload",
    "Partition",
    "ServerOutage",
    "decode_event",
    "encode_event",
]
