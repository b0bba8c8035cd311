"""ChaosSpec serialization, validation, and sweepability."""

import json

import pytest

from repro.chaos import (
    EVENT_KINDS,
    CacheWipe,
    ChaosSpec,
    LinkFlap,
    Overload,
    Partition,
    ServerOutage,
    decode_event,
    encode_event,
)
from repro.util.validation import ConfigurationError
from repro.scenarios.spec import (
    ScenarioSpec,
    get_path,
    pool_spec,
    population_spec,
    set_path,
)

ALL_EVENTS = (
    ServerOutage(hosts=("dns.google",), at=3.0, duration=12.0),
    ServerOutage(scope="dns", fraction=0.5, at=1.0, duration=5.0),
    LinkFlap(links=("client-edge--eu-central",), at=2.0, duration=8.0,
             loss_rate=0.75),
    Partition(isolate=("us-east", "us-west"), at=4.0, duration=6.0),
    CacheWipe(resolvers=("dns.google",), at=7.5),
    Overload(scope="providers", at=0.5, duration=20.0, qps=25.0,
             queue_depth=4, service_time=0.005, overflow="servfail"),
)


class TestEventSerialization:
    @pytest.mark.parametrize("event", ALL_EVENTS,
                             ids=lambda e: type(e).__name__)
    def test_encode_decode_round_trip(self, event):
        data = encode_event(event)
        assert data["kind"] == type(event).KIND
        assert decode_event(json.loads(json.dumps(data))) == event

    def test_every_kind_registered(self):
        assert set(EVENT_KINDS) == {"outage", "link-flap", "partition",
                                    "cache-wipe", "overload"}
        for kind, cls in EVENT_KINDS.items():
            assert cls.KIND == kind

    def test_unknown_kind_fails_loudly(self):
        with pytest.raises(ConfigurationError, match="meteor"):
            decode_event({"kind": "meteor", "at": 1.0})

    def test_missing_kind_fails(self):
        with pytest.raises(ConfigurationError):
            decode_event({"at": 1.0})

    def test_unknown_event_key_rejected(self):
        with pytest.raises(ConfigurationError):
            decode_event({"kind": "outage", "at": 1.0, "severity": 9})


class TestChaosSpec:
    def test_round_trip(self):
        spec = ChaosSpec(events=ALL_EVENTS)
        assert ChaosSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))) == spec

    def test_empty_round_trip(self):
        assert ChaosSpec.from_dict({}) == ChaosSpec()
        assert ChaosSpec.from_dict({"events": []}) == ChaosSpec()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError):
            ChaosSpec.from_dict({"surprise": True})


class TestEventValidation:
    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            ServerOutage(at=-1.0)
        with pytest.raises(ValueError):
            LinkFlap(duration=-5.0)

    def test_bad_scope_rejected(self):
        with pytest.raises(ConfigurationError):
            ServerOutage(scope="satellites")
        with pytest.raises(ConfigurationError):
            Overload(scope="satellites")

    def test_fraction_and_loss_rate_are_probabilities(self):
        with pytest.raises(ValueError):
            ServerOutage(fraction=1.5)
        with pytest.raises(ValueError):
            LinkFlap(loss_rate=-0.1)

    def test_bad_overflow_rejected(self):
        with pytest.raises(ConfigurationError):
            Overload(overflow="explode")

    def test_overload_capacity_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            Overload(qps=-1.0)
        with pytest.raises(ConfigurationError):
            Overload(queue_depth=-1)
        with pytest.raises(ValueError):
            Overload(service_time=-0.5)


class TestScenarioIntegration:
    def test_chaos_free_spec_omits_chaos_key(self):
        """A spec without chaos serializes byte-identically to its
        pre-chaos JSON: no ``chaos`` key appears at all."""
        spec = population_spec(num_clients=4, rounds=2)
        assert spec.chaos is None
        assert "chaos" not in spec.to_dict()
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_spec_with_chaos_round_trips(self):
        import dataclasses
        spec = dataclasses.replace(
            pool_spec(),
            chaos=ChaosSpec(events=(ServerOutage(fraction=0.5,
                                                 duration=10.0),)))
        data = json.loads(spec.to_json())
        assert data["chaos"]["events"][0]["kind"] == "outage"
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_chaos_paths_are_sweepable(self):
        import dataclasses
        spec = dataclasses.replace(
            population_spec(num_clients=4, rounds=2),
            chaos=ChaosSpec(events=(
                ServerOutage(fraction=0.3, at=5.0, duration=30.0),
                Overload(qps=40.0),
            )))
        assert get_path(spec, "chaos.events[0].fraction") == 0.3
        assert get_path(spec, "chaos.events[1].qps") == 40.0
        swept = set_path(spec, "chaos.events[0].duration", 60.0)
        assert swept.chaos.events[0].duration == 60.0
        # The untouched sibling event and the rest of the spec survive
        # the tuple rebuild.
        assert swept.chaos.events[1] == spec.chaos.events[1]
        assert swept.fleet == spec.fleet
