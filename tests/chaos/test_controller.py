"""ChaosController: timeline execution against compiled worlds.

Unit-level tests drive a manually installed controller over a
materialized pool world (so event targets can name hosts the world
actually has); integration tests go through ``materialize`` with the
chaos spec embedded, the way campaigns build chaos worlds.
"""

import dataclasses

import pytest

from repro.chaos import (
    CacheWipe,
    ChaosSpec,
    LinkFlap,
    Overload,
    Partition,
    ServerOutage,
)
from repro.chaos.controller import ChaosController
from repro.util.validation import ConfigurationError
from repro.population.sharding import invariant_snapshot_json
from repro.scenarios.spec import materialize, pool_spec, population_spec
from repro.telemetry.registry import MetricsRegistry


def install(world, *events, registry=None):
    return ChaosController(ChaosSpec(events=tuple(events)), world,
                           registry=registry).install()


OUTAGE = ServerOutage(scope="providers", fraction=0.6, at=5.0,
                      duration=20.0)


def chaos_population_spec(**overrides):
    kwargs = dict(num_clients=6, rounds=3)
    kwargs.update(overrides)
    return dataclasses.replace(
        population_spec(**kwargs),
        chaos=ChaosSpec(events=(OUTAGE,)))


class TestOutage:
    def test_crash_and_restore(self):
        world = materialize(pool_spec(), seed=11)
        name = world.providers[0].host.name
        install(world, ServerOutage(hosts=(name,), at=5.0, duration=10.0))
        assert not world.internet.host_is_down(name)
        world.run(until=6.0)
        assert world.internet.host_is_down(name)
        world.run(until=20.0)
        assert not world.internet.host_is_down(name)

    def test_window_is_recorded(self):
        world = materialize(pool_spec(), seed=11)
        name = world.providers[0].host.name
        controller = install(
            world, ServerOutage(hosts=(name,), at=5.0, duration=10.0))
        world.run(until=20.0)
        assert controller.windows == [("outage", 5.0, 15.0, (name,))]

    def test_fractional_sample_is_deterministic(self):
        def targets():
            world = materialize(pool_spec(), seed=23)
            controller = install(world, OUTAGE)
            world.run(until=30.0)
            (_, _, _, sampled), = controller.windows
            return sampled, {d.host.name for d in world.providers}

        first, providers = targets()
        second, _ = targets()
        assert first == second                       # same seed, same victims
        assert len(first) == 2                       # ceil(0.6 * 3)
        assert set(first) <= providers

    def test_zero_fraction_hits_nothing(self):
        world = materialize(pool_spec(), seed=11)
        controller = install(
            world, ServerOutage(scope="providers", fraction=0.0, at=1.0,
                                duration=5.0))
        world.run(until=10.0)
        assert controller.windows == [("outage", 1.0, 6.0, ())]
        assert not any(world.internet.host_is_down(d.host.name)
                       for d in world.providers)

    def test_unknown_host_rejected_at_install(self):
        world = materialize(pool_spec(), seed=11)
        with pytest.raises(ConfigurationError, match="no-such-host"):
            install(world, ServerOutage(hosts=("no-such-host",)))


class TestTopologyEvents:
    def test_partition_removes_links_and_heals(self):
        world = materialize(pool_spec(), seed=11)
        topology = world.internet.topology
        node = topology.links[0].ends[0]
        before = sorted(link.name for link in topology.links)
        version = topology.version
        install(world, Partition(isolate=(node,), at=5.0, duration=10.0))
        world.run(until=6.0)
        assert len(topology.links) < len(before)
        assert not any(node in link.ends for link in topology.links)
        assert topology.version > version
        world.run(until=20.0)
        assert sorted(link.name for link in topology.links) == before

    def test_link_flap_composes_and_restores(self):
        world = materialize(pool_spec(), seed=11)
        link = world.internet.topology.links[0]
        previous = link.fault
        install(world, LinkFlap(links=(link.name,), at=5.0, duration=10.0,
                                loss_rate=0.5))
        world.run(until=6.0)
        assert link.fault is not previous
        assert link.fault.loss_rate >= 0.5
        world.run(until=20.0)
        assert link.fault is previous

    def test_unknown_link_fails_when_applied(self):
        world = materialize(pool_spec(), seed=11)
        install(world, LinkFlap(links=("nowhere--elsewhere",), at=1.0))
        with pytest.raises(ConfigurationError, match="nowhere--elsewhere"):
            world.run(until=5.0)


class TestCacheWipeAndOverload:
    def test_cache_wipe_flushes_every_provider(self):
        world = materialize(pool_spec(), seed=11)
        world.generate_pool_sync()           # warm the resolver caches
        assert any(d.resolver.cache.size for d in world.providers)
        registry = MetricsRegistry()
        controller = install(world, CacheWipe(at=world.simulator.now + 1.0),
                             registry=registry)
        world.run(until=world.simulator.now + 5.0)
        assert all(d.resolver.cache.size == 0 for d in world.providers)
        (kind, at, end, targets), = controller.windows
        assert kind == "cache-wipe" and at == end
        assert set(targets) == {d.name for d in world.providers}
        snapshot = registry.snapshot()
        assert snapshot["counter"]["chaos.events{kind=cache-wipe}"] == 1

    def test_overload_attaches_and_detaches_capacity(self):
        world = materialize(pool_spec(), seed=11)
        engines = [d.doh_server if d.doh_server is not None else d.resolver
                   for d in world.providers]
        assert all(engine.capacity is None for engine in engines)
        install(world, Overload(scope="providers", at=5.0, duration=10.0,
                                qps=5.0, queue_depth=1))
        world.run(until=6.0)
        assert all(engine.capacity is not None for engine in engines)
        world.run(until=20.0)
        assert all(engine.capacity is None for engine in engines)

    def test_overload_servers_filter(self):
        world = materialize(pool_spec(), seed=11)
        chosen = world.providers[0]
        install(world, Overload(scope="providers",
                                servers=(chosen.name,), at=5.0,
                                duration=10.0))
        world.run(until=6.0)
        for deployment in world.providers:
            engine = (deployment.doh_server
                      if deployment.doh_server is not None
                      else deployment.resolver)
            assert (engine.capacity is not None) == (deployment is chosen)


class TestMaterializeIntegration:
    def test_empty_timeline_builds_no_controller(self):
        spec = dataclasses.replace(pool_spec(), chaos=ChaosSpec())
        assert materialize(spec, seed=3).chaos is None

    def test_chaos_free_world_has_no_chaos_telemetry(self):
        world = materialize(population_spec(num_clients=4, rounds=2), seed=3)
        world.run()
        assert world.chaos is None
        snapshot = world.telemetry.snapshot()
        assert not any(key.startswith("chaos.")
                       for kind in ("counter", "timeseries")
                       for key in snapshot.get(kind, {}))

    def test_population_outage_degrades_then_recovers(self):
        world = materialize(chaos_population_spec(), seed=7)
        world.run()
        assert world.chaos is not None
        assert world.chaos.windows and world.chaos.windows[0][0] == "outage"
        snapshot = world.telemetry.snapshot()
        assert snapshot["counter"]["chaos.events{kind=outage}"] == 1
        drops = {key: value for key, value in snapshot["counter"].items()
                 if key.startswith("net.drops") and "host-down" in key}
        assert drops and sum(drops.values()) > 0
        # The availability series dips inside the window and recovers
        # after it closes.
        series = dict(world.telemetry.get("pop.availability").series())
        window = [mean for start, mean in series.items()
                  if OUTAGE.at <= start < OUTAGE.at + OUTAGE.duration]
        after = [mean for start, mean in series.items()
                 if start >= OUTAGE.at + OUTAGE.duration + 10.0]
        assert window and min(window) < 1.0
        assert after and after[-1] == 1.0

    def test_chaos_worlds_replay_byte_identically(self):
        def snapshot_json():
            world = materialize(chaos_population_spec(), seed=13)
            world.run()
            return world.telemetry.snapshot_json()

        assert snapshot_json() == snapshot_json()

    def test_cross_shard_population_invariants_hold_under_chaos(self):
        from repro.population.sharding import shard_invariant_spec

        def with_chaos(shards):
            return dataclasses.replace(
                shard_invariant_spec(12, shards=shards),
                chaos=ChaosSpec(events=(OUTAGE,)))

        seed = 31
        reference = materialize(with_chaos(shards=1), seed)
        reference.run()
        expected = invariant_snapshot_json(reference.telemetry)

        sharded = materialize(with_chaos(shards=3), seed)
        sharded.run()
        assert sharded.invariant_snapshot_json() == expected
