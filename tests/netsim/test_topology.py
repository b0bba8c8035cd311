"""Tests for the routed topology."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.netsim.link import LinkProfile
from repro.netsim.topology import RoutingError, Topology
from repro.util.rng import RngRegistry


def simple_line() -> Topology:
    """a -- b -- c with uniform links."""
    topo = Topology(RngRegistry(1))
    topo.add_link("a", "b", LinkProfile(latency=0.01))
    topo.add_link("b", "c", LinkProfile(latency=0.01))
    return topo


class TestLinkProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            LinkProfile(latency=-1)
        with pytest.raises(ValueError):
            LinkProfile(loss=1.5)

    def test_presets(self):
        assert LinkProfile.lan().latency < LinkProfile.metro().latency
        assert LinkProfile.metro().latency < LinkProfile.continental().latency
        assert LinkProfile.continental().latency < LinkProfile.transoceanic().latency

    def test_lossy(self):
        assert LinkProfile.lossy(0.3).loss == 0.3


class TestTopologyBasics:
    def test_add_link_creates_nodes(self):
        topo = simple_line()
        assert topo.nodes == ["a", "b", "c"]

    def test_duplicate_link_rejected(self):
        topo = simple_line()
        with pytest.raises(ValueError):
            topo.add_link("b", "a", LinkProfile())

    def test_self_link_rejected(self):
        topo = Topology()
        topo.add_node("a")
        with pytest.raises(ValueError):
            topo.add_link("a", "a", LinkProfile())

    def test_link_between_is_direction_agnostic(self):
        topo = simple_line()
        assert topo.link_between("a", "b") is topo.link_between("b", "a")

    def test_remove_link(self):
        topo = simple_line()
        topo.remove_link("a", "b")
        with pytest.raises(RoutingError):
            topo.route("a", "c")

    def test_remove_missing_link_raises(self):
        topo = simple_line()
        with pytest.raises(KeyError):
            topo.remove_link("a", "c")


class TestRouting:
    def test_route_is_link_sequence(self):
        topo = simple_line()
        names = [link.name for link in topo.route("a", "c")]
        assert names == ["a--b", "b--c"]

    def test_route_to_self_is_empty(self):
        topo = simple_line()
        assert topo.route("a", "a") == []

    def test_unknown_node_raises(self):
        topo = simple_line()
        with pytest.raises(RoutingError):
            topo.route("a", "zz")

    def test_prefers_lower_latency_path(self):
        topo = Topology(RngRegistry(1))
        # Two paths a->d: through fast b (2x10ms) or direct slow (50ms).
        topo.add_link("a", "b", LinkProfile(latency=0.010))
        topo.add_link("b", "d", LinkProfile(latency=0.010))
        topo.add_link("a", "d", LinkProfile(latency=0.050))
        names = [link.name for link in topo.route("a", "d")]
        assert names == ["a--b", "b--d"]

    def test_expected_latency_sums_hops(self):
        topo = simple_line()
        assert topo.expected_latency("a", "c") == pytest.approx(0.02)

    def test_route_cache_invalidated_on_change(self):
        topo = simple_line()
        assert len(topo.route("a", "c")) == 2
        topo.add_link("a", "c", LinkProfile(latency=0.001))
        assert len(topo.route("a", "c")) == 1


class TestPrefabTopologies:
    def test_star(self):
        topo = Topology.star("hub", ["x", "y", "z"])
        assert len(topo.route("x", "y")) == 2
        assert len(topo.route("x", "hub")) == 1

    def test_global_backbone_fully_connected(self):
        topo = Topology.global_backbone()
        for src in topo.nodes:
            for dst in topo.nodes:
                topo.route(src, dst)  # must not raise

    def test_global_backbone_region_names(self):
        topo = Topology.global_backbone()
        assert "eu-west" in topo.nodes
        assert "us-east" in topo.nodes

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=1, max_value=25),
           st.integers(min_value=0, max_value=15),
           st.integers(min_value=0, max_value=1000))
    def test_random_mesh_is_connected(self, nodes, extra, seed):
        topo = Topology.random_mesh(nodes, extra, seed)
        names = topo.nodes
        for dst in names:
            topo.route(names[0], dst)  # must not raise

    def test_random_mesh_rejects_zero_nodes(self):
        with pytest.raises(ValueError):
            Topology.random_mesh(0, 0, 1)


class TestLinkSampling:
    def test_no_loss_never_drops(self):
        topo = simple_line()
        link = topo.link_between("a", "b")
        assert not any(link.sample_drop() for _ in range(100))

    def test_full_loss_always_drops(self):
        topo = Topology(RngRegistry(1))
        link = topo.add_link("a", "b", LinkProfile(loss=1.0))
        assert all(link.sample_drop() for _ in range(10))

    def test_delay_at_least_latency(self):
        topo = Topology(RngRegistry(1))
        link = topo.add_link("a", "b", LinkProfile(latency=0.02, jitter=0.005))
        for _ in range(50):
            delay = link.sample_delay()
            assert 0.02 <= delay <= 0.025

    def test_accounting(self):
        topo = simple_line()
        link = topo.link_between("a", "b")
        link.account(100, dropped=False)
        link.account(50, dropped=True)
        assert link.packets_carried == 2
        assert link.packets_dropped == 1
        assert link.bytes_carried == 150
