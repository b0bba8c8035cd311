"""The delivery fabric's single path: every datagram — sent or injected,
delivered or dropped anywhere — is accounted once, by the same code,
whether or not a tracer is watching."""

import contextlib

from repro.campaign.trials import offpath_spray_trial
from repro.netsim.address import Endpoint, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet, TapAction
from repro.netsim.link import FaultModel, LinkProfile
from repro.netsim.simulator import Simulator
from repro.netsim.topology import Topology
from repro.telemetry.registry import MetricsRegistry, use_registry
from repro.telemetry.trace import Tracer, use_tracer
from repro.util.rng import RngRegistry

DROP_REASONS = {"a--lossy", "tap:a--tapped", "no-host", "no-socket",
                "host-down"}


def run_every_outcome(traced: bool):
    """One world exercising loss, a dropping tap, a rewriting tap,
    duplication, an unknown address, an unbound port and a host that
    crashes while a datagram is in flight to it.

    Returns (registry, tracer-or-None, internet, delivered payloads).
    """
    registry = MetricsRegistry()
    tracer = Tracer() if traced else None
    rng = RngRegistry(11)
    with contextlib.ExitStack() as stack:
        stack.enter_context(use_registry(registry))
        if tracer is not None:
            stack.enter_context(use_tracer(tracer))
        simulator = Simulator()
        topology = Topology(rng)
        topology.add_link("a", "lossy", LinkProfile(latency=0.01, loss=1.0))
        for node in ("plain", "tapped", "rewritten", "duplicated"):
            topology.add_link("a", node, LinkProfile(latency=0.01))
        topology.add_link("a", "crashing", LinkProfile(latency=0.05))
        topology.set_fault_model("a", "duplicated",
                                 FaultModel(duplicate_rate=1.0))
        net = Internet(simulator, topology, rng)
    net.add_tap("a--tapped", lambda link, d: TapAction.drop())
    net.add_tap("a--rewritten", lambda link, d: TapAction.rewrite(b"evil"))

    received = []
    sender = net.add_host(Host("sender", "a", [ip("10.0.0.1")]))
    addresses = {}
    for index, node in enumerate(
            ("lossy", "plain", "tapped", "rewritten", "duplicated",
             "crashing"), start=2):
        address = ip(f"10.0.0.{index}")
        host = net.add_host(Host(node, node, [address]))
        host.bind(7, lambda d, node=node: received.append((node, d.payload)))
        addresses[node] = address

    socket = sender.ephemeral_socket()
    for node in addresses:
        socket.sendto(Endpoint(addresses[node], 7), node.encode())
    socket.sendto(Endpoint(ip("10.9.9.9"), 7), b"nowhere")
    socket.sendto(Endpoint(addresses["plain"], 99), b"unbound")
    # The 50 ms flight to "crashing" is still in the air at 20 ms.
    simulator.schedule_at(0.02, lambda: net.set_host_down("crashing"))
    simulator.run()
    return registry, tracer, net, received


class TestSingleDeliveryPath:
    def test_every_datagram_is_delivered_or_dropped_once(self):
        registry, _, net, received = run_every_outcome(traced=False)
        sent = registry.value("net.datagrams_sent")
        delivered = registry.value("net.datagrams_delivered")
        dropped = registry.value("net.datagrams_dropped")
        assert sent == net.datagrams_sent == 8
        assert delivered == net.datagrams_delivered == 3
        assert sent == delivered + dropped
        reasons = {name for name in registry.names()
                   if name.startswith("net.drops{")}
        assert reasons == {f"net.drops{{reason={reason}}}"
                           for reason in DROP_REASONS}
        assert sum(registry.value("net.drops", reason=reason)
                   for reason in DROP_REASONS) == dropped
        assert net.datagrams_duplicated == 1
        assert sorted(received) == [("duplicated", b"duplicated"),
                                    ("duplicated", b"duplicated"),
                                    ("plain", b"plain"),
                                    ("rewritten", b"evil")]

    def test_flight_spans_match_the_counters(self):
        registry, tracer, _, _ = run_every_outcome(traced=True)
        flights = [span for span in tracer.spans
                   if span.name == "net.flight"]
        assert len(flights) == registry.value("net.datagrams_sent")
        dropped = [flight.attrs["dropped_by"] for flight in flights
                   if flight.attrs["outcome"] == "dropped"]
        assert sorted(dropped) == sorted(DROP_REASONS)
        assert [flight.attrs.get("duplicated") for flight in flights
                if flight.attrs.get("duplicated")] == [True]

    def test_tracing_changes_no_metric_and_no_delivery(self):
        plain_registry, _, _, plain_received = run_every_outcome(
            traced=False)
        traced_registry, _, _, traced_received = run_every_outcome(
            traced=True)
        assert (traced_registry.snapshot_json()
                == plain_registry.snapshot_json())
        assert traced_received == plain_received


def spray_labels(covered_bits: int, simulators) -> set:
    simulators.clear()
    offpath_spray_trial({"covered_bits": covered_bits}, seed=5)
    labels = set()
    for simulator in simulators:
        labels.update(simulator.profile_snapshot())
    return labels


def test_event_labels_do_not_grow_with_the_spray(monkeypatch):
    """Injected datagrams are scheduled like sent ones, so the set of
    profiled event kinds is the same for a 4-packet and a 32-packet
    spray (no per-packet labels)."""
    simulators = []
    original_init = Simulator.__init__

    def profiled_init(self, *args, **kwargs):
        original_init(self, *args, **kwargs)
        self.enable_profiling()
        simulators.append(self)

    monkeypatch.setattr(Simulator, "__init__", profiled_init)
    small = spray_labels(2, simulators)
    large = spray_labels(5, simulators)
    assert small and small == large
