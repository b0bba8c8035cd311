"""The assembled simulated Internet.

Combines the :class:`~repro.netsim.simulator.Simulator`, a routed
:class:`~repro.netsim.topology.Topology` and a set of
:class:`~repro.netsim.host.Host` machines into a packet-delivery fabric
with the two interposition points the paper's threat model needs:

* **on-path taps** (:meth:`Internet.add_tap`) — an attacker controlling
  a link can observe, drop, delay or rewrite every packet crossing it;
* **off-path injection** (:meth:`Internet.inject`) — an attacker that is
  *not* on the path can still blindly send datagrams with spoofed source
  addresses, which is the capability behind classic DNS poisoning.

Sent and injected datagrams take one delivery path. Per (origin,
destination-node) pair the fabric caches a flight plan — the route's
links, each paired with its installed taps — until the topology (or a
fault install, or a tap) changes, so delivering a datagram is one dict
lookup plus one fused :meth:`~repro.netsim.link.Link.transit` sample per
hop. Every trip is accounted once: the ``datagrams_*``/``bytes_sent``
counters, the ``net.*`` metrics of an installed
:class:`~repro.telemetry.registry.MetricsRegistry` (drops broken down by
``net.drops{reason}``), and — when a tracer is installed — one
``net.flight`` span per trip carrying its ``outcome``, ``dropped_by``,
``hops`` and ``duplicated`` attributes, with a ``net.hop`` child per
link transit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.link import Link
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Simulator
from repro.netsim.topology import RoutingError, Topology
from repro.telemetry.registry import current_registry
from repro.telemetry.trace import Span, current_tracer
from repro.util.rng import RngRegistry


class TapVerdict(enum.Enum):
    """What an on-path tap decides to do with a packet on its link."""

    PASS = "pass"
    DROP = "drop"
    REWRITE = "rewrite"


@dataclass(slots=True)
class TapAction:
    """Result of a tap callback.

    :param verdict: pass, drop or rewrite the packet.
    :param payload: replacement payload (required for REWRITE).
    :param extra_delay: additional seconds of delay imposed by the tap
        (models an attacker holding packets back).
    """

    verdict: TapVerdict = TapVerdict.PASS
    payload: Optional[bytes] = None
    extra_delay: float = 0.0

    @classmethod
    def passthrough(cls) -> "TapAction":
        return cls(TapVerdict.PASS)

    @classmethod
    def drop(cls) -> "TapAction":
        return cls(TapVerdict.DROP)

    @classmethod
    def rewrite(cls, payload: bytes, extra_delay: float = 0.0) -> "TapAction":
        return cls(TapVerdict.REWRITE, payload=payload, extra_delay=extra_delay)


# A tap sees (link, datagram) and returns what to do with it.
LinkTap = Callable[[Link, Datagram], TapAction]

# A compiled (origin, destination-node) flight plan: each route link
# paired with the taps installed on it (``None`` when tap-free, so the
# hop loop skips tap dispatch entirely).
_FlightHops = Tuple[Tuple[Link, Optional[Tuple[LinkTap, ...]]], ...]


class Internet:
    """Packet-delivery fabric over a routed topology.

    :param simulator: the virtual-time event engine.
    :param topology: routed node graph; hosts attach to its nodes.
    :param rng_registry: seed universe; link loss/jitter streams and
        host port randomisation derive from it.
    """

    def __init__(self, simulator: Simulator, topology: Topology,
                 rng_registry: Optional[RngRegistry] = None) -> None:
        self._simulator = simulator
        self._topology = topology
        self._rng = rng_registry or RngRegistry(0)
        self._hosts_by_name: Dict[str, Host] = {}
        self._hosts_by_address: Dict[IPAddress, Host] = {}
        self._taps: Dict[str, List[LinkTap]] = {}
        self._down_hosts: set = set()
        self._tap_epoch = 0
        self._plans: Dict[Tuple[str, str], _FlightHops] = {}
        self._plans_stamp = -1
        self._datagrams_sent = 0
        self._datagrams_delivered = 0
        self._datagrams_duplicated = 0
        self._bytes_sent = 0
        # Telemetry instruments are resolved once here; with no
        # registry installed the delivery path stays untouched. The
        # tracer is captured under the same contract: ``None`` means
        # the flight loop allocates no spans at all.
        telemetry = current_registry()
        self._telemetry = telemetry
        self._tracer = current_tracer()
        if telemetry is not None:
            self._t_sent = telemetry.counter("net.datagrams_sent")
            self._t_bytes = telemetry.counter("net.bytes_sent")
            self._t_delivered = telemetry.counter("net.datagrams_delivered")
            self._t_dropped = telemetry.counter("net.datagrams_dropped")
            self._t_latency = telemetry.histogram("net.delivery_latency")
            # Per-reason drop counters and per-link drop series are
            # created lazily on the first drop each reason/link
            # produces, so fault-free runs leave the registry's
            # snapshot byte-identical to pre-series builds.
            self._t_drop_reasons: Dict[str, object] = {}
            self._t_link_drops: Dict[str, object] = {}

    #: Bin width (virtual seconds) of the per-link drop time series.
    LINK_DROP_BIN = 1.0

    # ------------------------------------------------------------------
    # Wiring.
    # ------------------------------------------------------------------

    @property
    def simulator(self) -> Simulator:
        return self._simulator

    @property
    def topology(self) -> Topology:
        return self._topology

    @property
    def rng_registry(self) -> RngRegistry:
        return self._rng

    def add_host(self, host: Host) -> Host:
        """Register a host; its addresses become routable."""
        if host.name in self._hosts_by_name:
            raise ValueError(f"duplicate host name {host.name!r}")
        if not self._topology.has_node(host.node):
            raise ValueError(
                f"host {host.name!r} attaches to unknown node {host.node!r}"
            )
        for address in host.addresses:
            if address in self._hosts_by_address:
                owner = self._hosts_by_address[address].name
                raise ValueError(
                    f"address {address} already owned by host {owner!r}"
                )
        self._hosts_by_name[host.name] = host
        for address in host.addresses:
            self._hosts_by_address[address] = host
        host.attach(self)
        return host

    def host(self, name: str) -> Host:
        """Look up a host by name."""
        return self._hosts_by_name[name]

    def host_for_address(self, address: IPAddress) -> Optional[Host]:
        """The host owning ``address``, if registered."""
        return self._hosts_by_address.get(IPAddress(address))

    @property
    def hosts(self) -> List[Host]:
        return [self._hosts_by_name[name] for name in sorted(self._hosts_by_name)]

    # ------------------------------------------------------------------
    # Host availability (the chaos layer's crash/restart switch).
    # ------------------------------------------------------------------

    def set_host_down(self, name: str) -> None:
        """Mark a host crashed: every datagram to or from it drops with
        reason ``"host-down"`` until :meth:`set_host_up`.

        Only :class:`repro.chaos.ChaosController` may call this (a CI
        grep confines callers); scenario code models outages by
        scheduling a :class:`repro.chaos.ServerOutage` event instead.
        """
        if name not in self._hosts_by_name:
            raise KeyError(f"unknown host {name!r}")
        self._down_hosts.add(name)

    def set_host_up(self, name: str) -> None:
        """Restart a crashed host (a no-op for hosts already up)."""
        self._down_hosts.discard(name)

    def host_is_down(self, name: str) -> bool:
        """Whether the named host is currently crashed."""
        return name in self._down_hosts

    # ------------------------------------------------------------------
    # Attacker interposition.
    # ------------------------------------------------------------------

    def add_tap(self, link_name: str, tap: LinkTap) -> None:
        """Install an on-path tap on the named link.

        ``link_name`` is the canonical link name (``"a--b"`` with the
        ends sorted); taps run in installation order and the first
        non-PASS verdict wins.
        """
        self._taps.setdefault(link_name, []).append(tap)
        self._tap_epoch += 1

    def remove_tap(self, link_name: str, tap: LinkTap) -> None:
        """Uninstall a previously installed tap."""
        taps = self._taps.get(link_name, [])
        taps.remove(tap)
        self._tap_epoch += 1

    def inject(self, datagram: Datagram, at_node: str,
               spoofed: bool = True) -> None:
        """Off-path injection: route a (usually spoofed) datagram from
        ``at_node`` toward its destination.

        The injected packet traverses links (and other attackers' taps)
        from the injection point like any other traffic.
        """
        tagged = Datagram(src=datagram.src, dst=datagram.dst,
                          payload=datagram.payload, spoofed=spoofed,
                          channel=datagram.channel)
        self._route_and_schedule(tagged, at_node)

    # ------------------------------------------------------------------
    # Counters.
    # ------------------------------------------------------------------

    @property
    def datagrams_sent(self) -> int:
        return self._datagrams_sent

    @property
    def datagrams_delivered(self) -> int:
        return self._datagrams_delivered

    @property
    def datagrams_duplicated(self) -> int:
        """Extra copies delivered because of link-fault duplication."""
        return self._datagrams_duplicated

    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    # ------------------------------------------------------------------
    # Delivery.
    # ------------------------------------------------------------------

    def send(self, datagram: Datagram, origin_host: Host) -> None:
        """Entry point used by :meth:`Host.transmit`."""
        if self._down_hosts and origin_host.name in self._down_hosts:
            # A crashed origin cannot transmit: account the attempt as a
            # ``host-down`` drop without touching any link RNG stream.
            self._datagrams_sent += 1
            self._bytes_sent += datagram.size
            self._count_drop("host-down", datagram.size)
            return
        self._route_and_schedule(datagram, origin_host.node)

    def _plan_for(self, origin: str, dest_node: str) -> _FlightHops:
        """The cached flight plan for one (origin, destination) pair;
        the whole cache drops whenever the topology version or the tap
        epoch moves."""
        stamp = self._topology.version + self._tap_epoch
        if stamp != self._plans_stamp:
            self._plans.clear()
            self._plans_stamp = stamp
        key = (origin, dest_node)
        plan = self._plans.get(key)
        if plan is None:
            taps = self._taps
            plan = tuple(
                (link, tuple(taps[link.name]) if taps.get(link.name) else None)
                for link in self._topology.route(origin, dest_node))
            self._plans[key] = plan
        return plan

    def _route_and_schedule(self, datagram: Datagram,
                            origin_node: str) -> None:
        self._datagrams_sent += 1
        datagram_size = datagram.size
        self._bytes_sent += datagram_size
        simulator = self._simulator
        send_time = simulator.now

        # One flight span per trip, one child span per link transit.
        # Hop timelines are decided right here at schedule time, so the
        # whole flight is recorded synchronously in virtual time —
        # nothing about it depends on when the delivery callback fires.
        tracer = self._tracer
        flight = None
        if tracer is not None:
            flight = tracer.begin(
                "net.flight", start=send_time,
                attrs={"src": str(datagram.src), "dst": str(datagram.dst),
                       "size": datagram_size})
            if datagram.spoofed:
                flight.set(spoofed=True)

        destination_host = self._hosts_by_address.get(datagram.dst.address)
        if destination_host is None:
            self._drop("no-host", datagram_size, flight, send_time)
            return
        if self._down_hosts and destination_host.name in self._down_hosts:
            self._drop("host-down", datagram_size, flight, send_time)
            return

        try:
            plan = self._plan_for(origin_node, destination_host.node)
        except RoutingError:
            self._drop("no-route", datagram_size, flight, send_time)
            return

        total_delay = 0.0
        duplicate_gap: Optional[float] = None
        duplicating_link: Optional[Link] = None
        current = datagram
        hop_size = datagram_size   # link accounting follows rewrites;
        #                            telemetry counts the original bytes
        hops = 0
        for link, taps in plan:
            hops += 1
            # Natural loss first, then attacker taps: a dropped packet
            # never reaches the tap further down the same hop.
            dropped, gap, delay = link.transit(hop_size)
            if flight is not None:
                hop_start = send_time + total_delay
                hop_span = tracer.span_at(
                    "net.hop", hop_start,
                    hop_start if dropped else hop_start + delay,
                    parent=flight, attrs={"link": link.name})
            if dropped:
                if flight is not None:
                    hop_span.set(outcome="dropped", fault="loss")
                self._drop(link.name, datagram_size, flight,
                           send_time + total_delay, hops)
                return
            if gap is not None and duplicate_gap is None:
                # At most one extra copy per trip, trailing the
                # original by the first duplicating hop's gap. The
                # link's duplicate counter is charged only if the trip
                # survives the remaining hops (a downstream drop or tap
                # discards the copy along with the original).
                duplicate_gap = gap
                duplicating_link = link
                if flight is not None:
                    hop_span.set(fault="duplicate", duplicate_gap=gap)
            total_delay += delay
            if taps is not None:
                for tap in taps:
                    action = tap(link, current)
                    if action.verdict is TapVerdict.PASS:
                        continue
                    if action.verdict is TapVerdict.DROP:
                        if flight is not None:
                            hop_span.set(outcome="dropped",
                                         fault=f"tap:{link.name}")
                        self._drop(f"tap:{link.name}", datagram_size,
                                   flight, send_time + total_delay, hops)
                        return
                    if action.payload is None:
                        raise ValueError("REWRITE verdict requires a payload")
                    current = current.with_payload(action.payload)
                    hop_size = len(action.payload)
                    if flight is not None:
                        hop_span.set(rewritten=True,
                                     fault=f"tap:{link.name}")
                        if action.extra_delay:
                            hop_span.set(extra_delay=action.extra_delay)
                    total_delay += action.extra_delay
                    break

        final = current
        arrival = simulator.now + total_delay
        telemetry = self._telemetry

        if flight is not None:
            # The flight's outcome is provisionally "delivered" with its
            # precomputed arrival; the delivery closure downgrades it if
            # the host crashed meanwhile or the port turns out unbound.
            tracer.finish(flight.set(outcome="delivered", hops=hops),
                          arrival)

        def deliver() -> None:
            if self._down_hosts \
                    and destination_host.name in self._down_hosts:
                # The host crashed while the packet was in flight.
                if flight is not None:
                    flight.set(outcome="dropped", dropped_by="host-down")
                self._count_drop("host-down", datagram_size)
                return
            # Traced deliveries run under the inbound flight's scope:
            # whatever the receiving handler does synchronously (decode,
            # build and send a response) parents under this flight, so
            # causality is preserved across the wire.
            if flight is None:
                accepted = destination_host.deliver(final)
            else:
                with tracer.scope(flight):
                    accepted = destination_host.deliver(final)
            if accepted:
                self._datagrams_delivered += 1
                if telemetry is not None:
                    self._t_sent.inc()
                    self._t_bytes.inc(datagram_size)
                    self._t_delivered.inc()
                    self._t_latency.observe(simulator.now - send_time)
            else:
                if flight is not None:
                    flight.set(outcome="dropped", dropped_by="no-socket")
                self._count_drop("no-socket", datagram_size)

        simulator.schedule_at(arrival, deliver)

        if duplicate_gap is not None:
            if flight is not None:
                flight.set(duplicated=True)
                tracer.event("net.duplicate_delivery",
                             parent=flight, at=arrival + duplicate_gap,
                             attrs={"link": duplicating_link.name})
            duplicating_link.count_duplicate()

            def deliver_copy() -> None:
                # The copy rides outside the original's accounting: the
                # counters and the flight span describe the original
                # delivery, the transport layer's suppression decides
                # what the copy means.
                if self._down_hosts \
                        and destination_host.name in self._down_hosts:
                    return
                if destination_host.deliver(final):
                    self._datagrams_duplicated += 1

            simulator.schedule_at(arrival + duplicate_gap, deliver_copy)

    def _drop(self, where: str, size: int, flight: Optional[Span],
              at: float, hops: int = 0) -> None:
        """One datagram dropped before delivery was scheduled: finish
        its flight span (when tracing) as dropped at ``at``, then count
        the drop. ``hops`` is recorded only for link and tap drops."""
        if flight is not None:
            flight.set(outcome="dropped", dropped_by=where)
            if hops:
                flight.set(hops=hops)
            self._tracer.finish(flight, at)
        self._count_drop(where, size)

    def _count_drop(self, where: str, size: int) -> None:
        """Telemetry for one dropped datagram."""
        if self._telemetry is None:
            return
        self._t_sent.inc()
        self._t_bytes.inc(size)
        self._t_dropped.inc()
        counter = self._t_drop_reasons.get(where)
        if counter is None:
            counter = self._telemetry.counter("net.drops", reason=where)
            self._t_drop_reasons[where] = counter
        counter.inc()
        series = self._t_link_drops.get(where)
        if series is None:
            series = self._telemetry.timeseries(
                "net.link_drops", self.LINK_DROP_BIN, link=where)
            self._t_link_drops[where] = series
        series.record(self._simulator.now, 1.0)
