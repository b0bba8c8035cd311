"""Discrete-event simulation of a small Internet.

This subpackage substitutes for the live Internet the paper's system runs
on. It provides:

* :mod:`repro.netsim.simulator` — a deterministic discrete-event engine
  with virtual time;
* :mod:`repro.netsim.address` — IPv4/IPv6 endpoint addressing;
* :mod:`repro.netsim.packet` — UDP-style datagrams and stream segments;
* :mod:`repro.netsim.link` / :mod:`repro.netsim.topology` — links with
  latency/loss and a routed graph of network nodes (networkx-backed);
* :mod:`repro.netsim.host` / :mod:`repro.netsim.socket` — hosts with
  bound sockets and timer support;
* :mod:`repro.netsim.internet` — the assembled network, including the
  interposition points used by :mod:`repro.attacks` (on-path taps and
  off-path spoofed injection);
* :mod:`repro.netsim.transport` — the unified request/response engine
  (timeouts, backoff retries, transaction IDs, duplicate suppression)
  every protocol client rides on.

Determinism: all randomness (loss, jitter) is drawn from named streams of
a :class:`repro.util.RngRegistry`, so a scenario is exactly reproducible
from its root seed.
"""

from repro.netsim.address import Endpoint, IPAddress, ip
from repro.netsim.host import Host
from repro.netsim.internet import Internet, LinkTap, TapAction, TapVerdict
from repro.netsim.link import FaultModel, Link, LinkProfile
from repro.netsim.packet import Datagram
from repro.netsim.simulator import Event, Simulator
from repro.netsim.socket import UdpSocket
from repro.netsim.topology import Topology
from repro.netsim.transport import (
    AttemptInfo,
    DatagramExchange,
    ExchangeReport,
    PendingExchange,
    RetryPolicy,
    Transport,
)

__all__ = [
    "AttemptInfo",
    "Endpoint",
    "IPAddress",
    "ip",
    "Host",
    "Internet",
    "DatagramExchange",
    "ExchangeReport",
    "FaultModel",
    "LinkTap",
    "PendingExchange",
    "RetryPolicy",
    "TapAction",
    "TapVerdict",
    "Transport",
    "Link",
    "LinkProfile",
    "Datagram",
    "Event",
    "Simulator",
    "UdpSocket",
    "Topology",
]
