"""Deploying the fleet of NTP pool servers behind the DNS directory.

The scenario builder creates the *directory* (which addresses exist in
pool.ntp.org); this module stands up the actual servers on those
addresses, honest ones with small clock errors and — when an experiment
asks for them — malicious ones lying by a configured shift.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.netsim.address import IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.ntp.clock import SimClock
from repro.ntp.server import NtpServer
from repro.util.rng import RngRegistry

if TYPE_CHECKING:  # the scenario layer sits above ntp
    from repro.scenarios.workload import PoolDirectory


@dataclass
class NtpFleet:
    """The deployed pool-server fleet, indexed by address."""

    servers: Dict[IPAddress, NtpServer] = field(default_factory=dict)

    def server_for(self, address: "IPAddress | str") -> NtpServer:
        return self.servers[IPAddress(address)]

    @property
    def honest_servers(self) -> List[NtpServer]:
        return [s for s in self.servers.values() if not s.is_malicious]

    @property
    def malicious_servers(self) -> List[NtpServer]:
        return [s for s in self.servers.values() if s.is_malicious]

    def corrupt(self, address: "IPAddress | str", lie_offset: float) -> None:
        """Turn one deployed server malicious."""
        self.server_for(address).set_lie_offset(lie_offset)


def deploy_ntp_fleet(
    internet: Internet,
    directory: PoolDirectory,
    rng_registry: RngRegistry,
    regions: Optional[Sequence[str]] = None,
    honest_clock_error: float = 0.010,
    honest_drift_ppm: float = 50.0,
    malicious_lie_offset: float = 10.0,
    extra_addresses: Sequence["IPAddress | str"] = (),
) -> NtpFleet:
    """Create a host + :class:`NtpServer` for every directory member.

    Honest members get clocks with errors uniform in
    ``±honest_clock_error`` and drift uniform in ``±honest_drift_ppm``;
    members the directory marks malicious serve time shifted by
    ``malicious_lie_offset`` seconds.

    :param extra_addresses: additional addresses (e.g. attacker-hosted
        servers outside the directory) deployed as malicious.
    """
    if regions is None:
        regions = [node for node in internet.topology.nodes]
    rng = rng_registry.stream("ntp-fleet")
    fleet = NtpFleet()
    simulator = internet.simulator

    def deploy_one(address: IPAddress, index: int, malicious: bool) -> None:
        region = regions[index % len(regions)]
        host = internet.add_host(Host(
            f"ntp-{address}", region, [address],
            rng=rng_registry.stream("ntp-ports", str(address))))
        if malicious:
            # A malicious server keeps an accurate clock and lies on
            # top of it, so its shift is exactly the configured value.
            clock = SimClock(lambda: simulator.now)
            server = NtpServer(host, clock,
                               lie_offset=malicious_lie_offset)
        else:
            clock = SimClock(
                lambda: simulator.now,
                offset=rng.uniform(-honest_clock_error, honest_clock_error),
                drift_ppm=rng.uniform(-honest_drift_ppm, honest_drift_ppm))
            server = NtpServer(host, clock)
        fleet.servers[address] = server

    for index, address in enumerate(directory.benign):
        deploy_one(address, index, malicious=False)
    offset = len(directory.benign)
    for index, address in enumerate(directory.malicious):
        deploy_one(address, offset + index, malicious=True)
    offset += len(directory.malicious)
    for index, address in enumerate(extra_addresses):
        deploy_one(IPAddress(address), offset + index, malicious=True)
    return fleet
