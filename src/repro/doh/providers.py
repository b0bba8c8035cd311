"""DoH provider deployments.

A *provider* is one DoH service a client may trust: a host somewhere in
the topology running a recursive resolver plus a DoH front-end, with a
certificate issued by a CA. Profiles for the three providers named in
the paper's Figure 1 (dns.google, cloudflare-dns.com, dns.quad9.net)
are predefined; :func:`synthetic_profiles` generates arbitrarily many
more for large-N experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.dns.name import Name
from repro.dns.resolver import RecursiveResolver, ResolverConfig
from repro.doh.server import DoHServer
from repro.doh.tls import Certificate, CertificateAuthority, KeyPair
from repro.netsim.address import Endpoint, IPAddress
from repro.netsim.host import Host
from repro.netsim.internet import Internet
from repro.util.rng import RngRegistry
from repro.util.specbase import SpecBase


@dataclass(frozen=True)
class DoHProviderProfile(SpecBase):
    """Static description of a provider before deployment (and the
    scenario spec's ``ProviderSpec.profiles`` entry)."""

    name: str          # TLS server name, e.g. "dns.google"
    region: str        # topology node to attach to
    address: str       # service IP in the simulation

    def __str__(self) -> str:
        return f"{self.name}@{self.region}"


# The three providers shown in the paper's Figure 1.
GOOGLE = DoHProviderProfile("dns.google", "us-west", "10.53.0.1")
CLOUDFLARE = DoHProviderProfile("cloudflare-dns.com", "us-east", "10.53.0.2")
QUAD9 = DoHProviderProfile("dns.quad9.net", "eu-west", "10.53.0.3")
FIGURE1_PROVIDERS = [GOOGLE, CLOUDFLARE, QUAD9]


def synthetic_profiles(count: int, regions: List[str],
                       subnet_prefix: str = "10.54") -> List[DoHProviderProfile]:
    """Generate ``count`` synthetic provider profiles round-robin over
    ``regions`` (used by the large-N sweeps in E2-E4)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if not regions:
        raise ValueError("need at least one region")
    profiles = []
    for index in range(count):
        region = regions[index % len(regions)]
        profiles.append(DoHProviderProfile(
            name=f"doh{index}.resolvers.example",
            region=region,
            address=f"{subnet_prefix}.{index // 250}.{index % 250 + 1}",
        ))
    return profiles


@dataclass
class ProviderDeployment:
    """A live provider: host + resolver, and — unless deployed in
    plain-DNS serving mode — a DoH front-end with a TLS identity."""

    profile: DoHProviderProfile
    host: Host
    resolver: RecursiveResolver
    doh_server: Optional[DoHServer] = None
    certificate: Optional[Certificate] = None
    keypair: Optional[KeyPair] = None

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def endpoint(self) -> Endpoint:
        if self.doh_server is None:
            raise ValueError(
                f"provider {self.name!r} serves plain DNS only "
                f"(no DoH endpoint)")
        return self.doh_server.endpoint

    @property
    def address(self) -> IPAddress:
        return self.host.primary_address


def deploy_provider(internet: Internet, profile: DoHProviderProfile,
                    authority: CertificateAuthority,
                    root_hints: List[Tuple[Name, IPAddress]],
                    rng_registry: RngRegistry,
                    resolver_config: Optional[ResolverConfig] = None,
                    instrument: bool = False) -> ProviderDeployment:
    """Stand up one provider in the simulated Internet.

    Creates the host, the backend recursive resolver (plain DNS on :53,
    used for its recursion engine), the TLS identity, and the DoH
    front-end on :443.  ``instrument=True`` turns on the resolver's
    cache/referral telemetry (iterative-hierarchy worlds).
    """
    host = internet.add_host(Host(
        profile.name, profile.region, [IPAddress(profile.address)],
        rng=rng_registry.stream("provider-ports", profile.name)))
    resolver = RecursiveResolver(
        host, internet.simulator, root_hints,
        config=resolver_config,
        rng=rng_registry.stream("provider-txid", profile.name),
        instrument=instrument)
    keypair = KeyPair.generate(rng_registry.stream("provider-key", profile.name))
    certificate = authority.issue(profile.name, keypair.public)
    doh_server = DoHServer(host, resolver, certificate, keypair)
    return ProviderDeployment(profile=profile, host=host, resolver=resolver,
                              doh_server=doh_server, certificate=certificate,
                              keypair=keypair)
