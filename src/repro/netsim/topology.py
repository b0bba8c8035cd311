"""Routed topology of the simulated Internet.

Nodes are named routers/vantage points ("eu-west", "us-east", ...);
hosts attach to a node. Routing is shortest-path by expected latency,
computed with networkx and cached until the topology changes.

The topology is what gives the paper's threat model its teeth: an
on-path attacker controls a *subset of links*, so whether it can touch a
flow depends on which route the flow takes — exactly the "attacker
controls some but not all paths" assumption in the paper.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import networkx as nx

from repro.netsim.link import FaultModel, Link, LinkProfile
from repro.util.rng import RngRegistry


class RoutingError(RuntimeError):
    """Raised when no route exists between two attachment points."""


class Topology:
    """A graph of named nodes joined by :class:`Link` objects.

    >>> from repro.util.rng import RngRegistry
    >>> topo = Topology(RngRegistry(1))
    >>> topo.add_node("a"); topo.add_node("b")
    >>> _ = topo.add_link("a", "b", LinkProfile.lan())
    >>> [link.name for link in topo.route("a", "b")]
    ['a--b']
    """

    def __init__(self, rng_registry: Optional[RngRegistry] = None) -> None:
        self._graph = nx.Graph()
        self._links: Dict[Tuple[str, str], Link] = {}
        self._rng_registry = rng_registry or RngRegistry(0)
        self._route_cache: Dict[Tuple[str, str], List[Link]] = {}
        self._version = 0

    @property
    def version(self) -> int:
        """Monotone edit counter: bumped whenever nodes, links or link
        fault models change. The :class:`~repro.netsim.internet.Internet`
        keys its compiled flight plans on it, so any topology edit
        invalidates every cached plan."""
        return self._version

    @property
    def nodes(self) -> List[str]:
        """All node names, sorted for determinism."""
        return sorted(self._graph.nodes)

    @property
    def links(self) -> List[Link]:
        """All links, sorted by canonical name for determinism."""
        return sorted(self._links.values(), key=lambda link: link.name)

    def add_node(self, name: str) -> None:
        """Add a routing node; idempotent."""
        self._graph.add_node(name)
        self._invalidate_routes()

    def _invalidate_routes(self) -> None:
        self._route_cache.clear()
        self._version += 1

    def has_node(self, name: str) -> bool:
        return name in self._graph

    def add_link(self, a: str, b: str, profile: LinkProfile) -> Link:
        """Join nodes ``a`` and ``b`` with a link; creates nodes if needed."""
        key = self._key(a, b)
        if key in self._links:
            raise ValueError(f"link {a}--{b} already exists")
        rng = self._rng_registry.stream("link", *key)
        link = Link(a, b, profile, rng)
        self._links[key] = link
        # Weight by expected latency so routing prefers fast paths.
        self._graph.add_edge(a, b, weight=profile.latency + profile.jitter / 2.0)
        self._invalidate_routes()
        return link

    def link_between(self, a: str, b: str) -> Optional[Link]:
        """The direct link between two nodes, if any."""
        return self._links.get(self._key(a, b))

    def set_fault_model(self, a: str, b: str,
                        model: Optional[FaultModel]) -> Link:
        """Install (or clear, with ``None``) a fault model on a link.

        The model's randomness comes from the registry's dedicated
        ``("fault", a, b)`` stream, so fault decisions are reproducible
        and never perturb the link's intrinsic latency/loss stream.
        """
        key = self._key(a, b)
        link = self._links.get(key)
        if link is None:
            raise KeyError(f"no link {a}--{b}")
        rng = (self._rng_registry.stream("fault", *key)
               if model is not None and model.active else None)
        link.install_fault(model, rng)
        # Routes are unchanged, but compiled flight plans may have
        # classified the link's dynamics — force a recompile.
        self._version += 1
        return link

    def remove_link(self, a: str, b: str) -> None:
        """Remove a link (e.g. to simulate a partition)."""
        key = self._key(a, b)
        if key not in self._links:
            raise KeyError(f"no link {a}--{b}")
        del self._links[key]
        self._graph.remove_edge(a, b)
        self._invalidate_routes()

    def route(self, src: str, dst: str) -> List[Link]:
        """Shortest-latency route as an ordered list of links.

        An empty list means ``src == dst`` (loopback delivery).
        Raises :class:`RoutingError` when the nodes are disconnected.
        """
        if src == dst:
            return []
        cache_key = (src, dst)
        cached = self._route_cache.get(cache_key)
        if cached is not None:
            return cached
        path_nodes = self._shortest_path(src, dst)
        links = [
            self._links[self._key(a, b)]
            for a, b in zip(path_nodes, path_nodes[1:])
        ]
        self._route_cache[cache_key] = links
        return links

    def _shortest_path(self, src: str, dst: str) -> List[str]:
        """The one place the repository asks networkx for a path."""
        if src not in self._graph or dst not in self._graph:
            raise RoutingError(f"unknown node in route {src} -> {dst}")
        try:
            return list(nx.shortest_path(self._graph, src, dst, weight="weight"))
        except nx.NetworkXNoPath as exc:
            raise RoutingError(f"no route from {src} to {dst}") from exc

    def expected_latency(self, src: str, dst: str) -> float:
        """Sum of expected one-way latencies along the route."""
        return sum(
            link.profile.latency + link.profile.jitter / 2.0
            for link in self.route(src, dst)
        )

    @staticmethod
    def _key(a: str, b: str) -> Tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    # ------------------------------------------------------------------
    # Prefab topologies used by the scenario builders.
    # ------------------------------------------------------------------

    @classmethod
    def star(cls, center: str, leaves: List[str],
             profile: Optional[LinkProfile] = None,
             rng_registry: Optional[RngRegistry] = None) -> "Topology":
        """A star: every leaf connects to ``center``."""
        topo = cls(rng_registry)
        topo.add_node(center)
        for leaf in leaves:
            topo.add_link(center, leaf, profile or LinkProfile.continental())
        return topo

    @classmethod
    def global_backbone(cls, rng_registry: Optional[RngRegistry] = None,
                        profile: Optional[LinkProfile] = None) -> "Topology":
        """A small model of the public Internet's regional structure.

        Six regions joined by a realistic mix of continental and
        trans-oceanic hops. Scenario builders attach clients, resolvers
        and nameservers to these regions.

        ``profile`` overrides *every* backbone hop with one uniform
        link — determinism harnesses use a zero-jitter profile here so
        cross-shard comparisons see identical transit draws.
        """
        topo = cls(rng_registry)
        regions = ["us-west", "us-east", "eu-west", "eu-central", "asia-east", "asia-south"]
        for region in regions:
            topo.add_node(region)
        continental = profile or LinkProfile.continental()
        oceanic = profile or LinkProfile.transoceanic()
        topo.add_link("us-west", "us-east", continental)
        topo.add_link("eu-west", "eu-central", continental)
        topo.add_link("asia-east", "asia-south", continental)
        topo.add_link("us-east", "eu-west", oceanic)
        topo.add_link("us-west", "asia-east", oceanic)
        topo.add_link("eu-central", "asia-south", oceanic)
        topo.add_link("eu-west", "asia-east", oceanic)
        return topo

    @classmethod
    def random_mesh(cls, node_count: int, extra_edges: int, seed: int,
                    rng_registry: Optional[RngRegistry] = None) -> "Topology":
        """A random connected mesh: a spanning tree plus random chords.

        Used by property tests and robustness benchmarks.
        """
        if node_count < 1:
            raise ValueError("node_count must be >= 1")
        topo = cls(rng_registry)
        rng = random.Random(seed)
        names = [f"n{i}" for i in range(node_count)]
        for name in names:
            topo.add_node(name)
        # Spanning tree: attach each node to a random earlier one.
        for index in range(1, node_count):
            parent = names[rng.randrange(index)]
            topo.add_link(names[index], parent, LinkProfile.continental())
        # Extra chords for path diversity (need at least two nodes).
        attempts = 0
        added = 0
        if node_count < 2:
            return topo
        while added < extra_edges and attempts < extra_edges * 20:
            attempts += 1
            a, b = rng.sample(names, 2)
            if topo.link_between(a, b) is None:
                topo.add_link(a, b, LinkProfile.continental())
                added += 1
        return topo
