"""Layer timing for the benchmark: wall-clock spans recorded around the
public functions of each ``repro`` layer, from outside the program.

:class:`LayerTracer` patches the functions listed in :data:`LAYERS` with
thin wrappers that record ``[name, start, end, parent]`` spans in
memory, turns on ``Simulator.enable_profiling()`` for every simulator
built while it is installed, and folds each simulator's
``profile_snapshot()`` after every ``run()``. Nothing under ``src/``
changes: uninstalling restores every patched attribute.

Worlds built inside forked worker processes (campaign trials, megafleet
shards) inherit the wrappers through ``fork``. A child starts with an
empty span list (``os.register_at_fork``) and writes what it recorded to
``<spill_dir>/spans-<pid>-<n>.json`` when each ``execute_spec`` call
returns, because a pool worker may be stopped without running exit
hooks; the parent reads those files back in :meth:`LayerTracer.collect`.
Timestamps are ``time.perf_counter()``, which is system-wide monotonic
on Linux, so spans from different processes share one time base.

A span's self time is its duration minus the durations of its children
*in the same process*: a parent process waiting on a pool is not doing
the child's work, so a child's time is never subtracted from the wait.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``(span name, module, attribute path)`` for every wrapped callable.
#: A dotted attribute path names a method; a plain one names a module
#: function, which is patched in every ``repro`` module that imported it
#: by name, so ``from x import f`` call sites are covered too.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("scenarios.materialize", "repro.scenarios.spec", "materialize"),
    ("scenarios.build", "repro.scenarios.spec", "_materialize_single"),
    ("scenarios.build", "repro.scenarios.spec", "_materialize_population"),
    ("netsim.simulator", "repro.netsim.simulator", "Simulator.run"),
    ("netsim.transport", "repro.netsim.transport", "Transport.exchange"),
    ("netsim.transport", "repro.netsim.transport", "Transport.supervise"),
    ("dns.codec", "repro.dns.message", "Message.encode"),
    ("dns.codec", "repro.dns.message", "Message.decode"),
    ("dns.resolve", "repro.dns.resolver", "RecursiveResolver.resolve"),
    ("doh.keygen", "repro.doh.tls", "KeyPair.generate"),
    ("doh.shared_secret", "repro.doh.tls", "KeyPair.shared_secret"),
    ("doh.handshake", "repro.doh.tls", "TlsClientConnection.connect"),
    ("ntp.codec", "repro.ntp.packet", "NtpPacket.encode"),
    ("ntp.codec", "repro.ntp.packet", "NtpPacket.decode"),
    ("core.generate", "repro.core.pool", "SecurePoolGenerator.generate"),
    ("core.quorum", "repro.core.pool", "combine_with_quorum"),
    ("core.combine", "repro.core.pool", "combine_answer_lists"),
    ("core.combine", "repro.core.majority", "MajorityVoteCombiner.combine"),
    ("population.advance_round", "repro.population.fleet", "advance_round"),
    ("util.rng", "repro.util.rng", "RngRegistry.stream"),
    ("util.rng", "repro.util.rng", "StreamPrefix.stream"),
    ("telemetry.snapshot", "repro.telemetry.registry",
     "MetricsRegistry.snapshot_json"),
    ("telemetry.fold", "repro.telemetry.registry", "fold_snapshots"),
    ("telemetry.trace_export", "repro.telemetry.trace", "Tracer.snapshot_json"),
    ("campaign.run", "repro.campaign.runner", "CampaignRunner.run"),
    ("campaign.run", "repro.population.sharding", "ShardedFleet.run"),
    ("campaign.trial", "repro.campaign.executors", "execute_spec"),
    ("campaign.executor", "repro.campaign.executors", "run_serial"),
    ("campaign.executor", "repro.campaign.executors", "run_threads"),
    ("campaign.executor", "repro.campaign.executors", "run_processes"),
    ("campaign.journal", "repro.campaign.journal", "CampaignJournal.append"),
    ("campaign.results_json", "repro.campaign.aggregate",
     "CampaignResult.write_json"),
)

#: Every span name, in declaration order (the per-layer self-time table).
SPAN_NAMES: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _, _ in LAYERS))

#: Spans whose return value is an exported document; its length is
#: summed under ``<span>.bytes``.
_SIZED = frozenset({"telemetry.snapshot", "telemetry.trace_export"})

#: Modules whose import must precede patching so that every by-name
#: import site already exists when the scan runs.
_PRELOAD = ("repro.scenarios", "repro.scenarios.spec", "repro.scenarios.builders",
            "repro.population.sharding", "repro.population.fleet",
            "repro.campaign", "repro.campaign.trials", "repro.chaos.controller",
            "repro.dns.resolver", "repro.dns.client", "repro.ntp.client",
            "repro.doh.client", "repro.doh.server", "repro.core")

#: The tracer fork hooks and wrappers report to (one per process).
_ACTIVE: Optional["LayerTracer"] = None


def _after_fork_in_child() -> None:
    tracer = _ACTIVE
    if tracer is not None:
        tracer._reset_for_child()
    if tracemalloc.is_tracing():
        # Memory is measured on the worlds the parent builds; a traced
        # allocator in every pool worker would only slow the pass.
        tracemalloc.stop()


os.register_at_fork(after_in_child=_after_fork_in_child)


def profile_bucket(label: str) -> str:
    """Profile labels with a per-packet suffix collapse into one bucket
    (``deliver#1234`` -> ``deliver#``) so counts stay comparable."""
    head, sep, _ = label.partition("#")
    return head + sep


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw value)`` for a dotted attribute path."""
    owner: Any = importlib.import_module(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, raw


class LayerTracer:
    """In-memory span recorder installed over the ``repro`` layers.

    :param spill_dir: where forked children write their spans; must be
        inside the benchmark's work directory.
    :param memory: also measure build and run bytes with ``tracemalloc``
        on the worlds the parent process builds (a separate, slower
        pass: the allocator hooks distort wall time).
    """

    def __init__(self, spill_dir: Path, memory: bool = False) -> None:
        self.spill_dir = Path(spill_dir)
        self.memory = memory
        self.root_pid = os.getpid()
        #: ``[name, start, end, parent index or -1]`` per span.
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Summed counts (``rng.created``, ``tls.handshakes``, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: Profile bucket -> [events, callback wall seconds].
        self.profile: Dict[str, List[float]] = {}
        #: ``(world, build bytes)`` for worlds built in this process.
        self.worlds: List[Tuple[Any, int]] = []
        self.run_bytes = 0
        self._patches: List[Tuple[Any, str, Any]] = []
        self._spills = itertools.count()
        #: Spans, counts and profiles read back from child processes:
        #: a list of ``(spans, counts, profile)`` per spill file.
        self.remote: List[Tuple[List[list], Dict[str, float],
                                Dict[str, List[float]]]] = []

    # ------------------------------------------------------------------
    # Install / uninstall.
    # ------------------------------------------------------------------

    def install(self) -> "LayerTracer":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("a LayerTracer is already installed")
        for module in _PRELOAD:
            importlib.import_module(module)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        try:
            for name, module, path in LAYERS:
                owner, attr, raw = _resolve(module, path)
                if isinstance(owner, type):
                    self._patch(owner, attr, self._wrap_member(name, raw))
                    continue
                wrapper = self._wrap(name, raw)
                for mod_name, mod in list(sys.modules.items()):
                    if (mod_name == "repro" or mod_name.startswith("repro.")) \
                            and getattr(mod, attr, None) is raw:
                        self._patch(mod, attr, wrapper)
            self._install_simulator_hooks()
        except BaseException:
            self.uninstall()
            raise
        _ACTIVE = self
        if self.memory:
            tracemalloc.start()
        return self

    def uninstall(self) -> None:
        global _ACTIVE
        if self.memory and tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        _ACTIVE = None

    def __enter__(self) -> "LayerTracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # Wrappers.
    # ------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        counts = self.counts
        sized = name in _SIZED

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if sized:
                counts[name + ".bytes"] += len(result)
            return result

        wrapper.__wrapped__ = fn  # type: ignore[attr-defined]
        if name == "campaign.trial":
            return self._spilling(wrapper)
        return wrapper

    def _wrap_member(self, name: str, raw: Any) -> Any:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(name, raw.__func__))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(name, raw.__func__))
        if name == "util.rng":
            return self._wrap_stream(name, raw)
        return self._wrap(name, raw)

    def _wrap_stream(self, name: str, fn: Callable) -> Callable:
        """RNG stream lookups: count the ones that *create* a stream
        (the memo table grows), which is what costs memory."""
        inner = self._wrap(name, fn)
        counts = self.counts

        def stream(self_, *names):
            before = len(self_._streams)
            result = inner(self_, *names)
            if len(self_._streams) != before:
                counts["rng.created"] += 1
            return result

        return stream

    def _spilling(self, wrapper: Callable) -> Callable:
        """``execute_spec`` in a forked child: write the child's spans
        out when the trial returns (the parent never sees them
        otherwise)."""
        def execute_spec(spec):
            try:
                return wrapper(spec)
            finally:
                if os.getpid() != self.root_pid:
                    self._spill()

        execute_spec.__wrapped__ = wrapper  # type: ignore[attr-defined]
        return execute_spec

    def _install_simulator_hooks(self) -> None:
        from repro.netsim.simulator import Simulator

        original_init = Simulator.__dict__["__init__"]

        def __init__(sim, *args, **kwargs):
            original_init(sim, *args, **kwargs)
            sim.enable_profiling()
            sim._perfbench_seen = {}

        self._patch(Simulator, "__init__", __init__)
        # Simulator.run is already wrapped as a span; wrap it once more
        # (outside the span) to fold the profile delta after each run.
        timed_run = Simulator.__dict__["run"]
        profile = self.profile
        tracer = self

        def run(sim, *args, **kwargs):
            memory = tracer.memory and tracemalloc.is_tracing()
            if memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            try:
                return timed_run(sim, *args, **kwargs)
            finally:
                if memory:
                    tracer.run_bytes += max(
                        0, tracemalloc.get_traced_memory()[1] - base)
                seen = getattr(sim, "_perfbench_seen", None)
                if seen is not None:
                    for label, cell in sim.profile_snapshot().items():
                        count, wall = cell["count"], cell["wall_s"]
                        old = seen.get(label, (0.0, 0.0))
                        seen[label] = (count, wall)
                        bucket = profile.setdefault(profile_bucket(label),
                                                    [0.0, 0.0])
                        bucket[0] += count - old[0]
                        bucket[1] += wall - old[1]

        self._patch(Simulator, "run", run)
        if self.memory:
            self._install_build_meter()

    def _install_build_meter(self) -> None:
        """Build bytes of each world the parent materializes."""
        import repro.scenarios.spec as spec_module

        tracer = self
        for attr in ("_materialize_single", "_materialize_population"):
            inner = getattr(spec_module, attr)

            def build(*args, _inner=inner, **kwargs):
                if not tracemalloc.is_tracing():
                    return _inner(*args, **kwargs)
                before = tracemalloc.get_traced_memory()[0]
                world = _inner(*args, **kwargs)
                tracer.worlds.append(
                    (world, tracemalloc.get_traced_memory()[0] - before))
                return world

            self._patch(spec_module, attr, build)

    # ------------------------------------------------------------------
    # Children.
    # ------------------------------------------------------------------

    def _reset_for_child(self) -> None:
        self.spans.clear()
        self._stack.clear()
        self.counts.clear()
        self.profile.clear()
        self.worlds.clear()
        self.run_bytes = 0

    def _spill(self) -> None:
        payload = {"spans": self.spans, "counts": self.counts,
                   "profile": self.profile}
        path = self.spill_dir / f"spans-{os.getpid()}-{next(self._spills)}.json"
        path.write_text(json.dumps(payload))
        self._reset_for_child()

    def collect(self) -> None:
        """Read back every spill file the children wrote."""
        for path in sorted(self.spill_dir.glob("spans-*.json")):
            payload = json.loads(path.read_text())
            self.remote.append((payload["spans"], payload["counts"],
                                payload["profile"]))
            path.unlink()

    # ------------------------------------------------------------------
    # Aggregation.
    # ------------------------------------------------------------------

    def span_sets(self) -> List[List[list]]:
        """Spans grouped by the process (or spill) that recorded them;
        parent indices are local to their group."""
        return [self.spans] + [spans for spans, _, _ in self.remote]

    def total_counts(self) -> Dict[str, float]:
        totals: Dict[str, float] = defaultdict(float, self.counts)
        for _, counts, _ in self.remote:
            for key, value in counts.items():
                totals[key] += value
        return totals

    def total_profile(self) -> Dict[str, List[float]]:
        totals: Dict[str, List[float]] = {}
        for profile in [self.profile] + [p for _, _, p in self.remote]:
            for label, (count, wall) in profile.items():
                cell = totals.setdefault(label, [0.0, 0.0])
                cell[0] += count
                cell[1] += wall
        return totals


def _self_time(spans: List[list]) -> List[float]:
    """Each span's duration minus its children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(span_sets: List[List[list]]) -> Dict[str, float]:
    """Summed self time per span name across every process."""
    totals: Dict[str, float] = defaultdict(float)
    for spans in span_sets:
        for span, own in zip(spans, _self_time(spans)):
            totals[span[0]] += own
    return totals


def span_stats(span_sets: List[List[list]]) -> Dict[str, Tuple[int, float]]:
    """``(calls, summed inclusive seconds)`` per span name, counting a
    span only when no ancestor in its process has the same name (so a
    recursive or re-entrant layer is not counted twice)."""
    totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
    for spans in span_sets:
        for name, start, end, parent in spans:
            nested = False
            while parent >= 0:
                if spans[parent][0] == name:
                    nested = True
                    break
                parent = spans[parent][3]
            if not nested:
                cell = totals[name]
                cell[0] += 1
                cell[1] += end - start
    return {name: (int(cell[0]), cell[1]) for name, cell in totals.items()}


def self_time_within(span_sets: List[List[list]], prefix: str,
                     ancestor: str) -> float:
    """Self time of spans named ``prefix*`` that run inside an
    ``ancestor`` span of the same process."""
    total = 0.0
    for spans in span_sets:
        for (name, _, _, parent), own in zip(spans, _self_time(spans)):
            if not name.startswith(prefix):
                continue
            while parent >= 0:
                if spans[parent][0] == ancestor:
                    total += own
                    break
                parent = spans[parent][3]
    return total


def _world_clients_rounds(world: Any) -> Tuple[int, float]:
    """Clients resident in a world and the client rounds it ran (a
    single-client world runs one generation round)."""
    fleet = getattr(world, "fleet", None)
    if fleet is None:
        return 1, 1.0
    return fleet.clients, world.telemetry.value("pop.rounds")


def memory_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Bytes per client at build time and per client round at run
    time, over the worlds the parent process built and ran."""
    clients = rounds = built = 0.0
    for world, build_bytes in tracer.worlds:
        world_clients, world_rounds = _world_clients_rounds(world)
        clients += world_clients
        rounds += world_rounds
        built += build_bytes
    return {
        "population.build_bytes_per_client": built / clients if clients else 0.0,
        "population.bytes_per_client_round":
            tracer.run_bytes / rounds if rounds else 0.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: LayerTracer, counters: Dict[str, float],
                  trace_spans: int) -> Dict[str, float]:
    """Every per-layer metric of one layer-traced execution, except the
    memory pass and the tracing overhead (see :func:`memory_metrics`).

    ``counters`` are the world registries' counters (summed over
    labels); ``trace_spans`` is the simulated system's own trace size.
    """
    sets = tracer.span_sets()
    stats = span_stats(sets)
    own = self_times(sets)
    counts = tracer.total_counts()
    profile = tracer.total_profile()

    def calls(name: str) -> int:
        return stats.get(name, (0, 0.0))[0]

    def inclusive(name: str) -> float:
        return stats.get(name, (0, 0.0))[1]

    callback_wall = sum(wall for _, wall in profile.values())
    delivery_wall = sum(wall for label, (_, wall) in profile.items()
                        if label in ("", "deliver#"))
    trial_walls = [end - start for spans in sets
                   for name, start, end, _ in spans if name == "campaign.trial"]
    hits = counters.get("dns.cache.hits", 0.0)
    misses = counters.get("dns.cache.misses", 0.0)
    sent = counters.get("net.datagrams_sent", 0.0)
    exchanges = counters.get("transport.exchanges", 0.0)
    return {
        "netsim.simulator.events": sum(count for count, _ in profile.values()),
        "netsim.simulator.dispatch_s": inclusive("netsim.simulator")
                                       - callback_wall,
        "netsim.internet.delivery_s": delivery_wall,
        "netsim.internet.datagrams": sent,
        "netsim.internet.delivered_ratio":
            _ratio(counters.get("net.datagrams_delivered", 0.0), sent),
        "netsim.transport.exchanges": exchanges,
        "netsim.transport.attempts_per_exchange":
            _ratio(counters.get("transport.attempts", 0.0), exchanges),
        "netsim.transport.timeouts": counters.get("transport.timeouts", 0.0),
        "netsim.transport.exhausted": counters.get("transport.exhausted", 0.0),
        "netsim.transport_s": own.get("netsim.transport", 0.0),
        "dns.codec_calls": calls("dns.codec"),
        "dns.codec_s": own.get("dns.codec", 0.0),
        "dns.cache_hit_ratio": _ratio(hits, hits + misses),
        "dns.resolutions": calls("dns.resolve"),
        "dns.stub_timeouts": counters.get("dns.stub.timeouts", 0.0),
        "doh.keygen_calls": calls("doh.keygen"),
        "doh.keygen_s": own.get("doh.keygen", 0.0),
        "doh.shared_secret_calls": calls("doh.shared_secret"),
        "doh.shared_secret_s": own.get("doh.shared_secret", 0.0),
        "doh.handshakes": calls("doh.handshake"),
        "doh.run_s": self_time_within(sets, "doh.", "netsim.simulator"),
        "ntp.samples": counters.get("ntp.samples", 0.0),
        "ntp.codec_s": own.get("ntp.codec", 0.0),
        "core.generations": calls("core.generate") + calls("core.quorum"),
        "core.combine_s": own.get("core.quorum", 0.0)
                          + own.get("core.combine", 0.0),
        "population.advance_round_calls": calls("population.advance_round"),
        "population.advance_round_s": own.get("population.advance_round", 0.0),
        "util.rng_streams": counts.get("rng.created", 0.0),
        "scenarios.worlds": calls("scenarios.build"),
        "scenarios.materialize_s": own.get("scenarios.materialize", 0.0)
                                   + own.get("scenarios.build", 0.0),
        "chaos.events": counters.get("chaos.events", 0.0),
        "telemetry.snapshot_s": own.get("telemetry.snapshot", 0.0),
        "telemetry.snapshot_bytes": counts.get("telemetry.snapshot.bytes", 0.0),
        "telemetry.fold_s": own.get("telemetry.fold", 0.0),
        "telemetry.trace.spans": trace_spans,
        "telemetry.trace.export_s": own.get("telemetry.trace_export", 0.0),
        "telemetry.trace.export_bytes":
            counts.get("telemetry.trace_export.bytes", 0.0),
        "campaign.trials": calls("campaign.trial"),
        "campaign.trial_s": inclusive("campaign.trial"),
        "campaign.parent_wait_s": own.get("campaign.executor", 0.0),
        "campaign.journal_s": own.get("campaign.journal", 0.0),
        "campaign.results_json_s": own.get("campaign.results_json", 0.0),
        "campaign.shard_imbalance":
            _ratio(max(trial_walls, default=0.0),
                   sum(trial_walls) / len(trial_walls) if trial_walls else 0.0),
    }


def layer_fingerprint(tracer: LayerTracer) -> Dict[str, Any]:
    """Deterministic layer counts: events per profile bucket and calls
    per span name."""
    stats = span_stats(tracer.span_sets())
    return {
        "events": {label: count
                   for label, (count, _) in sorted(tracer.total_profile().items())},
        "calls": {name: stats[name][0] for name in sorted(stats)},
        "rng_streams": tracer.total_counts().get("rng.created", 0.0),
    }
