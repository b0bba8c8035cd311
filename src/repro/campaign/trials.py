"""Reusable trial functions for campaign sweeps.

These are the bridge between the declarative campaign layer and the
simulation stack: one trial compiles the world a grid point describes,
runs one experiment and returns scalar metrics.  :func:`spec_trial` is
the entry point for ``ParameterGrid.over_spec`` grids — every point
carries its own :class:`~repro.scenarios.spec.ScenarioSpec` (provider
corruption, combine policy, faults, fleet, attacks), so it covers the
single-client Algorithm 1 generation and whole populations alike;
:func:`hierarchy_trial` and :func:`chaos_trial` add the H1 and C1
metric surfaces on top.  The remaining param-dict trials run
experiments a spec does not describe: the whole Figure 1 pipeline (E1),
the time-shift attack (E7, whose world and attacks are spec-built; the
trial adds the NTP fleet and one client's clock discipline), the
off-path spray ablation (A1), the closed-form advantage (E4) and the
distribution overhead (E10).

Everything here is module-level and picklable so campaigns can shard
trials across worker processes. The closed-form Monte-Carlo trials live
next to their models in :mod:`repro.analysis.montecarlo` and are
re-exported from :mod:`repro.campaign`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.analysis.advantage import security_bits
from repro.attacks.offpath import OffPathPoisoner, SprayPlan
from repro.core.majority import MajorityVoteCombiner
from repro.dns.client import StubResolver
from repro.dns.message import Question
from repro.dns.rrtype import RRType
from repro.netsim.address import Endpoint, IPAddress
from repro.ntp.chronos import ChronosClient, ChronosConfig
from repro.ntp.client import NtpClient, NtpSample
from repro.ntp.clock import SimClock
from repro.ntp.pool import deploy_ntp_fleet
from repro.scenarios import PoolScenario
from repro.scenarios.spec import (
    AttackSpec,
    ResolverSpec,
    ScenarioSpec,
    apply_paths,
    effective_forged,
    get_path,
    materialize,
    pool_spec,
)

_POOL_SPEC_KEYS = frozenset(inspect.signature(pool_spec).parameters)


def _pool_world(params: Mapping[str, Any], seed: int,
                knobs: frozenset) -> PoolScenario:
    """The single-client world of a param-dict trial: every parameter
    that is not one of the trial's own ``knobs`` is a
    :func:`~repro.scenarios.spec.pool_spec` keyword.

    Anything else fails loudly: a sweep with a typo'd axis name
    (``answers_per_qeury``) would otherwise run every point against
    defaults and present a sweep that never happened.
    """
    kwargs = {name: value for name, value in params.items()
              if name not in knobs}
    unknown = set(kwargs) - _POOL_SPEC_KEYS
    if unknown:
        raise ValueError(
            f"unrecognised trial parameters: {sorted(unknown)} "
            f"(not trial knobs {sorted(knobs)}, not pool_spec keywords)")
    return materialize(pool_spec(**kwargs), seed)


def _spec_and_world(params: Mapping[str, Any], seed: int, trial: str,
                    require: Optional[Callable[[ScenarioSpec], None]] = None,
                    ) -> Tuple[ScenarioSpec, Any]:
    """Decode a spec grid point and compile its world.

    ``params["spec"]`` is the point's fully applied spec (an object or
    its ``to_dict`` form); every other key is a swept dotted path that
    must carry the same value in that spec, so a point whose sweep
    silently failed to land cannot run.  ``require`` checks the trial's
    own preconditions on the decoded spec before anything is built.
    """
    if "spec" not in params:
        raise ValueError(f"{trial} needs params['spec'] "
                         f"(use ParameterGrid.over_spec)")
    spec = params["spec"]
    if isinstance(spec, Mapping):
        spec = ScenarioSpec.from_dict(spec)
    for name, value in params.items():
        if name == "spec":
            continue
        applied = get_path(spec, name)   # raises on a path the spec lacks
        expected = tuple(value) if isinstance(value, list) else value
        if applied != expected:
            raise ValueError(
                f"spec path {name!r} carries {applied!r} but the grid "
                f"point says {expected!r}; was the spec edited after "
                f"expansion?")
    if require is not None:
        require(spec)
    return spec, materialize(spec, seed)


def _share(addresses, forged: set) -> float:
    if not addresses:
        return 0.0
    return sum(1 for a in addresses if a in forged) / len(addresses)


def _pool_generation_metrics(scenario: PoolScenario, pool,
                             forged: set) -> Dict[str, float]:
    """The standard metric set for one Algorithm 1 generation."""
    voted = (MajorityVoteCombiner().combine(pool.contributions)
             if pool.contributions else [])
    v4 = [a for a in pool.addresses if a.family == 4]
    v6 = [a for a in pool.addresses if a.family == 6]
    benign_fraction = (scenario.directory.benign_fraction(pool.addresses)
                       if pool.addresses else 0.0)
    return {
        "ok": 1.0 if pool.ok else 0.0,
        "degraded": 1.0 if pool.degraded else 0.0,
        "elapsed": pool.elapsed,
        "pool_size": float(len(pool.addresses)),
        "truncate_length": float(pool.truncate_length),
        "attacker_share": _share(pool.addresses, forged),
        "v4_share": _share(v4, forged),
        "v6_share": _share(v6, forged),
        "voted_size": float(len(voted)),
        "voted_attacker_share": _share(voted, forged),
        "benign_fraction": benign_fraction,
    }


def _population_metrics(scenario) -> Dict[str, float]:
    """The standard metric set for one driven population world."""
    outcomes = scenario.run()
    registry = scenario.telemetry
    return {
        "victim_fraction": outcomes.victim_fraction,
        "availability": outcomes.availability,
        "shifted_fraction": outcomes.shifted_fraction,
        "sync_fraction": (outcomes.syncs / outcomes.rounds_ok
                          if outcomes.rounds_ok else 0.0),
        "mean_abs_clock_error": outcomes.mean_abs_clock_error,
        "p90_abs_clock_error": outcomes.p90_abs_clock_error,
        "rounds": float(outcomes.rounds),
        "rounds_ok": float(outcomes.rounds_ok),
        "churn_leaves": float(outcomes.churn_leaves),
        "churn_joins": float(outcomes.churn_joins),
        "datagrams": registry.value("net.datagrams_sent"),
        "bytes": registry.value("net.bytes_sent"),
        "stub_timeouts": registry.value("dns.stub.timeouts"),
    }


# ----------------------------------------------------------------------
# Single-client steps shared by the param-dict trials.
# ----------------------------------------------------------------------


def _plain_dns_lookup(world: PoolScenario) -> Tuple[Any, float]:
    """One RD query for the pool domain to the first provider over
    spoofable UDP: ``(outcome or None, virtual seconds taken)``."""
    stub = StubResolver(world.client, world.simulator,
                        world.providers[0].address, timeout=5.0)
    started = world.simulator.now
    outcomes: List = []
    stub.query(world.pool_domain, RRType.A, outcomes.append)
    world.simulator.run()
    return (outcomes[0] if outcomes else None,
            world.simulator.now - started)


def _chronos_sync(world: PoolScenario, ntp_client: NtpClient,
                  pool: List[IPAddress], config: ChronosConfig,
                  stream: str) -> bool:
    """Discipline ``ntp_client``'s clock with one Chronos sync over
    ``pool`` (server picks drawn from the named RNG stream)."""
    chronos = ChronosClient(ntp_client, pool, config=config,
                            rng=world.rng.stream(stream))
    outcomes: List = []
    chronos.sync(outcomes.append)
    world.simulator.run()
    return bool(outcomes) and outcomes[0].ok


def _naive_sync(world: PoolScenario, ntp_client: NtpClient,
                pool: List[IPAddress]) -> bool:
    """Naive SNTP: step the clock by the mean offset of (up to) four
    pool servers."""
    rng = world.rng.stream("naive-pick")
    chosen = pool if len(pool) <= 4 else rng.sample(pool, 4)
    samples: List[NtpSample] = []
    for server in chosen:
        ntp_client.sample(server, samples.append)
    world.simulator.run()
    good = [s.offset for s in samples if s.ok]
    if not good:
        return False
    ntp_client.clock.step(sum(good) / len(good))
    return True


# ----------------------------------------------------------------------
# The generic grid-over-spec trial.
# ----------------------------------------------------------------------


def spec_trial(params: Mapping[str, Any], seed: int):
    """One trial of whatever world ``params["spec"]`` describes.

    The bridge for :meth:`repro.campaign.ParameterGrid.over_spec`
    grids: each point carries its fully applied
    :class:`~repro.scenarios.spec.ScenarioSpec` under the reserved
    ``"spec"`` key (a spec object or its ``to_dict`` form) plus its
    swept dotted paths, which are validated against the spec so a
    point whose sweep silently failed to land cannot run.

    Population specs run the whole fleet.  Metrics are read from the
    world's private telemetry registry after the run, which keeps
    serial and sharded campaign executions bit-identical: each trial
    owns its registry and folds nothing across trials.  They are
    ``victim_fraction`` (of rounds that completed an NTP sync, how many
    synced against an attacker server), ``availability``,
    ``shifted_fraction``, ``sync_fraction``, clock error stats, churn
    counts, and network/transport totals (datagrams, bytes, stub
    timeouts).

    Single-client specs run one Algorithm 1 generation under the spec's
    provider corruption (``provider.corrupted`` / ``behavior`` /
    ``forged`` / ``inflate_to``) and combine policy
    (``pool.truncation`` / ``pool.min_answers`` /
    ``pool.dual_stack_policy``).  Metrics are ``ok`` and ``degraded``
    (availability), ``pool_size``, ``truncate_length``,
    ``attacker_share``, ``v4_share``, ``v6_share``, ``voted_size`` and
    ``voted_attacker_share`` (per-address majority vote over the same
    contributions), plus ``benign_fraction`` scored against the pool
    directory.

    Either way the registry snapshot rides along when the world has
    telemetry (exported by runners configured with
    ``include_telemetry=True``).
    """
    spec, world = _spec_and_world(params, seed, "spec_trial")
    if spec.fleet is not None:
        metrics = _population_metrics(world)
        return metrics, world.telemetry.snapshot_json()

    # Score attacker shares against what the compiler actually serves:
    # the spec's forged set plus the default synthesis for corruption
    # behaviours that need addresses but declared none.
    forged = {IPAddress(a) for a in effective_forged(spec)}
    for attack in spec.attacks:
        forged.update(IPAddress(a) for a in attack.param("forged", ()))
    pool = world.generate_pool_sync()
    metrics = _pool_generation_metrics(world, pool, forged)
    if world.telemetry is not None:
        return metrics, world.telemetry.snapshot_json()
    return metrics


# ----------------------------------------------------------------------
# H1 — exposure windows and hijack over the iterative hierarchy.
# ----------------------------------------------------------------------


def _require_hierarchy_world(spec: ScenarioSpec) -> None:
    if spec.fleet is None:
        raise ValueError("hierarchy_trial needs a population spec "
                         "(add a FleetSpec)")
    if spec.provider.resolver is None \
            or spec.provider.resolver.mode != "iterative":
        raise ValueError("hierarchy_trial needs an iterative ResolverSpec "
                         "(mode='iterative'); use "
                         "repro.scenarios.presets.hierarchy_population_spec")
    if spec.fleet.shards > 1:
        raise ValueError(
            "hierarchy_trial runs one world per trial; shard the campaign, "
            "not the fleet (the cache counters it reads fold bit-identically "
            "across shards — see repro.telemetry.fold_snapshots)")


def hierarchy_trial(params: Mapping[str, Any], seed: int):
    """One measured population over the iterative resolution hierarchy.

    A :func:`spec_trial`-shaped bridge (``params["spec"]`` + validated
    swept paths) specialised for hierarchy worlds: the spec must carry a
    :class:`~repro.scenarios.spec.FleetSpec` and an iterative
    :class:`~repro.scenarios.spec.ResolverSpec`, so the providers'
    recursors walk real root→TLD→authoritative referral chains with TTL
    caching.  On top of :func:`spec_trial`'s population metric set it
    reports the poisoning-exposure surface ``bench_h1`` sweeps:

    ``exposure_windows`` / ``exposure_open_s`` / ``windows_per_hour``
        cache-miss resolution windows (count, total open seconds, rate
        per virtual hour) summed over every provider — the intervals an
        off-path forgery can race.
    ``referrals_followed``, ``cache_hits`` / ``cache_misses``
        referral and cache traffic (cache counters read from the
        telemetry registry, so they equal the fold of any sharded
        execution of the same world).
    ``poisoned_acceptances``, ``spoofs_rejected``, ``hijacked``
        the race outcome: forged responses accepted/rejected by the
        victim's resolver, and whether any acceptance occurred.
    ``spray_bursts`` / ``spray_packets``
        attacker cost, from the installed off-path sprayers.
    """
    _, world = _spec_and_world(params, seed, "hierarchy_trial",
                               _require_hierarchy_world)
    metrics = _population_metrics(world)

    snapshot = world.telemetry.snapshot()

    def _summed(name: str) -> float:
        counters = snapshot.get("counter", {})
        return float(sum(state for key, state in counters.items()
                         if key == name or key.startswith(name + "{")))

    stats = [deployment.resolver.stats
             for deployment in world.pool.providers]
    hours = world.pool.simulator.now / 3600.0
    windows = sum(s.exposure_windows for s in stats)
    poisoned = sum(s.poisoned_acceptances for s in stats)
    metrics.update({
        "exposure_windows": float(windows),
        "exposure_open_s": sum(s.exposure_open_s for s in stats),
        "windows_per_hour": windows / hours if hours > 0 else 0.0,
        "referrals_followed": float(sum(s.referrals_followed
                                        for s in stats)),
        "cache_hits": _summed("dns.cache.hits"),
        "cache_misses": _summed("dns.cache.misses"),
        "poisoned_acceptances": float(poisoned),
        "spoofs_rejected": float(sum(s.spoofs_rejected for s in stats)),
        "hijacked": 1.0 if poisoned else 0.0,
        "spray_bursts": float(sum(
            attack.bursts for _, attack in world.attacks
            if hasattr(attack, "bursts"))),
        "spray_packets": float(sum(
            attack.packets_injected for _, attack in world.attacks
            if hasattr(attack, "packets_injected"))),
    })
    return metrics, world.telemetry.snapshot_json()


# ----------------------------------------------------------------------
# C1 — chaos timelines and graceful degradation.
# ----------------------------------------------------------------------

#: An availability bin at or above this mean counts as "recovered" when
#: chaos_trial measures time-to-recovery after a failure window.
RECOVERY_THRESHOLD = 0.99


def _require_chaos_world(spec: ScenarioSpec) -> None:
    if spec.fleet is None:
        raise ValueError("chaos_trial needs a population spec "
                         "(add a FleetSpec)")
    if spec.chaos is None or not spec.chaos.events:
        raise ValueError("chaos_trial needs spec.chaos with at least one "
                         "event (attach a repro.chaos.ChaosSpec)")
    if spec.fleet.shards > 1:
        raise ValueError(
            "chaos_trial runs one world per trial; shard the campaign, "
            "not the fleet (infrastructure chaos replays identically in "
            "every shard, so pop.* metrics fold bit-identically anyway)")


def chaos_trial(params: Mapping[str, Any], seed: int):
    """One measured population under a declared chaos timeline.

    A :func:`spec_trial`-shaped bridge (``params["spec"]`` + validated
    swept paths) specialised for chaos worlds: the spec must carry a
    :class:`~repro.scenarios.spec.FleetSpec` and a
    :class:`~repro.chaos.ChaosSpec` with at least one event, so sweeps
    like ``chaos.events[0].fraction`` or ``chaos.events[0].duration``
    land on real failure windows.  On top of :func:`spec_trial`'s
    population metric set it reports the graceful-degradation surface ``bench_c1`` sweeps:

    ``availability``
        the whole-run sync SLO (from the base metric set) — quorum
        policies (``fleet.min_answers``) should hold it above the
        strict all-providers policy at every outage point.
    ``mttr``
        mean time-to-recovery over the windowed chaos events: per
        event, the delay from its ``at`` until the first
        ``pop.availability`` bin ending after the window whose mean is
        at least :data:`RECOVERY_THRESHOLD` (the run horizon when the
        population never recovers).
    ``availability_floor`` / ``degraded_victim_fraction``
        the worst availability bin and the mean victim fraction inside
        the degraded windows — how far the population sagged while the
        failure was live.
    ``chaos_events``
        how many events the controller actually applied.
    """
    spec, world = _spec_and_world(params, seed, "chaos_trial",
                                  _require_chaos_world)
    metrics = _population_metrics(world)
    registry = world.telemetry
    horizon = world.simulator.now
    bin_width = spec.telemetry.time_bin
    avail = registry.get("pop.availability")
    avail_series = avail.series() if avail is not None else []
    victim = registry.get("pop.victim_fraction")
    victim_series = victim.series() if victim is not None else []

    windows = [(event.at, event.at + event.duration)
               for event in spec.chaos.events
               if getattr(event, "duration", 0.0) > 0.0]

    def _degraded(t: float) -> bool:
        return any(at < t + bin_width and t < end for at, end in windows)

    ttrs = []
    for at, end in windows:
        recovered = next(
            (t for t, mean in avail_series
             if t + bin_width > end and mean >= RECOVERY_THRESHOLD), None)
        ttrs.append(max(0.0, (horizon if recovered is None else recovered)
                        - at))
    floor = [mean for t, mean in avail_series if _degraded(t)]
    degraded_victims = [mean for t, mean in victim_series if _degraded(t)]
    metrics.update({
        "chaos_events": float(len(world.chaos.windows))
        if world.chaos is not None else 0.0,
        "mttr": sum(ttrs) / len(ttrs) if ttrs else 0.0,
        "availability_floor": min(floor) if floor
        else metrics["availability"],
        "degraded_victim_fraction": (sum(degraded_victims)
                                     / len(degraded_victims)
                                     if degraded_victims else 0.0),
    })
    return metrics, registry.snapshot_json()


# ----------------------------------------------------------------------
# E1 — the whole Figure 1 pipeline, DNS→DoH→pool→Chronos.
# ----------------------------------------------------------------------

_FIGURE1_KEYS = frozenset({"clock_offset", "sample_size",
                           "agreement_window", "min_responses"})


def figure1_system_trial(params: Mapping[str, Any],
                         seed: int) -> Dict[str, float]:
    """One end-to-end system run: generate a pool through the
    distributed DoH resolvers, then discipline a skewed clock with
    Chronos over the generated pool.

    Recognised parameters: :func:`~repro.scenarios.spec.pool_spec`
    keywords, plus ``clock_offset`` (initial clock error, default
    80 ms) and the Chronos knobs ``sample_size`` /
    ``agreement_window`` / ``min_responses``.

    Returned metrics: ``pool_size``, ``truncate_length``, ``elapsed``
    (pool generation, virtual seconds), ``benign_fraction``,
    ``chronos_ok``, ``clock_error`` and ``clock_error_before``
    (seconds), plus per-resolver ``answers[<name>]`` and
    ``latency[<name>]`` so tables can reproduce Figure 1's per-resolver
    rows.
    """
    scenario = _pool_world(params, seed, _FIGURE1_KEYS)
    deploy_ntp_fleet(scenario.internet, scenario.directory, scenario.rng)
    pool = scenario.generate_pool_sync()
    offset = float(params.get("clock_offset", 0.080))
    clock = SimClock(lambda: scenario.simulator.now, offset=offset)
    ntp_client = NtpClient(scenario.client, scenario.simulator, clock)
    synced = _chronos_sync(
        scenario, ntp_client, pool.addresses,
        ChronosConfig(
            sample_size=int(params.get("sample_size", 9)),
            agreement_window=float(params.get("agreement_window", 0.060)),
            min_responses=int(params.get("min_responses", 5))),
        "bench-chronos")
    metrics = {
        "pool_size": float(len(pool.addresses)),
        "truncate_length": float(pool.truncate_length),
        "elapsed": pool.elapsed,
        "benign_fraction": scenario.directory.benign_fraction(pool.addresses),
        "chronos_ok": 1.0 if synced else 0.0,
        "clock_error": clock.error(),
        "clock_error_before": offset,
    }
    for answer in pool.answers:
        name = answer.resolver.name
        metrics[f"answers[{name}]"] = float(len(answer.addresses))
        metrics[f"latency[{name}]"] = answer.outcome.latency or 0.0
    return metrics


# ----------------------------------------------------------------------
# E7 — the end-to-end time-shift attack, one configuration per point.
# ----------------------------------------------------------------------

TIMESHIFT_CONFIGURATIONS = {
    "plain-dns+naive-sntp": (False, False),
    "plain-dns+chronos": (False, True),
    "distributed-doh+naive-sntp": (True, False),
    "distributed-doh+chronos": (True, True),
}

#: The time-shift attacker's lying NTP servers.  The on-path rewrite
#: answers with all twelve; each corrupted provider substitutes the
#: first four.
TIMESHIFT_ATTACKER = tuple(f"203.0.113.{i + 1}" for i in range(12))

_TIMESHIFT_KEYS = frozenset({"configuration", "lie_offset", "num_providers",
                             "corrupted_providers", "pool_size"})


def timeshift_trial(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """One E7 configuration in a fresh world (trial index = world seed).

    One attacker with the paper's "realistic" capabilities attacks a
    client that needs correct time: it sits on the client's access link
    (a ``mitm`` attack rewriting plaintext pool answers to
    :data:`TIMESHIFT_ATTACKER`) and controls ``corrupted_providers`` of
    the ``num_providers`` DoH resolvers, and its NTP servers lie by
    ``lie_offset`` seconds.  ``configuration`` must be one of
    :data:`TIMESHIFT_CONFIGURATIONS`: the pool comes from one plain-DNS
    query or from Algorithm 1 over DoH, and the clock is disciplined by
    naive SNTP averaging or by Chronos.  Expected shape (§I, §V): both
    plain-DNS rows shift by the full lie, DoH+naive partially, and
    DoH+Chronos holds.

    Returned metrics: ``clock_error``, ``abs_clock_error``,
    ``pool_malicious_fraction``, ``shifted`` (error beyond 10% of the
    lie), ``synced`` and ``pool_size``.
    """
    unknown = set(params) - _TIMESHIFT_KEYS
    if unknown:
        raise ValueError(f"unrecognised trial parameters: {sorted(unknown)}; "
                         f"known: {sorted(_TIMESHIFT_KEYS)}")
    configuration = params["configuration"]
    try:
        use_doh, use_chronos = TIMESHIFT_CONFIGURATIONS[configuration]
    except KeyError:
        raise ValueError(
            f"unknown configuration {configuration!r}; known: "
            f"{sorted(TIMESHIFT_CONFIGURATIONS)}") from None
    lie = float(params.get("lie_offset", 10.0))
    spec = apply_paths(
        pool_spec(num_providers=int(params.get("num_providers", 3)),
                  pool_size=int(params.get("pool_size", 20))),
        {"provider.corrupted": int(params.get("corrupted_providers", 1)),
         "provider.forged": TIMESHIFT_ATTACKER[:4],
         "attacks": (AttackSpec.of("mitm", mode="poison",
                                   forged=TIMESHIFT_ATTACKER,
                                   inflate_to=12),)})
    world = materialize(spec, seed)
    deploy_ntp_fleet(world.internet, world.directory, world.rng,
                     malicious_lie_offset=lie,
                     extra_addresses=TIMESHIFT_ATTACKER)
    clock = SimClock(lambda: world.simulator.now, offset=0.0)
    ntp_client = NtpClient(world.client, world.simulator, clock, timeout=1.0)

    if use_doh:
        pool = world.generate_pool_sync().addresses
    else:
        outcome, _ = _plain_dns_lookup(world)
        pool = outcome.addresses if outcome is not None and outcome.ok else []
    synced = False
    if pool and use_chronos:
        synced = _chronos_sync(
            world, ntp_client, pool,
            ChronosConfig(sample_size=9, agreement_window=0.060,
                          panic_threshold=0.200, max_retries=2,
                          min_responses=5),
            "chronos")
    elif pool:
        synced = _naive_sync(world, ntp_client, pool)
    error = clock.error()
    return {
        "clock_error": error,
        "abs_clock_error": abs(error),
        "pool_malicious_fraction": _share(
            pool, {IPAddress(a) for a in TIMESHIFT_ATTACKER}),
        "shifted": 1.0 if abs(error) > 0.1 * abs(lie) else 0.0,
        "synced": 1.0 if synced else 0.0,
        "pool_size": float(len(pool)),
    }


# ----------------------------------------------------------------------
# A1 — off-path poisoning rate vs covered (TXID × port) entropy.
# ----------------------------------------------------------------------

_OFFPATH_KEYS = frozenset({"covered_bits", "txid_bits", "port_guesses",
                           "forged"})


def offpath_spray_trial(params: Mapping[str, Any],
                        seed: int) -> Dict[str, float]:
    """One off-path poisoning race against a deliberately weak resolver
    (``txid_bits``-bit transaction IDs, sequential ephemeral ports).

    The attacker sprays ``2**covered_bits`` transaction IDs across
    ``port_guesses`` predicted ports while the resolver recurses for
    the pool domain. Returns ``poisoned`` (1.0 when any forgery was
    accepted) and ``packets`` (spray cost).
    """
    unknown = set(params) - _OFFPATH_KEYS
    if unknown:
        raise ValueError(f"unrecognised trial parameters: {sorted(unknown)}; "
                         f"known: {sorted(_OFFPATH_KEYS)}")
    txid_bits = int(params.get("txid_bits", 8))
    covered_bits = int(params["covered_bits"])
    scenario = materialize(pool_spec(
        num_providers=1,
        resolver_config=ResolverSpec(txid_bits=txid_bits,
                                     randomize_txid=True)), seed)
    victim = scenario.providers[0]
    victim.host.randomize_ports = False
    poisoner = OffPathPoisoner(scenario.internet,
                               injection_node=victim.host.node)
    outcomes: List = []
    victim.resolver.resolve(scenario.pool_domain, RRType.A, outcomes.append)
    plan = SprayPlan(
        question=Question(scenario.pool_domain, RRType.A),
        spoofed_server=Endpoint(IPAddress("10.0.0.1"), 53),
        target_ports=poisoner.sequential_port_guesses(
            int(params.get("port_guesses", 2))),
        txid_guesses=poisoner.txid_space(covered_bits),
        forged_addresses=[IPAddress(a) for a in
                          params.get("forged", ("203.0.113.200",))],
    )
    poisoner.spray(victim.address, plan)
    scenario.simulator.run()
    return {
        "poisoned": 1.0 if victim.resolver.stats.poisoned_acceptances else 0.0,
        "packets": float(plan.packet_count),
    }


# ----------------------------------------------------------------------
# E4 — closed-form security bits (campaign-shaped for table uniformity).
# ----------------------------------------------------------------------


def advantage_bits_trial(params: Mapping[str, Any],
                         seed: int) -> Dict[str, float]:
    """Security bits ``-log2 P[attack]`` for one ``(n, x, p_attack)``
    point. Deterministic closed form — one trial per point suffices."""
    return {"bits": security_bits(int(params["n"]),
                                  float(params.get("x", 0.5)),
                                  float(params["p_attack"]))}


# ----------------------------------------------------------------------
# E10 — the cost of distribution vs the plain-DNS baseline.
# ----------------------------------------------------------------------

_OVERHEAD_KEYS = frozenset({"mechanism"})


def overhead_trial(params: Mapping[str, Any], seed: int) -> Dict[str, float]:
    """Measure one pool acquisition's latency/bytes/packets.

    ``mechanism`` selects ``"plain-dns"`` (one stub query to the first
    provider over spoofable UDP) or ``"distributed-doh"`` (Algorithm 1
    across all providers); every other parameter is a
    :func:`~repro.scenarios.spec.pool_spec` keyword.
    """
    mechanism = params["mechanism"]
    if mechanism not in ("plain-dns", "distributed-doh"):
        raise ValueError(f"unknown mechanism {mechanism!r}")
    scenario = _pool_world(params, seed, _OVERHEAD_KEYS)
    bytes_before = scenario.internet.bytes_sent
    packets_before = scenario.internet.datagrams_sent
    if mechanism == "plain-dns":
        outcome, latency = _plain_dns_lookup(scenario)
        pool_size = len(outcome.addresses) if outcome is not None else 0
    else:
        pool = scenario.generate_pool_sync()
        latency = pool.elapsed
        pool_size = len(pool.addresses)
    return {
        "latency": latency,
        "bytes": float(scenario.internet.bytes_sent - bytes_before),
        "packets": float(scenario.internet.datagrams_sent - packets_before),
        "pool_size": float(pool_size),
    }
