"""The benchmark's four workloads, driven through ``repro``'s public
entry points only.

Each workload has three phases:

* ``setup(seed)`` — spec construction and world (or grid / sharded
  fleet) construction; the benchmark times it in a cold interpreter;
* ``execute(ready, outdir)`` — from a ready world to results on disk;
  its wall time is ``wall_s``;
* ``check(result, outdir)`` — output checks, returning ``(attempted,
  failed)`` worlds; ``result.problems`` says what failed.

``fingerprint(result)`` lists the deterministic outputs of one
execution; two executions of the same code, workload, size and seed
must agree on it exactly.

This module imports nothing from ``repro`` at import time, so that the
set-up probe can start its clock before the first ``import repro``.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

#: The corrupted providers' addresses in the attack campaign.
FORGED = ("203.0.113.1", "203.0.113.2")

#: Victim-fraction tolerance of the fleet checks: one corrupted
#: provider of three controls at most a third of every pool.
VICTIM_TOLERANCE = 0.05

#: Workload sizes. ``full`` is what the benchmark measures; ``smoke``
#: keeps the same shapes at a size the self-test runs in seconds.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "attack-campaign": {"counts": (3, 5), "corrupted": (0, 1, 2),
                            "trials": 4, "pool": 24},
        "fleet-1k": {"clients": 1000, "rounds": 3},
        "megafleet-sharded": {"clients": 2000, "rounds": 2, "shards": 4},
        "fleet-traced-degraded": {"clients": 500, "rounds": 4},
    },
    "smoke": {
        "attack-campaign": {"counts": (3,), "corrupted": (0, 1),
                            "trials": 2, "pool": 24},
        "fleet-1k": {"clients": 60, "rounds": 2},
        "megafleet-sharded": {"clients": 120, "rounds": 2, "shards": 2},
        "fleet-traced-degraded": {"clients": 40, "rounds": 4},
    },
}


@dataclass
class Result:
    """What one execution produced."""

    run_s: float                  # seconds inside run() / CampaignRunner.run
    rounds: int                   # client rounds completed
    worlds: int                   # worlds run (trials, shards or 1)
    counters: Dict[str, float]    # registry counters summed over labels
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: Worlds whose outputs failed a check (errored trial, wrong share,
    #: missing shard, victim fraction out of range, bad trace).
    failed: int = 0
    problems: List[str] = field(default_factory=list)


def counter_totals(snapshot_json: str) -> Dict[str, float]:
    """Registry counters from a ``snapshot_json`` string, summed over
    their labels."""
    totals: Dict[str, float] = defaultdict(float)
    for key, value in json.loads(snapshot_json).get("counter", {}).items():
        totals[key.partition("{")[0]] += value
    return totals


#: Registry counters every fingerprint carries.
FINGERPRINT_COUNTERS = ("net.datagrams_sent", "net.datagrams_delivered",
                        "transport.exchanges", "transport.attempts",
                        "pop.rounds", "chaos.events")


class Workload:
    """Shared plumbing; subclasses define ``setup`` and ``execute``."""

    name = ""

    def __init__(self, size: Dict[str, Any]) -> None:
        self.size = size

    def check(self, result: Result, outdir: Path) -> Tuple[int, int]:
        """``(attempted, failed)`` worlds of one execution. Checks that
        need the written results run here, outside the timed region."""
        return result.worlds, min(result.failed, result.worlds)

    @staticmethod
    def fingerprint(result: Result) -> Dict[str, Any]:
        """The deterministic part of one execution's outputs."""
        return {
            "rounds": result.rounds,
            "worlds": result.worlds,
            "counters": {name: result.counters.get(name, 0.0)
                         for name in FINGERPRINT_COUNTERS},
            "outputs": result.outputs,
        }


class AttackCampaign(Workload):
    """The paper's experiment as users run it: a ``ParameterGrid``
    over single-client DoH pool generation, run by ``CampaignRunner``
    with a fresh journal and cache per execution."""

    name = "attack-campaign"

    def setup(self, seed: int):
        from repro.campaign import ParameterGrid
        from repro.scenarios.spec import pool_spec, set_path

        base = pool_spec(pool_size=self.size["pool"])
        base = set_path(base, "provider.forged", FORGED)
        base = set_path(base, "telemetry.enabled", True)
        grid = ParameterGrid.over_spec(
            base, {"provider.count": self.size["counts"],
                   "provider.corrupted": self.size["corrupted"]},
            name="perfbench-attack")
        grid.points()
        return grid, seed

    def execute(self, ready, outdir: Path) -> Result:
        from repro.campaign import CampaignRunner
        from repro.campaign.trials import spec_trial

        grid, seed = ready
        runner = CampaignRunner(
            spec_trial, trials_per_point=self.size["trials"], base_seed=seed,
            workers=os.cpu_count() or 1, cache_dir=outdir / "cache",
            journal_dir=outdir / "journal", name="perfbench-attack")
        started = time.perf_counter()
        result = runner.run(grid)
        run_s = time.perf_counter() - started
        result.write_json(outdir / "results.json")

        counters: Dict[str, float] = defaultdict(float)
        shares = {}
        problems = []
        failed = 0
        if result.mode == "cached":
            problems.append("campaign served from cache")
        if not list((outdir / "cache").glob("*.json")):
            problems.append("campaign wrote no cache entry")
        for record in result.records:
            key = f"{record.point_key}/{record.trial}"
            if record.error is not None:
                problems.append(f"{key}: {record.error}")
                failed += 1
                continue
            spec = record.params["spec"]
            expected = spec.provider.corrupted / spec.provider.count
            share = record.metrics["attacker_share"]
            if record.metrics["ok"] != 1.0 or abs(share - expected) > 1e-9:
                problems.append(f"{key}: ok={record.metrics['ok']} "
                                f"share={share} expected {expected}")
                failed += 1
            shares[key] = round(share, 9)
            for name, value in counter_totals(record.telemetry).items():
                counters[name] += value
        expected_trials = len(grid) * self.size["trials"]
        missing = expected_trials - len(result.records)
        if missing:
            problems.append(f"{missing} trial records missing")
            failed += missing
        if problems and not failed:     # a cache replay fails every trial
            failed = expected_trials
        return Result(run_s=run_s, rounds=len(result.records),
                      worlds=expected_trials, counters=dict(counters),
                      outputs={"attacker_share": shares},
                      failed=failed, problems=problems)


class Fleet1k(Workload):
    """A 1000-client UDP population with one corrupted provider, in one
    world: the path every fleet trial multiplies."""

    name = "fleet-1k"

    def setup(self, seed: int):
        from repro.scenarios.spec import materialize, population_spec

        spec = population_spec(num_clients=self.size["clients"],
                               rounds=self.size["rounds"], corrupted=1)
        return materialize(spec, seed)

    def execute(self, world, outdir: Path) -> Result:
        started = time.perf_counter()
        outcomes = world.run()
        run_s = time.perf_counter() - started
        snapshot = world.telemetry.snapshot_json()
        _write_results(outdir, outcomes, {"metrics.json": snapshot})
        victim = outcomes.victim_fraction
        problems = []
        if abs(victim - 1 / 3) > VICTIM_TOLERANCE:
            problems.append(f"victim fraction {victim:.4f} not within "
                            f"{VICTIM_TOLERANCE} of 1/3")
        return Result(run_s=run_s, rounds=outcomes.rounds, worlds=1,
                      counters=counter_totals(snapshot),
                      outputs={"victim_fraction": round(victim, 9)},
                      failed=len(problems), problems=problems)


class MegafleetSharded(Workload):
    """One population split over ``fleet.shards`` worlds and run through
    ``ShardedFleet`` on at most ``nproc`` workers. Its victim fraction
    must match ``fleet-1k``'s at the same seed; the benchmark checks
    that after measuring, so the reference world stays out of the
    memory figures."""

    name = "megafleet-sharded"

    def setup(self, seed: int):
        from repro.scenarios.spec import materialize, population_spec

        spec = population_spec(num_clients=self.size["clients"],
                               rounds=self.size["rounds"], corrupted=1,
                               shards=self.size["shards"])
        return materialize(spec, seed)

    def execute(self, fleet, outdir: Path) -> Result:
        started = time.perf_counter()
        outcomes = fleet.run()
        run_s = time.perf_counter() - started
        snapshot = fleet.telemetry.snapshot_json()
        _write_results(outdir, outcomes, {"metrics.json": snapshot})
        problems = []
        shards = self.size["shards"]
        failed = shards - sum(1 for shard in fleet.shard_snapshots if shard)
        if failed:
            problems.append(f"{failed} shard records missing")
        return Result(run_s=run_s, rounds=outcomes.rounds, worlds=shards,
                      counters=counter_totals(snapshot),
                      outputs={"victim_fraction":
                               round(outcomes.victim_fraction, 9)},
                      failed=failed, problems=problems)


class FleetTracedDegraded(Workload):
    """A population over the iterative hierarchy with a short pool TTL,
    a provider outage, a quorum of two, and the simulated system's own
    tracer installed — the failure path and tracing on the fleet's
    layers."""

    name = "fleet-traced-degraded"

    def setup(self, seed: int):
        from repro.chaos import ChaosSpec, ServerOutage
        from repro.scenarios import hierarchy_population_spec
        from repro.scenarios.spec import materialize, set_path
        from repro.telemetry.trace import Tracer, use_tracer

        spec = hierarchy_population_spec(num_clients=self.size["clients"],
                                         rounds=self.size["rounds"],
                                         pool_ttl=20)
        spec = set_path(spec, "fleet.min_answers", 2)
        spec = set_path(spec, "chaos", ChaosSpec(events=(
            ServerOutage(scope="providers", fraction=0.34, at=10,
                         duration=20),)))
        tracer = Tracer()
        with use_tracer(tracer):
            world = materialize(spec, seed)
        return world, tracer

    def execute(self, ready, outdir: Path) -> Result:
        from repro.telemetry.trace import use_tracer

        world, tracer = ready
        started = time.perf_counter()
        with use_tracer(tracer):
            outcomes = world.run()
        run_s = time.perf_counter() - started
        snapshot = world.telemetry.snapshot_json()
        trace = tracer.snapshot_json()
        _write_results(outdir, outcomes,
                       {"metrics.json": snapshot, "trace.json": trace})
        return Result(run_s=run_s, rounds=outcomes.rounds, worlds=1,
                      counters=counter_totals(snapshot),
                      outputs={"victim_fraction":
                               round(outcomes.victim_fraction, 9),
                               "availability":
                               round(outcomes.availability, 9),
                               "trace_spans": len(tracer)})

    def check(self, result: Result, outdir: Path) -> Tuple[int, int]:
        from repro.telemetry.trace import TRACE_SCHEMA, load_snapshot

        trace = load_snapshot((outdir / "trace.json").read_text())
        if trace.get("schema") != TRACE_SCHEMA or not trace.get("spans"):
            result.problems.append(
                f"trace snapshot is not {TRACE_SCHEMA} with spans")
            result.failed = 1
        return super().check(result, outdir)


def _write_results(outdir: Path, outcomes, extra: Dict[str, str]) -> None:
    for name, text in extra.items():
        (outdir / name).write_text(text)
    summary = {key: value for key, value in vars(outcomes).items()
               if not key.endswith("_curve")}
    (outdir / "results.json").write_text(json.dumps(summary, sort_keys=True))


WORKLOADS = {cls.name: cls for cls in
             (AttackCampaign, Fleet1k, MegafleetSharded, FleetTracedDegraded)}


def make(name: str, size: str = "full"):
    """The workload called ``name`` at the given size profile."""
    return WORKLOADS[name](SIZES[size][name])
