"""P2 — per-region fleets with heterogeneous access links under an
on-path attacker.

The workload the spec redesign makes expressible: one population spread
over dedicated access regions — a fast metro edge in Europe, a slower
mid-tier edge in the US, a lossy far edge in Asia — with an on-path
attacker owning exactly *one* region's access link and poisoning the
plain-DNS pool answers that cross it.  The campaign sweeps region count
× attacker presence as dotted spec paths (``network.regions`` and
``attacks``), so the victim curve shows the paper's corruption bound
becoming a *coverage* bound: an attacker on one of R access paths
captures ≈ 1/R of the population, regardless of how many trusted
resolvers the clients fan out to.

Also exercised here (telemetry next-steps): the per-link drop
``TimeSeries`` — only the lossy Asian access link produces one — and
the registry snapshot exported into the campaign JSON via
``include_telemetry``.
"""

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios.spec import (
    AttackSpec,
    FaultModel,
    LinkSpec,
    RegionSpec,
    population_spec,
    set_path,
)

from benchmarks.conftest import CACHE_DIR, run_once

REGIONS = (
    RegionSpec(name="eu", attach="eu-central",
               link=LinkSpec(latency=0.002, jitter=0.0005)),
    RegionSpec(name="us", attach="us-east",
               link=LinkSpec(latency=0.012, jitter=0.003)),
    RegionSpec(name="asia", attach="asia-east",
               link=LinkSpec(latency=0.030, jitter=0.008),
               fault=FaultModel(loss_rate=0.05)),
)
ASIA_LINK = REGIONS[2].link_name

# The on-path attacker: owns the European access link only, rewrites
# every plain-DNS pool answer crossing it to its own four servers
# (which the compiler deploys as lying NTP servers).
FORGED = tuple(f"203.0.113.{101 + i}" for i in range(4))
ONPATH = (AttackSpec.of("mitm", at="region:eu", mode="poison",
                        forged=FORGED),)

BASE_SPEC = set_path(population_spec(num_clients=90, rounds=3),
                     "network.regions", REGIONS)

GRID = ParameterGrid.over_spec(
    BASE_SPEC,
    {"network.regions": (REGIONS[:1], REGIONS[:2], REGIONS[:3]),
     "attacks": ((), ONPATH)},
    name="p2_regions",
)
RUNNER = CampaignRunner(spec_trial, trials_per_point=1, base_seed=2000,
                        include_telemetry=True, cache_dir=CACHE_DIR)

SMOKE_GRID = ParameterGrid.over_spec(
    population_spec(num_clients=60, rounds=2),
    {"attacks": ((), ONPATH)},
    fixed={"network.regions": REGIONS},
    name="p2_regions_smoke",
)
SMOKE_RUNNER = CampaignRunner(spec_trial, base_seed=2000,
                              include_telemetry=True, cache_dir=CACHE_DIR)


def bench_p2_regions(benchmark, emit_table, smoke, results_dir):
    grid, runner = (SMOKE_GRID, SMOKE_RUNNER) if smoke else (GRID, RUNNER)
    result = run_once(benchmark, lambda: runner.run(grid))
    result.write_json(results_dir / "p2_regions.json")

    rows = []
    for summary in result.summaries:
        regions = summary.params["spec"].network.regions
        attacked = bool(summary.params["attacks"])
        rows.append([
            len(regions),
            "/".join(r.name for r in regions),
            "on-path @ eu" if attacked else "none",
            f"{summary['victim_fraction'].mean:.3f}",
            f"{summary['availability'].mean:.0%}",
            f"{summary['mean_abs_clock_error'].mean * 1000:.1f} ms",
            int(summary["datagrams"].mean),
        ])
    emit_table(
        "p2_regions",
        "P2: victim fraction of a per-region fleet vs an on-path "
        "attacker covering one access link",
        ["regions", "names", "attacker", "victim fraction",
         "availability", "mean |clock err|", "datagrams"],
        rows,
        notes="Clients spread round-robin over dedicated access regions "
              "with heterogeneous links (eu fast, us slower, asia lossy). "
              "The attacker rewrites pool answers on the eu access link "
              "only: its victim share is the fraction of clients behind "
              "that link (≈ 1/R), independent of the resolver count — "
              "path coverage, not resolver corruption, is the bound. "
              "Only the lossy asia link emits a per-link drop series.")

    def victim(regions, attacked) -> float:
        return result.metric("victim_fraction", **{
            "network.regions": regions,
            "attacks": ONPATH if attacked else ()}).mean

    region_sets = ([REGIONS] if smoke
                   else [REGIONS[:1], REGIONS[:2], REGIONS[:3]])
    # No attacker, no victims — in every layout.
    for regions in region_sets:
        assert victim(regions, attacked=False) == 0.0
    if smoke:
        fractions = [victim(REGIONS, attacked=True)]
    else:
        fractions = [victim(regions, attacked=True)
                     for regions in region_sets]
        # Fleet-covering attacker: every client behind the owned link.
        assert fractions[0] == 1.0
        # More regions dilute the attacker's coverage monotonically...
        assert fractions == sorted(fractions, reverse=True), fractions
        # ...and fault-free layouts lose no rounds.
        assert result.metric("availability", **{
            "network.regions": REGIONS[:2], "attacks": ()}).mean == 1.0
    # The attacker owns 1 of R access paths -> ≈ 1/R of the syncs.
    count = len(region_sets[-1])
    assert abs(fractions[-1] - 1.0 / count) < 0.08, fractions

    # Per-link drop telemetry: exactly the lossy asia access link
    # produces a net.link_drops series (lazily, so fault-free links
    # leave the snapshot untouched).
    for summary in result.summaries:
        snapshot = summary.telemetry[0]
        drop_keys = [key for key in snapshot.get("timeseries", {})
                     if key.startswith("net.link_drops")]
        if any(r.name == "asia" for r in summary.params["spec"].network.regions):
            assert f"net.link_drops{{link={ASIA_LINK}}}" in drop_keys, (
                summary.point_key, drop_keys)
        else:
            assert not drop_keys, (summary.point_key, drop_keys)

    # Serial == parallel, bit-identical — spec sweeps shard like any
    # other campaign (specs pickle across worker processes).
    check_grid = ParameterGrid.over_spec(
        set_path(population_spec(num_clients=45, rounds=2),
                 "network.regions", REGIONS),
        {"attacks": ((), ONPATH)},
        name="p2_serial_parallel",
    )
    serial = CampaignRunner(spec_trial, base_seed=88,
                            workers=0).run(check_grid)
    parallel = CampaignRunner(spec_trial, base_seed=88,
                              workers=4).run(check_grid)
    assert ([record.metrics for record in serial.records]
            == [record.metrics for record in parallel.records]), (
        "p2 campaign records differ between serial and parallel")
