"""E10 — §IV/§V 'easy to integrate': the cost of distribution.

Claim reproduced: the proposal's overhead is operational, not
architectural — queries fan out in parallel, so latency is governed by
the *slowest* resolver (not the sum), while bytes on the wire grow
linearly with N. We sweep N and report virtual latency, wire bytes and
upstream queries against the single-resolver plain-DNS baseline.

Declared as a campaign over an explicit point list (the baseline plus
one point per N); the shared :func:`repro.campaign.overhead_trial`
measures one acquisition per point.
"""

from repro.campaign import CampaignRunner, ParameterGrid, overhead_trial

from repro.scenarios import materialize, pool_spec

from benchmarks.conftest import CACHE_DIR, run_once

N_SWEEP = [1, 3, 5, 9, 15]

POINTS = ([{"mechanism": "plain-dns", "num_providers": 1}]
          + [{"mechanism": "distributed-doh", "num_providers": n}
             for n in N_SWEEP])

GRID = ParameterGrid.from_points(
    POINTS,
    fixed={"pool_size": 40, "answers_per_query": 4},
    name="e10_overhead",
)

RUNNER = CampaignRunner(overhead_trial, base_seed=701, cache_dir=CACHE_DIR)

SMOKE_GRID = ParameterGrid.from_points(
    POINTS[:3],
    fixed={"pool_size": 40, "answers_per_query": 4},
    name="e10_overhead_smoke",
)


def bench_e10_overhead(benchmark, emit_table, smoke, results_dir):
    grid = SMOKE_GRID if smoke else GRID
    result = run_once(benchmark, lambda: RUNNER.run(grid))
    result.write_json(results_dir / "e10_overhead.json")

    rows = []
    for summary in result.summaries:
        mechanism = summary.params["mechanism"]
        label = ("plain DNS (baseline)" if mechanism == "plain-dns"
                 else "distributed DoH")
        rows.append([
            label,
            summary.params["num_providers"],
            f"{summary['latency'].mean * 1000:.1f} ms",
            round(summary["bytes"].mean),
            round(summary["packets"].mean),
            round(summary["pool_size"].mean),
        ])
    emit_table(
        "e10_overhead",
        "E10 / §IV-V: overhead of distribution (virtual time, cold caches)",
        ["mechanism", "N", "latency", "wire bytes", "packets",
         "pool size"],
        rows,
        notes="Latency tracks the slowest provider (parallel fan-out + "
              "TLS handshake + recursion), not N; bytes/packets grow "
              "~linearly in N — the integration cost the paper calls "
              "acceptable.")

    if not smoke:
        def doh(metric, n):
            return result.metric(metric, mechanism="distributed-doh",
                                 num_providers=n).mean

        # Parallel fan-out: going 3 -> 15 resolvers must cost far less
        # than 5x the latency (it is bounded by the slowest, plus
        # scheduling).
        assert doh("latency", 15) < 3 * doh("latency", 3)
        assert doh("packets", 15) > doh("packets", 3)


def bench_e10_generation_wallclock(benchmark):
    """Real (host) wall-clock of a full N=3 generation, for regression
    tracking of the simulator itself."""
    def one_generation():
        scenario = materialize(pool_spec(num_providers=3, pool_size=40),
                               711)
        return scenario.generate_pool_sync()

    pool = benchmark(one_generation)
    assert pool.ok
