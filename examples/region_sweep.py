#!/usr/bin/env python
"""Per-region fleet vs an on-path attacker, as one declarative sweep.

Three access regions with heterogeneous links, an attacker owning only
the European one: its victim share is its *path coverage* (≈ 1/R),
however many trusted resolvers the clients fan out to.

Run:  python examples/region_sweep.py
"""

from repro.campaign import CampaignRunner, ParameterGrid, spec_trial
from repro.scenarios import (
    AttackSpec, FaultModel, LinkSpec, RegionSpec, population_spec,
)

REGIONS = (
    RegionSpec(name="eu", attach="eu-central", link=LinkSpec(latency=0.002)),
    RegionSpec(name="us", attach="us-east", link=LinkSpec(latency=0.012)),
    RegionSpec(name="asia", attach="asia-east", link=LinkSpec(latency=0.030),
               fault=FaultModel(loss_rate=0.05)),    # a lossy far edge
)
ONPATH = AttackSpec.of("mitm", at="region:eu", mode="poison",
                       forged=("203.0.113.101", "203.0.113.102"))

GRID = ParameterGrid.over_spec(
    population_spec(num_clients=90, rounds=3),       # the base world
    {"network.regions": (REGIONS[:1], REGIONS[:2], REGIONS[:3]),
     "attacks": ((), (ONPATH,))},                    # swept spec paths
    name="region-sweep")


def main() -> None:
    result = CampaignRunner(spec_trial, base_seed=7).run(GRID)
    print("regions  attacker      victim fraction  availability")
    for s in result.summaries:
        attacked = bool(s.params["attacks"])
        print(f"{len(s.params['network.regions']):7d}  "
              f"{'on-path @ eu' if attacked else 'none':12s}  "
              f"{s['victim_fraction'].mean:15.3f}  "
              f"{s['availability'].mean:12.0%}")


if __name__ == "__main__":
    main()
