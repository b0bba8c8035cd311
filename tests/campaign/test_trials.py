"""Tests for the stock trial functions against the real simulation."""

import json
from dataclasses import replace

import pytest

from repro.analysis.model import attack_probability_exact
from repro.analysis.montecarlo import MonteCarloResult
from repro.campaign import (
    CampaignRunner,
    ParameterGrid,
    attack_probability_trial,
    chaos_trial,
    figure1_system_trial,
    hierarchy_trial,
    overhead_trial,
    spec_trial,
)
from repro.campaign.trials import _pool_world
from repro.chaos import ChaosSpec, ServerOutage
from repro.scenarios import materialize
from repro.scenarios.presets import get_spec_preset, hierarchy_population_spec
from repro.scenarios.spec import apply_paths, pool_spec, population_spec

FORGED = ("203.0.113.1", "203.0.113.2", "203.0.113.3", "203.0.113.4")


def pool_trial(paths, seed=7, **kwargs):
    """One single-client spec_trial: ``pool_spec(**kwargs)`` with the
    dotted-path ``paths`` applied."""
    spec = apply_paths(pool_spec(**kwargs), paths)
    return spec_trial({"spec": spec}, seed)


class TestBuildScenario:
    """The world a param-dict trial builds: its own knobs stay with the
    trial, everything else is a pool_spec keyword."""

    def test_custom_preset_passes_knobs(self):
        scenario = _pool_world({"num_providers": 5, "pool_size": 8}, 2,
                               frozenset())
        assert len(scenario.providers) == 5
        assert scenario.seed == 2

    def test_named_preset(self):
        scenario = materialize(get_spec_preset("figure1")(), 3)
        assert len(scenario.providers) == 3

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            _pool_world({"preset": "figure1"}, 1, frozenset())

    def test_unrelated_params_ignored(self):
        scenario = _pool_world({"clock_offset": 0.1, "pool_size": 8}, 1,
                               frozenset({"clock_offset"}))
        assert scenario.directory.members  # built despite trial knobs


class TestPoolAttackTrial:
    """The single-client Algorithm 1 generation under provider
    corruption, run by spec_trial over pool_spec worlds."""

    def test_honest_world_metrics(self):
        metrics = pool_trial({}, num_providers=3, pool_size=8)
        assert metrics["attacker_share"] == 0.0
        assert metrics["pool_size"] == 12.0  # 3 resolvers × 4 answers
        assert metrics["benign_fraction"] == 1.0

    def test_substitution_share_is_exact(self):
        metrics = pool_trial(
            {"provider.corrupted": 1, "provider.forged": FORGED},
            num_providers=3, pool_size=8)
        assert metrics["attacker_share"] == pytest.approx(1 / 3)
        assert metrics["voted_attacker_share"] == 0.0

    def test_dual_stack_per_family_shares(self):
        metrics = pool_trial(
            {"provider.corrupted": 1,
             "provider.forged": ("2001:db8:bad::1", "2001:db8:bad::2",
                                 "2001:db8:bad::3"),
             "pool.dual_stack_policy": "per-family"},
            num_providers=3, pool_size=12, answers_per_query=3,
            dual_stack=True)
        assert metrics["v4_share"] == 0.0
        assert metrics["v6_share"] == pytest.approx(1 / 3)

    def test_typoed_parameter_rejected(self):
        """A sweep axis nothing consumes must fail loudly, not run the
        whole grid against defaults."""
        with pytest.raises(ValueError, match="answers_per_qeury"):
            ParameterGrid.over_spec(pool_spec(),
                                    {"pool.answers_per_qeury": (2,)})
        with pytest.raises(ValueError, match="answers_per_qeury"):
            spec_trial({"spec": pool_spec(),
                        "pool.answers_per_qeury": 2}, 7)

    def test_inflate_behavior_reaches_full_control(self):
        """All resolvers corrupted with inflate: the truncated pool is
        entirely attacker addresses (the [1] over-population ceiling)."""
        many = tuple(f"203.0.113.{i + 1}" for i in range(12))
        metrics = pool_trial(
            {"provider.corrupted": 3, "provider.behavior": "inflate",
             "provider.forged": many, "provider.inflate_to": 2},
            num_providers=3, pool_size=8)
        assert metrics["attacker_share"] == 1.0
        assert metrics["pool_size"] == 6.0  # 3 resolvers × inflate_to=2

    def test_policy_accepts_string_values(self):
        metrics = pool_trial(
            {"pool.dual_stack_policy": "union",
             "pool.truncation": "shortest"},
            num_providers=3, pool_size=8, dual_stack=True)
        assert metrics["pool_size"] > 0

    def test_serial_and_parallel_scenario_sweeps_agree(self):
        """The acceptance-criterion path: a real end-to-end netsim sweep
        aggregated identically in serial and multiprocessing modes."""
        base = apply_paths(pool_spec(num_providers=3, pool_size=8),
                           {"provider.forged": FORGED})
        grid = ParameterGrid.over_spec(
            base, {"provider.corrupted": (0, 1)}, name="sweep-equality")
        serial = CampaignRunner(spec_trial, base_seed=21,
                                workers=0).run(grid)
        parallel = CampaignRunner(spec_trial, base_seed=21,
                                  workers=2, executor="processes").run(grid)
        assert serial.records == parallel.records
        # Everything except the mode tag is bit-identical.
        assert (json.dumps(serial.to_json()["results"], sort_keys=True)
                == json.dumps(parallel.to_json()["results"], sort_keys=True))
        assert parallel.mode == "processes:2"


# ----------------------------------------------------------------------
# The decode-and-validate step every spec-native trial shares.
# ----------------------------------------------------------------------

_OUTAGE = ChaosSpec(events=(ServerOutage(fraction=0.34, at=5.0,
                                         duration=10.0),))


def _runnable_spec(trial):
    """A small spec that satisfies ``trial``'s preconditions."""
    if trial is spec_trial:
        return pool_spec(pool_size=8)
    if trial is hierarchy_trial:
        return hierarchy_population_spec(num_clients=4, rounds=1)
    return replace(population_spec(num_clients=4, rounds=1), chaos=_OUTAGE)


SPEC_TRIALS = pytest.mark.parametrize(
    "trial", [spec_trial, hierarchy_trial, chaos_trial],
    ids=["spec_trial", "hierarchy_trial", "chaos_trial"])


class TestSpecTrialValidation:
    @SPEC_TRIALS
    def test_missing_spec_rejected(self, trial):
        with pytest.raises(ValueError, match=rf"{trial.__name__} needs "
                                             rf"params\['spec'\]"):
            trial({"fleet.size": 4}, 1)

    @SPEC_TRIALS
    def test_dict_form_spec_runs_like_the_object(self, trial):
        spec = _runnable_spec(trial)
        assert trial({"spec": spec.to_dict()}, 3) == trial({"spec": spec}, 3)

    @SPEC_TRIALS
    def test_swept_path_that_disagrees_with_spec_rejected(self, trial):
        spec = _runnable_spec(trial)
        with pytest.raises(ValueError, match="pool.size"):
            trial({"spec": spec, "pool.size": spec.pool.size + 1}, 1)

    @SPEC_TRIALS
    def test_path_the_spec_lacks_rejected(self, trial):
        with pytest.raises(ValueError, match="sizes"):
            trial({"spec": _runnable_spec(trial), "pool.sizes": 3}, 1)

    @pytest.mark.parametrize("trial", [hierarchy_trial, chaos_trial],
                             ids=["hierarchy_trial", "chaos_trial"])
    def test_single_client_spec_rejected(self, trial):
        with pytest.raises(ValueError, match="needs a population spec"):
            trial({"spec": pool_spec()}, 1)

    def test_hierarchy_needs_iterative_resolver(self):
        with pytest.raises(ValueError, match="iterative"):
            hierarchy_trial({"spec": population_spec(num_clients=4)}, 1)

    def test_chaos_needs_an_event(self):
        for chaos in (None, ChaosSpec()):
            spec = replace(population_spec(num_clients=4), chaos=chaos)
            with pytest.raises(ValueError, match="at least one event"):
                chaos_trial({"spec": spec}, 1)

    @pytest.mark.parametrize("trial", [hierarchy_trial, chaos_trial],
                             ids=["hierarchy_trial", "chaos_trial"])
    def test_sharded_fleet_rejected(self, trial):
        spec = apply_paths(_runnable_spec(trial), {"fleet.shards": 2})
        with pytest.raises(ValueError, match="one world per trial"):
            trial({"spec": spec}, 1)


class TestParamDictTrials:
    """figure1_system_trial and overhead_trial build pool_spec worlds
    from every key that is not one of their own knobs."""

    def test_figure1_trial_reaches_pool_spec(self):
        metrics = figure1_system_trial({"num_providers": 3,
                                        "pool_size": 12}, 3)
        assert metrics["chronos_ok"] == 1.0
        assert metrics["pool_size"] == 12.0

    @pytest.mark.parametrize("trial, params", [
        (figure1_system_trial, {"clock_offset": 0.1}),
        (overhead_trial, {"mechanism": "plain-dns"}),
    ], ids=["figure1_system_trial", "overhead_trial"])
    def test_unknown_key_rejected(self, trial, params):
        with pytest.raises(ValueError, match="answers_per_qeury"):
            trial(dict(params, answers_per_qeury=2), 1)


class TestMonteCarloTrial:
    def test_chunked_campaign_reconstructs_estimate(self):
        grid = ParameterGrid.from_points(
            [{"n": 3, "x": 2 / 3, "p_attack": 0.3}],
            fixed={"chunk": 250})
        result = CampaignRunner(attack_probability_trial, trials_per_point=8,
                                base_seed=13).run(grid)
        success = result.summaries[0]["success"]
        mc = MonteCarloResult.from_chunk_means(success.mean, success.stderr,
                                               success.count, 250)
        assert mc.trials == 2000
        assert mc.within(attack_probability_exact(3, 2 / 3, 0.3))

    def test_chunk_validation(self):
        with pytest.raises(ValueError):
            MonteCarloResult.from_chunk_means(0.5, 0.1, 0, 10)
