"""Over-population defence (E5 logic) and end-to-end time shift (E7)."""

import pytest

from repro.campaign import spec_trial
from repro.campaign.trials import TIMESHIFT_CONFIGURATIONS, timeshift_trial
from repro.scenarios import pool_spec
from repro.scenarios.spec import apply_paths

ATTACKER = tuple(f"203.0.113.{i + 1}" for i in range(8))


def _inflated(truncation: str, seed: int):
    """One generation with 1 of 3 providers inflating its answer to 20
    attacker addresses, combined under ``truncation``."""
    spec = apply_paths(pool_spec(num_providers=3, answers_per_query=4), {
        "provider.corrupted": 1, "provider.behavior": "inflate",
        "provider.forged": ATTACKER, "provider.inflate_to": 20,
        "pool.truncation": truncation})
    return spec_trial({"spec": spec}, seed)


class TestOverPopulation:
    def test_truncation_neutralises_inflation(self):
        """With SHORTEST truncation, a 1-of-3 attacker inflating to 20
        addresses still owns exactly 1/3 of the pool."""
        metrics = _inflated("shortest", 120)
        assert metrics["ok"] == 1.0
        assert metrics["attacker_share"] == pytest.approx(1 / 3)

    def test_without_truncation_attacker_wins(self):
        """Ablation: NONE truncation lets the inflated list dominate —
        reproducing [1]'s attack shape."""
        metrics = _inflated("none", 121)
        assert metrics["ok"] == 1.0
        # 20 attacker addresses vs 2x4 honest.
        assert metrics["attacker_share"] == pytest.approx(20 / 28)
        assert metrics["attacker_share"] > 0.5

    def test_median_truncation_partial_defence(self):
        # Median of (4, 4, 20) is 4: same as SHORTEST here.
        metrics = _inflated("median", 122)
        assert metrics["attacker_share"] == pytest.approx(1 / 3)


class TestTimeShiftEndToEnd:
    """The paper's headline claim, one configuration per test."""

    @pytest.fixture(scope="class")
    def results(self):
        return {name: timeshift_trial(
                    {"configuration": name, "lie_offset": 10.0,
                     "num_providers": 3, "corrupted_providers": 1}, 7)
                for name in TIMESHIFT_CONFIGURATIONS}

    def test_plain_dns_naive_client_shifted(self, results):
        result = results["plain-dns+naive-sntp"]
        assert result["pool_malicious_fraction"] == 1.0
        assert result["shifted"] == 1.0
        assert result["clock_error"] == pytest.approx(10.0, abs=0.5)

    def test_plain_dns_chronos_still_shifted(self, results):
        """[1]: Chronos cannot survive a fully poisoned pool."""
        result = results["plain-dns+chronos"]
        assert result["pool_malicious_fraction"] == 1.0
        assert result["shifted"] == 1.0
        assert result["clock_error"] == pytest.approx(10.0, abs=0.5)

    def test_distributed_doh_bounds_malicious_fraction(self, results):
        for name in ("distributed-doh+naive-sntp", "distributed-doh+chronos"):
            result = results[name]
            assert result["pool_malicious_fraction"] == pytest.approx(
                1 / 3, abs=0.01)

    def test_distributed_doh_chronos_not_shifted(self, results):
        """The paper's proposal: Algorithm 1 + Chronos keeps time."""
        result = results["distributed-doh+chronos"]
        assert result["synced"] == 1.0
        assert result["shifted"] == 0.0
        assert abs(result["clock_error"]) < 0.1
