"""Tests for the trusted resolver set and its §III bounds."""

import pytest

from repro.util.validation import ConfigurationError
from repro.core.resolverset import ResolverRef, ResolverSet
from repro.netsim.address import Endpoint, ip


def refs(count):
    return [ResolverRef(name=f"doh{i}.example",
                        endpoint=Endpoint(ip(f"10.53.0.{i + 1}"), 443))
            for i in range(count)]


class TestResolverSet:
    def test_basic_construction(self):
        rs = ResolverSet(refs(3))
        assert len(rs) == 3
        assert rs.assumed_secure_fraction == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            ResolverSet([])

    def test_duplicate_names_rejected(self):
        duplicated = refs(2) + [refs(1)[0]]
        with pytest.raises(ConfigurationError):
            ResolverSet(duplicated)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ValueError):
            ResolverSet(refs(3), assumed_secure_fraction=0.0)
        with pytest.raises(ValueError):
            ResolverSet(refs(3), assumed_secure_fraction=1.5)

    def test_iteration_and_indexing(self):
        rs = ResolverSet(refs(3))
        assert [r.name for r in rs] == [f"doh{i}.example" for i in range(3)]
        assert rs[0].name == "doh0.example"


class TestSecurityBounds:
    def test_max_tolerable_corrupted_half(self):
        assert ResolverSet(refs(4), 0.5).max_tolerable_corrupted == 2
        assert ResolverSet(refs(5), 0.5).max_tolerable_corrupted == 2

    def test_max_tolerable_corrupted_two_thirds(self):
        assert ResolverSet(refs(3), 2 / 3).max_tolerable_corrupted == 1

    def test_attacker_must_corrupt_matches_paper(self):
        """§III-a: controlling fraction y of the pool needs ⌈yN⌉
        resolvers — 'x ≥ y'."""
        rs = ResolverSet(refs(3))
        # Majority of the pool with 3 resolvers: needs 2 of them.
        assert rs.attacker_must_corrupt(1 / 2) == 2
        # Two-thirds: needs 2.
        assert rs.attacker_must_corrupt(2 / 3) == 2

    def test_attacker_must_corrupt_scales_with_n(self):
        for n in (3, 5, 9, 15):
            rs = ResolverSet(refs(n))
            needed = rs.attacker_must_corrupt(0.5)
            import math
            assert needed == math.ceil(0.5 * n - 1e-9)

    def test_attacker_must_corrupt_full_pool(self):
        assert ResolverSet(refs(7)).attacker_must_corrupt(1.0) == 7
