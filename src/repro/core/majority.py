"""Per-address majority voting (§II of the paper).

    "Ensuring that all of the servers in a returned DNS query are benign
    can be performed via a classic majority-vote on each of the returned
    addresses, e.g., the majority DNS resolver only includes an address
    in the final response, if it is given by a majority of the DoH
    resolvers."

This is stronger than Algorithm 1's fraction bound — the output contains
*only* addresses vouched for by a quorum — but it requires resolvers to
see overlapping answer sets, so it composes poorly with heavy rotation
(a trade-off exercised by experiment E8). Chronos does not need it; the
backward-compatible front-end can use it for applications that do.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence

from repro.netsim.address import IPAddress
from repro.util.validation import ConfigurationError


def majority_vote(answer_lists: Dict[str, Sequence[IPAddress]],
                  quorum: Optional[int] = None) -> List[IPAddress]:
    """Return the addresses included by at least ``quorum`` resolvers.

    :param answer_lists: per-resolver address lists. An address counts
        once per resolver no matter how often that resolver repeated it.
    :param quorum: required vote count; defaults to a strict majority
        ``floor(N/2) + 1`` of the resolvers *consulted* (not of those
        that answered — silent resolvers effectively vote against).
    :returns: addresses sorted by (votes desc, address) for determinism.
    """
    if not answer_lists:
        raise ConfigurationError("no answer lists to vote on")
    n = len(answer_lists)
    if quorum is None:
        quorum = n // 2 + 1
    if not 1 <= quorum <= n:
        raise ConfigurationError(f"quorum must be in [1, {n}], got {quorum}")
    votes: Counter = Counter()
    for addresses in answer_lists.values():
        for address in set(addresses):
            votes[address] += 1
    winners = [(count, address) for address, count in votes.items()
               if count >= quorum]
    winners.sort(key=lambda item: (-item[0], str(item[1])))
    return [address for _, address in winners]


class MajorityVoteCombiner:
    """A reusable combiner with a fixed quorum rule.

    :param quorum_fraction: fraction of consulted resolvers whose vote
        is required (strictly more than 1/2 by default).
    """

    def __init__(self, quorum_fraction: float = 0.5) -> None:
        if not 0.0 < quorum_fraction < 1.0:
            raise ConfigurationError(
                f"quorum_fraction must be in (0, 1), got {quorum_fraction}")
        self._quorum_fraction = quorum_fraction

    @property
    def quorum_fraction(self) -> float:
        return self._quorum_fraction

    def quorum_for(self, resolver_count: int) -> int:
        """Votes required given how many resolvers were consulted."""
        return math.floor(self._quorum_fraction * resolver_count) + 1

    def combine(self, answer_lists: Dict[str, Sequence[IPAddress]]) -> List[IPAddress]:
        """Vote with the configured quorum rule."""
        return majority_vote(answer_lists,
                             quorum=self.quorum_for(len(answer_lists)))
