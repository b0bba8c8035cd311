"""Attacker models.

Each module implements one capability class from the paper's threat
discussion, at the mechanical level the simulation supports — attacks
succeed or fail because of what the protocol code actually checks, not
because of a hard-coded coin flip:

* :mod:`repro.attacks.offpath` — classic off-path DNS poisoning: spray
  forged responses racing the authoritative answer, guessing TXID and
  source port (the attack class of [1] against NTP/Chronos);
* :mod:`repro.attacks.fragmentation` — fragmentation-based poisoning
  (Herzberg & Shulman [5]): overwrite the tail of oversized responses
  without needing TXID/port (they travel in the first fragment);
* :mod:`repro.attacks.mitm` — on-path attackers controlling a subset of
  links: observe/drop/rewrite plaintext, drop/delay (only) TLS;
* :mod:`repro.attacks.compromise` — a corrupted DoH provider answering
  pool queries with attacker-chosen records (substitution, inflation,
  empty-answer DoS).  The ``inflate`` behaviour is [1]'s anti-Chronos
  over-population move, the attack §II footnote 2's truncation
  neutralises.

Scenario worlds get their attacks from the spec compiler
(:mod:`repro.scenarios.spec`): provider corruption from
``ProviderSpec``, everything else from the ``AttackSpec`` registry.
The end-to-end time-shift experiment (E7) is
:func:`repro.campaign.timeshift_trial` over such a world.
"""

from repro.attacks.compromise import CompromisedResolverBehavior, compromise_provider
from repro.attacks.fragmentation import FragmentationPoisoner
from repro.attacks.mitm import OnPathAttacker
from repro.attacks.offpath import OffPathPoisoner, SprayPlan

__all__ = [
    "CompromisedResolverBehavior",
    "compromise_provider",
    "FragmentationPoisoner",
    "OnPathAttacker",
    "OffPathPoisoner",
    "SprayPlan",
]
