"""Traffic matrices: who talks to whom.

The paper schedules all flows according to a *permutation* traffic matrix —
every server sends to exactly one other server and receives from exactly one
— which is the standard worst-ish-case matrix of the MPTCP data-centre
literature (it gives every flow a distinct path set and makes core collisions
visible).  A hotspot matrix is also provided; it supports the "effect of
hotspots" scenario listed in the paper's roadmap.
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple


def permutation_pairs(
    host_names: Sequence[str], rng: random.Random
) -> List[Tuple[str, str]]:
    """A random derangement: every host sends to one host other than itself."""
    if len(host_names) < 2:
        raise ValueError("a permutation matrix needs at least two hosts")
    senders = list(host_names)
    receivers = list(host_names)
    # Sattolo-style rejection sampling: shuffle until no host maps to itself.
    # For n >= 2 the expected number of attempts is about e (~2.7).
    while True:
        rng.shuffle(receivers)
        if all(sender != receiver for sender, receiver in zip(senders, receivers)):
            break
    return list(zip(senders, receivers))


def hotspot_pairs(
    host_names: Sequence[str],
    rng: random.Random,
    hotspot_fraction: float = 0.1,
    load_fraction: float = 0.5,
) -> List[Tuple[str, str]]:
    """A permutation matrix skewed so a subset of receivers attracts extra senders.

    ``hotspot_fraction`` of the hosts are designated hotspots;
    ``load_fraction`` of all senders are redirected to a hotspot (chosen
    uniformly among hotspots), the rest keep their permutation target.
    """
    if not 0 < hotspot_fraction <= 1:
        raise ValueError("hotspot_fraction must be in (0, 1]")
    if not 0 <= load_fraction <= 1:
        raise ValueError("load_fraction must be in [0, 1]")
    base = permutation_pairs(host_names, rng)
    hotspot_count = max(1, int(len(host_names) * hotspot_fraction))
    hotspots = rng.sample(list(host_names), hotspot_count)
    skewed: List[Tuple[str, str]] = []
    for source, destination in base:
        if rng.random() < load_fraction:
            candidate_hotspots = [h for h in hotspots if h != source]
            if candidate_hotspots:
                destination = rng.choice(candidate_hotspots)
        skewed.append((source, destination))
    return skewed
