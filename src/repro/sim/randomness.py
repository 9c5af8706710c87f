"""Deterministic random-number management.

Every stochastic component of the simulator (traffic arrivals, ECMP hashing
seeds, source-port randomisation, permutation matrices) draws from a named
stream derived from a single experiment seed.  Two runs with the same seed
produce byte-identical event sequences; changing the seed of one stream does
not perturb the others, which keeps comparisons between protocols paired:
the *same* workload is offered to TCP, MPTCP and MMPTCP.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterable, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(root_seed: int, stream_name: str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a stream name.

    Uses SHA-256 so that stream names that differ only slightly (e.g.
    ``"flow-1"`` vs ``"flow-2"``) still produce unrelated child seeds.
    """
    digest = hashlib.sha256(f"{root_seed}:{stream_name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def spawn_seed(root_seed: int, *spawn_key: int | str) -> int:
    """Derive a 64-bit child seed from ``root_seed`` and a spawn-key path.

    This is the hash-derived analogue of ``numpy.random.SeedSequence``'s
    spawn keys: each element of ``spawn_key`` names one level of a
    derivation tree, so ``spawn_seed(s, "sweep", 3)`` is the seed of the
    fourth point of the sweep rooted at ``s``.  The derivation depends only
    on ``(root_seed, spawn_key)`` — never on execution order, process
    identity or any global RNG state — which is what makes a sweep's
    results bit-identical whether its points run serially or on a process
    pool.

    Key elements are length-prefixed before hashing so ambiguous
    concatenations (``("ab", "c")`` vs ``("a", "bc")``) cannot collide,
    and the integer 3 is distinguished from the string ``"3"``.
    """
    if not spawn_key:
        raise ValueError("spawn_seed needs at least one spawn-key element")
    hasher = hashlib.sha256(f"root:{root_seed}".encode("utf-8"))
    for element in spawn_key:
        tag = "i" if isinstance(element, int) else "s"
        text = str(element)
        hasher.update(f"|{tag}{len(text)}:{text}".encode("utf-8"))
    return int.from_bytes(hasher.digest()[:8], "big")


def spawn_seeds(root_seed: int, count: int, *prefix: int | str) -> list[int]:
    """The first ``count`` child seeds of the stream named by ``prefix``.

    Element ``i`` equals ``spawn_seed(s, *prefix, "point", i)``, so
    extending ``count`` later leaves the existing seeds unchanged.  This is
    the single derivation scheme for per-point seed lists;
    :func:`repro.experiments.parallel.seeded_replications` is exactly
    ``spawn_seeds(root, n, "replication")`` applied to configs.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return [spawn_seed(root_seed, *prefix, "point", index) for index in range(count)]


class RandomStreams:
    """A registry of named, independently-seeded ``random.Random`` streams."""

    def __init__(self, root_seed: int = 1) -> None:
        self.root_seed = int(root_seed)
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating if needed) the stream registered under ``name``."""
        if name not in self._streams:
            self._streams[name] = random.Random(derive_seed(self.root_seed, name))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Create a child registry whose root seed is derived from ``name``.

        Useful to give each flow or each host its own family of streams.
        """
        return RandomStreams(derive_seed(self.root_seed, name))

    # Convenience wrappers -------------------------------------------------

    def uniform(self, name: str, low: float, high: float) -> float:
        """Uniform float in ``[low, high)`` from stream ``name``."""
        return self.stream(name).uniform(low, high)

    def randint(self, name: str, low: int, high: int) -> int:
        """Uniform integer in ``[low, high]`` from stream ``name``."""
        return self.stream(name).randint(low, high)

    def expovariate(self, name: str, rate: float) -> float:
        """Exponential variate with the given rate from stream ``name``."""
        return self.stream(name).expovariate(rate)

    def choice(self, name: str, options: Sequence[T]) -> T:
        """Uniformly pick one element of ``options`` from stream ``name``."""
        return self.stream(name).choice(options)

    def shuffled(self, name: str, items: Iterable[T]) -> list[T]:
        """Return a new list with ``items`` shuffled by stream ``name``."""
        result = list(items)
        self.stream(name).shuffle(result)
        return result
