"""Canonical JSON encoding and cache-key derivation.

The store's whole contract rests on two properties:

1. **Byte stability** — the same logical payload always serialises to the
   same bytes, on every platform and in every process.  That is what makes
   artifacts diffable, integrity-hashable and byte-comparable across runs.
2. **Key stability** — the same run *input* always derives the same cache
   key, and any semantically meaningful change to the input derives a
   different key.

Both are achieved with plain deterministic JSON:

* keys sorted (``sort_keys=True``), separators fixed, ``allow_nan=False``
  (NaN/Infinity are not JSON and their textual form is not portable);
* floats rendered by CPython's shortest round-trip ``repr`` — a pure
  function of the IEEE-754 value, identical on every supported platform;
* for *keys* only, numbers are additionally normalised to a single normal
  form (``2.0`` → ``2``, ``True`` → ``1``) so that configs that compare
  equal under Python's cross-type numeric equality hash to the same key.

Nothing here depends on process identity, dict iteration order, hash
randomisation (:func:`run_key` uses SHA-256, never :func:`hash`), wall
clock, or the number of workers a sweep ran on.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from typing import Any, Optional, Sequence

#: Bump when the artifact payload layout or the key derivation changes in a
#: way that invalidates previously stored results.  The version participates
#: in every cache key, so a bump makes every old entry a clean miss instead
#: of a wrong hit.  ``tests/test_store_keys.py`` pins each version to the
#: key and artifact layout of one tiny cell: after a bump, run it and pin
#: the ``(key, surface)`` pair its failure message prints.
#: v2: ExperimentConfig grew ``scheduler`` / ``path_manager`` fields (and the
#: previously dead scheduler now influences results, so v1 artifacts no
#: longer describe what a re-run would produce).
#: v3: FaultEvent grew ``duration_s`` and a re-addressing field (mobility verbs), so
#: the serialised form of every fault schedule — and therefore the key of
#: any config that has one — changed.
#: v4: ExperimentConfig grew the ``fidelity`` axis (packet vs flow-level
#: engine), so every config's serialised field set — and therefore every
#: key — changed.
#: v5: ExperimentConfig lost its ECN marking-threshold field with the ECN
#: queue it configured, so every config's serialised field set — and
#: therefore every key — changed again.
#: v6: ExperimentConfig lost its ``scheduler`` / ``path_manager`` fields with
#: the policy schedulers and the full-mesh path manager, so every config's
#: serialised field set — and therefore every key — changed again.
#: v7: ExperimentConfig lost the fields nothing but tests set (the shared-
#: buffer queue, the per-tier link-rate overrides, the adaptive reordering
#: increment and the run caps), so every key changed again.
#: v8: FaultEvent lost its re-addressing field with peer readdressing, so
#: the serialised form of every fault schedule changed.
STORE_SCHEMA_VERSION = 8


def to_jsonable(value: Any, _path: str = "$") -> Any:
    """Strictly convert ``value`` to JSON-serialisable primitives.

    Tuples become lists, mappings must have string keys, and anything
    without an exact JSON representation (sets, objects, NaN/Infinity)
    raises ``TypeError`` naming the offending path — a store key must never
    silently depend on ``str()`` of an arbitrary object.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise TypeError(f"non-finite float at {_path} cannot be canonicalised")
        return value
    if isinstance(value, Mapping):
        result = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"non-string mapping key {key!r} at {_path}")
            result[key] = to_jsonable(item, f"{_path}.{key}")
        return result
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item, f"{_path}[{index}]") for index, item in enumerate(value)]
    raise TypeError(f"{type(value).__name__} at {_path} is not canonically JSON-serialisable")


def canonical_dumps(payload: Any) -> str:
    """The canonical compact JSON encoding of ``payload`` (no newline).

    This is the byte form that integrity hashes and cache keys are computed
    over: sorted keys, fixed separators, no NaN, shortest round-trip float
    repr.  Equal payloads always produce equal strings.
    """
    return dumps_jsonable(to_jsonable(payload))


def dumps_jsonable(document: Any) -> str:
    """:func:`canonical_dumps` of a ``document`` that already holds only JSON
    primitives (a :func:`to_jsonable` result, a parsed artifact): the same
    bytes without the conversion pass.  Raises ``ValueError`` on NaN/Infinity.
    """
    # repro: allow[no-raw-json] -- this IS the canonical dumper the policy
    # routes compact/store JSON through; every other call site must use it.
    return json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False)


def sha256_hex(text: str) -> str:
    """SHA-256 of ``text`` (UTF-8), as lowercase hex."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _normalise_numbers(value: Any) -> Any:
    """Collapse numerically equal values to one normal form, recursively.

    ``ExperimentConfig`` equality uses Python's ``==``, under which ``2.0``
    equals ``2`` and ``True`` equals ``1`` — so key derivation must not
    distinguish them either, or two equal configs could hash differently.
    Non-integral floats are untouched.
    """
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, dict):
        return {key: _normalise_numbers(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_normalise_numbers(item) for item in value]
    return value


def workload_recipe(
    factory: Optional[Any],
    args: Sequence[Any] = (),
    kwargs: Optional[Mapping[str, Any]] = None,
) -> Optional[dict]:
    """The canonical description of a :class:`RunSpec`'s workload recipe.

    A workload factory travels to worker processes by reference (module +
    qualname), so that same reference is what identifies it in the cache
    key; its arguments are canonicalised as data.  Returns ``None`` for the
    default workload (no factory, no arguments) so plain config-only runs
    key identically however they were constructed.
    """
    if factory is None and not args and not kwargs:
        return None
    name = (
        f"{factory.__module__}:{factory.__qualname__}" if factory is not None else None
    )
    return {
        "factory": name,
        "args": to_jsonable(list(args)),
        "kwargs": to_jsonable(dict(kwargs or {})),
    }


def run_key(config: Any, workload: Optional[Mapping[str, Any]] = None) -> str:
    """The content-addressed cache key of one simulation run.

    The key covers everything that determines the run's simulated output:
    the full :class:`~repro.experiments.config.ExperimentConfig` (including
    the fault schedule and seed), the workload recipe, and the store schema
    version.  It deliberately excludes execution details that do not change
    results — worker counts, process identity, wall-clock time — which is
    what makes a campaign resumable across machines and ``--workers``
    values.

    Equal configs yield equal keys; changing any single config field yields
    a different key (the envelope is a sorted-key JSON document, so every
    field participates in the digest).
    """
    from repro.store.serialize import config_to_dict

    envelope = {
        "schema": STORE_SCHEMA_VERSION,
        "config": _normalise_numbers(to_jsonable(config_to_dict(config))),
        "workload": _normalise_numbers(to_jsonable(workload)),
    }
    return sha256_hex(dumps_jsonable(envelope))


def run_key_for_spec(spec: Any) -> str:
    """The cache key of one :class:`repro.experiments.parallel.RunSpec`.

    Uses the spec's config and workload recipe only; ``index`` and ``tag``
    are labels, not inputs, and must not perturb the key.
    """
    recipe = workload_recipe(
        spec.workload_factory, spec.workload_args, spec.workload_kwargs
    )
    return run_key(spec.config, recipe)
