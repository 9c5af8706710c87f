"""Persistent, content-addressed experiment result store.

This package is the layer between *execution* and *analysis*: a completed
run's metrics are serialised to a deterministic JSON artifact keyed by a
cache key derived from the run's full input (configuration + workload
recipe + store schema version), so that

* re-running an unchanged experiment is a cache hit that skips simulation
  entirely,
* an interrupted sweep resumes from the cells already persisted, and
* reports regenerate from stored artifacts with zero simulation work.

Three modules cooperate:

* :mod:`repro.store.canonical` — canonicalisation: stable JSON encoding and
  the :func:`run_key` cache-key derivation.
* :mod:`repro.store.serialize` — lossless ``ExperimentResult`` ⇄ JSON
  payload conversion.
* :mod:`repro.store.runstore` — the on-disk :class:`RunStore` with atomic
  ``put``/``get``/``has``/``gc`` and integrity hashes.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "canonical": ("STORE_SCHEMA_VERSION", "canonical_dumps", "run_key", "run_key_for_spec",
        "to_jsonable", "workload_recipe"),
    "runstore": ("RunStore", "StoreError", "StoreIntegrityError"),
    "serialize": ("config_from_dict", "config_to_dict", "result_from_dict", "result_to_dict"),
})
