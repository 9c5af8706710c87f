"""Cache-aware campaign execution, status, reporting and GC.

Execution model
---------------

:func:`campaign_run_specs` enumerates the campaign's cells as ordinary
:class:`~repro.experiments.parallel.RunSpec`s in the spec's declared order
(scenario → protocol → sweep point → replication); each cell's cache key is
derived with :func:`repro.store.run_key_for_spec` from the cell's *full
input* — config + workload recipe — never from its position or the worker
count.

:func:`run_campaign` then dispatches **only the cache misses** through the
shared :class:`~repro.experiments.parallel.SweepRunner` (hits skip worker
fan-out entirely; a fully cached campaign never creates a process pool) and
persists every freshly simulated cell atomically *the moment it completes*,
via the runner's completion-order ``on_result`` hook.  A campaign killed
mid-matrix therefore keeps all finished cells; re-running it resumes from
the store, and the merged outcome is byte-identical to an uninterrupted run
for any ``workers`` value.

Reporting reads artifacts only (:func:`campaign_report` performs zero
simulation), so analysis changes regenerate reports without re-running
anything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.analysis.report import campaign_report_markdown, replication_summary_rows
from repro.campaigns.spec import CampaignSpec, campaign_base_config
from repro.experiments.parallel import (
    RunSpec,
    SweepRunner,
    resolve_workers,
    seeded_replications,
)
from repro.experiments.runner import ExperimentResult
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import scenario_cell_spec
from repro.store.canonical import run_key_for_spec
from repro.store.runstore import RunStore
from repro.store.serialize import result_from_dict


@dataclass(frozen=True)
class CellStatus:
    """Where one declared cell stands relative to the store."""

    index: int
    scenario: str
    protocol: str
    params: Dict[str, Any]
    replication: int
    key: str
    stored: bool


@dataclass
class CampaignCell:
    """One executed (or cache-loaded) campaign cell."""

    index: int
    scenario: str
    protocol: str
    params: Dict[str, Any]
    replication: int
    key: str
    result: ExperimentResult
    cached: bool


@dataclass
class CampaignOutcome:
    """Everything :func:`run_campaign` produces, cells in declared order."""

    spec: CampaignSpec
    cells: List[CampaignCell]

    @property
    def cache_hits(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def simulated(self) -> int:
        return sum(1 for cell in self.cells if not cell.cached)


class CampaignIncompleteError(Exception):
    """A report was requested but some declared cells are not in the store."""

    def __init__(self, missing: Sequence[CellStatus]) -> None:
        self.missing = list(missing)
        names = ", ".join(
            f"{status.scenario}/{status.protocol}"
            + (f"/{params_label(status.params)}" if status.params else "")
            + (f"#r{status.replication}" if status.replication else "")
            for status in self.missing[:8]
        )
        suffix = ", ..." if len(self.missing) > 8 else ""
        super().__init__(
            f"{len(self.missing)} campaign cell(s) missing from the store "
            f"({names}{suffix}); run the campaign first"
        )


def params_label(params: Dict[str, Any]) -> str:
    """Deterministic compact rendering of a sweep point (declared order).

    The one formatting used everywhere a sweep point is shown — report
    rows, status tables, incomplete-campaign errors — so the renderings
    can never drift apart.
    """
    return " ".join(f"{name}={value}" for name, value in params.items())


# ---------------------------------------------------------------------------
# Cell enumeration
# ---------------------------------------------------------------------------


def campaign_run_specs(spec: CampaignSpec) -> List[RunSpec]:
    """One :class:`RunSpec` per declared cell, indexed in declared order.

    Order — scenario, then protocol, then sweep point, then replication — is
    part of the campaign contract: it fixes cell indices and report row
    order.  Replication seeds always come from hash-derived spawn keys —
    replication ``i`` is seeded by ``spawn_seeds(campaign_seed, n,
    "replication")[i]`` for *any* ``n``, including 1 — so raising
    ``replications`` later leaves every existing cell's seed (and therefore
    its cache key) unchanged: extending a finished campaign simulates only
    the new replications.
    """
    base = campaign_base_config(spec)
    sweep_points = spec.sweep_points()
    sweep_fields = {name for name, _ in spec.sweeps}
    specs: List[RunSpec] = []
    for scenario_name in spec.scenarios:
        scenario = get_scenario(scenario_name)
        clobbered = sweep_fields & set(scenario.config_overrides)
        if clobbered:
            # The scenario's overrides are applied after sweep values, so a
            # shared field would collapse every sweep point into one config
            # (and one cache key) while the report still showed N rows.
            raise ValueError(
                f"sweep axis/axes {sorted(clobbered)} are overridden by scenario "
                f"{scenario_name!r}; its config_overrides would clobber every "
                "sweep value"
            )
        for protocol in spec.protocols:
            for params in sweep_points:
                cell_config = scenario.apply_to(
                    base.with_updates(protocol=protocol, **params)
                )
                configs = seeded_replications(cell_config, spec.replications)
                for replication, config in enumerate(configs):
                    specs.append(
                        scenario_cell_spec(
                            len(specs),
                            scenario,
                            config,
                            # Exactly the coordinate fields of CellStatus /
                            # CampaignCell, which are built from this tag.
                            {
                                "scenario": scenario_name,
                                "protocol": protocol,
                                "params": dict(params),
                                "replication": replication,
                            },
                        )
                    )
    return specs


def campaign_keys(specs: Sequence[RunSpec]) -> List[str]:
    """The cache key of every cell, aligned with ``specs``."""
    return [run_key_for_spec(spec) for spec in specs]


def _cell_meta(spec: CampaignSpec, run_spec: RunSpec) -> Dict[str, Any]:
    """The provenance labels one campaign attaches to a cell it uses."""
    return {"campaign": spec.name, **run_spec.tag}


def _cell_from(spec: RunSpec, key: str, result: ExperimentResult, cached: bool) -> CampaignCell:
    return CampaignCell(index=spec.index, key=key, result=result, cached=cached, **spec.tag)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cell_coordinates(run_spec: RunSpec, key: str) -> Dict[str, Any]:
    """The stable identity fields every progress event carries for a cell."""
    return {
        "index": run_spec.index,
        "key": key,
        **run_spec.tag,
        "params": dict(run_spec.tag["params"]),
    }


def run_campaign(
    spec: CampaignSpec,
    store: RunStore,
    workers: Optional[int] = 1,
    progress: Optional[Callable[[RunSpec], None]] = None,
    events: Optional[Callable[[Dict[str, Any]], None]] = None,
) -> CampaignOutcome:
    """Execute ``spec`` against ``store`` and return all cells in order.

    Cached cells are loaded (and verified) from the store without touching
    the sweep runner; missing cells are simulated — in parallel when
    ``workers`` allows — and each one is persisted atomically as soon as it
    completes, so an interrupted campaign resumes from every cell that
    finished before the interruption.

    ``events`` (optional) receives one structured dict per campaign
    progress event: ``campaign_start``, ``cell_hit`` (declared order),
    ``cell_start`` (dispatch order), ``cell_finish`` (completion order —
    under a process pool this order is timing-dependent), and
    ``campaign_finish``.  Progress events are operator telemetry: the
    per-cell wall-clock travels under a ``diagnostics`` key, and the stream
    is never part of a byte-compare surface.
    """
    worker_count = resolve_workers(workers)  # fail fast on nonsense values
    run_specs = campaign_run_specs(spec)
    keys = campaign_keys(run_specs)
    cells: List[Optional[CampaignCell]] = [None] * len(run_specs)
    if events is not None:
        events(
            {
                "event": "campaign_start",
                "campaign": spec.name,
                "cells": len(run_specs),
                "workers": worker_count,
            }
        )

    misses: List[RunSpec] = []
    hit_entries: Dict[str, Dict[str, Any]] = {}
    for run_spec, key in zip(run_specs, keys):
        if not store.has(key):
            misses.append(run_spec)
            continue
        artifact = store.get_artifact(key)  # one verified read per hit
        cells[run_spec.index] = _cell_from(
            run_spec, key, result_from_dict(artifact["payload"]), cached=True
        )
        if events is not None:
            events({"event": "cell_hit", **_cell_coordinates(run_spec, key)})
        # Claim the cell for this campaign: gc is scoped by the most recent
        # user's label, so a campaign that *hits* a shared cell protects it
        # exactly like the one that simulated it.  The claim is durable —
        # set_meta rewrites the artifact when the label changes (and writes
        # nothing when it already matches), so a rebuilt index keeps it.
        meta = _cell_meta(spec, run_spec)
        if artifact["meta"] != meta:
            hit_entries[key] = store.set_meta(key, meta, artifact=artifact)
    if hit_entries:
        store.index_add(hit_entries)

    if misses:
        key_by_index = {run_spec.index: keys[run_spec.index] for run_spec in misses}
        index_entries: Dict[str, Dict[str, Any]] = {}

        def dispatch(run_spec: RunSpec) -> None:
            if events is not None:
                events(
                    {
                        "event": "cell_start",
                        **_cell_coordinates(run_spec, key_by_index[run_spec.index]),
                    }
                )
            if progress is not None:
                progress(run_spec)

        def persist(run_spec: RunSpec, result: ExperimentResult) -> None:
            key = key_by_index[run_spec.index]
            # Index updates are batched into one write after the sweep: the
            # artifact write is what makes a cell resumable (has/get never
            # read the index), and a per-cell index rewrite would be O(n²).
            _, index_entries[key] = store.put_entry(
                key, result, meta=_cell_meta(spec, run_spec)
            )
            if events is not None:
                events(
                    {
                        "event": "cell_finish",
                        **_cell_coordinates(run_spec, key),
                        "events_processed": result.events_processed,
                        # Wall-clock is diagnostics-only, like everywhere else.
                        "diagnostics": {"wallclock_s": result.wallclock_s},
                    }
                )

        try:
            results = SweepRunner(workers).run(misses, progress=dispatch, on_result=persist)
        finally:
            # Even an interrupted sweep indexes the cells it did persist.
            if index_entries:
                store.index_add(index_entries)
        for run_spec, result in zip(misses, results):
            cells[run_spec.index] = _cell_from(
                run_spec, key_by_index[run_spec.index], result, cached=False
            )

    outcome = CampaignOutcome(spec=spec, cells=[cell for cell in cells if cell is not None])
    if events is not None:
        events(
            {
                "event": "campaign_finish",
                "campaign": spec.name,
                "cells": len(outcome.cells),
                "cache_hits": outcome.cache_hits,
                "simulated": outcome.simulated,
            }
        )
    return outcome


# ---------------------------------------------------------------------------
# Status / loading
# ---------------------------------------------------------------------------


def _statuses_for(run_specs: Sequence[RunSpec], store: RunStore) -> List[CellStatus]:
    return [
        CellStatus(index=run_spec.index, key=key, stored=store.has(key), **run_spec.tag)
        for run_spec, key in zip(run_specs, campaign_keys(run_specs))
    ]


def campaign_status(spec: CampaignSpec, store: RunStore) -> List[CellStatus]:
    """Which declared cells are persisted, without running anything."""
    return _statuses_for(campaign_run_specs(spec), store)


def status_rows(statuses: Sequence[CellStatus]) -> List[Dict[str, object]]:
    """One row per declared cell (the ``campaign status`` table)."""
    return [
        {
            "scenario": status.scenario,
            "protocol": status.protocol,
            "params": params_label(status.params),
            "replication": status.replication,
            "stored": status.stored,
            "key": status.key[:12],
        }
        for status in statuses
    ]


def status_summary_rows(statuses: Sequence[CellStatus]) -> List[Dict[str, object]]:
    """Per-(scenario, protocol) completion counts in first-seen (declared) order.

    The ``campaign status --summary`` table: one row per coordinate with
    declared/stored/missing cell counts.  Derived purely from the statuses,
    so it is byte-stable for a given spec and store state.
    """
    rows: Dict[Any, Dict[str, object]] = {}
    for status in statuses:
        key = (status.scenario, status.protocol)
        row = rows.get(key)
        if row is None:
            row = rows[key] = {
                "scenario": status.scenario,
                "protocol": status.protocol,
                "cells": 0,
                "stored": 0,
                "missing": 0,
            }
        row["cells"] += 1
        row["stored" if status.stored else "missing"] += 1
    return list(rows.values())


def load_campaign_cells(spec: CampaignSpec, store: RunStore) -> List[CampaignCell]:
    """All cells loaded from artifacts only (zero simulation).

    Raises :class:`CampaignIncompleteError` when any declared cell is
    missing, listing the absent coordinates.
    """
    run_specs = campaign_run_specs(spec)  # enumerate (and key) the grid once
    statuses = _statuses_for(run_specs, store)
    missing = [status for status in statuses if not status.stored]
    if missing:
        raise CampaignIncompleteError(missing)
    return [
        _cell_from(run_spec, status.key, store.get(status.key), cached=True)
        for run_spec, status in zip(run_specs, statuses)
    ]


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def campaign_rows(cells: Sequence[CampaignCell]) -> List[Dict[str, object]]:
    """Flat per-cell rows in cell order.

    Key order — ``scenario``, ``protocol``, ``params``, ``replication``,
    ``faults``, then :data:`repro.metrics.collector.CELL_METRIC_FIELDS` — is
    insertion-stable and part of the public contract (CSV headers and report
    tables derive from it).
    """
    rows: List[Dict[str, object]] = []
    for cell in cells:
        row: Dict[str, object] = {
            "scenario": cell.scenario,
            "protocol": cell.protocol,
            "params": params_label(cell.params),
            "replication": cell.replication,
            "faults": len(cell.result.config.fault_schedule),
        }
        row.update(cell.result.metrics.cell_row())
        rows.append(row)
    return rows


def campaign_summary_rows(cells: Sequence[CampaignCell]) -> List[Dict[str, object]]:
    """Across-replication mean ± 95% CI rows, one per cell coordinate.

    A thin composition of :func:`campaign_rows` with
    :func:`repro.analysis.report.replication_summary_rows`; see the latter
    for the grouping and the pinned key order.
    """
    return replication_summary_rows(campaign_rows(cells))


def campaign_report(
    spec: CampaignSpec,
    store: RunStore,
    baseline_protocol: str = "tcp",
) -> str:
    """The campaign's markdown report, generated from artifacts only.

    Byte-stable by construction: every number comes from stored payloads,
    rows follow declared cell order, and nothing volatile (wall-clock,
    hit/miss counts, timestamps) appears in the document — so regenerating
    the report after a fully cached re-run reproduces it byte for byte.
    """
    cells = load_campaign_cells(spec, store)
    return campaign_report_markdown(spec, campaign_rows(cells), baseline_protocol)


def outcome_report(outcome: CampaignOutcome, baseline_protocol: str = "tcp") -> str:
    """The report of a just-executed campaign, from its in-memory cells.

    Byte-identical to :func:`campaign_report` over the same store (rows
    contain only simulated quantities, which round-trip losslessly), but
    without re-enumerating the grid or re-reading and re-verifying the
    artifacts that were produced moments ago.
    """
    return campaign_report_markdown(
        outcome.spec, campaign_rows(outcome.cells), baseline_protocol
    )


# ---------------------------------------------------------------------------
# Garbage collection
# ---------------------------------------------------------------------------


def campaign_gc(spec: CampaignSpec, store: RunStore, dry_run: bool = False) -> List[str]:
    """Drop this campaign's stored artifacts that the spec no longer declares.

    Scoped by provenance: only artifacts whose ``meta["campaign"]`` equals
    ``spec.name`` *and* whose key is not among the campaign's current cell
    keys are removed — so editing the spec (fewer scenarios, a changed
    sweep) reclaims the dropped cells' space, while artifacts belonging to
    other campaigns sharing the store are never touched.  The label records
    the cell's *most recent user*: every :func:`run_campaign` durably claims
    the cells it used — cache hits included, via an atomic artifact-meta
    rewrite that survives index rebuilds — so a shared cell is only
    collectable by the last campaign that ran with it, and only once that
    campaign stops declaring it.  For store-wide collection against an
    explicit keep-set, use :meth:`repro.store.RunStore.gc` directly.
    Returns the removed (or, with ``dry_run``, removable) keys, sorted.
    """
    keep = set(campaign_keys(campaign_run_specs(spec)))
    metas = store.metas()
    removed = sorted(
        key
        for key, meta in metas.items()
        if key not in keep and meta.get("campaign") == spec.name
    )
    if not dry_run:
        store.remove_many(removed)  # one index rewrite for the whole batch
    return removed
