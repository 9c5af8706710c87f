"""Cache-aware campaign execution, status, reporting and GC.

Execution model
---------------

:func:`campaign_run_specs` enumerates the campaign's cells as ordinary
:class:`~repro.experiments.parallel.RunSpec`s in the spec's declared order
(scenario → protocol → sweep point → replication); each cell's cache key is
derived with :func:`repro.store.run_key_for_spec` from the cell's *full
input* — config + workload recipe — never from its position or the worker
count.  :func:`campaign_status` pairs every spec with its key and whether the
store holds it — one :class:`CampaignCell` per declared cell, the only cell
record — and :func:`run_campaign` / :func:`load_campaign_cells` fill those
cells' results in place; :func:`campaign_rows` projects them with the same
:func:`repro.scenarios.runner.cell_rows` a scenario matrix uses.

:func:`run_campaign` dispatches **only the cache misses** through the
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

from repro.analysis.report import campaign_report_markdown
from repro.campaigns.spec import CampaignSpec, campaign_base_config
from repro.experiments.parallel import (
    RunSpec,
    SweepRunner,
    resolve_workers,
    seeded_replications,
)
from repro.metrics.collector import ExperimentResult
from repro.scenarios.registry import get_scenario
from repro.scenarios.runner import (
    cell_coordinates,
    cell_rows,
    params_label,
    scenario_cell_spec,
)
from repro.store.canonical import run_key_for_spec
from repro.store.runstore import RunStore
from repro.store.serialize import result_from_dict


@dataclass
class CampaignCell:
    """One declared campaign cell.

    ``spec`` is the cell's :class:`RunSpec` (coordinates in ``spec.tag``,
    position in ``spec.index``), ``key`` its store key, ``cached`` whether
    the store held it when it was looked up, and ``result`` its result once
    loaded or simulated — :func:`campaign_status` leaves it ``None``.
    """

    spec: RunSpec
    key: str
    cached: bool
    result: Optional[ExperimentResult] = None


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

    def __init__(self, missing: Sequence[CampaignCell]) -> None:
        self.missing = list(missing)
        names = ", ".join(
            f"{tag['scenario']}/{tag['protocol']}"
            + (f"/{params_label(tag['params'])}" if tag["params"] else "")
            + (f"#r{tag['replication']}" if tag["replication"] else "")
            for tag in (cell.spec.tag for cell in self.missing[:8])
        )
        suffix = ", ..." if len(self.missing) > 8 else ""
        super().__init__(
            f"{len(self.missing)} campaign cell(s) missing from the store "
            f"({names}{suffix}); run the campaign first"
        )


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
                            # The cell's coordinates: row columns, event
                            # fields and artifact meta all derive from this tag.
                            {
                                "scenario": scenario_name,
                                "protocol": protocol,
                                "params": dict(params),
                                "replication": replication,
                            },
                        )
                    )
    return specs


def _cell_meta(spec: CampaignSpec, cell: CampaignCell) -> Dict[str, Any]:
    """The provenance labels one campaign attaches to a cell it uses."""
    return {"campaign": spec.name, **cell.spec.tag}


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


def _cell_event(event: str, cell: CampaignCell) -> Dict[str, Any]:
    """A progress event with the stable identity fields it carries for a cell."""
    return {"event": event, "index": cell.spec.index, "key": cell.key, **cell.spec.tag}


def run_campaign(
    spec: CampaignSpec,
    store: RunStore,
    workers: Optional[int] = 1,
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
    emit = events if events is not None else (lambda event: None)
    worker_count = resolve_workers(workers)  # fail fast on nonsense values
    cells = campaign_status(spec, store)
    emit(
        {
            "event": "campaign_start",
            "campaign": spec.name,
            "cells": len(cells),
            "workers": worker_count,
        }
    )

    for cell in cells:
        if not cell.cached:
            continue
        artifact = store.get_artifact(cell.key)  # one verified read per hit
        cell.result = result_from_dict(artifact["payload"])
        emit(_cell_event("cell_hit", cell))
        # Claim the cell for this campaign: gc is scoped by the most recent
        # user's label, so a campaign that *hits* a shared cell protects it
        # exactly like the one that simulated it.  The claim lives in the
        # artifact itself — set_meta rewrites it when the label changes and
        # writes nothing when it already matches.
        store.set_meta(cell.key, _cell_meta(spec, cell), artifact=artifact)

    misses = [cell.spec for cell in cells if not cell.cached]
    if misses:
        def dispatch(run_spec: RunSpec) -> None:
            emit(_cell_event("cell_start", cells[run_spec.index]))

        def persist(run_spec: RunSpec, result: ExperimentResult) -> None:
            cell = cells[run_spec.index]
            cell.result = result
            # The atomic artifact write is what makes a cell resumable.
            store.put(cell.key, result, meta=_cell_meta(spec, cell))
            emit(
                {
                    **_cell_event("cell_finish", cell),
                    "events_processed": result.events_processed,
                    # Wall-clock is diagnostics-only, like everywhere else.
                    "diagnostics": {"wallclock_s": result.wallclock_s},
                }
            )

        SweepRunner(workers).run(misses, progress=dispatch, on_result=persist)

    outcome = CampaignOutcome(spec=spec, cells=cells)
    emit(
        {
            "event": "campaign_finish",
            "campaign": spec.name,
            "cells": len(cells),
            "cache_hits": outcome.cache_hits,
            "simulated": outcome.simulated,
        }
    )
    return outcome


# ---------------------------------------------------------------------------
# Status / loading
# ---------------------------------------------------------------------------


def campaign_status(spec: CampaignSpec, store: RunStore) -> List[CampaignCell]:
    """Every declared cell, keyed and looked up (``cached``) but not loaded.

    Runs nothing and reads no artifact: the key is derived from the cell's
    full input and the lookup is an existence check.
    """
    cells = []
    for run_spec in campaign_run_specs(spec):
        key = run_key_for_spec(run_spec)
        cells.append(CampaignCell(run_spec, key, cached=store.has(key)))
    return cells


def status_rows(cells: Sequence[CampaignCell]) -> List[Dict[str, object]]:
    """One row per declared cell (the ``campaign status`` table)."""
    return [
        {**cell_coordinates(cell.spec), "stored": cell.cached, "key": cell.key[:12]}
        for cell in cells
    ]


def status_summary_rows(cells: Sequence[CampaignCell]) -> List[Dict[str, object]]:
    """Per-(scenario, protocol) completion counts in first-seen (declared) order.

    The ``campaign status --summary`` table: one row per coordinate with
    declared/stored/missing cell counts.  Derived purely from the cells'
    coordinates and ``cached`` flags, so it is byte-stable for a given spec
    and store state.
    """
    rows: Dict[Any, Dict[str, object]] = {}
    for cell in cells:
        scenario, protocol = cell.spec.tag["scenario"], cell.spec.tag["protocol"]
        row = rows.setdefault(
            (scenario, protocol),
            {"scenario": scenario, "protocol": protocol, "cells": 0, "stored": 0, "missing": 0},
        )
        row["cells"] += 1
        row["stored" if cell.cached else "missing"] += 1
    return list(rows.values())


def load_campaign_cells(spec: CampaignSpec, store: RunStore) -> List[CampaignCell]:
    """All cells loaded from artifacts only (zero simulation).

    Raises :class:`CampaignIncompleteError` when any declared cell is
    missing, listing the absent coordinates.
    """
    cells = campaign_status(spec, store)  # enumerate (and key) the grid once
    missing = [cell for cell in cells if not cell.cached]
    if missing:
        raise CampaignIncompleteError(missing)
    for cell in cells:
        cell.result = store.get(cell.key)
    return cells


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def campaign_rows(cells: Sequence[CampaignCell]) -> List[Dict[str, object]]:
    """Flat per-cell rows in cell order: :func:`repro.scenarios.runner.cell_rows`
    of every (loaded) cell — see it for the pinned key order."""
    return [row for cell in cells for row in cell_rows(cell.spec, cell.result)]


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
    rewrite — so a shared cell is only
    collectable by the last campaign that ran with it, and only once that
    campaign stops declaring it.  For store-wide collection against an
    explicit keep-set, use :meth:`repro.store.RunStore.gc` directly.
    Returns the removed (or, with ``dry_run``, removable) keys, sorted.
    """
    keep = {run_key_for_spec(run_spec) for run_spec in campaign_run_specs(spec)}
    metas = store.metas()
    removed = sorted(
        key
        for key, meta in metas.items()
        if key not in keep and meta.get("campaign") == spec.name
    )
    if not dry_run:
        store.remove_many(removed)
    return removed
