"""Parallel experiment execution.

Every sweep in this repository — Figure 1's subflow series, the load and
incast sweeps, seed replications — is a list of *independent* simulation
points: each point is fully described by its :class:`ExperimentConfig`
(plus, for some studies, a deterministic workload-builder call), and no
point reads state written by another.  That independence is what
:class:`SweepRunner` exploits: it fans points out across a process pool and
merges the :class:`ExperimentResult`s back **ordered by point index, never
by completion order**, so the output of a sweep is bit-identical whether it
ran on 1 worker or 8.

Determinism contract
--------------------

* A point's randomness derives only from its config's ``seed`` (via the
  named streams of :mod:`repro.sim.randomness`); nothing reads global RNG
  state, so executing points in different processes cannot perturb them.
* Workloads that must be built per point travel as a *picklable recipe*
  (top-level callable + arguments on the :class:`RunSpec`), not as live
  objects, and the recipe itself is seeded from the config.
* Per-point replication seeds come from hash-derived spawn keys
  (:func:`repro.sim.randomness.spawn_seed`), so point ``i``'s seed does not
  depend on how many points exist or which worker runs it.

The only per-run field that legitimately differs between a serial and a
parallel execution is :attr:`ExperimentResult.wallclock_s` (real elapsed
time); every simulated quantity — per-flow records, switch counters,
summary metrics — is identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.experiments.config import ExperimentConfig
from repro.metrics.collector import ExperimentResult
from repro.obs.telemetry import make_recorder, telemetry_records
from repro.sim.randomness import spawn_seeds


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one independent simulation point.

    Attributes:
        index: position of the point in its sweep; results are merged in
            this order regardless of completion order.
        config: the full experiment description (frozen dataclass, picklable).
        workload_factory: optional **module-level** callable that builds the
            point's workload inside the worker process (module-level so it
            pickles by reference).  Called as ``factory(config, *args,
            **kwargs)`` — the spec's own config is always the first
            argument, so the config the workload is built for and the
            config the experiment runs cannot drift apart.  ``None`` means
            the runner builds the default short/long workload from the
            config.
        workload_args / workload_kwargs: extra arguments for
            ``workload_factory`` after the config.
        tag: free-form labels (e.g. the override dict or the sweep axes)
            carried through untouched so callers can re-associate results.
        probes: telemetry probe groups to record for this point (empty =
            probes off).  Observability-only: ``run_key_for_spec`` hashes
            the config and workload recipe, so probing never changes a
            store key.
        profile: attach the engine profiler and ship its diagnostics on
            the result (key-excluded, wall-clock-bearing).
    """

    index: int
    config: ExperimentConfig
    workload_factory: Optional[Callable[..., Any]] = None
    workload_args: Tuple[Any, ...] = ()
    workload_kwargs: Optional[Dict[str, Any]] = None
    tag: Optional[Dict[str, Any]] = None
    probes: Tuple[str, ...] = ()
    profile: bool = False


def execute_spec(spec: RunSpec) -> ExperimentResult:
    """Run one point.  Top-level so a process pool can pickle it.

    When the spec asks for probes the recorder is built *inside* the worker
    and its content travels back as rendered records
    (:attr:`ExperimentResult.telemetry`) — recorders themselves never cross
    the process boundary, so serial and pooled execution render identically.
    """
    from repro.experiments.runner import run_experiment

    workload = None
    if spec.workload_factory is not None:
        workload = spec.workload_factory(
            spec.config, *spec.workload_args, **(spec.workload_kwargs or {})
        )
    recorder = make_recorder(spec.probes)
    result = run_experiment(
        spec.config, workload=workload, probes=recorder, profile=spec.profile
    )
    if recorder is not None:
        result.telemetry = telemetry_records(
            recorder, label=f"run{spec.index}", diagnostics=result.diagnostics
        )
    elif spec.profile and result.diagnostics is not None:
        result.telemetry = [{"kind": "diagnostics", "diagnostics": result.diagnostics}]
    return result


def resolve_workers(workers: Optional[int]) -> int:
    """Normalise a ``--workers`` value: ``None``/``0`` means one per CPU."""
    if workers is None or workers == 0:
        return os.cpu_count() or 1
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    return workers


def workers_argument_type(text: str) -> int:
    """``argparse`` type for ``--workers`` flags: validate at parse time.

    Shared by the CLI and the examples so a negative pool size is rejected
    with one clear message before any simulation work starts, instead of
    surfacing as a traceback from the process pool.
    """
    import argparse

    value = int(text)
    try:
        resolve_workers(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--workers must be >= 0 (1 = serial, 0 = one per CPU), got {value}"
        ) from None
    return value


class SweepRunner:
    """Executes a list of :class:`RunSpec`s, serially or on a process pool.

    ``workers=1`` (the default) runs every point in-process in index order —
    byte-for-byte the behaviour of the historical serial sweep loop.
    ``workers>1`` submits points to a :class:`ProcessPoolExecutor` and
    gathers results in submission (= index) order, so callers never observe
    completion order.  ``workers=None`` or ``0`` uses one worker per CPU.
    """

    def __init__(self, workers: Optional[int] = 1) -> None:
        self.workers = resolve_workers(workers)

    def run(
        self,
        specs: Sequence[RunSpec],
        progress: Optional[Callable[[RunSpec], None]] = None,
        on_result: Optional[Callable[[RunSpec, ExperimentResult], None]] = None,
    ) -> List[ExperimentResult]:
        """Execute ``specs`` and return results ordered by point index.

        ``progress`` is invoked once per point, in index order, when the
        point is dispatched (serial: immediately before it runs).

        ``on_result`` is invoked in the **main process**, once per point, in
        **completion order** — as soon as the point's result is available,
        not when the whole sweep is done.  This is the persistence hook the
        campaign store uses: a killed sweep has already delivered every
        finished point to ``on_result``, so completed work survives the
        interruption even though ``run`` never returned.  The returned list
        is index-ordered regardless.
        """
        ordered = sorted(specs, key=lambda spec: spec.index)
        if self.workers <= 1 or len(ordered) <= 1:
            results: List[ExperimentResult] = []
            for spec in ordered:
                if progress is not None:
                    progress(spec)
                result = execute_spec(spec)
                if on_result is not None:
                    on_result(spec, result)
                results.append(result)
            return results

        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        pool_size = min(self.workers, len(ordered))
        # Load the simulator here, once: forked workers inherit it instead of
        # each importing it again.
        import_module("repro.experiments.runner")
        with ProcessPoolExecutor(max_workers=pool_size) as pool:
            futures = []
            for spec in ordered:
                futures.append(pool.submit(execute_spec, spec))
                if progress is not None:
                    progress(spec)
            if on_result is not None:
                # Deliver results as they complete so the callback fires at
                # the earliest possible moment, then merge by index below.
                by_future = {future: spec for future, spec in zip(futures, ordered)}
                pending = set(futures)
                while pending:
                    done, pending = wait(pending, return_when=FIRST_COMPLETED)
                    for future in done:
                        on_result(by_future[future], future.result())
            # Collecting in submission order *is* the deterministic merge:
            # future i holds point i however the pool interleaved the work.
            return [future.result() for future in futures]


def seeded_replications(
    base_config: ExperimentConfig,
    count: int,
    *,
    root_seed: Optional[int] = None,
) -> List[ExperimentConfig]:
    """``count`` copies of ``base_config`` with independent derived seeds.

    Replication ``i`` gets ``spawn_seeds(root, count, "replication")[i]``
    where ``root`` defaults to the base config's own seed, so the seed list
    is a pure function of ``(root, i)``: stable under re-runs, under
    extending the replication count, and under any worker-count choice.
    """
    root = base_config.seed if root_seed is None else root_seed
    return [
        base_config.with_updates(seed=seed)
        for seed in spawn_seeds(root, count, "replication")
    ]
