"""Golden-trace regression tests.

Canonical reference runs — a tiny MMPTCP incast burst, a short/long run
with a mid-experiment core-link failure, and the same run across a host
migration for MMPTCP and for MPTCP — are serialised into a deterministic
text form (canonical trace events + per-flow outcome lines +
run totals) and compared byte-for-byte against checked-in golden files.

Any refactor that changes packet timing, drop behaviour, fault application
order, event counts or per-flow outcomes shows up as a diff here instead of
drifting silently.  If a behaviour change is *intended*, regenerate with::

    python tests/test_golden_traces.py

and commit the updated ``tests/golden/*.golden`` files together with the
change that explains them.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    # Running this file directly (outside pytest's pythonpath bootstrap)
    # must still find the package: put <repo>/src on the path first.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.config import ExperimentConfig
from repro.experiments.incast_study import build_incast_workload_for
from repro.experiments.runner import ExperimentResult, run_experiment
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP
from support import (
    RecordingProbes,
    canonical_trace,
    golden_link_failure_config,
    golden_migration_config,
)

GOLDEN_DIR = Path(__file__).parent / "golden"


# ---------------------------------------------------------------------------
# Reference runs
# ---------------------------------------------------------------------------


def _incast_config() -> ExperimentConfig:
    return ExperimentConfig(
        fattree_k=4,
        hosts_per_edge=1,
        protocol=PROTOCOL_MMPTCP,
        num_subflows=4,
        arrival_window_s=0.05,
        drain_time_s=0.8,
        initial_cwnd_segments=2,
        # Shallow queues so the synchronised burst actually overflows them:
        # the golden trace then pins down drop timing, not just completions.
        queue_capacity_packets=16,
        seed=42,
    )


def _flow_lines(result: ExperimentResult) -> str:
    lines = []
    for record in result.metrics.flows:
        lines.append(
            f"flow {record.flow_id} {record.protocol} long={record.is_long} "
            f"fct={record.completion_time!r} retx={record.retransmitted_packets} "
            f"rtos={record.rto_events} sent={record.data_packets_sent} "
            f"bytes={record.bytes_received}\n"
        )
    return "".join(lines)


def _golden_text(config: ExperimentConfig, incast_fan_in: int = 0) -> str:
    """The full canonical serialisation of one reference run."""
    probes = RecordingProbes()
    workload = None
    if incast_fan_in:
        workload = build_incast_workload_for(config, incast_fan_in, 50_000, config.protocol)
    result = run_experiment(config, workload=workload, probes=probes)
    return (
        canonical_trace(probes.events)
        + _flow_lines(result)
        + f"events_processed={result.events_processed} flows={result.workload_size}\n"
    )


#: name -> zero-argument builder of the golden text.
GOLDEN_RUNS = {
    "incast_mmptcp": lambda: _golden_text(_incast_config(), incast_fan_in=4),
    "linkfail_mmptcp": lambda: _golden_text(golden_link_failure_config()),
    "migration_mmptcp": lambda: _golden_text(golden_migration_config()),
    "migration_mptcp": lambda: _golden_text(
        replace(golden_migration_config(), protocol=PROTOCOL_MPTCP)
    ),
}


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


def _assert_matches_golden(name: str) -> None:
    golden_path = GOLDEN_DIR / f"{name}.golden"
    assert golden_path.exists(), (
        f"golden file {golden_path} is missing; generate it with "
        "`python tests/test_golden_traces.py`"
    )
    actual = GOLDEN_RUNS[name]()
    expected = golden_path.read_text()
    assert actual == expected, (
        f"the {name} reference run diverged from its golden trace; if the "
        "behaviour change is intended, regenerate with "
        "`python tests/test_golden_traces.py` and commit the diff"
    )


def test_incast_golden_trace_is_stable() -> None:
    _assert_matches_golden("incast_mmptcp")


def test_link_failure_golden_trace_is_stable() -> None:
    _assert_matches_golden("linkfail_mmptcp")


def test_migration_golden_trace_is_stable() -> None:
    _assert_matches_golden("migration_mmptcp")


def test_mptcp_migration_golden_trace_is_stable() -> None:
    _assert_matches_golden("migration_mptcp")


def test_migration_golden_contains_the_mobility_event_sequence() -> None:
    text = GOLDEN_RUNS["migration_mmptcp"]()
    # The blackout and the re-attach both trace, in order.
    assert " migrate_host " in text
    assert " host_attached " in text
    assert text.index(" migrate_host ") < text.index(" host_attached ")
    # Every flow still completes: the fabric re-converges around the move.
    assert "fct=None" not in text


def test_golden_runs_are_deterministic_within_a_process() -> None:
    # The serialisation itself must be a pure function of the config: two
    # back-to-back runs produce identical bytes (packet ids and other
    # process-global counters must not leak into the canonical form).
    assert GOLDEN_RUNS["incast_mmptcp"]() == GOLDEN_RUNS["incast_mmptcp"]()


def test_golden_traces_stable_with_pool_poisoning() -> None:
    # The strongest proof of the packet pool's acquire/release discipline:
    # with every released packet poisoned (and poison verified again on
    # reacquisition), the reference runs must still reproduce their golden
    # bytes exactly.  A use-after-release anywhere in the stack would read
    # poisoned garbage and diverge loudly here.
    from repro.net.packet import set_pool_debug

    previous = set_pool_debug(True)
    try:
        for name in GOLDEN_RUNS:
            _assert_matches_golden(name)
    finally:
        set_pool_debug(previous)


def test_link_failure_golden_contains_fault_and_flows() -> None:
    text = GOLDEN_RUNS["linkfail_mmptcp"]()
    assert " link_down " in text
    assert "flow 1 " in text
    # The canonical link-failure run must still deliver every flow.
    assert "fct=None" not in text


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, builder in GOLDEN_RUNS.items():
        path = GOLDEN_DIR / f"{name}.golden"
        path.write_text(builder())
        print(f"wrote {path}")
