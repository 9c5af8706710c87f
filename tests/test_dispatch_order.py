"""Dispatch-order golden: the scheduler's ``(time, sequence)`` order, pinned.

Every reference run below is executed with a recorder on the public
``Simulator.profiler`` hook; the sha256 of the whole dispatch sequence —
one ``repr(now) callback.__qualname__`` line per event — and
``events_processed`` are compared against ``tests/golden/dispatch_order.json``.
The golden was captured from the two-source engine (event heap + timer
wheel) and is the oracle any replacement scheduler must reproduce: a change
in tie-breaking, in where sequence numbers are drawn, or in what counts as
an event shows up here before it reaches a trace or an export.

If an ordering change is *intended*, regenerate with::

    python tests/test_dispatch_order.py

and commit the updated golden together with the change that explains it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Any, Callable, Dict, Optional

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest

import repro.experiments.runner as packet_runner
import repro.flowlevel.engine as flow_runner
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.metrics.export import dumps_deterministic
from repro.scenarios import get_scenario, tiny_config
from repro.sim.engine import Simulator
from repro.traffic.flowspec import PROTOCOL_MMPTCP, PROTOCOL_MPTCP, PROTOCOL_TCP

GOLDEN_PATH = Path(__file__).parent / "golden" / "dispatch_order.json"


def _scenario(name: str) -> ExperimentConfig:
    return get_scenario(name).apply_to(tiny_config(protocol=PROTOCOL_MMPTCP))


#: name -> zero-argument builder of the run's config.
DISPATCH_RUNS: Dict[str, Callable[[], ExperimentConfig]] = {
    "tiny_tcp": lambda: tiny_config(protocol=PROTOCOL_TCP),
    "tiny_mptcp4": lambda: tiny_config(protocol=PROTOCOL_MPTCP, num_subflows=4),
    "tiny_mmptcp4": lambda: tiny_config(protocol=PROTOCOL_MMPTCP, num_subflows=4),
    "core-link-failure_mmptcp": lambda: _scenario("core-link-failure"),
    "vm-migration_mmptcp": lambda: _scenario("vm-migration"),
    "tiny_mmptcp4_flow": lambda: tiny_config(protocol=PROTOCOL_MMPTCP, fidelity="flow"),
}


class _DispatchRecorder:
    """A ``Simulator.profiler`` that hashes ``(now, handler)`` per event."""

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self.digest = hashlib.sha256()

    def note(self, callback: Any) -> None:
        name = getattr(callback, "__qualname__", None) or type(callback).__name__
        self.digest.update(f"{self.simulator.now!r} {name}\n".encode())


class _RecordingSimulator(Simulator):
    """A simulator born with a dispatch recorder attached.

    ``last`` is the most recent one, held only until :func:`dispatch_entry`
    has read its digest.
    """

    last: Optional["_RecordingSimulator"] = None

    def __init__(self) -> None:
        super().__init__()
        self.profiler = _DispatchRecorder(self)
        _RecordingSimulator.last = self


def dispatch_entry(name: str) -> Dict[str, Any]:
    """Run one reference config and return its golden entry."""
    saved = packet_runner.Simulator, flow_runner.Simulator
    packet_runner.Simulator = flow_runner.Simulator = _RecordingSimulator
    try:
        result = run_experiment(DISPATCH_RUNS[name]())
        simulator = _RecordingSimulator.last
    finally:
        packet_runner.Simulator, flow_runner.Simulator = saved
        _RecordingSimulator.last = None
    assert simulator.events_processed == result.events_processed
    return {
        "events_processed": result.events_processed,
        "sha256": simulator.profiler.digest.hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(DISPATCH_RUNS))
def test_dispatch_order_matches_golden(name: str) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(DISPATCH_RUNS)
    assert dispatch_entry(name) == golden[name], (
        f"the {name} run dispatched its events in a different order than the "
        "golden; if the change is intended, regenerate with "
        "`python tests/test_dispatch_order.py` and commit the diff"
    )
    # Nothing keeps the reference run's graph alive once its digest is read.
    assert _RecordingSimulator.last is None


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    entries = {name: dispatch_entry(name) for name in sorted(DISPATCH_RUNS)}
    GOLDEN_PATH.write_text(dumps_deterministic(entries))
    print(f"wrote {GOLDEN_PATH}")
