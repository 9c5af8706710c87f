"""Byte goldens for the scenario and campaign sub-commands.

``tests/golden/cell_cli.json`` pins, per case, the exit code, stdout, stderr
and every file the command wrote — for ``scenarios run``, ``scenarios
matrix`` (with and without the baseline protocol, and with telemetry) and
``campaign run`` (cold, then warm) / ``status`` / ``report`` / ``gc
--dry-run``, ``store verify``, ``run --telemetry-out`` and ``trace export``,
plus the incomplete-campaign and unknown-scenario failures.  It was captured before
matrices and campaigns moved onto the study executor, so a refactor of the
plan → executor → rows path that moves one byte of CLI output fails here.
The cases share one work directory and run in order (the warm run reads the
store the cold run filled).  If an output change is *intended*, regenerate
with::

    python tests/test_cell_cli.py

and commit the updated golden together with the change that explains it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

import pytest

if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import main
from repro.metrics.export import dumps_deterministic

GOLDEN_PATH = Path(__file__).parent / "golden" / "cell_cli.json"

_GRID = [
    "--store", "<dir>/store", "--name", "golden",
    "--scenarios", "baseline", "core-link-failure",
    "--transports", "tcp", "mmptcp",
    "--fidelities", "packet", "flow",
]
_RUN = _GRID + [
    "--replications", "2", "--report", "<dir>/campaign/report.md",
    "--export-dir", "<dir>/campaign",
]
#: One more replication than the cold run stored.
_EXTENDED = _GRID + ["--replications", "3"]

#: ``name -> argv``, in execution order; ``<dir>`` is the shared work directory.
CASES: Dict[str, List[str]] = {
    "scenarios_run": [
        "scenarios", "run", "core-link-failure", "--protocol", "mmptcp",
        "--export-dir", "<dir>/run",
    ],
    "matrix_with_baseline": [
        "scenarios", "matrix", "--scenarios", "baseline", "core-link-failure",
        "--transports", "tcp", "mmptcp", "--export-dir", "<dir>/matrix",
    ],
    "matrix_without_baseline": [
        "scenarios", "matrix", "--scenarios", "core-link-failure",
        "--transports", "mptcp", "mmptcp", "--export-dir", "<dir>/matrix_nobase",
    ],
    "matrix_telemetry": [
        "scenarios", "matrix", "--scenarios", "core-link-failure",
        "--transports", "tcp", "mmptcp", "--probes", "all",
        "--telemetry-dir", "<dir>/telemetry",
    ],
    "campaign_cold": ["campaign", "run"] + _RUN,
    "campaign_warm": ["campaign", "run"] + _RUN,
    "campaign_status": ["campaign", "status"] + _EXTENDED,
    "campaign_status_summary": ["campaign", "status"] + _EXTENDED + ["--summary"],
    "campaign_report": ["campaign", "report"] + _GRID + ["--replications", "2"],
    "campaign_report_incomplete": ["campaign", "report"] + _EXTENDED,
    "scenarios_run_unknown": ["scenarios", "run", "no-such-scenario"],
    "matrix_unknown": ["scenarios", "matrix", "--scenarios", "no-such-scenario"],
    "campaign_run_unknown": [
        "campaign", "run", "--store", "<dir>/store", "--scenarios", "no-such-scenario",
    ],
    "store_verify": ["store", "verify", "--store", "<dir>/store"],
    "campaign_gc_dry_run": ["campaign", "gc"] + _GRID + ["--replications", "1", "--dry-run"],
    "run_telemetry": [
        "run", "--protocol", "mmptcp", "--subflows", "2", "--k", "4", "--hosts-per-edge", "2",
        "--max-short-flows", "4", "--arrival-rate", "2.0", "--seed", "3", "--probes", "all",
        "--telemetry-out", "<dir>/run_telemetry/t.jsonl", "--export-dir", "<dir>/run_telemetry",
    ],
    "trace_export": [
        "trace", "export", "<dir>/run_telemetry/t.jsonl", "--output", "<dir>/trace/run.trace.json",
    ],
}


def _normalise(text: str, workdir: Path) -> str:
    text = text.replace(str(workdir), "<dir>")
    return re.sub(r"wall-clock: [0-9.]+ s", "wall-clock: <t> s", text)


def _digest(lines: List[str]) -> Dict[str, object]:
    return {
        "lines": len(lines),
        "sha256": hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest(),
    }


def _file_entry(path: Path, workdir: Path) -> object:
    text = path.read_text()
    if path.name.endswith(".trace.json"):
        # A Chrome trace runs to megabytes: pin its run-level metadata and a
        # digest of the event list.
        document = json.loads(text)
        events = [dumps_deterministic(event, indent=None) for event in document["traceEvents"]]
        return {"otherData": document["otherData"], "traceEvents": _digest(events)}
    if path.suffix != ".jsonl":
        return _normalise(text, workdir)
    # Telemetry: the diagnostics record carries wall-clock, and the stream is
    # large — pin a digest of everything else.
    return _digest([line for line in text.splitlines() if '"kind": "diagnostics"' not in line])


def _outputs(argv: List[str], workdir: Path) -> List[Path]:
    """The files under every ``<dir>/...`` path ``argv`` names, the store excepted."""
    files = set()
    for arg in argv:
        if arg.startswith("<dir>/") and arg != "<dir>/store":
            root = workdir / arg[len("<dir>/"):]
            files.update([root] if root.is_file() else root.rglob("*"))
    return sorted(path for path in files if path.is_file())


def capture(workdir: Path) -> Dict[str, Dict[str, object]]:
    """Run every case in order inside ``workdir`` and return the golden document."""
    document: Dict[str, Dict[str, object]] = {}
    for name, argv in CASES.items():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([arg.replace("<dir>", str(workdir)) for arg in argv])
        document[name] = {
            "code": code,
            "stdout": _normalise(stdout.getvalue(), workdir),
            "stderr": _normalise(stderr.getvalue(), workdir),
            "files": {
                str(path.relative_to(workdir)): _file_entry(path, workdir)
                for path in _outputs(argv, workdir)
            },
        }
    return document


@pytest.fixture(scope="module")
def captured(tmp_path_factory) -> Dict[str, Dict[str, object]]:
    return capture(tmp_path_factory.mktemp("cell_cli"))


def test_golden_covers_every_case() -> None:
    assert list(json.loads(GOLDEN_PATH.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", list(CASES))
def test_cell_subcommand_bytes_match_golden(name: str, captured) -> None:
    golden = json.loads(GOLDEN_PATH.read_text())[name]
    assert json.loads(dumps_deterministic(captured[name])) == golden


if __name__ == "__main__":  # pragma: no cover - regeneration entry point
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN_PATH.write_text(dumps_deterministic(capture(Path(scratch))))
    print(f"wrote {GOLDEN_PATH}")
