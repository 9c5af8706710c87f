"""The ledger's metric catalogue, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repo root is the one place that names the metrics,
their units, directions and bounds, and the length of a run; everything here
is a view of it.  A layer is a ``repro`` package.  Timings are *host* time;
the ``ms`` / ``Mbps`` / ``%`` statistics are *simulated* and repeat exactly
for a fixed seed.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping

ROOT = Path(__file__).resolve().parents[2]


@functools.cache
def benchmark() -> Dict[str, Any]:
    """``BENCHMARK.json``: ``run_seconds``, ``workloads``, ``end_to_end``, ``per_layer``."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def render(
    catalogue: List[Mapping[str, Any]], measured: Mapping[str, float]
) -> Dict[str, Dict[str, object]]:
    """``{name: {"value", "unit"}}`` for every metric of ``catalogue``.

    ``catalogue`` is ``benchmark()["end_to_end"]`` or ``["per_layer"]``.  A
    metric the workload did not measure reads 0 — the layer did no work
    there.  Names outside the catalogue are a programming error.
    """
    unknown = sorted(set(measured) - {metric["name"] for metric in catalogue})
    if unknown:
        raise KeyError(f"metrics outside the catalogue: {unknown}")
    return {
        metric["name"]: {
            "value": float(measured.get(metric["name"], 0.0)),
            "unit": metric["unit"],
        }
        for metric in catalogue
    }
