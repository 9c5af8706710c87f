"""Unified observability: telemetry probes, engine profiler, timeline export.

The deterministic telemetry layer for the MMPTCP reproduction:

* :mod:`repro.obs.telemetry` — run-scoped probes (counters, gauges,
  simulated-time series, bounded event logs) behind the zero-cost
  ``NULL_PROBES`` convention, plus byte-stable JSONL rendering.  Probes
  are the simulator's one observation channel: endpoints, hosts, switches
  and both fault appliers report through them;
* :mod:`repro.obs.profiler` — the ``--profile`` event-loop profiler whose
  ``diagnostics`` output is the one sanctioned wall-clock island, excluded
  from store keys, goldens and every byte-compare surface;
* :mod:`repro.obs.chrome` — ``repro-mmptcp trace export``: telemetry JSONL
  → Chrome trace-event / Perfetto timeline JSON.

Everything probe-visible is keyed on simulated time and downsampled
deterministically, so telemetry holds the same invariant as metrics:
byte-identical output for any ``--workers`` value.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "chrome": ("chrome_trace_document",),
    "telemetry": ("ALL_GROUPS", "NULL_PROBES", "PROBE_GROUPS", "SeriesBuffer", "TelemetryRecorder",
        "make_recorder", "probe_groups_argument", "telemetry_jsonl", "telemetry_records"),
})
