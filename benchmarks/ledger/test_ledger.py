"""Opt-in tests of the ledger itself: ``python -m pytest benchmarks/ledger`` (< 10 s)."""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _entry in (str(ROOT / "src"), str(ROOT)):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.sim.engine import Simulator  # noqa: E402

from benchmarks.ledger import workloads  # noqa: E402
from benchmarks.ledger.__main__ import disagreements, regressions  # noqa: E402
from benchmarks.ledger.layers import benchmark, render  # noqa: E402
from benchmarks.ledger.run import end_to_end  # noqa: E402
from benchmarks.ledger.stats import sim_digest, summarise  # noqa: E402
from benchmarks.ledger.tracing import (  # noqa: E402
    HandlerTimer,
    SpanRecorder,
    bucket_of_file,
    layer_of_module,
    profile_buckets,
    ranked_budget,
)

# ---------------------------------------------------------------------------
# Median / IQR maths
# ---------------------------------------------------------------------------


def test_summarise_matches_statistics_quantiles():
    values = [12.3, 12.5, 12.5, 12.7, 13.1, 14.6, 15.0, 15.0, 15.1, 16.9]
    q1, _, q3 = statistics.quantiles(values, n=4)
    summary = summarise(values)
    assert summary["median"] == statistics.median(values)
    assert summary["iqr"] == q3 - q1
    assert (summary["min"], summary["max"], summary["n"]) == (12.3, 16.9, 10)


def test_single_pass_has_no_spread():
    assert summarise([4.2]) == {"median": 4.2, "iqr": 0.0, "min": 4.2, "max": 4.2, "n": 1}


def test_end_to_end_takes_medians_over_setups_and_passes():
    passes = [
        {"wall_s": 2.0, "cpu_s": 3.0, "rss_mb": 50.0, "cells": 144},
        {"wall_s": 4.0, "cpu_s": 5.0, "rss_mb": 60.0, "cells": 144},
        {"wall_s": 3.0, "cpu_s": 4.0, "rss_mb": 55.0, "cells": 144},
    ]
    metrics = end_to_end([0.5, 0.3, 0.4], passes)
    # peak_rss_mb is the first pass's: it must not depend on the pass count.
    assert metrics == {
        "setup_s": 0.4, "wall_s": 3.0, "cpu_s": 4.0, "cells_per_s": 48.0, "peak_rss_mb": 50.0,
    }
    assert sorted(metrics) == sorted(metric["name"] for metric in benchmark()["end_to_end"])


# ---------------------------------------------------------------------------
# Module -> layer bucketing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "filename, bucket",
    [
        ("/x/src/repro/sim/engine.py", "sim.engine"),
        ("/x/src/repro/sim/timerwheel.py", "sim.timerwheel"),
        ("/x/src/repro/sim/fluid.py", "sim.fluid"),
        ("/x/src/repro/sim/randomness.py", "sim.other"),
        ("/x/src/repro/net/ecmp.py", "net.switch"),
        ("/x/src/repro/net/routing.py", "net.switch"),
        ("/x/src/repro/net/monitor.py", "net.other"),
        ("/x/src/repro/transport/tcp.py", "transport.tcp"),
        ("/x/src/repro/transport/rto.py", "transport.other"),
        ("/x/src/repro/transport/cc/lia.py", "transport.other"),
        ("/x/src/repro/core/mmptcp.py", "core"),
        ("/x/src/repro/flowlevel/engine.py", "flowlevel"),
        ("/x/src/repro/analysis/lint/core.py", "analysis"),
        ("/x/src/repro/cli.py", "cli"),
        ("/x/src/repro/__init__.py", "other"),
        ("/usr/lib/python3.11/json/encoder.py", "other"),
        ("/x/repro/src/repro/store/runstore.py", "store"),
        ("~", "other"),
    ],
)
def test_bucket_of_file(filename, bucket):
    assert bucket_of_file(filename) == bucket


def test_layer_of_module_joins_core_to_transport():
    assert layer_of_module("repro.net.link") == "net"
    assert layer_of_module("repro.core.mmptcp") == "transport"
    assert layer_of_module("repro.flowlevel.engine") == "flowlevel"
    assert layer_of_module("functools") == "other"
    assert layer_of_module(None) == "other"


def test_profile_buckets_sum_self_time_and_calls():
    stats = {
        ("/x/src/repro/sim/engine.py", 10, "run"): (1, 1, 2.0, 9.0, {}),
        ("/x/src/repro/sim/engine.py", 90, "schedule"): (7, 8, 0.5, 0.5, {}),
        ("/x/src/repro/net/link.py", 5, "_deliver"): (3, 3, 1.5, 4.0, {}),
        ("/usr/lib/python3.11/heapq.py", 1, "heappush"): (9, 9, 1.0, 1.0, {}),
    }
    buckets = profile_buckets(stats)
    assert buckets["sim.engine"] == {"self_s": 2.5, "calls": 9}
    assert buckets["net.link"] == {"self_s": 1.5, "calls": 3}
    budget = ranked_budget(buckets, top=1)
    assert [row["bucket"] for row in budget] == ["sim.engine", "other"]
    assert budget[0]["share"] == 0.5


def test_render_fills_every_metric_and_rejects_unknown_names():
    per_layer = benchmark()["per_layer"]
    rendered = render(per_layer, {"sim.events": 7})
    assert len(rendered) == len(per_layer)
    assert rendered["sim.events"] == {"value": 7.0, "unit": "count"}
    assert rendered["store.hits"] == {"value": 0.0, "unit": "count"}
    with pytest.raises(KeyError):
        render(per_layer, {"sim.evnets": 1})


# ---------------------------------------------------------------------------
# Digest stability
# ---------------------------------------------------------------------------


def test_sim_digest_is_a_function_of_the_values_only():
    rows = [{"protocol": "tcp", "mean_fct_ms": 12.5, "short_flows": 61.0}]
    reordered = [{"short_flows": 61.0, "mean_fct_ms": 12.5, "protocol": "tcp"}]
    assert sim_digest(rows) == sim_digest(reordered)
    # Pinned: the digest must not drift with the Python version or the platform.
    assert sim_digest(rows) == "0771163939150ff73c1d9a4a4a3e2f32ff4947bc32b1bacfb948562d604ae2f4"
    changed = [{"protocol": "tcp", "mean_fct_ms": 12.500000001, "short_flows": 61.0}]
    assert sim_digest(changed) != sim_digest(rows)


# ---------------------------------------------------------------------------
# Spans and handler timing
# ---------------------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


def test_spans_nest_and_total_by_name():
    clock = _FakeClock()
    spans = SpanRecorder(clock)
    with spans.span("run"):
        clock.now += 1.0
        with spans.span("sim.run"):
            clock.now += 5.0
        with spans.span("sim.run"):
            clock.now += 2.0
        clock.now += 0.5
    assert spans.total("sim.run") == 7.0
    assert spans.total("run") == 8.5
    events = spans.chrome_trace("toy")["traceEvents"]
    complete = [event for event in events if event["ph"] == "X"]
    assert [event["args"]["parent"] for event in complete] == [None, 0, 0]
    assert complete[1]["dur"] == 5.0e6


def test_handler_timer_rolls_a_toy_run_up_by_defining_package():
    clock = _FakeClock()
    timer = HandlerTimer(clock)
    simulator = Simulator()
    simulator.profiler = timer

    def deliver() -> None:
        clock.now += 2.0

    def on_rto() -> None:
        clock.now += 5.0

    def scatter() -> None:
        clock.now += 1.0

    deliver.__module__ = "repro.net.link"
    on_rto.__module__ = "repro.transport.tcp"
    scatter.__module__ = "repro.core.mmptcp"
    for index in range(1000):
        simulator.schedule(index * 1e-6, (deliver, on_rto, scatter, deliver)[index % 4])
    simulator.run()
    timer.finish()

    assert simulator.events_processed == 1000
    assert timer.by_layer() == {
        "net": (500, 1000.0),
        "transport": (500, 250 * 5.0 + 250 * 1.0),
    }


# ---------------------------------------------------------------------------
# The CLI workloads, on a 2-cell spec
# ---------------------------------------------------------------------------


def test_campaign_workloads_on_a_two_cell_spec(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads._Campaign, "scenarios", ("baseline",))
    monkeypatch.setattr(workloads._Campaign, "protocols", ("tcp", "mmptcp"))
    monkeypatch.setattr(workloads._Campaign, "replications", 1)

    cold = workloads.CampaignCold()
    (tmp_path / "cold").mkdir()
    cold.setup(7, tmp_path / "cold")
    assert cold.cell_count == 2
    cold_pass = cold.run_pass(0)
    checks = cold.verify([cold_pass])
    assert all(ok for _, ok in cold_pass.ops + checks), cold_pass.ops + checks
    assert ("workers1==workers2", True) in checks
    assert cold_pass.cells == 2 and cold_pass.events > 0 and cold_pass.cpu_s > 0

    warm = workloads.CampaignWarm()
    (tmp_path / "warm").mkdir()
    warm.setup(7, tmp_path / "warm")
    warm_pass = warm.run_pass(0)
    assert all(ok for _, ok in warm_pass.ops), warm_pass.ops
    assert ("report==cold report", True) in warm_pass.ops
    assert warm_pass.events == 0
    # Same seed, same cells: the warm store holds exactly what the cold run wrote.
    assert warm_pass.digest == cold_pass.digest


# ---------------------------------------------------------------------------
# --check-stability
# ---------------------------------------------------------------------------


def _document(wall_s: float, events: float, digest: str, fct_error: float = 7.0):
    per_layer = {metric["name"]: 0.0 for metric in benchmark()["per_layer"]}
    per_layer["sim.events"] = events
    return {
        "workloads": {
            "fluid_loadsweep": {
                "end_to_end": {
                    "setup_s": 0.4, "wall_s": wall_s, "cpu_s": wall_s,
                    "cells_per_s": 2 / wall_s, "peak_rss_mb": 70.0,
                    "fluid_fct_error_pct": fct_error,
                },
                "per_layer": per_layer,
                "sim_digest": digest,
                "failed": 0,
                "failed_ops": [],
            }
        }
    }


def test_disagreements_names_the_offending_pairs():
    assert disagreements(_document(10.0, 5.0, "a"), _document(11.0, 5.0, "a")) == []
    offending = disagreements(_document(10.0, 5.0, "a"), _document(14.0, 6.0, "b"))
    assert [line.split(":")[0] for line in offending] == [
        "fluid_loadsweep wall_s",
        "fluid_loadsweep cpu_s",
        "fluid_loadsweep cells_per_s",
        "fluid_loadsweep sim.events",
        "fluid_loadsweep sim_digest",
    ]


def test_regressions_hold_the_accuracy_metric_to_one_point_above_the_committed_report():
    committed = _document(10.0, 5.0, "a", fct_error=7.0)
    assert regressions(_document(10.0, 5.0, "a", fct_error=7.9), committed) == []
    assert regressions(_document(10.0, 5.0, "a", fct_error=3.0), committed) == []
    assert regressions(_document(10.0, 5.0, "a", fct_error=8.1), None) == []
    (line,) = regressions(_document(10.0, 5.0, "a", fct_error=8.1), committed)
    assert line.startswith("fluid_loadsweep fluid_fct_error_pct: 8.1 vs committed 7")
    failed = _document(10.0, 5.0, "a")
    failed["workloads"]["fluid_loadsweep"].update(failed=1, failed_ops=["load=1.0"])
    assert regressions(failed, committed) == ["fluid_loadsweep failed ops: ['load=1.0']"]
