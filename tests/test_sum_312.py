"""The pinned outputs under CPython 3.12's ``sum()``, on any interpreter.

From 3.12 on, builtin ``sum()`` compensates float additions (Neumaier); 3.11
adds left to right.  A mean that sums its floats with the builtin therefore
moves its last digit between the two, and so does every golden byte that
prints it.  CI runs tier-1 on both; this test runs the goldens that print
means with :func:`support.sum_312` patched into every ``repro`` module, so a
3.11 interpreter sees what 3.12 would.
"""

from __future__ import annotations

import json

import test_cell_cli
import test_studies
from repro.cli import main
from repro.experiments import STUDIES, run_study, study_rows
from repro.metrics.export import dumps_deterministic

from support import patch_sum_312, sum_312


def test_goldens_that_print_means_hold_under_312_sum(monkeypatch, tmp_path, capsys) -> None:
    # 3.12's own answers: compensated floats, exact ints, any other start.
    assert sum_312([0.1] * 10) == 1.0 and sum_312([1e100, 1.0, -1e100]) == 1.0
    assert sum_312([1, 2, True]) == 4 and sum_312([[1], [2]], []) == [1, 2]
    patch_sum_312(monkeypatch)

    golden = json.loads(test_cell_cli.GOLDEN_PATH.read_text())
    captured = json.loads(dumps_deterministic(test_cell_cli.capture(tmp_path / "cells")))
    for name in golden:
        assert captured[name] == golden[name], name

    for key in ("hotspot/flow", "section3/packet"):
        name, fidelity = key.split("/")
        config = test_studies._tiny_config(fidelity)
        rows = study_rows(run_study(STUDIES[name], config, **test_studies.PARAMS[name]))
        assert dumps_deterministic(rows) == dumps_deterministic(
            test_studies.STUDY_ROWS[key]["rows"]
        ), key

    study = test_studies.STUDY_CLI["loadsweep"]
    export = tmp_path / "loadsweep"
    capsys.readouterr()
    assert main(study["argv"] + ["--export-dir", str(export)]) == 0
    assert capsys.readouterr().out.replace(str(export), "<export-dir>") == study["stdout"]
    assert (export / "loadsweep.csv").read_text() == study["csv"]
