"""Tests for markdown report generation."""

from __future__ import annotations

from repro.analysis.report import markdown_table


def test_markdown_table_structure() -> None:
    table = markdown_table(["a", "b"], [[1, 2.5], ["x", True]])
    lines = table.splitlines()
    assert lines[0] == "| a | b |"
    assert lines[1] == "|---|---|"
    assert "2.500" in lines[2]
    assert "yes" in lines[3]
