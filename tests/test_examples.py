"""Rot guard for ``examples/``.

The examples are run by no CI job, so an API change can break them
silently.  Importing each one resolves every name it takes from ``repro``,
and the examples that parse arguments must still answer ``--help``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(path.stem for path in EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_imports_and_parses_help(name: str, monkeypatch, capsys) -> None:
    spec = importlib.util.spec_from_file_location(f"example_{name}", EXAMPLES_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)
    if hasattr(module, "argparse"):
        monkeypatch.setattr(sys, "argv", [f"{name}.py", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            module.main()
        assert excinfo.value.code == 0
        assert "usage:" in capsys.readouterr().out
