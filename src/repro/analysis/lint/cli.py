"""Command-line front end for the invariant linter.

The ``repro-mmptcp lint`` sub-command declares the options (in
:func:`repro.cli.build_parser`) and calls :func:`run_lint_command`;
``python -m repro.analysis.lint`` is that same sub-command, so the two entry
points cannot drift.
"""

import argparse
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.lint.core import lint_paths, registered_rules
from repro.analysis.lint.report import exit_code, render_human, render_json


def run_lint_command(args: argparse.Namespace) -> int:
    """Execute one lint run; an unknown rule raises ``ValueError`` and a
    missing path ``FileNotFoundError`` (the CLI's one-line exit 2)."""
    if args.list_rules:
        for rule in registered_rules():
            print(f"{rule.name}: {rule.description}")
        return 0
    try:
        report = lint_paths([Path(path) for path in args.paths], rules=args.rules)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from exc
    output = render_json(report) if args.format == "json" else render_human(report) + "\n"
    sys.stdout.write(output)
    return exit_code(report)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point (``python -m repro.analysis.lint``): ``repro-mmptcp lint``."""
    from repro.cli import main as cli_main

    return cli_main(["lint", *(sys.argv[1:] if argv is None else argv)])


__all__: List[str] = [
    "main",
    "run_lint_command",
]
