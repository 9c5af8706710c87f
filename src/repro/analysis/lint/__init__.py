"""Static analysis: an AST-based linter for the repository's invariants.

The ROADMAP's standing contracts — byte-identical determinism across
``--workers``, the :func:`repro.metrics.export.dumps_deterministic` JSON
policy, linear packet-pool ownership, store keys that never hash execution
details, and the timers' (time, sequence) discipline — are enforced at runtime
by golden traces and property tests.  This package enforces them *statically*
so a violation is caught at review time on every path, not just the
exercised ones.

Run it as ``repro-mmptcp lint [paths...]`` or
``python -m repro.analysis.lint [paths...]``.  Findings can be silenced per
line with a justified ``# repro: allow[rule-name]`` comment; naming an
unknown rule is itself an error, so suppressions cannot rot silently.
"""

from repro import lazy_exports
from repro.analysis.lint import (  # importing a rule module registers its rules
    rules_determinism,
    rules_json,
    rules_mutation,
    rules_pool,
    rules_store,
    rules_timers,
)

__all__, __getattr__ = lazy_exports(__name__, {
    "core": ("all_rule_names", "lint_paths", "registered_rules"),
    "report": ("EXIT_USAGE", "render_human", "render_json"),
})
