"""Rule: timers follow the engine's (time, sequence) discipline.

The event core (ROADMAP "Determinism") orders simultaneous events by a
global sequence number; ``Simulator.timer()`` handles consume exactly one
sequence per ``arm`` just like ``schedule``, which is what keeps golden
traces byte-identical across engine refactors.  Two static guards:

* an ``import heapq`` anywhere in ``repro/`` outside the event core
  (``sim/engine.py``) is an ad-hoc event queue in the making — one that
  would order ties arbitrarily instead of by the global sequence;
* a raw ``*.schedule(...)`` call inside ``repro/transport/`` re-creates the
  pre-v3 retransmission-timer pattern (schedule + cancel churn on every
  ACK).  Transports must hold a reusable ``Simulator.timer()`` handle and
  ``arm``/``rearm``/``cancel`` it.

The network layer (links, fault injector) may still ``schedule``
one-shot events — delivery delays and fault arms are not timers that churn.
"""

import ast
from typing import Iterator

from repro.analysis.lint.core import LintRule, ModuleContext, Violation, register

#: The event core: the only module allowed to build on heapq.
HEAPQ_ALLOWED_FILES = frozenset({"repro/sim/engine.py"})


@register
class TimerDiscipline(LintRule):
    name = "timer-discipline"
    description = (
        "heapq outside the event core, or raw Simulator.schedule in "
        "repro/transport/, bypasses the engine's (time, sequence) discipline"
    )

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro"):
            return
        if ctx.package_path not in HEAPQ_ALLOWED_FILES:
            for node in ast.walk(ctx.tree):
                imports_heapq = (
                    isinstance(node, ast.Import)
                    and any(alias.name.split(".")[0] == "heapq" for alias in node.names)
                ) or (
                    isinstance(node, ast.ImportFrom)
                    and node.module is not None
                    and node.module.split(".")[0] == "heapq"
                )
                if imports_heapq:
                    yield self.violation(
                        ctx,
                        node,
                        "heapq builds an ad-hoc event queue that orders ties "
                        "arbitrarily; schedule through the Simulator so the global "
                        "(time, sequence) order holds",
                    )
        if ctx.in_package("repro/transport"):
            for node in ast.walk(ctx.tree):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "schedule"
                ):
                    yield self.violation(
                        ctx,
                        node,
                        "transports must not call Simulator.schedule directly for "
                        "timers; hold a Simulator.timer() handle and arm/rearm/"
                        "cancel it (each arm consumes one sequence, keeping golden "
                        "traces stable)",
                    )
