"""Rules: no wall-clock or global-RNG reads; no unordered-set iteration; no gc;
no builtin-sum means.

Simulation output must be a pure function of the run input (config, seed,
workload) — that is what makes sweep results byte-identical for any
``--workers`` value and what keeps store keys honest.  Two rule families
guard it statically:

* ``no-wallclock-or-global-random`` — reading a real clock
  (``time.time``/``monotonic``/``perf_counter``, ``datetime.now``, …),
  drawing entropy (``uuid.uuid4``), or calling the *module-level* shared
  ``random`` functions inside ``repro`` makes results depend on process
  state.  Randomness must flow through :mod:`repro.sim.randomness` or an
  injected ``random.Random`` instance (which is why ``random.Random(...)``
  itself is allowed).
* ``no-unordered-iteration`` — iterating a set/frozenset (literal,
  comprehension or constructor call) or a ``.keys()`` view inside the
  ``repro/sim``, ``repro/net`` and ``repro/topology`` packages feeds an
  order-sensitive pipeline (trace events, golden traces, route tables)
  with hash order.  Wrap the iterable in ``sorted(...)``.

A third rule guards process-global state of another kind:

* ``no-process-global-gc`` — the collector's generations, its threshold
  and its on/off switch belong to the whole process.  The run boundary in
  :func:`repro.experiments.runner.run_experiment` freezes, collects and
  unfreezes around each run; a second ``gc.freeze`` elsewhere would be
  silently undone by that ``unfreeze``, and any other call changes what
  the boundary's collection costs.

and one guards the bits of a float result across interpreters:

* ``no-float-sum-mean`` — from CPython 3.12 on, builtin ``sum()``
  compensates float additions (3.11 adds left to right), so a mean computed
  as ``sum(values) / n`` moves its last digit between the two, and every
  pinned output that prints it moves with it.  Accumulate left to right
  (``total += value``) instead.  A count, ``sum(1 for ...)``, is exact on
  both and stays allowed.
"""

import ast
from typing import Iterator, Optional

from repro.analysis.lint.core import LintRule, ModuleContext, Violation, register

#: Clock and entropy reads that make output depend on when/where it ran.
WALLCLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)

#: The only attribute of the ``random`` module that may be called: the
#: seeded-instance constructor.  Everything else (``random.random``,
#: ``random.choice``, ``random.seed``, ``random.SystemRandom``, …) either
#: touches the shared module-level generator or reads OS entropy.
ALLOWED_RANDOM_MEMBERS = frozenset({"Random"})


@register
class NoWallclockOrGlobalRandom(LintRule):
    name = "no-wallclock-or-global-random"
    description = (
        "wall-clock reads and module-level random.* calls in repro/ break "
        "cross-run determinism; use sim.randomness or an injected random.Random"
    )

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved is None:
                continue
            if resolved in WALLCLOCK_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved} reads process state, so results stop being a pure "
                    "function of the run input; thread simulated time or an "
                    "explicit value through instead",
                )
            elif (
                resolved.startswith("random.")
                and resolved.count(".") == 1
                and resolved.split(".", 1)[1] not in ALLOWED_RANDOM_MEMBERS
            ):
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved} uses the shared module-level generator; draw from "
                    "repro.sim.randomness streams or an injected random.Random",
                )


#: ``gc`` calls that change the collector's process-wide state or run it.
PROCESS_GC_CALLS = frozenset(
    f"gc.{name}"
    for name in ("freeze", "unfreeze", "collect", "disable", "enable", "set_threshold")
)


@register
class NoProcessGlobalGc(LintRule):
    name = "no-process-global-gc"
    description = (
        "gc.freeze/unfreeze/collect/disable/enable/set_threshold in repro/ act on the "
        "whole process; only the run boundary in experiments/runner may call them"
    )

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call(node.func)
            if resolved in PROCESS_GC_CALLS:
                yield self.violation(
                    ctx,
                    node,
                    f"{resolved} changes the collector of the whole process; leave it "
                    "to the run boundary in experiments/runner, whose unfreeze() would "
                    "silently undo any other freeze",
                )


def _counts_ones(call: ast.Call) -> bool:
    """True for ``sum(1 for ...)``: an exact int count."""
    if len(call.args) != 1:
        return False
    argument = call.args[0]
    return (
        isinstance(argument, ast.GeneratorExp)
        and isinstance(argument.elt, ast.Constant)
        and argument.elt.value == 1
    )


@register
class NoFloatSumMean(LintRule):
    name = "no-float-sum-mean"
    description = (
        "a builtin sum(...) divided into a mean in repro/ differs in its last bits "
        "between CPython 3.11 and 3.12; accumulate left to right instead"
    )

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not ctx.in_package("repro"):
            return
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div)):
                continue
            dividend = node.left
            if (
                isinstance(dividend, ast.Call)
                and ctx.resolve_call(dividend.func) == "sum"
                and not _counts_ones(dividend)
            ):
                yield self.violation(
                    ctx,
                    dividend,
                    "builtin sum() compensates float additions from CPython 3.12 on, "
                    "so this mean differs between 3.11 and 3.12; accumulate it left "
                    "to right (total += value) instead",
                )


def _is_sorted_call(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sorted"
    )


def _unordered_reason(node: ast.AST, ctx: ModuleContext) -> Optional[str]:
    """Why iterating ``node`` is order-unstable, or None when it is fine."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.SetComp):
        return "a set comprehension"
    if isinstance(node, ast.Call):
        resolved = ctx.resolve_call(node.func)
        if resolved in ("set", "frozenset"):
            return f"a {resolved}(...) call"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "keys"
            and not node.args
            and not node.keywords
        ):
            return "a .keys() view"
    return None


@register
class NoUnorderedIteration(LintRule):
    name = "no-unordered-iteration"
    description = (
        "iterating sets or .keys() views in repro/sim, repro/net and "
        "repro/topology without sorted() feeds hash order into traces"
    )

    _SCOPES = ("repro/sim", "repro/net", "repro/topology")

    def violations(self, ctx: ModuleContext) -> Iterator[Violation]:
        if not any(ctx.in_package(scope) for scope in self._SCOPES):
            return
        for node in ast.walk(ctx.tree):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(generator.iter for generator in node.generators)
            for candidate in iters:
                if _is_sorted_call(candidate):
                    continue
                reason = _unordered_reason(candidate, ctx)
                if reason is not None:
                    yield self.violation(
                        ctx,
                        candidate,
                        f"iterating {reason} here feeds simulation state with "
                        "unordered (or order-opaque) elements; wrap it in sorted(...)",
                    )
