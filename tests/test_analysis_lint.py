"""Tests for :mod:`repro.analysis.lint` — the AST-based invariant linter.

Each rule gets a firing fixture and a compliant twin, suppressions are
exercised in both positions (same line, line above), unknown-rule
suppressions must be rejected, the JSON report must be byte-stable, and a
meta-test runs the linter over the real ``src``/``tests`` trees and asserts
the zero-violation baseline that CI gates on.
"""

import ast
import functools
import json
from pathlib import Path
from typing import NamedTuple, Tuple

import pytest

import repro
from repro.analysis.lint import (
    EXIT_USAGE,
    all_rule_names,
    lint_paths,
    registered_rules,
    render_human,
    render_json,
)
from repro.cli import main

REPO_ROOT = Path(repro.__file__).resolve().parents[2]

ALL_RULES = (
    "no-float-sum-mean",
    "no-mutation-during-iteration",
    "no-process-global-gc",
    "no-raw-json",
    "no-unordered-iteration",
    "no-wallclock-or-global-random",
    "pool-ownership",
    "store-key-purity",
    "timer-discipline",
)


def _lint(tmp_path, relpath: str, source: str):
    """Write ``source`` at ``relpath`` under a scratch root and lint it."""
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_paths([path], root=tmp_path)


def _rules_fired(report):
    return [violation.rule for violation in report.violations]


def test_registry_exposes_the_contracted_rules() -> None:
    assert all_rule_names() == ALL_RULES
    for rule in registered_rules():
        assert rule.description


# ---------------------------------------------------------------------------
# no-raw-json
# ---------------------------------------------------------------------------


def test_no_raw_json_fires_outside_policy_modules(tmp_path) -> None:
    report = _lint(
        tmp_path,
        "src/repro/metrics/collector.py",
        "import json\n\n\ndef emit(payload):\n    return json.dumps(payload)\n",
    )
    assert _rules_fired(report) == ["no-raw-json"]
    assert report.violations[0].line == 5


def test_no_raw_json_fires_in_tests_and_through_aliases(tmp_path) -> None:
    report = _lint(
        tmp_path,
        "tests/test_something.py",
        "from json import dump as dump_it\n\n\ndef save(payload, fh):\n"
        "    dump_it(payload, fh)\n",
    )
    assert _rules_fired(report) == ["no-raw-json"]


def test_no_raw_json_silent_in_policy_modules_and_on_policy_calls(tmp_path) -> None:
    policy = "import json\n\n\ndef dumps(payload):\n    return json.dumps(payload)\n"
    assert _lint(tmp_path, "src/repro/metrics/export.py", policy).clean
    assert _lint(tmp_path, "src/repro/store/canonical.py", policy).clean
    compliant = (
        "from repro.metrics.export import dumps_deterministic\n\n\n"
        "def emit(payload):\n    return dumps_deterministic(payload)\n"
    )
    assert _lint(tmp_path, "src/repro/metrics/collector.py", compliant).clean


# ---------------------------------------------------------------------------
# no-wallclock-or-global-random
# ---------------------------------------------------------------------------


def test_wallclock_fires_even_through_import_aliases(tmp_path) -> None:
    report = _lint(
        tmp_path,
        "src/repro/experiments/thing.py",
        "import time as _clock\n\n\ndef stamp():\n    return _clock.time()\n",
    )
    assert _rules_fired(report) == ["no-wallclock-or-global-random"]


def test_global_random_fires_module_level_calls_only(tmp_path) -> None:
    firing = _lint(
        tmp_path,
        "src/repro/traffic/thing.py",
        "import random\n\n\ndef pick(items):\n    return random.choice(items)\n",
    )
    assert _rules_fired(firing) == ["no-wallclock-or-global-random"]
    compliant = _lint(
        tmp_path,
        "src/repro/traffic/other.py",
        "import random\n\n\ndef make_rng(seed):\n    return random.Random(seed)\n",
    )
    assert compliant.clean


def test_wallclock_scoped_to_the_repro_package(tmp_path) -> None:
    outside = "import time\n\n\ndef stamp():\n    return time.time()\n"
    assert _lint(tmp_path, "tests/test_timing.py", outside).clean


# ---------------------------------------------------------------------------
# no-process-global-gc
# ---------------------------------------------------------------------------


def test_process_global_gc_fires_on_every_state_changing_call(tmp_path) -> None:
    report = _lint(
        tmp_path,
        "src/repro/experiments/thing.py",
        "import gc\nfrom gc import freeze as pin\n\n\ndef boundary(run):\n"
        "    pin()\n    gc.unfreeze()\n    gc.collect()\n    gc.disable()\n"
        "    gc.enable()\n    gc.set_threshold(700)\n    return gc.get_count()\n",
    )
    assert _rules_fired(report) == ["no-process-global-gc"] * 6
    assert [violation.line for violation in report.violations] == [6, 7, 8, 9, 10, 11]


def test_process_global_gc_scoped_to_the_repro_package(tmp_path) -> None:
    outside = "import gc\n\n\ndef quiet():\n    gc.disable()\n"
    assert _lint(tmp_path, "tests/test_memory.py", outside).clean
    suppressed = (
        "import gc\n\n\ndef boundary():\n"
        "    gc.collect()  # repro: allow[no-process-global-gc] -- the one boundary\n"
    )
    report = _lint(tmp_path, "src/repro/experiments/runner.py", suppressed)
    assert report.clean and report.suppressed == 1


# ---------------------------------------------------------------------------
# no-float-sum-mean
# ---------------------------------------------------------------------------


def test_float_sum_mean_fires_on_a_builtin_sum_dividend(tmp_path) -> None:
    source = (
        "def means(values, links):\n"
        "    a = sum(values) / len(values)\n"
        "    b = sum(link.busy for link in links) / len(links)\n"
        "    c = sum(1 for value in values if value) / len(values)\n"
        "    d = 2 * sum(values)\n"
        "    return len(values) / sum(values)\n"
    )
    report = _lint(tmp_path, "src/repro/metrics/thing.py", source)
    assert _rules_fired(report) == ["no-float-sum-mean"] * 2
    assert [violation.line for violation in report.violations] == [2, 3]


def test_float_sum_mean_scoped_to_builtin_sum_in_repro(tmp_path) -> None:
    mean = "def mean(values):\n    return sum(values) / len(values)\n"
    assert _lint(tmp_path, "tests/test_means.py", mean).clean
    fsum = "from math import fsum as sum\n\n\n" + mean
    assert _lint(tmp_path, "src/repro/metrics/thing.py", fsum).clean
    loop = (
        "def mean(values):\n    total = 0.0\n    for value in values:\n"
        "        total += value\n    return total / len(values)\n"
    )
    assert _lint(tmp_path, "src/repro/metrics/thing.py", loop).clean


# ---------------------------------------------------------------------------
# no-unordered-iteration
# ---------------------------------------------------------------------------


def test_unordered_iteration_fires_on_sets_and_keys_views(tmp_path) -> None:
    source = (
        "def walk(nodes, table):\n"
        "    for node in {n for n in nodes}:\n"
        "        pass\n"
        "    for name in table.keys:\n"
        "        pass\n"
        "    return [x for x in set(nodes)]\n"
    )
    # table.keys without the call is attribute access, not a view iteration;
    # make the middle loop a real .keys() call.
    source = source.replace("table.keys:", "table.keys():")
    report = _lint(tmp_path, "src/repro/net/thing.py", source)
    assert _rules_fired(report) == ["no-unordered-iteration"] * 3


def test_unordered_iteration_allows_sorted_and_other_packages(tmp_path) -> None:
    compliant = (
        "def walk(nodes, table):\n"
        "    for node in sorted({n for n in nodes}):\n"
        "        pass\n"
        "    for name in sorted(table.keys()):\n"
        "        pass\n"
        "    if 'a' in {n for n in nodes}:\n"
        "        pass\n"
    )
    assert _lint(tmp_path, "src/repro/topology/thing.py", compliant).clean
    unscoped = "def walk(nodes):\n    return [x for x in set(nodes)]\n"
    assert _lint(tmp_path, "src/repro/metrics/thing.py", unscoped).clean


# ---------------------------------------------------------------------------
# no-mutation-during-iteration
# ---------------------------------------------------------------------------


def test_mutation_during_iteration_fires_on_direct_and_view_loops(tmp_path) -> None:
    source = (
        "class Engine:\n"
        "    def prune(self):\n"
        "        for flow in self._active:\n"
        "            self._active.discard(flow)\n"
        "        for key, value in self.table.items():\n"
        "            self.table[key + 1] = value\n"
        "        for value in self.table.values():\n"
        "            self.table.clear()\n"
    )
    report = _lint(tmp_path, "src/repro/sim/thing.py", source)
    assert _rules_fired(report) == ["no-mutation-during-iteration"] * 3
    assert [violation.line for violation in report.violations] == [4, 6, 8]


def test_mutation_during_iteration_allows_snapshots_and_post_loop_sweeps(tmp_path) -> None:
    compliant = (
        "class Engine:\n"
        "    def prune(self):\n"
        "        for flow in list(self._active):\n"
        "            self._active.discard(flow)\n"
        "        for key in sorted(self.table):\n"
        "            self.table.pop(key)\n"
        "        dead = []\n"
        "        for key, value in self.table.items():\n"
        "            self.counts[key] = value\n"
        "            if not value:\n"
        "                dead.append(key)\n"
        "        for key in dead:\n"
        "            del self.table[key]\n"
    )
    assert _lint(tmp_path, "src/repro/net/thing.py", compliant).clean


def test_mutation_during_iteration_scoped_to_sim_and_net(tmp_path) -> None:
    unscoped = "def f(table):\n    for key in table:\n        table.pop(key)\n"
    assert _lint(tmp_path, "src/repro/metrics/thing.py", unscoped).clean
    assert not _lint(tmp_path, "src/repro/sim/thing.py", unscoped).clean


# ---------------------------------------------------------------------------
# pool-ownership
# ---------------------------------------------------------------------------


def test_pool_ownership_fires_on_retention(tmp_path) -> None:
    source = (
        "class Endpoint:\n"
        "    def on_packet(self, packet):\n"
        "        self.last = packet\n"
        "        self.buffer.append(packet)\n"
        "        self.by_flow[packet.flow_id] = packet\n"
    )
    report = _lint(tmp_path, "src/repro/transport/thing.py", source)
    assert _rules_fired(report) == ["pool-ownership"] * 3


def test_pool_ownership_allows_reads_and_locals(tmp_path) -> None:
    compliant = (
        "class Endpoint:\n"
        "    def on_packet(self, packet):\n"
        "        self.seq = packet.seq\n"
        "        local = packet\n"
        "        self.sizes.append(packet.size)\n"
        "        self._handle(packet)\n"
        "\n"
        "    def other_handler(self, packet):\n"
        "        self.kept = packet\n"
    )
    assert _lint(tmp_path, "src/repro/transport/other.py", compliant).clean


# ---------------------------------------------------------------------------
# store-key-purity
# ---------------------------------------------------------------------------


def test_store_key_purity_fires_in_canonical_only(tmp_path) -> None:
    impure = (
        "import os\n\n\n"
        "def run_key(config, workers):\n"
        "    return hash((os.getpid(), workers))\n"
    )
    report = _lint(tmp_path, "src/repro/store/canonical.py", impure)
    fired = _rules_fired(report)
    assert "store-key-purity" in fired
    # the import, the workers parameter, the hash() call and the workers
    # reference each get their own finding
    assert fired.count("store-key-purity") >= 4
    assert _lint(tmp_path, "src/repro/store/runstore.py", impure).clean


def test_store_key_purity_silent_on_the_real_module_shape(tmp_path) -> None:
    pure = (
        "import hashlib\n\n\n"
        "def sha256_hex(text):\n"
        "    return hashlib.sha256(text.encode('utf-8')).hexdigest()\n"
    )
    assert _lint(tmp_path, "src/repro/store/canonical.py", pure).clean


# ---------------------------------------------------------------------------
# timer-discipline
# ---------------------------------------------------------------------------


def test_timer_discipline_fires_on_heapq_and_transport_schedule(tmp_path) -> None:
    heap = "from heapq import heappush\n"
    assert _rules_fired(_lint(tmp_path, "src/repro/net/thing.py", heap)) == [
        "timer-discipline"
    ]
    raw = (
        "class Sender:\n"
        "    def _arm_rto(self, delay):\n"
        "        self.simulator.schedule(delay, self._on_rto)\n"
    )
    assert _rules_fired(_lint(tmp_path, "src/repro/transport/thing.py", raw)) == [
        "timer-discipline"
    ]


def test_timer_discipline_allows_the_event_core_and_network_oneshots(tmp_path) -> None:
    heap = "from heapq import heappush\n"
    assert _lint(tmp_path, "src/repro/sim/engine.py", heap).clean
    # The core is one module: a second heap beside it is what the rule is for.
    assert not _lint(tmp_path, "src/repro/sim/timerwheel.py", heap).clean
    oneshot = (
        "class Link:\n"
        "    def transit(self, packet):\n"
        "        self.simulator.schedule(self.delay_s, self._deliver, packet)\n"
    )
    assert _lint(tmp_path, "src/repro/net/link.py", oneshot).clean
    timer_api = (
        "class Sender:\n"
        "    def _arm_rto(self, delay):\n"
        "        self._rto_timer.arm(delay)\n"
    )
    assert _lint(tmp_path, "src/repro/transport/other.py", timer_api).clean


# ---------------------------------------------------------------------------
# Suppressions
# ---------------------------------------------------------------------------


def test_suppression_on_the_violating_line_is_honoured(tmp_path) -> None:
    source = (
        "import json\n\n\ndef emit(payload):\n"
        "    return json.dumps(payload)  # repro: allow[no-raw-json] -- fixture\n"
    )
    report = _lint(tmp_path, "src/repro/metrics/collector.py", source)
    assert report.clean
    assert report.suppressed == 1


def test_suppression_on_the_line_above_is_honoured(tmp_path) -> None:
    source = (
        "import json\n\n\ndef emit(payload):\n"
        "    # repro: allow[no-raw-json] -- fixture input, not an artifact\n"
        "    return json.dumps(payload)\n"
    )
    report = _lint(tmp_path, "src/repro/metrics/collector.py", source)
    assert report.clean
    assert report.suppressed == 1


def test_suppression_only_covers_its_own_line(tmp_path) -> None:
    source = (
        "import json\n\n\ndef emit(payload):\n"
        "    x = json.dumps(payload)  # repro: allow[no-raw-json] -- this line\n"
        "    return json.dumps(x)\n"
    )
    report = _lint(tmp_path, "src/repro/metrics/collector.py", source)
    assert _rules_fired(report) == ["no-raw-json"]
    assert report.violations[0].line == 6
    assert report.suppressed == 1


def test_unknown_rule_suppression_is_rejected(tmp_path) -> None:
    source = "x = 1  # repro: allow[no-such-rule]\n"
    report = _lint(tmp_path, "src/repro/metrics/collector.py", source)
    assert _rules_fired(report) == ["unknown-suppression"]
    assert "no-such-rule" in report.violations[0].message


def test_suppression_marker_inside_a_string_is_ignored(tmp_path) -> None:
    source = (
        "import json\n\nNOTE = '# repro: allow[no-raw-json]'\n\n\n"
        "def emit(payload):\n    return json.dumps(payload)\n"
    )
    report = _lint(tmp_path, "src/repro/metrics/collector.py", source)
    assert _rules_fired(report) == ["no-raw-json"]
    assert report.suppressed == 0


# ---------------------------------------------------------------------------
# Reports, exit codes, driver behaviour
# ---------------------------------------------------------------------------


def test_json_report_is_byte_stable_and_deterministic(tmp_path) -> None:
    path = tmp_path / "src" / "repro" / "net" / "thing.py"
    path.parent.mkdir(parents=True)
    path.write_text("from heapq import heappush\nimport json\nx = json.dumps({})\n")
    first = render_json(lint_paths([path], root=tmp_path))
    second = render_json(lint_paths([path], root=tmp_path))
    assert first == second
    assert first.endswith("\n")
    payload = json.loads(first)
    assert payload["clean"] is False
    assert payload["schema"] == 1
    assert [v["rule"] for v in payload["violations"]] == [
        "timer-discipline",
        "no-raw-json",
    ]
    # keys are emitted sorted (dumps_deterministic policy)
    assert list(payload) == sorted(payload)


def test_violations_sort_by_path_line_column(tmp_path) -> None:
    (tmp_path / "src" / "repro" / "net").mkdir(parents=True)
    (tmp_path / "src" / "repro" / "net" / "b.py").write_text("from heapq import heappush\n")
    (tmp_path / "src" / "repro" / "net" / "a.py").write_text(
        "def f(x):\n    for item in set(x):\n        pass\n"
    )
    report = lint_paths([tmp_path / "src"], root=tmp_path)
    assert [v.path for v in report.violations] == [
        "src/repro/net/a.py",
        "src/repro/net/b.py",
    ]


def test_parse_error_is_reported_not_raised(tmp_path) -> None:
    report = _lint(tmp_path, "src/repro/net/broken.py", "def f(:\n")
    assert _rules_fired(report) == ["parse-error"]


def test_human_report_mentions_every_violation(tmp_path) -> None:
    report = _lint(
        tmp_path,
        "src/repro/net/thing.py",
        "from heapq import heappush\n",
    )
    rendered = render_human(report)
    assert "src/repro/net/thing.py:1:1: timer-discipline" in rendered
    assert "1 violation(s)" in rendered


def test_unknown_rule_selection_raises_one_line_keyerror() -> None:
    with pytest.raises(KeyError, match="unknown lint rule"):
        registered_rules(["nope"])


# ---------------------------------------------------------------------------
# CLI integration and the repository baseline (the CI gate, mirrored)
# ---------------------------------------------------------------------------


def test_cli_lint_repository_baseline_is_clean(capsys) -> None:
    assert main(["lint", str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]) == 0
    out = capsys.readouterr().out
    assert "0 violations" in out


def test_lint_paths_over_the_repository_finds_nothing() -> None:
    report = lint_paths(
        [REPO_ROOT / "src" / "repro", REPO_ROOT / "tests"], root=REPO_ROOT
    )
    assert report.violations == ()
    # the documented exceptions really are suppressions, not rule gaps
    assert report.suppressed >= 8


#: The trees whose code counts as a use of a definition or of stored state.
_USER_TREES = ("src", "benchmarks", "examples")


class _Load(NamedTuple):
    """One use of ``name`` at ``path:line`` (``attribute``: a ``.name`` read)."""

    name: str
    path: Path
    line: int
    attribute: bool


def _docstrings(tree: ast.AST) -> set:
    """``id`` of every bare string statement (docstrings): naming there is no use."""
    return {
        id(node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    }


@functools.lru_cache(maxsize=None)
def _loads() -> Tuple[_Load, ...]:
    """Every name ``src/``, ``benchmarks/`` and ``examples/`` load, in one AST pass.

    A load is a ``Name`` or ``Attribute`` read, a ``from ... import name``
    outside a package ``__init__.py`` (a re-export is no use), or a string
    constant spelling an identifier outside a docstring (a lookup by name,
    such as ``_deferred("figure1", "figure1a_plan")`` in ``study.py``).
    """
    loads = []
    for top in _USER_TREES:
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            docstrings = _docstrings(tree)
            reexports = path.name == "__init__.py"
            for node in ast.walk(tree):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loads.append(_Load(node.attr, path, node.lineno, True))
                elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loads.append(_Load(node.id, path, node.lineno, False))
                elif isinstance(node, ast.ImportFrom) and not reexports:
                    loads.extend(_Load(alias.name, path, node.lineno, False)
                                 for alias in node.names)
                elif (
                    isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.isidentifier()
                    and id(node) not in docstrings
                ):
                    loads.append(_Load(node.value, path, node.lineno, False))
    return tuple(loads)


#: Simulator packages whose instance state must all be read somewhere.
_STATE_PACKAGES = ("net", "transport", "core", "sim", "flowlevel")


def _decorated_by(node: ast.AST, name: str) -> bool:
    """True when one of ``node``'s decorators is ``name`` (called or not)."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        found = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if found == name:
            return True
    return False


def _self_stores(tree: ast.AST):
    """``(class, name, line)`` of every ``self.<name>`` a non-dataclass class stores."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef) or _decorated_by(cls, "dataclass"):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                yield cls.name, node.attr, node.lineno


def test_simulator_keeps_no_write_only_state() -> None:
    """Every attribute the simulator stores on ``self`` is read somewhere.

    A counter, hook or cached value that nothing in ``src/``, ``benchmarks/``
    or ``examples/`` loads costs work on the packet path and shows in no
    export.  The scan is by name: a load of ``.name`` on any object counts.
    """
    loaded = {load.name for load in _loads() if load.attribute}
    unread = []
    for package in _STATE_PACKAGES:
        for path in sorted((REPO_ROOT / "src" / "repro" / package).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            for cls, name, line in _self_stores(tree):
                if name not in loaded:
                    unread.append(f"{path.relative_to(REPO_ROOT)}:{line} {cls}.{name}")
    assert unread == [], "instance state nothing reads:\n" + "\n".join(unread)


#: Definitions nothing calls, kept on purpose.  Only safety code belongs here.
_UNCALLED_BY_DESIGN = {
    "src/repro/net/ecmp.py fnv1a_64":
        "the reference FNV-1a the ECMP digest caches are tested against",
    "src/repro/net/packet.py set_pool_debug":
        "turns pool poisoning on for the golden-trace runs",
}


def _definitions(tree: ast.Module):
    """``(qualified name, node)`` of each top-level function or class and each
    method of a top-level class, dunders aside."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not (
                    member.name.startswith("__") and member.name.endswith("__")
                ):
                    yield f"{node.name}.{member.name}", member


def test_every_definition_has_a_caller() -> None:
    """Each function, class and method in ``src/repro`` is used outside its body.

    A definition that only tests reach is a second copy of the code that
    runs, or code nothing runs: tests that check it check neither.  A use is
    a load of its name anywhere in ``src/``, ``benchmarks/`` or ``examples/``
    outside the definition itself (see :func:`_loads`); registration by a
    ``@register`` decorator counts as one.
    """
    uses: dict = {}
    for load in _loads():
        uses.setdefault(load.name, []).append(load)
    uncalled = {}
    for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
        relative = path.relative_to(REPO_ROOT).as_posix()
        for qualname, node in _definitions(ast.parse(path.read_text(), str(path))):
            if _decorated_by(node, "register"):
                continue
            if not any(
                load.path != path or not node.lineno <= load.line <= node.end_lineno
                for load in uses.get(node.name, ())
            ):
                uncalled[f"{relative} {qualname}"] = f"{relative}:{node.lineno} {qualname}"
    unexpected = [where for key, where in uncalled.items() if key not in _UNCALLED_BY_DESIGN]
    assert unexpected == [], "definitions only tests reach:\n" + "\n".join(unexpected)
    stale = sorted(set(_UNCALLED_BY_DESIGN) - set(uncalled))
    assert stale == [], f"allowlisted definitions that are called now, or gone: {stale}"


def test_cli_lint_exit_codes(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.py"
    bad.write_text("import json\nx = json.dumps({})\n")
    assert main(["lint", str(bad)]) == 1
    capsys.readouterr()
    assert main(["lint", str(tmp_path / "missing.py")]) == EXIT_USAGE
    assert "lint failed" in capsys.readouterr().err
    assert main(["lint", str(bad), "--rules", "bogus"]) == EXIT_USAGE
    assert "unknown lint rule" in capsys.readouterr().err


def test_cli_lint_json_format_and_rule_selection(tmp_path, capsys) -> None:
    bad = tmp_path / "bad.py"
    bad.write_text("import json\nx = json.dumps({})\n")
    assert main(["lint", str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert [v["rule"] for v in payload["violations"]] == ["no-raw-json"]
    # selecting an unrelated rule silences the finding but keeps the scan
    assert main(["lint", str(bad), "--rules", "timer-discipline"]) == 0


@pytest.mark.parametrize("rules_first", [True, False])
def test_cli_lint_rules_take_one_comma_separated_value(rules_first, capsys) -> None:
    """``--rules`` never swallows a path, whichever side of it the path is on."""
    rules = ["--rules", "no-raw-json,timer-discipline"]
    paths = [str(REPO_ROOT / "src")]
    argv = [*rules, *paths] if rules_first else [*paths, *rules]
    assert main(["lint", "--format", "json", *argv]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["no-raw-json", "timer-discipline"]
    assert payload["files_checked"] > 50


def test_cli_lint_list_rules(capsys) -> None:
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule in out


def test_module_entry_point_matches_cli() -> None:
    from repro.analysis.lint.cli import main as lint_main

    assert lint_main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]) == 0
