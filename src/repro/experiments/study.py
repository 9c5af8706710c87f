"""One study path: plan → :class:`RunSpec` list → :class:`SweepRunner` → rows.

Every comparison the paper makes (Figure 1(a–c), the Section 3 statistics,
the roadmap's load / hotspot / incast / co-existence studies) is
a list of independent runs followed by a row per result.  A :class:`Study`
declares exactly that — the plan, the row projection, and the CLI surface
(sub-command name, table title, extra flags) as data — and
:func:`run_points` is the single executor (:func:`run_study` is it applied
to a study's plan; scenario matrices hand it :func:`repro.scenarios.matrix_plan`).
:data:`STUDIES` is the table the CLI, the claims table
(``benchmarks/test_claims.py``) and the examples all read; adding a study is
one entry.  The table names each study's functions by module and imports a
study module only when that study runs, so building the CLI parser from it
loads no study code.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.experiments.config import TOPOLOGIES, TOPOLOGY_FATTREE, ExperimentConfig
from repro.experiments.parallel import RunSpec, SweepRunner
from repro.metrics.collector import ExperimentResult
from repro.traffic.flowspec import (
    ALL_PROTOCOLS,
    PROTOCOL_MMPTCP,
    PROTOCOL_MPTCP,
    PROTOCOL_TCP,
)

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.experiments.coexistence import CoexistenceResult

Row = Dict[str, object]

#: The default axes of the studies that sweep them: the CLI flag defaults
#: below and the defaults of the study modules' own functions.
DEFAULT_LOAD_FACTORS = (0.5, 1.0, 1.5, 2.0)
DEFAULT_FAN_INS = (8, 16, 32)
#: The co-existence mix the paper cares about: legacy TCP, MPTCP and MMPTCP.
DEFAULT_PROTOCOL_MIX = (PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP)


def _same(value: Any) -> Any:
    return value


def _deferred(module: str, name: str, *bound: Any) -> Callable[..., Any]:
    """``repro.experiments.<module>.<name>``, called with ``bound`` first and
    imported on the first call, so the table loads no study module."""
    def call(*args: Any, **kwargs: Any) -> Any:
        function = getattr(import_module(f"repro.experiments.{module}"), name)
        return function(*bound, *args, **kwargs)

    return call


def _dest(option: str) -> str:
    """The ``argparse`` namespace attribute of ``option`` (``--fan-ins`` → ``fan_ins``)."""
    return option.lstrip("-").replace("-", "_")


class Flag(NamedTuple):
    """One CLI flag, as data: a study-specific one or a config-backed one.

    The CLI calls ``add_argument(option, **argparse)`` and feeds
    :meth:`value` to the plan (or the config) as keyword ``param``.
    ``plural`` names the flag's campaign sweep-axis form, if it has one.
    """

    option: str
    param: str
    argparse: Mapping[str, Any]
    convert: Callable[[Any], Any] = _same
    plural: Optional[str] = None

    def value(self, namespace: Any) -> Any:
        """The converted value in a parsed ``argparse`` namespace (``None``
        when the namespace lacks the flag or left it unset)."""
        value = getattr(namespace, _dest(self.option), None)
        return None if value is None else self.convert(value)

    def sweep(self, namespace: Any) -> Tuple[Any, ...]:
        """The converted values of the plural form (empty when unset)."""
        return tuple(map(self.convert, getattr(namespace, _dest(self.plural), None) or ()))


@dataclass
class StudyPoint:
    """One executed point of a study: its spec (axes in ``spec.tag``), the
    full result, and the rows projected from it.

    Axes and row columns also read as attributes (``point.load_factor``,
    ``point.completion_rate``), resolved against the point's first row.
    """

    spec: RunSpec
    result: ExperimentResult
    rows: List[Row]

    def __getattr__(self, name: str) -> object:
        rows = self.__dict__.get("rows")
        if rows and name in rows[0]:
            return rows[0][name]
        raise AttributeError(f"StudyPoint has no attribute or column {name!r}")


@dataclass(frozen=True)
class Study:
    """A declared study.

    Attributes:
        name: CLI sub-command and export-file stem.
        help: one-line sub-command help.
        title: heading printed above the table; ``{param}`` fields are
            filled from the plan parameters.
        plan: ``plan(config, **params) -> List[RunSpec]`` — the independent
            points, indexed in output order, axes in each spec's ``tag``
            (the subflow count, like everything fixed, comes from ``config``).
        rows: ``rows(spec, result) -> List[Row]`` — the flat rows one point
            contributes (column order is the export contract).
        flags: the sub-command's flags beyond the common ones.
        workers / fidelity: whether the CLI offers ``--workers`` / ``--fidelity``.
        footer: optional line printed under the table.
        per_flow: the study is one run reported per flow — the CLI prints
            the run summary and exports the flow records instead of rows.
    """

    name: str
    help: str
    title: str
    plan: Callable[..., List[RunSpec]]
    rows: Callable[[RunSpec, ExperimentResult], List[Row]]
    flags: Tuple[Flag, ...] = ()
    workers: bool = False
    fidelity: bool = False
    footer: Optional[Callable[[List[StudyPoint]], str]] = None
    per_flow: bool = False


def run_points(
    specs: Sequence[RunSpec],
    rows: Callable[[RunSpec, ExperimentResult], List[Row]],
    workers: Optional[int] = 1,
) -> List[StudyPoint]:
    """Execute ``specs`` and project each result with ``rows``; points come
    back in spec order.

    The one executor behind studies, scenario matrices and ``scenarios run``.
    ``workers`` fans the points out over a process pool (1 = in-process, no
    pool); the output is identical for any worker count because every point
    is fully determined by its own spec.
    """
    # The runner returns results in index order; pair each with its own spec.
    positions = sorted(range(len(specs)), key=lambda position: specs[position].index)
    result_at = dict(zip(positions, SweepRunner(workers).run(specs)))
    return [
        StudyPoint(spec, result_at[position], rows(spec, result_at[position]))
        for position, spec in enumerate(specs)
    ]


def run_study(
    study: Study, config: ExperimentConfig, workers: Optional[int] = 1, **params: Any
) -> List[StudyPoint]:
    """Execute ``study`` on ``config``: :func:`run_points` over the study's plan."""
    return run_points(study.plan(config, **params), study.rows, workers)


def study_rows(points: Sequence[StudyPoint]) -> List[Row]:
    """The flat rows of ``points`` in plan order (table rendering / CSV export)."""
    return [row for point in points for row in point.rows]


def _columns(*names: str) -> Callable[[RunSpec, ExperimentResult], List[Row]]:
    """The row projection "the point's axes, then these metric columns"."""
    return lambda spec, result: [{**spec.tag, **result.metrics.columns(*names)}]


def _scatter_rows(spec: RunSpec, result: ExperimentResult) -> List[Row]:
    """Flow-id vs completion-time points (seconds), as plotted by the paper."""
    return result.metrics.completion_scatter()


def _protocols(*default: str) -> Flag:
    return Flag(
        "--protocols", "protocols", dict(nargs="+", default=list(default), choices=ALL_PROTOCOLS)
    )


def _fairness_footer(points: List[StudyPoint]) -> str:
    from repro.experiments.coexistence import CoexistenceResult

    outcome = CoexistenceResult.from_result(points[0].result, points[0].spec.tag["protocols"])
    return f"Jain fairness index over long flows: {outcome.fairness_index():.3f}"


STUDIES: Dict[str, Study] = {
    study.name: study
    for study in (
        Study(
            "figure1a", "regenerate Figure 1(a)",
            "Figure 1(a) — MPTCP short-flow FCT vs subflow count",
            _deferred("figure1", "figure1a_plan"),
            _columns("mean_fct_ms", "std_fct_ms", "p99_fct_ms", "rto_incidence",
                     "completion_rate"),
            flags=(
                Flag("--subflow-counts", "subflow_counts",
                     dict(type=int, nargs="+", default=[1, 2, 4, 8])),
            ),
            workers=True,
        ),
        Study(
            "figure1b", "regenerate Figure 1(b)",
            "Figure 1(b) — MPTCP(8) per-flow short-flow completion times",
            _deferred("figure1", "scatter_plan", PROTOCOL_MPTCP), _scatter_rows,
            per_flow=True,
        ),
        Study(
            "figure1c", "regenerate Figure 1(c)",
            "Figure 1(c) — MMPTCP(PS + 8) per-flow short-flow completion times",
            _deferred("figure1", "scatter_plan", PROTOCOL_MMPTCP), _scatter_rows,
            per_flow=True,
        ),
        Study(
            "section3", "regenerate the Section 3 statistics",
            "Section 3 statistics — MPTCP vs MMPTCP (paired workload)",
            _deferred("section3", "plan"),
            _columns("mean_fct_ms", "std_fct_ms", "p99_fct_ms", "within_100ms",
                     "rto_incidence", "core_loss", "agg_loss", "edge_loss", "long_tput_mbps",
                     "core_util", "completion_rate"),
        ),
        Study(
            "loadsweep", "sweep the offered load",
            "Load sweep — short-flow FCT vs offered load",
            _deferred("loadsweep", "plan"),
            _columns("mean_fct_ms", "p99_fct_ms", "rto_incidence", "completion_rate",
                     "tail_over_200ms", "long_throughput_mbps"),
            flags=(
                Flag("--factors", "load_factors",
                     dict(type=float, nargs="+", default=list(DEFAULT_LOAD_FACTORS))),
                _protocols(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
            ),
            workers=True, fidelity=True,
        ),
        Study(
            "coexistence", "run TCP, MPTCP and MMPTCP on a shared fabric",
            "Co-existence — per-protocol statistics on a shared fabric",
            _deferred("coexistence", "plan"), _deferred("coexistence", "rows"),
            flags=(_protocols(*DEFAULT_PROTOCOL_MIX),),
            footer=_fairness_footer,
        ),
        Study(
            "hotspot", "run the hotspot-skew comparison",
            "Hotspot — per-protocol statistics under skewed destinations",
            _deferred("hotspot", "plan"),
            _columns("mean_fct_ms", "std_fct_ms", "p99_fct_ms", "rto_incidence",
                     "completion_rate", "tail_over_200ms", "edge_loss_rate", "core_loss_rate",
                     "long_throughput_mbps"),
            flags=(
                _protocols(PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
                Flag("--hotspot-fraction", "hotspot_fraction", dict(type=float, default=0.125)),
                Flag("--load-fraction", "load_fraction", dict(type=float, default=0.5)),
            ),
        ),
        Study(
            "incast", "run synchronised fan-in (incast) sweeps",
            "Incast — synchronised fan-in bursts",
            _deferred("incast_study", "plan"),
            _columns("mean_fct_ms", "p99_fct_ms", "max_fct_ms", "completion_rate",
                     "rto_incidence", "total_rtos"),
            flags=(
                Flag("--fan-ins", "fan_ins",
                     dict(type=int, nargs="+", default=list(DEFAULT_FAN_INS))),
                _protocols(PROTOCOL_TCP, PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
                Flag("--response-kb", "response_bytes",
                     dict(type=int, default=70, help="size of each incast response in kB"),
                     convert=lambda kilobytes: kilobytes * 1000),
                Flag("--topologies", "topologies",
                     dict(nargs="+", default=[TOPOLOGY_FATTREE], choices=TOPOLOGIES)),
            ),
            workers=True, fidelity=True,
        ),
    )
}


# ---------------------------------------------------------------------------
# Typed entry points for callers that want more than rows
# ---------------------------------------------------------------------------


def run_load_sweep(
    base_config: ExperimentConfig,
    protocols: Sequence[str] = (PROTOCOL_MPTCP, PROTOCOL_MMPTCP),
    load_factors: Sequence[float] = DEFAULT_LOAD_FACTORS,
    num_subflows: Optional[int] = None,
    workers: Optional[int] = 1,
) -> List[StudyPoint]:
    """Sweep the short-flow arrival rate for each protocol (factor-major points)."""
    if num_subflows is not None:
        base_config = base_config.with_updates(num_subflows=num_subflows)
    return run_study(
        STUDIES["loadsweep"], base_config, workers,
        protocols=protocols, load_factors=load_factors,
    )


#: The load sweep's rows — the name its callers know :func:`study_rows` by.
load_sweep_rows = study_rows


def run_coexistence_experiment(
    config: ExperimentConfig,
    protocols: Sequence[str] = DEFAULT_PROTOCOL_MIX,
) -> CoexistenceResult:
    """Run the mixed-protocol experiment described by ``config``."""
    from repro.experiments.coexistence import CoexistenceResult

    (point,) = run_study(STUDIES["coexistence"], config, protocols=protocols)
    return CoexistenceResult.from_result(point.result, point.spec.tag["protocols"])
