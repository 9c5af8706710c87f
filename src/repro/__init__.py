"""MMPTCP reproduction library.

A packet-level discrete-event simulator of data-centre networks together
with TCP NewReno, MPTCP (LIA) and **MMPTCP** — the hybrid transport
of Kheirkhah, Wakeman & Parisis, *Short vs. Long Flows: A Battle That Both
Can Win* (SIGCOMM 2015) — plus the workloads, metrics and experiment
harnesses needed to regenerate every figure and statistic in that paper.

Typical use::

    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig(protocol="mmptcp", num_subflows=8)
    result = run_experiment(config)
    print(result.metrics.summary_dict())

Importing a package loads only what is used: every package ``__init__``
serves its public names through :func:`lazy_exports`, so ``import
repro.cli`` or ``import repro.store.runstore`` runs no simulator code.
"""

from importlib import import_module
from typing import Any, Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"

__all__ = ["__version__"]


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any]]:
    """``(__all__, __getattr__)`` of a package that re-exports names lazily.

    ``exports`` maps each defining submodule (relative to ``package``) to
    the names it provides.  The returned PEP 562 ``__getattr__`` imports
    that submodule on first access of one of its names, so importing the
    package, or any leaf module in it, imports nothing else.
    """
    owners = {name: f"{package}.{module}" for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        if name not in owners:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(import_module(owners[name]), name)

    return list(owners), __getattr__
