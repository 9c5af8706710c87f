"""Flow-level (fluid bandwidth-sharing) fidelity tier.

Selected via ``ExperimentConfig.fidelity = "flow"``; see
:mod:`repro.flowlevel.engine` for the model and its documented
approximations, and :mod:`repro.sim.fluid` for the max-min solver.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "engine": ("FlowLevelEngine",),
    "fabric": ("FluidFabric",),
})
