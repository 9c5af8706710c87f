"""Resumable experiment campaigns on top of the content-addressed run store.

A *campaign* is a declared grid — scenarios × transports × parameter sweeps
× seeded replications — executed through the shared
:class:`repro.experiments.parallel.SweepRunner` with **cache-aware
dispatch**: cells whose cache key is already in the :class:`repro.store.RunStore`
are loaded instead of simulated, and every freshly simulated cell is
persisted atomically the moment it completes.  Killing a campaign therefore
loses only the cells that were mid-flight; re-running it resumes from the
persisted ones, and re-running an unchanged campaign performs zero
simulation work.  Reports are generated purely from stored artifacts, so an
analysis tweak never forces a re-simulation.
"""

from repro import lazy_exports

__all__, __getattr__ = lazy_exports(__name__, {
    "runner": ("CampaignIncompleteError", "campaign_gc", "campaign_report", "campaign_rows",
        "campaign_run_specs", "campaign_status", "load_campaign_cells", "run_campaign",
        "status_rows", "status_summary_rows"),
    "spec": ("CampaignSpec", "campaign_base_config"),
})
