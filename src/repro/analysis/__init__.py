"""Post-processing of experiment results: comparisons and report generation.

Import the modules directly (:mod:`repro.analysis.compare`,
:mod:`repro.analysis.report`, :mod:`repro.analysis.lint`); this package
re-exports nothing, so importing one of them loads no other.
"""
