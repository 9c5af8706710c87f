"""Report generation from experiment results, and the repository's invariant linter.

Import the modules directly (:mod:`repro.analysis.report`,
:mod:`repro.analysis.lint`); this package re-exports nothing, so importing
one of them loads no other.
"""
