"""Statistics and table-formatting utilities used by the analyses.

====================  ==============================================
:mod:`.stats`         ``rankdata``, ``spearman_rank_correlation``,
                      ``spearman_critical_value``
:mod:`.tables`        ``TextTable``, ``format_pct``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing, so importing one module loads only that module.
"""
