"""Automated bottleneck diagnosis (saturation + perturbation).

The paper's Table 1 explains *why* affinity wins by hand-binning
per-packet cycles; this package derives the same answer mechanically:
find each configuration's saturation point (binary search on offered
load), scale one modeled cost at a time by a multiplicative factor,
and rank the knobs by the saturation throughput each one costs --
Δthroughput/Δcost (Ren et al., PAPERS.md).

Entry points: :func:`find_saturation` for one config,
:func:`run_diagnosis` for the (knob x direction x mode) grid,
:func:`render_diagnosis` for the text report, and the
``repro-affinity diagnose`` CLI subcommand.

====================  ==============================================
:mod:`.saturation`    ``find_saturation``, ``SaturationSearch``,
                      ``DEFAULT_STEPS``, ``DEFAULT_SUSTAIN_FRAC``
:mod:`.perturb`       ``PERTURB_SPECS``, ``PerturbSpec``,
                      ``resolve_knobs``
:mod:`.driver`        ``run_diagnosis``, ``DEFAULT_FACTOR``
:mod:`.report`        ``render_diagnosis``
====================  ==============================================

Import names from their defining module; the package re-exports
nothing.
"""
