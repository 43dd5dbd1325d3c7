"""The paper-facing API: affinity experiments and their analyses.

Typical use::

    from repro.core.experiment import ExperimentConfig, run_experiment

    result = run_experiment(ExperimentConfig(
        direction="tx", message_size=65536, affinity="full"))
    print(result.throughput_gbps, result.cost_ghz_per_gbps)

Running cells:

=====================  =============================================
:mod:`.experiment`     ``ExperimentConfig``, ``ExperimentResult``,
                       ``ResultCache``, ``run_experiment``,
                       ``PAPER_SIZES`` -- no simulator import
:mod:`.cell`           ``simulate``: one cell's machine, built, run
                       and measured (the simulator loads here)
:mod:`.parallel`       ``SweepRunner``, ``default_jobs``
:mod:`.modes`          ``AFFINITY_MODES``, ``EXTENDED_MODES``,
                       ``apply_affinity``
=====================  =============================================

Each analysis module regenerates one artefact of the paper:

=====================  =============================================
:mod:`.metrics`        Figure 3 (throughput + utilization) and
                       Figure 4 (GHz/Gbps cost): ``run_size_sweep``
:mod:`.characterization`  Table 1 (per-bin baseline characterization)
:mod:`.lockstudy`      Table 2 (spinlock branch behaviour)
:mod:`.indicators`     Figure 5 (performance impact indicators)
:mod:`.speedup`        Table 3 (Amdahl improvement decomposition)
:mod:`.clears`         Table 4 (per-CPU machine-clear hotspots)
:mod:`.correlation`    Table 5 (Spearman rank correlation)
:mod:`.partition`      Section 4's projection of the fast-path gain
                       onto a mixed workload
=====================  =============================================

Import names from their defining module; the package re-exports
nothing.
"""
