"""The diagnosis driver: saturate, perturb one knob at a time, rank.

``run_diagnosis`` automates the reasoning behind the paper's Table 1:
instead of binning per-packet cycles by hand, it finds each
configuration's saturation point, re-measures the saturated pipeline's
throughput with one modeled cost scaled up at a time, and ranks the
knobs by how much throughput each one costs -- Δthroughput/Δcost, a
machine-generated "what is the bottleneck at this operating point"
(the methodology of Ren et al., PAPERS.md).

Operating point: the perturbation cells run *closed-loop* -- the
unpaced ttcp source always has data queued, so the pipeline is
saturated by construction and its throughput is the capacity at the
saturation point.  Pacing the perturbed runs at the bisected knee rate
instead would leave them offered-limited: a small cost increase then
shows up as queueing latency, not lost throughput, and latency-coupled
knobs (NIC coalescing) drown out the genuine cycle costs.  The binary
search still localizes the knee for the report -- closed-loop ceiling,
highest sustained offered rate, and the probe trail all land in the
``baselines`` section.

Sharding: the per-(direction, mode) saturation searches are inherently
sequential, so they bisect in lockstep *waves* -- every unfinished
search contributes its current probe to one batch, and each batch is
one fault-tolerant :class:`~repro.core.parallel.SweepRunner` run.  The
final (knob x direction x mode) perturbation grid is a single batch.
"""

from repro.core.characterization import STACK_BINS, characterize
from repro.core.experiment import ExperimentConfig
from repro.core.parallel import SweepRunner
from repro.diagnose.perturb import resolve_knobs
from repro.diagnose.saturation import (
    DEFAULT_HI_MARGIN,
    DEFAULT_STEPS,
    DEFAULT_SUSTAIN_FRAC,
    SaturationSearch,
)

#: The perturbation severity: each knob's cost is scaled by this much
#: (25% worse -- big enough to clear the bisection bracket's ~2%
#: resolution, small enough to stay a local sensitivity).
DEFAULT_FACTOR = 1.25


def _bins_pct(result):
    """Per-bin share of stack cycles for the Table 1 cross-check."""
    if result is None:
        return None
    rows = characterize(result)
    return {
        bin: round(rows[bin].pct_cycles, 4) for bin in STACK_BINS
    }


def run_diagnosis(
    directions=("rx",),
    modes=("none", "full"),
    knobs=None,
    factor=DEFAULT_FACTOR,
    message_size=65536,
    n_connections=8,
    n_cpus=2,
    warmup_ms=5,
    measure_ms=10,
    seed=3,
    steps=DEFAULT_STEPS,
    sustain_frac=DEFAULT_SUSTAIN_FRAC,
    hi_margin=DEFAULT_HI_MARGIN,
    runner=None,
    **config_kwargs
):
    """Run the full diagnosis grid; returns the plain-data report.

    Deterministic for a given parameter set: cell results come from
    seeded simulations, every derived rate is rounded to fixed
    decimals, and the report carries no wall-clock state -- the same
    call produces byte-identical JSON.

    ``runner`` is the :class:`~repro.core.parallel.SweepRunner` that
    executes every wave and the perturbation grid (default
    ``SweepRunner(jobs=1)``: serial, uncached, unjournaled).  Failed
    cells (quarantined by the runner, serial or parallel) degrade to
    ``None`` fields instead of aborting: a knob whose perturbed run
    died is reported unranked, and a (direction, mode) whose ceiling
    probe died carries a failed baseline.

    With a ``runner.journal`` (a :class:`repro.runstore.RunStore`),
    every executed cell is journaled durably and the session counters
    are checkpointed after every lockstep wave.  The searches
    themselves are never persisted: an interrupted diagnosis resumed
    against the same journal rebuilds each one by replaying the
    already-executed cells (never re-running them), and since the
    probe schedule is a pure function of cell results, the resumed run
    re-derives the same waves and the final report is byte-identical.
    """
    runner = runner or SweepRunner(jobs=1)
    journal = runner.journal
    specs = resolve_knobs(knobs)
    keys = [(d, m) for d in directions for m in modes]
    searches = {}
    for d, m in keys:
        base = ExperimentConfig(
            direction=d,
            message_size=message_size,
            affinity=m,
            n_connections=n_connections,
            n_cpus=n_cpus,
            warmup_ms=warmup_ms,
            measure_ms=measure_ms,
            seed=seed,
            **config_kwargs
        )
        searches[(d, m)] = SaturationSearch(
            base, steps=steps, sustain_frac=sustain_frac,
            hi_margin=hi_margin,
        )

    # Phase 1: lockstep bisection waves across all (direction, mode)
    # searches -- one sharded batch per wave.
    wave = 0
    while True:
        live = [(key, s) for key, s in searches.items() if not s.done]
        if not live:
            break
        wave += 1
        if runner.progress:
            runner.progress(
                "saturation wave %d: %d probe(s)" % (wave, len(live))
            )
        results = runner.run([s.next_config() for _, s in live])
        for (_, s), result in zip(live, results):
            s.observe(result)
        if journal is not None:
            journal.checkpoint()

    # Phase 2: the (knob x direction x mode) perturbation grid, one
    # batch.  Each cell re-runs the closed-loop (saturated) config with
    # one knob's cost patch merged in; the delta against the closed-loop
    # ceiling is the capacity that knob costs at the saturation point.
    grid = []  # (spec, key, config-or-None, effective_factor, patch)
    for spec in specs:
        patch, effective = spec.apply(factor)
        for key in keys:
            search = searches[key]
            if search.failed:
                grid.append((spec, key, None, effective, patch))
                continue
            kwargs = dict(search.base_dict)
            for field, overrides in patch.items():
                merged = dict(kwargs.get(field, {}))
                merged.update(overrides)
                kwargs[field] = merged
            grid.append(
                (spec, key, ExperimentConfig(**kwargs), effective, patch)
            )
    if runner.progress:
        runner.progress("perturbation grid: %d cell(s)" % len(grid))
    configs = [c for _, _, c, _, _ in grid if c is not None]
    flat = iter(runner.run(configs))
    results = [
        None if c is None else next(flat) for _, _, c, _, _ in grid
    ]

    # Assemble the report.
    cells = []
    for (spec, key, config, effective, patch), result in zip(grid, results):
        search = searches[key]
        base_gbps = (
            None if search.closed_loop is None
            else search.closed_loop.throughput_gbps
        )
        pert_gbps = None if result is None else result.throughput_gbps
        delta_pct = None
        sensitivity = None
        if base_gbps and pert_gbps is not None:
            delta_pct = round((pert_gbps / base_gbps - 1.0) * 100.0, 2)
            # Fractional throughput lost per unit fractional cost
            # added: the report's Δthroughput/Δcost column.
            sensitivity = round(
                ((base_gbps - pert_gbps) / base_gbps)
                / (effective - 1.0),
                4,
            )
        cells.append({
            "knob": spec.name,
            "direction": key[0],
            "mode": key[1],
            "factor": factor,
            "effective_factor": round(effective, 4),
            "patch": patch,
            "baseline_gbps": (
                None if base_gbps is None else round(base_gbps, 4)
            ),
            "perturbed_gbps": (
                None if pert_gbps is None else round(pert_gbps, 4)
            ),
            "delta_pct": delta_pct,
            "sensitivity": sensitivity,
        })

    baselines = {}
    for key in keys:
        search = searches[key]
        entry = search.summary()
        entry["bins_pct"] = _bins_pct(search.closed_loop)
        baselines["%s/%s" % key] = entry

    ranking = {}
    for key in keys:
        ranked = [
            c for c in cells
            if (c["direction"], c["mode"]) == key
            and c["delta_pct"] is not None
        ]
        # Biggest throughput loss first; knob name breaks exact ties
        # deterministically.
        ranked.sort(key=lambda c: (c["delta_pct"], c["knob"]))
        ranking["%s/%s" % key] = [c["knob"] for c in ranked]

    return {
        "schema": 1,
        "params": {
            "directions": list(directions),
            "modes": list(modes),
            "knobs": [s.name for s in specs],
            "factor": factor,
            "message_size": message_size,
            "n_connections": n_connections,
            "n_cpus": n_cpus,
            "warmup_ms": warmup_ms,
            "measure_ms": measure_ms,
            "seed": seed,
            "steps": steps,
            "sustain_frac": sustain_frac,
            "hi_margin": hi_margin,
        },
        "knob_info": {
            s.name: {
                "description": s.description,
                "bin": s.bin_hint,
                "affinity_sensitive": s.affinity_sensitive,
            }
            for s in specs
        },
        "baselines": baselines,
        "cells": cells,
        "ranking": ranking,
    }
