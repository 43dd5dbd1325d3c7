"""Figure 3/4 machinery: throughput, utilization and cost sweeps.

Figure 3 plots TX and RX bandwidth (lines) and CPU utilization (bars)
against transaction size for the four affinity modes; Figure 4 plots
the normalized cost, GHz/Gbps.  ``run_size_sweep`` produces every
(size, mode) point; the series helpers shape them for reporting.
"""

import warnings

from repro.core.experiment import PAPER_SIZES, ExperimentConfig
from repro.core.modes import AFFINITY_MODES
from repro.core.parallel import SweepRunner


def dedupe_cells(cells, axes="sizes/cpus/modes"):
    """Drop repeated grid cells, preserving first-seen order.

    A repeated axis value (``--sizes 4096 4096``) used to pay for the
    duplicate simulation and then silently lose one of the two results
    in ``dict(zip(cells, flat))`` -- the dict keeps only the last.
    Collapsing up front keeps the result dict complete *and* skips the
    redundant runs; the warning tells the caller their grid was odd.
    ``axes`` names the grid axes in the warning text (the replication
    helpers pass ``"seeds/modes"``).
    """
    cells = list(cells)
    seen = set()
    unique = []
    for cell in cells:
        if cell not in seen:
            seen.add(cell)
            unique.append(cell)
    if len(unique) != len(cells):
        warnings.warn(
            "duplicate sweep cells collapsed (%d -> %d); check the "
            "%s axes for repeated values"
            % (len(cells), len(unique), axes),
            RuntimeWarning,
            stacklevel=3,
        )
    return unique


def run_size_sweep(
    direction,
    sizes=PAPER_SIZES,
    modes=AFFINITY_MODES,
    faults=None,
    runner=None,
    **config_kwargs
):
    """Run the full (size x mode) grid for one direction.

    ``faults`` (a plan, dict or spec string -- see
    :meth:`repro.faults.plan.FaultPlan.coerce`) applies one fault plan
    to every cell.  ``runner`` is the
    :class:`~repro.core.parallel.SweepRunner` that executes the cells:
    it carries the worker count, the result cache, the run-store
    journal, the progress callback and the per-cell timeout/retries
    budget.  The default, ``SweepRunner(jobs=1)``, runs serially with
    no cache or journal.  Cells that failed despite retries map to
    ``None`` in the returned dict and are named in ``runner.report``,
    serial or parallel.

    Returns ``{(size, mode): ExperimentResult}``.
    """
    cells = dedupe_cells((size, mode) for size in sizes for mode in modes)
    configs = [
        ExperimentConfig(
            direction=direction,
            message_size=size,
            affinity=mode,
            faults=faults,
            **config_kwargs
        )
        for size, mode in cells
    ]
    return dict(zip(cells, (runner or SweepRunner(jobs=1)).run(configs)))


def _cell_attr(sweep, size, mode, attr):
    """One sweep cell's attribute, or ``None`` for a failed cell.

    :class:`~repro.core.parallel.SweepRunner` maps cells that failed
    despite retries to ``None``; the report renderers show those as
    FAIL / ``--``, and the series helpers must propagate the hole the
    same way instead of raising ``AttributeError``.
    """
    result = sweep.get((size, mode))
    if result is None:
        return None
    return getattr(result, attr)


def _series(sweep, sizes, modes, attr):
    return {
        mode: [_cell_attr(sweep, size, mode, attr) for size in sizes]
        for mode in modes
    }


def bandwidth_series(sweep, sizes, modes=AFFINITY_MODES):
    """Figure 3 lines: ``{mode: [Mb/s per size]}``.

    Failed (``None``) cells yield ``None`` entries."""
    return _series(sweep, sizes, modes, "throughput_mbps")


def utilization_series(sweep, sizes, modes=AFFINITY_MODES):
    """Figure 3 bars: ``{mode: [mean CPU utilization per size]}``.

    Failed (``None``) cells yield ``None`` entries."""
    return _series(sweep, sizes, modes, "utilization")


def cost_series(sweep, sizes, modes=AFFINITY_MODES):
    """Figure 4: ``{mode: [GHz/Gbps per size]}``.

    Failed (``None``) cells yield ``None`` entries."""
    return _series(sweep, sizes, modes, "cost_ghz_per_gbps")


def throughput_gain(sweep, size, mode, baseline="none"):
    """Fractional throughput gain of ``mode`` over ``baseline``.

    ``None`` when either cell failed (the comparison is undefined)."""
    base = _cell_attr(sweep, size, baseline, "throughput_gbps")
    point = _cell_attr(sweep, size, mode, "throughput_gbps")
    if base is None or point is None:
        return None
    if base <= 0:
        return 0.0
    return point / base - 1.0


def cost_reduction(sweep, size, mode, baseline="none"):
    """Fractional cost (GHz/Gbps) reduction of ``mode`` vs ``baseline``.

    ``None`` when either cell failed (the comparison is undefined)."""
    base = _cell_attr(sweep, size, baseline, "cost_ghz_per_gbps")
    point = _cell_attr(sweep, size, mode, "cost_ghz_per_gbps")
    if base is None or point is None:
        return None
    if base <= 0:
        return 0.0
    return 1.0 - point / base


def best_gain(sweep, sizes, mode, baseline="none"):
    """The largest throughput gain of ``mode`` across sizes (the
    paper's "up to 25% / up to 29%" headline numbers).

    Sizes whose gain is undefined (failed cell on either side) are
    skipped; ``None`` if every size is undefined."""
    gains = [throughput_gain(sweep, size, mode, baseline) for size in sizes]
    gains = [g for g in gains if g is not None]
    if not gains:
        return None
    return max(gains)
