"""Multi-seed replication: error bars for the headline numbers.

The paper reports single measurements from long hardware runs.  The
simulator's runs are shorter and seed-dependent (scheduler tie-breaks,
coalescing phase), so any claim worth making should survive across
seeds.  ``replicate`` runs one configuration under several seeds and
summarizes; ``gain_statistics`` does the same for a mode-vs-baseline
comparison.
"""

import math

from repro.core.experiment import ExperimentConfig
from repro.core.metrics import dedupe_cells
from repro.core.parallel import SweepRunner


class Summary:
    """Mean / standard deviation / extremes over replicated runs."""

    __slots__ = ("values", "mean", "stdev", "minimum", "maximum")

    def __init__(self, values):
        if not values:
            raise ValueError("no values to summarize")
        self.values = list(values)
        n = len(values)
        self.mean = sum(values) / n
        if n > 1:
            var = sum((v - self.mean) ** 2 for v in values) / (n - 1)
            self.stdev = math.sqrt(var)
        else:
            self.stdev = 0.0
        self.minimum = min(values)
        self.maximum = max(values)

    @property
    def cv(self):
        """Coefficient of variation (stdev / mean)."""
        return self.stdev / self.mean if self.mean else 0.0

    def __repr__(self):
        return "Summary(mean=%.4g, stdev=%.2g, n=%d)" % (
            self.mean, self.stdev, len(self.values))


def _run_all(configs, runner):
    """Every config's result; a summary over a partial set of seeds
    would silently change its meaning, so any failed cell raises."""
    runner = runner or SweepRunner(jobs=1)
    results = runner.run(configs)
    if not runner.report.ok:
        raise RuntimeError(
            "replication incomplete: %s" % runner.report.summary()
        )
    return results


def replicate(config, seeds=(3, 5, 7, 11), metric="throughput_gbps",
              runner=None):
    """Run ``config`` under each seed; returns a :class:`Summary`.

    ``metric`` is an :class:`ExperimentResult` attribute name.
    ``runner`` is the :class:`~repro.core.parallel.SweepRunner` that
    executes the per-seed cells (default ``SweepRunner(jobs=1)``:
    serial, uncached, unjournaled).  A cell that fails despite the
    runner's retries raises ``RuntimeError`` naming the failed cells
    from ``runner.report``.  Repeated seeds are collapsed (with a
    ``RuntimeWarning``) rather than counted twice in the summary.
    """
    seeds = dedupe_cells(seeds, axes="seeds")
    base = config.to_dict()
    configs = []
    for seed in seeds:
        base["seed"] = seed
        configs.append(ExperimentConfig(**base))
    results = _run_all(configs, runner)
    return Summary([getattr(result, metric) for result in results])


def gain_statistics(direction, message_size, mode, baseline="none",
                    seeds=(3, 5, 7, 11), runner=None, **config_kwargs):
    """Throughput gain of ``mode`` over ``baseline``, per seed.

    Returns a :class:`Summary` of the fractional gains, so callers can
    assert e.g. that the affinity benefit is positive for *every* seed
    rather than on average.  ``runner`` executes the (seed x mode)
    grid and failed cells raise, as in :func:`replicate`.  Duplicate
    ``(seed, affinity)`` cells -- repeated seeds, or ``mode ==
    baseline`` -- are collapsed with a ``RuntimeWarning`` instead of
    double-counting seeds in the summary (``dict(zip(pairs,
    results))`` kept only the last duplicate).
    """
    seeds = dedupe_cells(seeds, axes="seeds")
    pairs = dedupe_cells(
        [(seed, affinity) for seed in seeds for affinity in (baseline, mode)],
        axes="seeds/modes",
    )
    configs = [
        ExperimentConfig(
            direction=direction,
            message_size=message_size,
            affinity=affinity,
            seed=seed,
            **config_kwargs
        )
        for seed, affinity in pairs
    ]
    results = _run_all(configs, runner)
    by_cell = dict(zip(pairs, results))
    gains = [
        by_cell[(seed, mode)].throughput_gbps
        / by_cell[(seed, baseline)].throughput_gbps
        - 1.0
        for seed in seeds
    ]
    return Summary(gains)
