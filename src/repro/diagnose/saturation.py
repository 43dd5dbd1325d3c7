"""Saturation-point search: binary search on offered load.

Ren et al.'s methodology (PAPERS.md) measures sensitivity *at the
saturation point*, so that any added per-byte cost shows up as lost
throughput instead of idle headroom.  The search here is a textbook
bisection with one twist -- the simulator is closed-loop by
construction, so the first probe runs the unpaced workload to learn
the capacity ceiling, then bisection brackets the highest offered rate
the stack still *sustains* (delivered >= ``sustain_frac`` x offered).
The bracket localizes the knee for the report; the perturbation cells
themselves run closed-loop (see :mod:`repro.diagnose.driver`), since
the unpaced source keeps the pipeline saturated by construction.

Everything is expressed as :class:`ExperimentConfig` cells, so probes
are seeded, cache-key-stable, and shardable over the fault-tolerant
:class:`~repro.core.parallel.SweepRunner` like any other sweep cell:
:class:`SaturationSearch` is a resumable state machine (ask for the
next probe config, feed back the result), and ``run_diagnosis`` drives
many of them in lockstep waves so independent (direction, mode)
searches bisect in parallel.
"""

from repro.core.experiment import ExperimentConfig
from repro.core.parallel import SweepRunner

#: Bisection steps after the ceiling probe: each halves the bracket,
#: so 6 steps place saturation within ~2% of the capacity ceiling.
DEFAULT_STEPS = 6

#: A probe "sustains" its offered load when this fraction is delivered.
DEFAULT_SUSTAIN_FRAC = 0.95

#: Upper bracket: ceiling * margin (the cliff is below the closed-loop
#: throughput by definition, but leave room for pacing to smooth a
#: bursty closed loop into slightly higher goodput).
DEFAULT_HI_MARGIN = 1.25


class SaturationSearch:
    """Resumable bisection for one configuration.

    Drive it with ``while not search.done: observe(run(next_config()))``
    -- or interleave many searches, batching their ``next_config()``
    cells through one SweepRunner per wave.  A ``None`` observation
    (quarantined cell) fails the ceiling probe outright but only counts
    as "not sustained" for a bisection probe.
    """

    def __init__(self, base_config, steps=DEFAULT_STEPS,
                 sustain_frac=DEFAULT_SUSTAIN_FRAC,
                 hi_margin=DEFAULT_HI_MARGIN):
        if base_config.offered_gbps is not None:
            raise ValueError(
                "base_config must be closed-loop (offered_gbps unset)"
            )
        self.base_dict = base_config.to_dict()
        self.steps = steps
        self.sustain_frac = sustain_frac
        self.hi_margin = hi_margin
        self.phase = "ceiling"
        self.closed_loop = None
        self.failed = False
        self.probes = []
        self._lo = 0.0
        self._hi = None
        self._rate = None
        self._steps_done = 0
        self._best = None  # (offered, delivered) of best sustained probe

    # -- driving --------------------------------------------------------

    @property
    def done(self):
        return self.phase == "done"

    def next_config(self):
        """The next cell to run, or ``None`` when finished."""
        if self.phase == "ceiling":
            return ExperimentConfig(**self.base_dict)
        if self.phase == "bisect":
            # Rounded so probe configs (and their cache keys) are
            # reproducible decimal rates, not accumulated float noise.
            self._rate = round((self._lo + self._hi) / 2.0, 4)
            return ExperimentConfig(
                offered_gbps=self._rate, **self.base_dict
            )
        return None

    def observe(self, result):
        """Feed back the result of the config from next_config()."""
        if self.phase == "ceiling":
            if result is None or result.throughput_gbps <= 0:
                self.failed = True
                self.phase = "done"
                return
            self.closed_loop = result
            self._hi = round(
                result.throughput_gbps * self.hi_margin, 4
            )
            self.phase = "bisect" if self.steps > 0 else "done"
            return
        offered = self._rate
        delivered = None if result is None else result.throughput_gbps
        sustained = (
            delivered is not None
            and delivered >= self.sustain_frac * offered
        )
        self.probes.append({
            "offered_gbps": offered,
            "delivered_gbps": (
                None if delivered is None else round(delivered, 4)
            ),
            "sustained": sustained,
        })
        if sustained:
            self._lo = offered
            if self._best is None or delivered > self._best[1]:
                self._best = (offered, delivered)
        else:
            self._hi = offered
        self._steps_done += 1
        if self._steps_done >= self.steps:
            self.phase = "done"

    # -- results --------------------------------------------------------

    @property
    def saturation_offered(self):
        """Highest sustained offered rate, or ``None`` if no probe
        sustained (the knee then sits below the bisection floor)."""
        return self._best[0] if self._best else None

    @property
    def saturation_throughput(self):
        """Delivered throughput at the saturation point (closed-loop
        throughput when no paced probe sustained), or ``None`` if even
        the ceiling probe failed."""
        if self._best is not None:
            return self._best[1]
        if self.closed_loop is not None:
            return self.closed_loop.throughput_gbps
        return None

    def summary(self):
        """Plain-data summary for the diagnosis JSON."""
        return {
            "failed": self.failed,
            "closed_loop_gbps": (
                None if self.closed_loop is None
                else round(self.closed_loop.throughput_gbps, 4)
            ),
            "saturation_offered_gbps": (
                None if self.saturation_offered is None
                else round(self.saturation_offered, 4)
            ),
            "saturation_gbps": (
                None if self.saturation_throughput is None
                else round(self.saturation_throughput, 4)
            ),
            "probes": list(self.probes),
        }


def find_saturation(config, steps=DEFAULT_STEPS,
                    sustain_frac=DEFAULT_SUSTAIN_FRAC,
                    hi_margin=DEFAULT_HI_MARGIN, runner=None):
    """Find the saturation point of one closed-loop ``config``.

    Returns the :meth:`SaturationSearch.summary` dict.  Deterministic:
    the probe schedule is a pure function of the (seeded) simulation
    results, and every probe is itself a cache-key-stable
    ExperimentConfig.  ``runner`` executes the probes (default
    ``SweepRunner(jobs=1)``: serial, uncached, unjournaled); a probe
    that fails despite retries observes as ``None``.
    """
    runner = runner or SweepRunner(jobs=1)
    search = SaturationSearch(
        config, steps=steps, sustain_frac=sustain_frac,
        hi_margin=hi_margin,
    )
    while not search.done:
        (result,) = runner.run([search.next_config()])
        search.observe(result)
    return search.summary()
