"""Sensitivity analysis: are the paper's conclusions model-robust?

The cost model's unit penalties (Figure 5's cost column) are, as the
paper itself stresses, first-order approximations.  A reproduction
should show its headline conclusions do not hinge on the exact
values: these benches re-run the 64KB transmit comparison with the
key penalties halved and doubled and assert the ordering (full
affinity wins materially) survives, and that machine clears + LLC
misses stay the dominant indicator events.
"""


from repro.analysis.tables import format_pct as pct
from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.indicators import dominant_events, impact_indicators
from repro.cpu.params import CostModel

from conftest import write_artifact

FAST = dict(warmup_ms=12, measure_ms=16)

#: (label, overrides) -- each perturbs one load-bearing penalty.
VARIANTS = (
    ("baseline", {}),
    ("c2c/2", {"c2c_transfer": 225}),
    ("c2c*2", {"c2c_transfer": 900}),
    ("llc/2", {"llc_miss": 150}),
    ("llc*2", {"llc_miss": 600}),
    ("clear/2", {"machine_clear": 250}),
    ("clear*2", {"machine_clear": 1000}),
)


def gain(overrides, cache):
    results = {}
    for mode in ("none", "full"):
        results[mode] = run_experiment(
            ExperimentConfig(
                direction="tx", message_size=65536, affinity=mode,
                cost_overrides=overrides, **FAST
            ),
            cache=cache,
        )
    return (
        results["full"].throughput_gbps / results["none"].throughput_gbps
        - 1.0,
        results,
    )


def test_affinity_conclusion_is_cost_model_robust(benchmark, cache,
                                                  artifacts_dir):
    def sweep():
        rows = {}
        for label, overrides in VARIANTS:
            rows[label] = gain(overrides, cache)[0]
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = "\n".join(
        "%-9s full-affinity gain %+.1f%%" % (label, value * 100)
        for label, value in rows.items()
    )
    lowest = min(rows, key=rows.get)
    write_artifact(artifacts_dir, "sensitivity_gain.txt", text, [
        ("lowest gain (%s)" % lowest, "affinity wins", pct(rows[lowest])),
        ("gain, c2c/2 vs c2c*2", "grows with c2c cost",
         "%s vs %s" % (pct(rows["c2c/2"]), pct(rows["c2c*2"]))),
    ])
    for label, value in rows.items():
        assert value > 0.08, "%s: gain collapsed to %.1f%%" % (
            label, value * 100)

    # The gain should respond in the right direction to the coherence
    # penalty, since c2c transfers are a no-affinity-only cost.
    assert rows["c2c*2"] > rows["c2c/2"]


def test_indicator_dominance_is_cost_model_robust(benchmark, cache, artifacts_dir):
    def check():
        dominant = {}
        for label, overrides in (("baseline", {}),
                                 ("clear/2", {"machine_clear": 250}),
                                 ("llc/2", {"llc_miss": 150})):
            result = run_experiment(
                ExperimentConfig(direction="tx", message_size=65536,
                                 affinity="none", cost_overrides=overrides,
                                 **FAST),
                cache=cache,
            )
            rows = impact_indicators(result, CostModel(**overrides))
            dominant[label] = sorted(dominant_events(rows))
        expected = ["LLC miss", "Machine clear"]
        write_artifact(
            artifacts_dir, "sensitivity_indicators.txt",
            "\n".join("%-9s dominant: %s" % kv for kv in dominant.items()),
            [("variants where clears + LLC dominate", "all",
              "%d of %d" % (sum(top2 == expected
                                for top2 in dominant.values()),
                            len(dominant)))])
        for label, top2 in dominant.items():
            assert top2 == expected, label

    benchmark.pedantic(check, rounds=1, iterations=1)
