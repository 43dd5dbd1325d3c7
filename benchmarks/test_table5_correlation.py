"""Table 5: Spearman rank correlation of improvements.

Paper's shape: per-bin cycle improvements correlate strongly and
positively (rho 0.62-0.96) with per-bin LLC-miss and machine-clear
improvements across all four corners -- the events are predictive of
the timing benefit.
"""

from repro.core.correlation import correlate, critical_value
from repro.core.report import render_table5

from conftest import write_artifact

#: The paper's rho(LLC) and rho(clears) per corner.
PAPER = {
    "TX 64KB": (0.62, 0.80),
    "TX 128B": (0.93, 0.89),
    "RX 64KB": (0.82, 0.93),
    "RX 128B": (0.96, 0.79),
}


def test_table5(benchmark, tx64_pair, tx128_pair, rx64_pair, rx128_pair,
                artifacts_dir):
    pairs = [
        ("TX 64KB", tx64_pair),
        ("TX 128B", tx128_pair),
        ("RX 64KB", rx64_pair),
        ("RX 128B", rx128_pair),
    ]
    correlations = [correlate(*pair, label=label) for label, pair in pairs]
    text = benchmark.pedantic(
        render_table5, args=(correlations,), rounds=1, iterations=1
    )
    significant = sum(1 for c in correlations if c.significant_llc())
    paper_bar = critical_value(exact=False)
    write_artifact(artifacts_dir, "table5_correlation.txt", text, [
        ("%s rho(LLC) / rho(clears)" % c.label,
         "%.2f / %.2f" % PAPER[c.label],
         "%.2f / %.2f" % (c.rho_llc, c.rho_clears))
        for c in correlations
    ] + [
        ("corners with rho(LLC) significant (exact p=0.05)", "3 of 4",
         "%d of 4" % significant),
    ])

    for corr in correlations:
        # Strong positive LLC correlation in every corner.
        assert corr.rho_llc > 0.5, "%s: rho_llc=%.2f" % (
            corr.label, corr.rho_llc)
        # Clear correlation positive.
        assert corr.rho_clears > 0.0, "%s: rho_clears=%.2f" % (
            corr.label, corr.rho_clears)

    # At least half the corners clear the exact one-tailed p=0.05 bar
    # on LLC (the paper's values straddle its looser printed bar).
    assert significant >= 2

    # Everything clears the paper's printed critical value.
    for corr in correlations:
        assert corr.rho_llc > paper_bar
