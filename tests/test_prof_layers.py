"""Tests for the profiling layer: accounting, Oprofile view, procstat."""

import pytest

from repro.core.characterization import characterize
from repro.core.experiment import ExperimentResult
from repro.cpu.events import CYCLES, INSTRUCTIONS
from repro.prof.accounting import ExactAccounting
from repro.prof.oprofile import OprofileView
from repro.prof.procstat import ProcInterrupts
from tests.proc_interrupts import deliveries


class FakeSpec:
    def __init__(self, name, bin):
        self.name = name
        self.bin = bin


def record(acct, cpu, spec, cycles=0, instructions=0, clears=0):
    acct.record(cpu, spec, cycles, instructions, 0, 0, 0, 0, 0, 0, 0, 0,
                clears)


class TestExactAccounting:
    def test_accumulates_per_cpu_and_function(self):
        acct = ExactAccounting()
        spec = FakeSpec("fn", "engine")
        record(acct, 0, spec, cycles=100, instructions=30)
        record(acct, 0, spec, cycles=50, instructions=10)
        record(acct, 1, spec, cycles=25, instructions=5)
        merged = acct.per_function()
        assert merged["fn"][1][CYCLES] == 175
        cpu0 = acct.per_function(cpu_index=0)
        assert cpu0["fn"][1][INSTRUCTIONS] == 40

    def test_per_bin(self):
        acct = ExactAccounting()
        record(acct, 0, FakeSpec("a", "engine"), cycles=10)
        record(acct, 0, FakeSpec("b", "copies"), cycles=20)
        bins = acct.per_bin()
        assert bins["engine"][CYCLES] == 10
        assert bins["copies"][CYCLES] == 20

    def test_idle_excluded_by_default(self):
        acct = ExactAccounting()
        record(acct, 0, FakeSpec("poll_idle", "other"), cycles=999)
        record(acct, 0, FakeSpec("fn", "engine"), cycles=1)
        assert acct.total()[CYCLES] == 1
        assert acct.total(include_idle=True)[CYCLES] == 1000

    def test_cpus_listing(self):
        acct = ExactAccounting()
        record(acct, 1, FakeSpec("fn", "engine"), cycles=1)
        record(acct, 0, FakeSpec("fn", "engine"), cycles=1)
        assert acct.cpus() == [0, 1]


class TestTable1Derivation:
    """Table 1's derived columns, from per-bin vectors that went through
    the accounting sink (``characterize`` is the one derivation)."""

    def make(self):
        acct = ExactAccounting()
        record(acct, 0, FakeSpec("a", "engine"), cycles=300, instructions=100)
        record(acct, 0, FakeSpec("b", "copies"), cycles=700, instructions=100)
        return ExperimentResult({"bins": acct.per_bin(), "total_bytes": 125})

    def test_pct_cycles(self):
        rows = characterize(self.make())
        assert rows["engine"].pct_cycles == pytest.approx(0.3)
        assert rows["copies"].pct_cycles == pytest.approx(0.7)

    def test_cpi(self):
        rows = characterize(self.make())
        assert rows["engine"].cpi == pytest.approx(3.0)
        assert rows["overall"].cpi == pytest.approx(5.0)

    def test_events_per_work(self):
        result = self.make()
        assert result.work_bits == 1000
        assert result.events_per_bit("engine", CYCLES) == pytest.approx(0.3)


class TestOprofileView:
    def make(self):
        acct = ExactAccounting()
        record(acct, 0, FakeSpec("hot", "engine"), cycles=100_000)
        record(acct, 0, FakeSpec("warm", "copies"), cycles=30_000)
        record(acct, 1, FakeSpec("cold", "driver"), cycles=4_000)
        return acct

    def test_samples_quantized_by_period(self):
        view = OprofileView(self.make(), period=10_000)
        samples = view.samples(CYCLES)
        assert samples["hot"] == 10
        assert samples["warm"] == 3
        assert "cold" not in samples  # below one period

    def test_per_cpu_view(self):
        view = OprofileView(self.make(), period=1000)
        cpu1 = view.samples(CYCLES, cpu_index=1)
        assert list(cpu1) == ["cold"]

    def test_top_sorted_with_percent(self):
        view = OprofileView(self.make(), period=1000)
        top = view.top(CYCLES, n=2)
        assert top[0][2] == "hot"
        assert top[0][1] > top[1][1]

    def test_report_format(self):
        view = OprofileView(self.make(), period=1000)
        out = view.report(CYCLES, "cycles", n=3)
        assert "samples" in out and "hot" in out

    def test_skid_moves_samples(self):
        acct = self.make()
        view = OprofileView(
            acct, period=1000, skid_fraction=0.5,
            skid_map={"hot": "warm"},
        )
        samples = view.samples(CYCLES)
        assert samples["hot"] == 50
        assert samples["warm"] == 80

    def test_invalid_period(self):
        with pytest.raises(ValueError):
            OprofileView(ExactAccounting(), period=0)


class TestProcInterrupts:
    def test_counts_and_render(self):
        stat = ProcInterrupts(2)
        stat.register(0x19, "eth0")
        stat.count(0x19, 0)
        stat.count(0x19, 0)
        stat.count_ipi(1)
        assert deliveries(stat, 0x19) == [2, 0]
        assert stat.total_device_interrupts() == 2
        assert stat.total_ipis() == 1
        out = stat.render()
        assert "eth0" in out and "rescheduling" in out

    def test_reset(self):
        stat = ProcInterrupts(2)
        stat.register(0x19, "eth0")
        stat.count(0x19, 1)
        stat.count_ipi(0)
        stat.reset()
        assert stat.total_device_interrupts() == 0
        assert stat.total_ipis() == 0

    def test_unregistered_vector_counts(self):
        stat = ProcInterrupts(2)
        stat.count(0x42, 1)
        assert deliveries(stat, 0x42) == [0, 1]

    def test_reset_keeps_handed_out_ipi_row_alive(self):
        """reset must zero ``ipi_counts`` in place: a reference handed
        out before the measurement window has to keep observing the
        live row, not a pre-reset orphan."""
        stat = ProcInterrupts(2)
        row = stat.ipi_counts  # e.g. a dashboard holding the row
        stat.count_ipi(0)
        stat.reset()
        assert row == [0, 0]
        stat.count_ipi(1)
        assert row == [0, 1]
        assert row is stat.ipi_counts
