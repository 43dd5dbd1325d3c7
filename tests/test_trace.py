"""Tests for the trace-event observability layer."""

import json

import pytest

from repro.core.experiment import ExperimentConfig, run_experiment
from repro.core.report import render_trace_crosscheck
from repro.kernel.machine import Machine
from repro.trace import (
    EVENT_NAMES,
    LatencyStats,
    TraceOptions,
    Tracer,
    counts_by_name,
    irq_to_copy_latencies,
    irq_to_softirq_latencies,
    migration_count,
    per_cpu_counts,
    per_cpu_timeline,
    render_timeline,
    summarize,
    to_chrome_trace,
    to_flamegraph,
    top_producers,
    write_chrome_trace,
    write_flamegraph,
)
from repro.trace.tracer import TraceEvent


class FakeEngine:
    def __init__(self):
        self.now = 0


class TestRingBuffer:
    def test_bounded_drop_oldest(self):
        tracer = Tracer(FakeEngine(), capacity=4)
        for i in range(10):
            tracer.emit("irq_raise", cpu=0, ts=i, vector=0x19)
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # The survivors are the newest four, in order.
        assert [e.ts for e in tracer.events()] == [6, 7, 8, 9]

    def test_no_drops_under_capacity(self):
        tracer = Tracer(FakeEngine(), capacity=16)
        for i in range(10):
            tracer.emit("irq_raise", cpu=0, ts=i)
        assert tracer.dropped == 0
        assert len(tracer) == 10

    def test_clear_resets_counters(self):
        tracer = Tracer(FakeEngine(), capacity=2)
        for i in range(5):
            tracer.emit("skb_alloc", cpu=0, ts=i)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0
        assert tracer.dropped == 0

    def test_default_ts_is_engine_clock(self):
        engine = FakeEngine()
        engine.now = 42
        tracer = Tracer(engine)
        tracer.emit("skb_free", cpu=1)
        assert tracer.events()[0].ts == 42

    def test_event_filter(self):
        tracer = Tracer(FakeEngine(), events=("irq_entry",))
        tracer.emit("irq_entry", cpu=0, ts=1)
        tracer.emit("skb_alloc", cpu=0, ts=2)
        assert [e.name for e in tracer.events()] == ["irq_entry"]
        assert tracer.emitted == 1  # filtered emits are free

    def test_sorted_by_ts_then_seq(self):
        tracer = Tracer(FakeEngine())
        tracer.emit("irq_raise", cpu=0, ts=5)
        tracer.emit("irq_entry", cpu=0, ts=3)
        tracer.emit("irq_exit", cpu=0, ts=5)
        assert [e.name for e in tracer.events()] == [
            "irq_entry", "irq_raise", "irq_exit"
        ]


class TestTraceOptions:
    def test_coerce_none_and_false(self):
        assert TraceOptions.coerce(None) is None
        assert TraceOptions.coerce(False) is None

    def test_coerce_true_defaults(self):
        options = TraceOptions.coerce(True)
        assert options.capacity == TraceOptions.DEFAULT_CAPACITY
        assert options.events is None

    def test_coerce_int_is_capacity(self):
        assert TraceOptions.coerce(128).capacity == 128

    def test_coerce_dict(self):
        options = TraceOptions.coerce(
            {"capacity": 64, "events": ["ipi_recv"]}
        )
        assert options.capacity == 64
        assert options.events == ("ipi_recv",)

    def test_coerce_passthrough(self):
        options = TraceOptions(capacity=32)
        assert TraceOptions.coerce(options) is options

    def test_rejects_unknown_events(self):
        with pytest.raises(ValueError):
            TraceOptions(events=("not_a_tracepoint",))

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            TraceOptions(capacity=0)

    def test_rejects_bad_type(self):
        with pytest.raises(TypeError):
            TraceOptions.coerce("yes")

    def test_event_vocabulary_covers_spans(self):
        for prefix in ("irq", "softirq"):
            assert prefix + "_entry" in EVENT_NAMES
            assert prefix + "_exit" in EVENT_NAMES


def _ev(ts, name, cpu, **args):
    return TraceEvent(ts, ts, name, cpu, args)


class TestAnalyses:
    def test_latency_stats_percentiles(self):
        stats = LatencyStats(range(1, 101))
        assert stats.count == 100
        assert stats.min == 1
        assert stats.max == 100
        assert stats.percentile(50) in (50, 51)  # nearest rank
        assert stats.percentile(0) == 1
        assert stats.percentile(100) == 100
        d = stats.to_dict()
        assert d["p90"] == 90

    def test_latency_stats_empty(self):
        stats = LatencyStats([])
        assert stats.count == 0
        assert stats.percentile(99) == 0
        assert "n=0" in stats.render("t")

    def test_irq_to_softirq_matching(self):
        events = [
            _ev(10, "irq_entry", 0, vector=0x19),
            _ev(12, "irq_entry", 0, vector=0x1A),
            _ev(20, "softirq_entry", 0, softirq="NET_RX"),
            # Different CPU: not matched by CPU0's softirq pass.
            _ev(15, "irq_entry", 1, vector=0x1B),
            _ev(40, "softirq_entry", 1, softirq="NET_RX"),
            # Non-NET_RX pass does not drain pending IRQs.
            _ev(50, "irq_entry", 0, vector=0x19),
            _ev(55, "softirq_entry", 0, softirq="NET_TX"),
        ]
        samples = irq_to_softirq_latencies(sorted(events,
                                                  key=lambda e: e.ts))
        assert sorted(samples) == [8, 10, 25]

    def test_irq_to_copy_matching(self):
        events = [
            _ev(10, "irq_entry", 0, vector=0x19),
            _ev(30, "copy_to_user", 1, vector=0x19, bytes=4096),
            # Second copy from the same batch: not an IRQ latency.
            _ev(35, "copy_to_user", 1, vector=0x19, bytes=4096),
        ]
        assert irq_to_copy_latencies(events) == [20]

    def test_per_cpu_timeline_shape(self):
        events = [_ev(t, "skb_alloc", t % 2) for t in range(100)]
        t0, width, matrix = per_cpu_timeline(events, 2, buckets=10)
        assert t0 == 0
        assert len(matrix) == 2 and len(matrix[0]) == 10
        assert sum(sum(row) for row in matrix) == 100
        text = render_timeline(events, 2, buckets=10)
        assert "CPU0" in text and "CPU1" in text

    def test_counts_and_producers(self):
        events = [_ev(1, "ipi_recv", 1), _ev(2, "ipi_recv", 1),
                  _ev(3, "sched_migrate", 0, task="t")]
        assert counts_by_name(events) == {
            "ipi_recv": 2, "sched_migrate": 1
        }
        assert top_producers(events, n=1) == [(("ipi_recv", 1), 2)]
        assert per_cpu_counts(events, "ipi_recv", 2) == [0, 2]
        assert migration_count(events) == 1


class TestExporters:
    EVENTS = [
        _ev(10, "irq_entry", 0, vector=0x19),
        _ev(30, "irq_exit", 0, vector=0x19),
        _ev(40, "softirq_entry", 0, softirq="NET_RX"),
        _ev(90, "softirq_exit", 0, softirq="NET_RX"),
        _ev(50, "ipi_recv", 1),
    ]

    def test_chrome_trace_structure(self):
        doc = to_chrome_trace(sorted(self.EVENTS, key=lambda e: e.ts))
        phases = [r["ph"] for r in doc["traceEvents"]]
        assert phases.count("B") == 2 and phases.count("E") == 2
        assert phases.count("i") == 1
        spans = [r for r in doc["traceEvents"] if r["ph"] == "B"]
        assert {s["name"] for s in spans} == {"IRQ0x19", "softirq:NET_RX"}
        # Thread metadata names each CPU.
        names = [r for r in doc["traceEvents"] if r["ph"] == "M"
                 and r["name"] == "thread_name"]
        assert {m["args"]["name"] for m in names} == {"CPU0", "CPU1"}

    def test_chrome_trace_roundtrips_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self.EVENTS, str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_flamegraph_folding(self):
        text = to_flamegraph(sorted(self.EVENTS, key=lambda e: e.ts))
        lines = dict(
            line.rsplit(" ", 1) for line in text.splitlines()
        )
        assert lines["CPU0;hardirq;IRQ0x19"] == "20"
        assert lines["CPU0;softirq;softirq:NET_RX"] == "50"

    def test_flamegraph_drops_unbalanced(self, tmp_path):
        events = [_ev(10, "irq_entry", 0, vector=0x19)]  # never exits
        assert to_flamegraph(events) == ""
        path = tmp_path / "stacks.txt"
        write_flamegraph(events, str(path))
        assert path.read_text() == ""


class TestMachineIntegration:
    def test_zero_overhead_when_detached(self):
        machine = Machine(n_cpus=2, seed=3)
        assert machine.tracer is None  # the guard every emit site uses

    def test_attach_detach(self):
        machine = Machine(n_cpus=2, seed=3)
        tracer = machine.attach_tracer(Tracer(machine.engine))
        assert machine.tracer is tracer
        assert machine.scheduler.tracer is tracer
        machine.detach_tracer()
        assert machine.tracer is None
        assert machine.scheduler.tracer is None


@pytest.fixture(scope="module")
def traced_run():
    """A small no-affinity TX run: produces IRQs, IPIs and migrations.

    The capacity is far above the event volume so nothing is dropped
    and the trace-vs-/proc comparison is exact.
    """
    config = ExperimentConfig(
        direction="tx", message_size=65536, affinity="none",
        warmup_ms=4, measure_ms=6, trace=1 << 20,
    )
    return config, run_experiment(config)


class TestEndToEnd:
    def test_cache_key_unchanged_without_trace(self):
        plain = ExperimentConfig(direction="tx")
        traced = ExperimentConfig(direction="tx", trace=True)
        assert "trace" not in plain.to_dict()
        assert plain.key() != traced.key()

    def test_summary_attached(self, traced_run):
        _, result = traced_run
        trace = result["trace"]
        assert trace["dropped"] == 0
        assert trace["retained"] == trace["emitted"] > 0

    def test_irq_counts_match_procstat(self, traced_run):
        _, result = traced_run
        assert (result["trace"]["irq_entries_per_cpu"]
                == result.device_irqs)

    def test_ipi_counts_match_procstat(self, traced_run):
        _, result = traced_run
        trace = result["trace"]
        assert trace["ipis_per_cpu"] == result.ipis
        assert sum(result.ipis) > 0  # the check must not be vacuous
        assert trace["counts"]["ipi_send"] == sum(result.ipis)

    def test_single_queue_nic_emits_no_rx_steer(self, traced_run):
        # Every ACK passes through Nic._rx_dma, but a one-queue NIC
        # has no classifier, so nothing is steered.
        _, result = traced_run
        assert "rx_steer" not in result["trace"]["counts"]

    def test_migrations_match_scheduler(self, traced_run):
        _, result = traced_run
        assert result["trace"]["migrations"] == result["migrations"]

    def test_irq_to_softirq_latency_present(self, traced_run):
        _, result = traced_run
        stats = result["trace"]["irq_to_softirq"]
        assert stats["count"] > 0
        assert 0 < stats["p50"] <= stats["p90"] <= stats["p99"]

    def test_crosscheck_renders_match(self, traced_run):
        config, result = traced_run
        text = render_trace_crosscheck(result, config.label())
        assert "yes" in text
        assert "NO" not in text.replace("NO-", "")
        assert "migrations: trace=%d scheduler=%d (match)" % (
            result["migrations"], result["migrations"]) in text

    def test_exporters_on_real_trace(self, traced_run, tmp_path):
        _, result = traced_run
        events = result.tracer.events()
        doc = write_chrome_trace(events, str(tmp_path / "t.json"))
        assert len(doc["traceEvents"]) > len(events)  # + metadata
        text = to_flamegraph(events)
        assert any(line.startswith("CPU0;hardirq;IRQ0x")
                   for line in text.splitlines())

    def test_summarize_equals_stored(self, traced_run):
        _, result = traced_run
        assert summarize(result.tracer, 2) == result["trace"]

    def test_untraced_result_identical_to_pre_trace(self):
        """Attaching a tracer must not perturb the simulation."""
        base = ExperimentConfig(
            direction="tx", message_size=16384, affinity="full",
            n_connections=4, warmup_ms=4, measure_ms=6,
        )
        traced = ExperimentConfig(
            direction="tx", message_size=16384, affinity="full",
            n_connections=4, warmup_ms=4, measure_ms=6, trace=True,
        )
        a = run_experiment(base)
        b = run_experiment(traced)
        assert a.throughput_gbps == b.throughput_gbps
        assert a.bin_vector("engine") == b.bin_vector("engine")
        assert a.ipis == b.ipis
