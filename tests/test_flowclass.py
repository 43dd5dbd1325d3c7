"""Flyweight flow state and flow-class aggregation.

The contract under test (see ``repro/net/flowclass.py``): the
class-aggregated path is *bit-identical* to the exact path when every
class is a singleton, matches it within tolerance in the paced
sub-saturation regime at N=64, and carries 100K flows in bounded
memory and wall-clock -- while the ``aggregation`` config knob stays
out of pre-existing cache keys.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.experiment import (
    AUTO_AGGREGATION_MIN_FLOWS,
    ExperimentConfig,
    run_experiment,
)
from repro.core.scale import run_scale_sweep
from repro.net.flowclass import flow_population, partition_flows
from repro.net.params import NetParams
from repro.net.rss import (
    TOEPLITZ_KEY,
    RssIndirection,
    _toeplitz_tables,
    flow_hash,
    flow_tuple_bytes,
)
from repro.net.sock import BUFFER_SCALE_CAP, Sock
from repro.prof.slotaccounting import ClassColumns
from tests.toeplitz import toeplitz_hash


def _config(**overrides):
    kwargs = dict(
        workload="ttcp",
        direction="rx",
        affinity="rss",
        n_connections=64,
        n_cpus=8,
        n_queues=8,
        message_size=16384,
        warmup_ms=2,
        measure_ms=3,
        seed=7,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


class TestFastToeplitz:
    # The closed-form flow classifier must agree with the bit-serial
    # reference everywhere; the MS verification vectors pin the
    # reference to the spec.
    def test_ms_vector_tcp(self):
        data = (bytes((66, 9, 149, 187)) + bytes((161, 142, 100, 80))
                + (2794).to_bytes(2, "big") + (1766).to_bytes(2, "big"))
        assert toeplitz_hash(data) == 0x51CCC178

    def test_ms_vector_ip_only(self):
        data = bytes((66, 9, 149, 187)) + bytes((161, 142, 100, 80))
        assert toeplitz_hash(data) == 0x323E8FC2

    def test_matches_reference_on_flow_tuples(self):
        for conn_id in range(512):
            assert flow_hash(conn_id) == toeplitz_hash(
                flow_tuple_bytes(conn_id))

    def test_matches_reference_at_period_boundaries(self):
        # Each varying tuple field repeats with its own period: the
        # host byte every 250 flows, the subnet byte every 62,500 and
        # the source port every 28,233.  Check both sides of every
        # boundary up to 10**6.
        limit = 10 ** 6
        conn_ids = {0, limit - 1}
        for period in (250, 28233, 62500):
            for edge in range(period, limit, period):
                conn_ids.update((edge - 1, edge))
        for conn_id in sorted(conn_ids):
            assert flow_hash(conn_id) == toeplitz_hash(
                flow_tuple_bytes(conn_id)), conn_id

    def test_matches_reference_on_arbitrary_bytes(self):
        # The per-byte tables flow_hash is built from: XOR-ing an
        # input's entries gives its hash.  Deterministic pseudo-random
        # inputs of every modeled length.
        state = 0x2545F491
        for length in (4, 8, 12):
            tables = _toeplitz_tables(TOEPLITZ_KEY, length)
            for _ in range(64):
                data = bytes(
                    (state := (state * 48271) % 0x7FFFFFFF) & 0xFF
                    for _ in range(length)
                )
                h = 0
                for p, byte in enumerate(data):
                    h ^= tables[p][byte]
                assert h == toeplitz_hash(data, TOEPLITZ_KEY)


class TestPartition:
    def test_population_is_interned(self):
        assert flow_population(1000, 8) is flow_population(1000, 8)
        assert flow_population(1000, 8) is not flow_population(1000, 4)

    def test_weights_cover_every_flow(self):
        pop, classes = partition_flows(1000, 8)
        assert sum(fc.weight for fc in classes) == 1000
        assert len(classes) == 8
        assert pop.n_flows == 1000

    def test_representative_is_lowest_conn_id(self):
        pop, classes = partition_flows(64, 8)
        for fc in classes:
            assert pop.queue_for(fc.rep_conn_id) == fc.queue
            earlier = [
                c for c in range(fc.rep_conn_id)
                if pop.queue_for(c) == fc.queue
            ]
            assert earlier == []

    def test_occupancy_matches_weights(self):
        pop, classes = partition_flows(1000, 8)
        occ = pop.occupancy()
        for fc in classes:
            assert occ[fc.queue] == fc.weight

    @settings(max_examples=60, deadline=None)
    @given(n_flows=st.integers(1, 5000), n_queues=st.integers(1, 16))
    def test_matches_per_flow_grouping(self, n_flows, n_queues):
        # Brute force: classify every flow through the receive-time
        # indirection lookup and group in flow-id order.
        indirection = RssIndirection(n_queues)
        queues = [indirection.lookup(flow_hash(c)) for c in range(n_flows)]
        by_queue = {}
        for conn_id, q in enumerate(queues):
            by_queue.setdefault(q, []).append(conn_id)
        expected = [
            (class_id, q, flows[0], len(flows))
            for class_id, (q, flows) in enumerate(by_queue.items())
        ]
        pop, classes = partition_flows(n_flows, n_queues)
        assert [
            (fc.class_id, fc.queue, fc.rep_conn_id, fc.weight)
            for fc in classes
        ] == expected
        assert list(pop.queues) == queues


class TestFlyweight:
    def test_netparams_interned_and_frozen(self):
        a = NetParams.interned(mss=1448)
        b = NetParams.interned(mss=1448)
        assert a is b
        with pytest.raises(AttributeError):
            a.mss = 9000

    def test_buffer_scaling_is_capped(self):
        class _Machine:
            def __init__(self):
                from repro.mem.layout import AddressSpace

                self.space = AddressSpace()

            def new_lock(self, name):
                return None

        machine = _Machine()
        params = NetParams.interned()
        sock = Sock(machine, params, 0, "conn0")
        sock.scale_buffers(100 * BUFFER_SCALE_CAP)
        assert sock.rcvbuf == params.rcvbuf * BUFFER_SCALE_CAP
        assert sock.sndbuf == params.sndbuf * BUFFER_SCALE_CAP
        assert sock.max_window == params.max_window * BUFFER_SCALE_CAP

    def test_class_columns_zero_in_place(self):
        cols = ClassColumns(4, ("bytes", "messages"))
        view = cols.column("bytes")
        view[2] += 7
        assert list(cols.column("bytes")) == [0, 0, 7, 0]
        cols.zero()
        # The *same* view stays valid after a reset -- no re-binding.
        assert list(view) == [0, 0, 0, 0]


class TestEquivalence:
    def test_singleton_classes_are_bit_identical(self):
        # n == queue-permutation population: every class is a
        # singleton, so the aggregated stack must rebuild the exact
        # stack operation for operation.
        base = dict(n_connections=2, n_cpus=2, n_queues=2)
        exact = run_experiment(_config(aggregation="exact", **base))
        klass = run_experiment(_config(aggregation="class", **base))
        d_exact, d_klass = exact.to_dict(), klass.to_dict()
        d_exact.pop("config"), d_klass.pop("config")
        assert d_exact == d_klass

    def test_aggregation_matches_exact_at_n64(self):
        # The validity-envelope cell: paced sub-saturation, 64 flows
        # over 8 queues.  Both headline metrics within 2%.
        exact = run_experiment(_config(aggregation="exact",
                                       offered_gbps=2.0))
        klass = run_experiment(_config(aggregation="class",
                                       offered_gbps=2.0))
        assert klass.throughput_gbps == pytest.approx(
            exact.throughput_gbps, rel=0.02
        )
        assert klass.cost_ghz_per_gbps == pytest.approx(
            exact.cost_ghz_per_gbps, rel=0.02
        )

    def test_aggregated_payload_reports_population(self):
        klass = run_experiment(_config(aggregation="class",
                                       offered_gbps=2.0))
        flows = klass["flows"]
        assert flows["n_flows"] == 64
        assert flows["n_simulated"] == 8
        assert sum(c["weight"] for c in flows["classes"]) == 64
        assert flows["per_flow_throughput_gbps"] > 0


class TestConfig:
    def test_exact_default_stays_out_of_cache_keys(self):
        d = _config().to_dict()
        assert "aggregation" not in d

    def test_class_enters_cache_key_and_label(self):
        config = _config(aggregation="class")
        assert config.to_dict()["aggregation"] == "class"
        assert "+agg" in config.label()

    def test_auto_resolves_by_population(self):
        small = _config(aggregation="auto")
        assert small.aggregation == "exact"
        assert small.to_dict() == _config().to_dict()
        big = _config(aggregation="auto",
                      n_connections=AUTO_AGGREGATION_MIN_FLOWS + 1)
        assert big.aggregation == "class"

    def test_class_requires_multiqueue(self):
        with pytest.raises(ValueError):
            _config(aggregation="class", n_queues=1, n_cpus=2,
                    n_connections=4)

    def test_unknown_aggregation_rejected(self):
        with pytest.raises(ValueError):
            _config(aggregation="bogus")


class TestScaleAxis:
    def test_connections_below_queues_rejected(self):
        with pytest.raises(ValueError):
            run_scale_sweep(
                "rx", cpus=(2,), sizes=(16384,), modes=("rss",),
                n_queues=8, connections=(4,),
                warmup_ms=2, measure_ms=3, seed=7,
            )

    def test_connections_axis_keys_are_4_tuples(self):
        sweep = run_scale_sweep(
            "rx", cpus=(2,), sizes=(16384,), modes=("rss",),
            n_queues=4, connections=(8, 1000),
            warmup_ms=1, measure_ms=2, seed=7,
        )
        assert sorted(sweep) == [
            (2, 16384, "rss", 8), (2, 16384, "rss", 1000),
        ]
        assert all(r is not None for r in sweep.values())
        # auto aggregation: the small population ran exact, the large
        # one collapsed to one representative per populated queue.
        assert sweep[(2, 16384, "rss", 8)].payload_get("flows") is None
        flows = sweep[(2, 16384, "rss", 1000)].payload_get("flows")
        assert flows is not None and flows["n_flows"] == 1000


class TestHundredThousandFlows:
    def test_100k_smoke_is_tractable(self):
        result = run_experiment(_config(
            aggregation="class",
            n_connections=100_000,
            offered_gbps=4.5,
            warmup_ms=1,
            measure_ms=2,
        ))
        assert result["flows"]["n_flows"] == 100_000
        assert result["flows"]["n_simulated"] == 8
        # Goodput tracks the offered aggregate: the population really
        # is being modeled, not dropped on the floor.
        assert result.throughput_gbps == pytest.approx(4.5, rel=0.05)
        # The tentpole's whole point: bounded resources at 100K flows.
        assert result.wall_s < 120
        if result.peak_rss_kb is not None:
            assert result.peak_rss_kb < 1.5 * 1024 * 1024
