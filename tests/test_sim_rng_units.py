"""Unit tests for RNG streams and unit conversions."""

import pytest

from repro.sim.rng import RngStreams
from repro.sim.units import (
    CYCLES_PER_SECOND_2GHZ,
    bytes_to_bits,
    cycles_to_seconds,
    gbps,
    mbps,
)


class TestRngStreams:
    def test_same_seed_same_streams(self):
        a = RngStreams(42).stream("scheduler")
        b = RngStreams(42).stream("scheduler")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_different_names_are_independent(self):
        streams = RngStreams(42)
        s1 = streams.stream("nic0")
        s2 = streams.stream("nic1")
        assert [s1.random() for _ in range(5)] != [s2.random() for _ in range(5)]

    def test_request_order_does_not_matter(self):
        f1 = RngStreams(7)
        f2 = RngStreams(7)
        a_first = f1.stream("a").random()
        f2.stream("b")
        a_second = f2.stream("a").random()
        assert a_first == a_second

    def test_stream_is_cached(self):
        streams = RngStreams(1)
        assert streams.stream("x") is streams.stream("x")

    def test_spawn_is_independent_of_parent(self):
        parent = RngStreams(42)
        child = parent.spawn("worker")
        assert parent.stream("a").random() != child.stream("a").random()


class TestUnits:
    def test_bits_bytes_roundtrip(self):
        assert bytes_to_bits(128) == 1024

    def test_cycles_seconds_roundtrip(self):
        cycles = CYCLES_PER_SECOND_2GHZ // 4
        assert cycles_to_seconds(cycles) == pytest.approx(0.25)

    def test_gbps(self):
        # 1 GB moved in one second at 2 GHz.
        bytes_moved = 10 ** 9
        assert gbps(bytes_moved, CYCLES_PER_SECOND_2GHZ) == pytest.approx(8.0)
        assert mbps(bytes_moved, CYCLES_PER_SECOND_2GHZ) == pytest.approx(8000.0)

    def test_gbps_empty_window(self):
        assert gbps(100, 0) == 0.0
