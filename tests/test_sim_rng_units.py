"""Unit tests for RNG streams."""

from repro.sim.rng import RngStreams


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

