"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.events import EventQueue, SimulationEngine


def drain(q):
    """Every event ``q`` still holds, epoch by epoch, in pop order."""
    popped = []
    while True:
        batch = q.pop_epoch()
        if batch is None:
            return popped
        popped.extend(batch)


class TestEventQueue:
    def test_pops_in_time_order(self):
        q = EventQueue()
        fired = []
        q.schedule(30, lambda: fired.append(30))
        q.schedule(10, lambda: fired.append(10))
        q.schedule(20, lambda: fired.append(20))
        for ev in drain(q):
            ev.callback()
        assert fired == [10, 20, 30]

    def test_ties_break_by_insertion_order(self):
        q = EventQueue()
        fired = []
        for tag in ("a", "b", "c"):
            q.schedule(5, lambda t=tag: fired.append(t))
        q.schedule(4, lambda: fired.append("early"))
        q.schedule(5, lambda: fired.append("d"))
        for ev in drain(q):
            ev.callback()
        assert fired == ["early", "a", "b", "c", "d"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        ev = q.schedule(10, lambda: None)
        q.schedule(20, lambda: None)
        ev.cancel()
        assert [e.time for e in q.pop_epoch()] == [20]
        assert q.pop_epoch() is None

    def test_len_ignores_cancelled(self):
        q = EventQueue()
        ev = q.schedule(10, lambda: None)
        q.schedule(20, lambda: None)
        assert len(q) == 2
        ev.cancel()
        assert len(q) == 1

    def test_pop_epoch_deadline_skips_cancelled_head(self):
        # The deadline is checked against the earliest *live* event: a
        # cancelled earlier timestamp neither fires nor stops the pop.
        q = EventQueue()
        ev = q.schedule(10, lambda: None)
        keep = q.schedule(25, lambda: None)
        ev.cancel()
        assert q.pop_epoch(until=20) is None
        assert len(q) == 1
        assert q.pop_epoch(until=25) == [keep]

    def test_negative_time_rejected(self):
        q = EventQueue()
        with pytest.raises(ValueError):
            q.schedule(-1, lambda: None)

    def test_len_is_counter_not_scan(self):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in range(10)]
        assert len(q) == 10
        for ev in events[:4]:
            ev.cancel()
        assert len(q) == 6
        # Double-cancel must not double-decrement.
        events[0].cancel()
        assert len(q) == 6

    def test_cancel_after_pop_does_not_corrupt_len(self):
        q = EventQueue()
        ev = q.schedule(1, lambda: None)
        q.schedule(2, lambda: None)
        assert q.pop_epoch() == [ev]
        ev.cancel()  # already fired; must be a no-op for the counter
        assert len(q) == 1
        assert [e.time for e in q.pop_epoch()] == [2]
        assert len(q) == 0

    def test_mass_cancellation_compacts_storage(self):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in range(200)]
        for ev in events[:150]:
            ev.cancel()
        assert len(q) == 50
        # Opportunistic compaction bounds the cancelled debris: the
        # physical store never grows past twice the live count.
        assert q.physical_size() <= 2 * len(q)
        assert q.physical_size() < 200

    def test_compaction_drops_empty_buckets(self):
        q = EventQueue()
        keep = q.schedule(7, lambda: None)
        doomed = [q.schedule(t, lambda: None) for t in range(100, 300)]
        for ev in doomed:
            ev.cancel()
        assert len(q) == 1
        # Compaction stops below COMPACT_MIN; debris is bounded by it.
        assert q.physical_size() <= EventQueue.COMPACT_MIN
        assert drain(q) == [keep]

    def test_pop_epoch_returns_same_time_run(self):
        q = EventQueue()
        a = q.schedule(5, lambda: None, label="a")
        b = q.schedule(5, lambda: None, label="b")
        q.schedule(9, lambda: None, label="c")
        batch = q.pop_epoch()
        assert batch == [a, b]
        assert len(q) == 1
        assert [e.label for e in q.pop_epoch()] == ["c"]

    def test_pop_epoch_respects_until(self):
        q = EventQueue()
        q.schedule(50, lambda: None)
        assert q.pop_epoch(until=49) is None
        assert len(q) == 1
        assert len(q.pop_epoch(until=50)) == 1

    def test_pop_epoch_skips_cancelled_members(self):
        q = EventQueue()
        a = q.schedule(5, lambda: None)
        b = q.schedule(5, lambda: None)
        c = q.schedule(5, lambda: None)
        b.cancel()
        assert q.pop_epoch() == [a, c]
        assert len(q) == 0
        assert q.physical_size() == 0

    def test_pop_order_survives_compaction(self):
        q = EventQueue()
        events = [q.schedule(t, lambda: None) for t in range(200)]
        for ev in events[0:200:2]:
            ev.cancel()
        assert [ev.time for ev in drain(q)] == list(range(1, 200, 2))


class TestSimulationEngine:
    def test_clock_follows_events(self):
        eng = SimulationEngine()
        times = []
        eng.schedule_at(100, lambda: times.append(eng.now))
        eng.schedule_at(50, lambda: times.append(eng.now))
        eng.run()
        assert times == [50, 100]
        assert eng.now == 100

    def test_schedule_after_is_relative(self):
        eng = SimulationEngine()
        seen = []

        def first():
            eng.schedule_after(7, lambda: seen.append(eng.now))

        eng.schedule_at(10, first)
        eng.run()
        assert seen == [17]

    def test_run_until_leaves_future_events(self):
        eng = SimulationEngine()
        seen = []
        eng.schedule_at(5, lambda: seen.append(5))
        eng.schedule_at(500, lambda: seen.append(500))
        fired = eng.run(until=100)
        assert fired == 1
        assert seen == [5]
        assert eng.now == 100
        eng.run()
        assert seen == [5, 500]

    def test_cannot_schedule_in_past(self):
        eng = SimulationEngine()
        eng.schedule_at(10, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.schedule_at(5, lambda: None)

    def test_run_until_advances_clock_when_queue_drains(self):
        # Regression: the horizon advance used to be conditional on a
        # beyond-horizon event remaining queued, so run(until=...) over
        # a drained queue left ``now`` at the last fired event and gave
        # different run_for semantics than a non-empty queue.
        eng = SimulationEngine()
        eng.schedule_at(5, lambda: None)
        fired = eng.run(until=100)
        assert fired == 1
        assert eng.now == 100

    def test_run_until_advances_clock_on_empty_queue(self):
        eng = SimulationEngine()
        fired = eng.run(until=50)
        assert fired == 0
        assert eng.now == 50

    def test_same_time_schedule_during_epoch_fires_in_order(self):
        eng = SimulationEngine()
        seen = []

        def first():
            seen.append("first")
            eng.schedule_at(5, lambda: seen.append("late"))

        eng.schedule_at(5, first)
        eng.schedule_at(5, lambda: seen.append("second"))
        eng.run()
        assert seen == ["first", "second", "late"]
        assert eng.now == 5

    def test_cancel_mid_epoch_skips_member(self):
        eng = SimulationEngine()
        seen = []
        holder = {}

        def first():
            seen.append("first")
            holder["b"].cancel()

        eng.schedule_at(5, first)
        holder["b"] = eng.schedule_at(5, lambda: seen.append("b"))
        eng.schedule_at(5, lambda: seen.append("c"))
        eng.run()
        assert seen == ["first", "c"]

    def test_events_fired_accumulates(self):
        eng = SimulationEngine()
        eng.schedule_at(1, lambda: None)
        eng.schedule_at(2, lambda: None)
        eng.run()
        assert eng.events_fired == 2
