"""Property tests for the timer wheel and slab interplay."""

from hypothesis import given, settings, strategies as st

from repro.kernel.timers import KernelTimer, TimerWheel


def make_timer(i):
    return KernelTimer("t%d" % i, lambda ctx: iter(()))


class TestTimerWheelProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.lists(
        st.tuples(st.integers(min_value=0, max_value=1000),  # expiry
                  st.booleans()),                             # cancel?
        max_size=40,
    ), st.integers(min_value=0, max_value=1200))
    def test_expiry_semantics(self, entries, now):
        wheel = TimerWheel(0)
        timers = []
        for i, (expiry, cancel) in enumerate(entries):
            timer = make_timer(i)
            wheel.add(timer, expiry)
            timers.append((timer, expiry, cancel))
        for timer, _, cancel in timers:
            if cancel:
                wheel.remove(timer)
        due = wheel.expire(now)
        # Exactly the non-cancelled timers with expiry <= now fire.
        expected = {t.name for t, e, c in timers if not c and e <= now}
        assert {t.name for t in due} == expected
        # Fired and cancelled timers are detached.
        for timer, expiry, cancel in timers:
            if cancel or expiry <= now:
                assert not timer.pending
            else:
                assert timer.pending
        # Nothing fires twice.
        assert wheel.expire(now) == []

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=1, max_value=500),
                    min_size=1, max_size=20))
    def test_next_expiry_is_minimum(self, expiries):
        wheel = TimerWheel(0)
        for i, expiry in enumerate(expiries):
            wheel.add(make_timer(i), expiry)
        assert wheel.expire(min(expiries) - 1) == []
        assert wheel.expire(min(expiries))

    def test_double_add_rejected(self):
        wheel = TimerWheel(0)
        timer = make_timer(0)
        wheel.add(timer, 10)
        try:
            wheel.add(timer, 20)
        except RuntimeError:
            pass
        else:
            raise AssertionError("double add allowed")

    def test_counters(self):
        wheel = TimerWheel(0)
        timer = make_timer(0)
        wheel.add(timer, 10)
        assert wheel.remove(timer) and not timer.pending
        assert not wheel.remove(timer)
        wheel.add(timer, 10)
        assert wheel.expire(50) == [timer]
        assert not timer.pending and len(wheel) == 0
