"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.reference.events import EventScheduler


class TestScheduling:
    def test_events_fire_in_time_order(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(5.0, lambda s: fired.append("b"))
        scheduler.schedule(1.0, lambda s: fired.append("a"))
        scheduler.schedule(9.0, lambda s: fired.append("c"))
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_equal_times_fire_in_insertion_order(self):
        scheduler = EventScheduler()
        fired = []
        for tag in "abc":
            scheduler.schedule(1.0, lambda s, t=tag: fired.append(t))
        scheduler.run()
        assert fired == ["a", "b", "c"]

    def test_clock_advances(self):
        scheduler = EventScheduler()
        seen = []
        scheduler.schedule(3.0, lambda s: seen.append(s.now))
        scheduler.run()
        assert seen == [3.0]
        assert scheduler.now == 3.0

    def test_past_scheduling_rejected(self):
        scheduler = EventScheduler(start_time=10.0)
        with pytest.raises(ValueError):
            scheduler.schedule(5.0, lambda s: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            EventScheduler().schedule_in(-1.0, lambda s: None)

    def test_schedule_in_is_relative(self):
        scheduler = EventScheduler(start_time=100.0)
        times = []
        scheduler.schedule_in(5.0, lambda s: times.append(s.now))
        scheduler.run()
        assert times == [105.0]

    def test_handlers_can_schedule_followups(self):
        scheduler = EventScheduler()
        fired = []

        def first(s):
            fired.append("first")
            s.schedule_in(1.0, lambda s2: fired.append("second"))

        scheduler.schedule(0.0, first)
        scheduler.run()
        assert fired == ["first", "second"]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = EventScheduler()
        fired = []
        handle = scheduler.schedule(1.0, lambda s: fired.append("x"))
        handle.cancel()
        scheduler.run()
        assert fired == []
        assert handle.cancelled

    def test_pending_excludes_cancelled(self):
        scheduler = EventScheduler()
        handle = scheduler.schedule(1.0, lambda s: None)
        scheduler.schedule(2.0, lambda s: None)
        handle.cancel()
        assert scheduler.pending == 1


class TestRunUntil:
    def test_run_until_stops_at_boundary(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(1.0, lambda s: fired.append(1))
        scheduler.schedule(5.0, lambda s: fired.append(5))
        executed = scheduler.run_until(3.0)
        assert executed == 1
        assert fired == [1]
        assert scheduler.now == 3.0  # clock advanced to the boundary

    def test_run_until_inclusive(self):
        scheduler = EventScheduler()
        fired = []
        scheduler.schedule(3.0, lambda s: fired.append(3))
        scheduler.run_until(3.0)
        assert fired == [3]

    def test_max_events_cap(self):
        scheduler = EventScheduler()
        fired = []
        for t in range(5):
            scheduler.schedule(float(t), lambda s, t=t: fired.append(t))
        scheduler.run(max_events=2)
        assert fired == [0, 1]

    def test_processed_counter(self):
        scheduler = EventScheduler()
        scheduler.schedule(1.0, lambda s: None)
        scheduler.run()
        assert scheduler.processed == 1

    def test_step_on_empty_queue(self):
        assert EventScheduler().step() is False
