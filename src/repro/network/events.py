"""A deterministic discrete-event scheduler.

Everything in the simulator — transaction broadcasts, gossip hops, block
discoveries, snapshot timers — is an event on this single queue.  Events
with equal timestamps fire in insertion order, which makes simulation
runs bit-for-bit reproducible for a fixed seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Optional

#: An event handler receives the scheduler so it can schedule follow-ups.
Handler = Callable[["EventScheduler"], None]


@dataclass
class _ScheduledEvent:
    time: float
    handler: Handler
    cancelled: bool = False


class EventHandle:
    """Returned by :meth:`EventScheduler.schedule`; allows cancellation."""

    def __init__(self, event: _ScheduledEvent) -> None:
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already has)."""
        self._event.cancelled = True

    @property
    def time(self) -> float:
        return self._event.time

    @property
    def cancelled(self) -> bool:
        return self._event.cancelled


class EventScheduler:
    """Min-heap event loop with a monotonically advancing clock."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = start_time
        # (time, sequence, event): tuples compare in C, and the unique
        # sequence keeps equal-time events in insertion order.
        self._queue: list[tuple[float, int, _ScheduledEvent]] = []
        self._sequence = itertools.count()
        self._processed = 0

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return sum(1 for _, _, event in self._queue if not event.cancelled)

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(self, time: float, handler: Handler) -> EventHandle:
        """Enqueue ``handler`` to fire at absolute time ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        event = _ScheduledEvent(time=time, handler=handler)
        heapq.heappush(self._queue, (time, next(self._sequence), event))
        return EventHandle(event)

    def schedule_in(self, delay: float, handler: Handler) -> EventHandle:
        """Enqueue ``handler`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.schedule(self._now + delay, handler)

    def step(self) -> bool:
        """Execute the next non-cancelled event.  False when drained."""
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            event.handler(self)
            self._processed += 1
            return True
        return False

    def run_until(self, end_time: float, max_events: Optional[int] = None) -> int:
        """Run events with time <= ``end_time``; return the count executed.

        The clock is advanced to ``end_time`` afterwards even if the
        queue drained earlier, so periodic observers see a full window.
        """
        executed = 0
        while self._queue:
            head = self._queue[0][2]
            if head.cancelled:
                heapq.heappop(self._queue)
                continue
            if head.time > end_time:
                break
            self.step()
            executed += 1
            if max_events is not None and executed >= max_events:
                return executed
        self._now = max(self._now, end_time)
        return executed

    def run(self, max_events: Optional[int] = None) -> int:
        """Drain the queue entirely (or up to ``max_events``)."""
        executed = 0
        while self.step():
            executed += 1
            if max_events is not None and executed >= max_events:
                break
        return executed
