"""Discrete-event simulation engine.

SmartCrowd's announcements and reports "are disseminated among all
stakeholders" (§IV-B) over a peer-to-peer network.  The reproduction
replaces the prototype's LAN with a deterministic discrete-event
simulator: events are (time, sequence, callback) triples on a heap;
ties break by insertion order so runs are exactly reproducible for a
given seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, List, Optional

from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["Simulator", "ScheduledEvent"]


@dataclass(order=True)
class ScheduledEvent:
    """One pending event; ordering is (time, seq) for determinism."""

    time: float
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: Owner hook so the simulator can count cancelled shells in O(1)
    #: and compact its heap; cleared once the event leaves the queue.
    _on_cancel: Optional[Callable[[], None]] = field(
        default=None, compare=False, repr=False
    )

    def cancel(self) -> None:
        """Mark the event so the simulator skips it (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


class Simulator:
    """A minimal but complete discrete-event simulator.

    Not a wall-clock system: ``now`` only advances when events fire.
    """

    def __init__(
        self, start_time: float = 0.0, telemetry: Optional[Telemetry] = None
    ) -> None:
        self._now = start_time
        self._queue: List[ScheduledEvent] = []
        self._seq = itertools.count()
        self._processed = 0
        #: Cancelled shells still sitting in the heap.  Tracked so
        #: ``pending`` is O(1) and so long chaos runs (which cancel
        #: retry timers constantly) don't leak dead heap entries.
        self._cancelled = 0
        #: Observability hook; mutable so a deployment can arm it after
        #: construction.  Disabled dispatch pays one truthiness check.
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of events fired so far."""
        return self._processed

    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued — O(1)."""
        return len(self._queue) - self._cancelled

    def _note_cancelled(self) -> None:
        """Event-cancel hook: count the shell; compact if they dominate."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled shells and re-heapify the survivors."""
        self._queue = [event for event in self._queue if not event.cancelled]
        heapq.heapify(self._queue)
        self._cancelled = 0

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> ScheduledEvent:
        """Schedule ``callback(*args, **kwargs)`` after ``delay`` seconds."""
        if delay < 0:
            raise ValueError("cannot schedule into the past")
        bound: Callable[[], None]
        if args or kwargs:
            bound = lambda: callback(*args, **kwargs)  # noqa: E731
        else:
            bound = callback
        event = ScheduledEvent(
            time=self._now + delay,
            seq=next(self._seq),
            callback=bound,
            _on_cancel=self._note_cancelled,
        )
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any, **kwargs: Any
    ) -> ScheduledEvent:
        """Schedule at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args, **kwargs)

    def step(self) -> bool:
        """Fire the next event; returns False when the queue is empty."""
        while self._queue:
            event = heapq.heappop(self._queue)
            event._on_cancel = None  # left the queue: late cancels are no-ops
            if event.cancelled:
                self._cancelled -= 1
                continue
            self._now = event.time
            telemetry = self.telemetry
            if telemetry.enabled:
                started = perf_counter()
                event.callback()
                telemetry.histogram("sim.dispatch_seconds").observe(
                    perf_counter() - started
                )
                telemetry.counter("sim.events_processed").inc()
                telemetry.gauge("sim.queue_depth").set(self.pending)
            else:
                event.callback()
            self._processed += 1
            return True
        return False

    def advance(self, max_events: Optional[int] = None) -> int:
        """Run to quiescence (or ``max_events``); returns events fired.

        Part of the unified time-control surface shared with
        :class:`~repro.core.platform.SmartCrowdPlatform`:
        ``schedule``/``schedule_at`` queue work,
        ``advance``/``advance_until``/``advance_for`` move the clock and
        return the count of work items processed.
        """
        fired = 0
        while self.step():
            fired += 1
            if max_events is not None and fired >= max_events:
                break
        return fired

    def advance_until(self, deadline: float) -> int:
        """Fire all events with time <= ``deadline``; advance ``now`` to it."""
        fired = 0
        while self._queue:
            head = self._queue[0]
            if head.cancelled:
                heapq.heappop(self._queue)
                head._on_cancel = None
                self._cancelled -= 1
                continue
            if head.time > deadline:
                break
            self.step()
            fired += 1
        self._now = max(self._now, deadline)
        return fired

    def advance_for(self, duration: float) -> int:
        """Fire all events within the next ``duration`` seconds."""
        return self.advance_until(self._now + duration)
