"""Event calendar and clock for the discrete-event kernel.

The design follows the classic event-scheduling world view: an
:class:`Environment` owns a priority queue of ``(time, priority, seq, event)``
entries and fires events in nondecreasing time order.  Ties are broken first
by an explicit integer priority (lower fires earlier) and then by scheduling
order, which makes runs fully deterministic.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

__all__ = ["Environment", "Event", "Timeout", "SimulationError"]

#: Default priority for ordinary events.
NORMAL = 1
#: Priority used by :class:`~repro.sim.process.Process` wake-ups so that a
#: process resumed by an event runs after same-time ordinary callbacks.
URGENT = 0


class SimulationError(RuntimeError):
    """Raised for kernel misuse (double triggering, running a dead env...)."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on.

    An event goes through three states: *pending* (created), *triggered*
    (scheduled on the calendar with a value), and *processed* (callbacks have
    run).  Waiting on an already-processed event is allowed: the waiter is
    resumed immediately at the current simulation time.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok = True
        self._triggered = False
        self._processed = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (False once :meth:`fail` is called)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The value the event was triggered with."""
        if not self._triggered:
            raise SimulationError("value accessed before the event triggered")
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Schedule this event to fire successfully after ``delay``."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        self.env._schedule(self, delay=delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Schedule this event to fire as a failure carrying ``exception``.

        A waiting process receives the exception thrown into its generator.
        """
        if self._triggered:
            raise SimulationError("event has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self._value = exception
        self.env._schedule(self, delay=delay)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event was already processed the callback runs immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def _fire(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that fires automatically ``delay`` time units in the future.

    ``priority`` breaks same-instant ties: :data:`URGENT` timeouts fire
    before every :data:`NORMAL` event scheduled for the same time,
    regardless of scheduling order.
    """

    __slots__ = ()

    def __init__(self, env: "Environment", delay: float, value: Any = None,
                 priority: int = NORMAL):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        super().__init__(env)
        self._triggered = True
        self._value = value
        env._schedule(self, delay=delay, priority=priority)


class Environment:
    """The simulation clock and event calendar.

    Usage::

        env = Environment()
        env.process(my_generator(env))
        env.run(until=1000.0)
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                priority: int = NORMAL) -> Timeout:
        """Create an event firing ``delay`` units from now."""
        return Timeout(self, delay, value, priority=priority)

    def process(self, generator) -> "Process":
        """Start a new :class:`~repro.sim.process.Process` from a generator."""
        from repro.sim.process import Process

        return Process(self, generator)

    # -- scheduling ----------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0,
                  priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        self._seq += 1
        heapq.heappush(self._queue, (self._now + delay, priority, self._seq, event))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if the queue is empty."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Fire the single next event (advancing the clock to it)."""
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _, _, event = heapq.heappop(self._queue)
        self._now = time
        event._fire()

    def run(self, until: Optional[float] = None) -> None:
        """Run until the calendar drains or the clock reaches ``until``.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if no event is scheduled there, mirroring simpy semantics.
        """
        if until is None:
            while self._queue:
                self.step()
            return
        until = float(until)
        if until < self._now:
            raise ValueError(f"until={until} is in the past (now={self._now})")
        while self._queue and self._queue[0][0] <= until:
            self.step()
        self._now = until
