"""Generator-based coroutine processes for the discrete-event kernel.

A process is a Python generator that yields :class:`~repro.sim.core.Event`
objects.  Yielding suspends the process until the event fires; the event's
value becomes the result of the ``yield`` expression.  A failed event is
raised inside the generator.  A process is itself an event that fires with
the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.core import Environment, Event, SimulationError, URGENT

__all__ = ["Process"]


class Process(Event):
    """A running simulation process wrapping a generator.

    Create via :meth:`Environment.process`.  The process starts at the
    current simulation time (before other events already scheduled *later*,
    after events already scheduled now).
    """

    __slots__ = ("_generator",)

    def __init__(self, env: Environment, generator: Generator[Event, Any, Any]):
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(
                f"Process requires a generator, got {type(generator).__name__}")
        super().__init__(env)
        self._generator = generator
        # Kick-start the process via an immediately-scheduled initial event.
        start = Event(env)
        start._triggered = True
        env._schedule(start, priority=URGENT)
        start.add_callback(self._step)

    # -- internal ------------------------------------------------------------
    def _step(self, trigger: Event) -> None:
        while True:
            try:
                if trigger.ok:
                    target = self._generator.send(trigger.value)
                else:
                    target = self._generator.throw(trigger.value)
            except StopIteration as stop:
                self.succeed(stop.value)
                return
            except BaseException as exc:
                # A crashed process fails its own event; if nobody is
                # waiting on the process the error propagates out of run().
                if self.callbacks:
                    self.fail(exc)
                    return
                raise
            if not isinstance(target, Event):
                trigger = Event(self.env)
                trigger._ok = False
                trigger._value = SimulationError(
                    f"process yielded a non-event: {target!r}")
                trigger._triggered = True
                continue
            if target.processed:
                # Already-fired events resume the process synchronously.
                trigger = target
                continue
            target.add_callback(self._step)
            return
