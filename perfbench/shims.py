"""External shims: time calls into each layer's public entry points.

The benchmark never edits the program.  It builds a ``SystemState`` with
``build_system(config)``, replaces bound methods on that state's component
instances with timing wrappers (instance attributes shadow the class
methods, and both engines look the methods up on the instances), and then
hands the state to the engine.  Nothing in the shims draws randomness or
mutates simulated state, so a traced run must reproduce the untraced
``RunResult`` exactly; the benchmark checks that it does.

Spans are aggregated per entry point in memory — call count, inclusive
time, time covered by nested shimmed calls, and two work counters — and
written out when the benchmark ends.  Rare calls (push-program rebuilds)
are also kept as individual spans with their start, end and enclosing
span.  A span's self time is its inclusive time minus its children's.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable, Optional

from repro.server.broadcast_server import SlotKind
from repro.server.queue import Offer

__all__ = ["Span", "SpanRecorder", "install", "uninstall"]


class Span:
    """Aggregated calls of one shimmed entry point."""

    __slots__ = ("calls", "inclusive_ns", "child_ns", "units_in", "units_out")

    def __init__(self) -> None:
        self.calls = 0
        #: Time inside the call, nested shimmed calls included.
        self.inclusive_ns = 0
        #: Part of ``inclusive_ns`` covered by nested shimmed calls.
        self.child_ns = 0
        #: Work counters; their meaning is set per entry point by
        #: :func:`install` (e.g. raw draws in, survivors out).
        self.units_in = 0
        self.units_out = 0

    @property
    def self_ns(self) -> int:
        """Inclusive time minus the time of nested shimmed calls."""
        return self.inclusive_ns - self.child_ns

    def to_dict(self) -> dict[str, int]:
        return {"calls": self.calls, "inclusive_ns": self.inclusive_ns,
                "self_ns": self.self_ns, "units_in": self.units_in,
                "units_out": self.units_out}


#: Work counters of one call: ``tally(args, result) -> (in, out)``.
Tally = Callable[[tuple, Any], "tuple[int, int]"]
#: Counters read before and after a call: ``probe() -> (in, out)``.
Probe = Callable[[], "tuple[int, int]"]


class SpanRecorder:
    """In-memory span store plus the wrapper factory that feeds it."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.spans: dict[str, Span] = {}
        #: Individually kept spans of rare calls:
        #: ``(name, start_ns, end_ns, enclosing span name or None)``.
        self.events: list[tuple[str, int, int, Optional[str]]] = []
        #: Start time of every call marked with ``starts=True``.
        self.starts = array("q")
        # One child-time accumulator per open span; index 0 collects the
        # time of top-level (un-nested) spans.
        self._child_ns = [0]
        self._names: list[Optional[str]] = [None]

    @property
    def top_level_ns(self) -> int:
        """Total time of spans not nested inside another shimmed call."""
        return self._child_ns[0]

    def span(self, name: str) -> Span:
        """The (possibly empty) aggregate for ``name``."""
        span = self.spans.get(name)
        if span is None:
            span = self.spans[name] = Span()
        return span

    def wrap(self, obj: Any, attr: str, name: str, *,
             tally: Optional[Tally] = None, probe: Optional[Probe] = None,
             materialize: bool = False, keep: bool = False,
             starts: bool = False) -> None:
        """Shadow ``obj.attr`` with a timing wrapper recording into ``name``.

        Args:
            tally: adds per-call work counters from the arguments and
                result.
            probe: counters read before and after the call; their
                differences are added as work counters.
            materialize: the method returns an iterator; the wrapper
                drains it into a list inside the span, so the time of the
                work it does lazily lands in this span (same draw order).
            keep: also keep each call as an individual span event.
            starts: record each call's start time in :attr:`starts`.
        """
        inner = getattr(obj, attr)
        span = self.span(name)
        child_ns = self._child_ns
        names = self._names
        events = self.events
        starts_log = self.starts
        clock = self.clock

        def shim(*args, **kwargs):
            if probe is not None:
                in0, out0 = probe()
            child_ns.append(0)
            names.append(name)
            start = clock()
            result = inner(*args, **kwargs)
            if materialize:
                result = list(result)
            end = clock()
            names.pop()
            duration = end - start
            span.calls += 1
            span.inclusive_ns += duration
            span.child_ns += child_ns.pop()
            child_ns[-1] += duration
            if starts:
                starts_log.append(start)
            if keep:
                events.append((name, start, end, names[-1]))
            if tally is not None:
                add_in, add_out = tally(args, result)
                span.units_in += add_in
                span.units_out += add_out
            if probe is not None:
                in1, out1 = probe()
                span.units_in += in1 - in0
                span.units_out += out1 - out0
            return result

        setattr(obj, attr, shim)


def install(recorder: SpanRecorder, state, engine) -> list[tuple[Any, str]]:
    """Shim every traced entry point of ``state`` (and ``engine.env``).

    Returns the ``(object, attribute)`` pairs shimmed, so
    :func:`uninstall` can restore them.
    """
    installed: list[tuple[Any, str]] = []

    def wrap(obj, attr, name, **kwargs):
        recorder.wrap(obj, attr, name, **kwargs)
        installed.append((obj, attr))

    vc = state.vc
    server = state.server
    queue = server.queue
    mc = state.mc
    # units: raw accesses drawn in, survivors out.
    wrap(vc, "requests_for_slot", "vc.requests_for_slot", materialize=True,
         tally=lambda args, result: (args[0], len(result)))
    wrap(vc, "arrivals_for_slots", "vc.arrivals_for_slots")
    # units: enqueued offers out.
    wrap(queue, "offer", "queue.offer",
         tally=lambda args, result: (0, result is Offer.ENQUEUED))
    wrap(queue, "pop", "queue.pop")
    # units: selects that passed over the FIFO head out.
    wrap(queue.scheduler, "select", "sched.select",
         tally=lambda args, result: (0, result != args[0][0]))
    # units: post-tick queue depth in, pull slots out; start times kept
    # for the host-time slot intervals.
    wrap(server, "tick", "server.tick", starts=True,
         tally=lambda args, result: (len(queue),
                                     result[1] is SlotKind.PULL))
    wrap(server.mux, "wants_pull", "mux.wants_pull")
    wrap(mc, "draw_page", "mc.draw_page")
    # units: cache hits out.
    wrap(mc, "lookup", "mc.lookup",
         tally=lambda args, result: (0, bool(result)))
    wrap(mc, "receive", "mc.receive")
    wrap(state.mc_threshold, "passes", "threshold.passes")

    reprogrammer = state.reprogrammer
    if reprogrammer is not None:
        # units: rebuilds out.
        wrap(reprogrammer, "maybe_reprogram", "reprogram.maybe_reprogram",
             keep=True, tally=lambda args, result: (0, result is not None))
        for owner, prefix in ((server, "server"),
                              (state.mc_threshold, "threshold"),
                              (vc, "vc"), (state.fleet, "fleet")):
            if owner is not None:
                wrap(owner, "set_schedule", f"reprogram.set_schedule.{prefix}",
                     keep=True)

    fleet = state.fleet
    if fleet is not None:
        # units: accesses processed in, absorbed by a warm cache out.
        wrap(fleet, "generate", "fleet.generate",
             probe=lambda: (fleet.generated, fleet.absorbed_by_cache))
        # units: clients completed in.
        wrap(fleet, "deliver", "fleet.deliver",
             probe=lambda: (fleet.delivered, 0))

    env = getattr(engine, "env", None)
    if env is not None:
        wrap(env, "step", "sim.env.step")
    return installed


def uninstall(installed: list[tuple[Any, str]]) -> None:
    """Restore every method :func:`install` shimmed."""
    for obj, attr in installed:
        # Dropping the instance attribute uncovers the class method.
        vars(obj).pop(attr, None)
