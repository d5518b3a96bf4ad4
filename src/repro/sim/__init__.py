"""Discrete-event simulation kernel.

This subpackage is a from-scratch replacement for the CSIM library used by
the paper (and for simpy, which is unavailable offline).  It provides only
what the reference engine runs:

- :class:`~repro.sim.core.Environment` — the event calendar and clock,
- :class:`~repro.sim.core.Event` / :class:`~repro.sim.core.Timeout` —
  one-shot occurrences that processes can wait on,
- :class:`~repro.sim.process.Process` — generator-based coroutine processes,
- :class:`~repro.sim.monitor.Tally` — streaming per-observation statistics.

The kernel is deterministic: events scheduled for the same time fire in
scheduling order (FIFO), so a seeded simulation always replays identically.
"""

from repro.sim.core import Environment, Event, Timeout, SimulationError
from repro.sim.process import Process
from repro.sim.monitor import Tally

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "SimulationError",
    "Process",
    "Tally",
]
