"""Pull-queue scheduling disciplines and push-program reprogramming.

The paper serves the backchannel queue strictly FIFO (Section 3.2) and
keeps the push program fixed for a whole run; §6 explicitly calls for
"more dynamic algorithms".  This module opens both axes behind one small
interface:

- :class:`PullScheduler` — the hook surface a
  :class:`~repro.server.queue.BoundedRequestQueue` drives: ``offer``-side
  hooks receive every request's arrival slot (building per-page waiter
  counts and per-request arrival lists), :meth:`PullScheduler.on_offers`
  receives a whole batch's outcomes at once, and
  :meth:`PullScheduler.select` picks which queued page the next pull slot
  serves.
- :class:`FifoScheduler` — the paper's discipline, bit-identical to the
  pre-refactor queue: no extra state, no RNG draws, always the head.
- :class:`RxWScheduler` — Aksoy & Franklin's R×W: serve the page with the
  largest ``waiters × wait``; an ``aging`` exponent on the wait term
  interpolates between most-requested-first (``aging → 0``) and
  longest-first-wait (large ``aging``), the knob the Robert & Schabanel
  per-user flow-time objective tunes.
- :class:`LwfScheduler` — longest *total accumulated* wait first: the
  page whose outstanding requests (duplicates included) have together
  waited longest.  Distinct from FIFO, which only honours each page's
  first arrival.
- :class:`PushReprogrammer` — temperature-driven online rebuild of the
  push program: rank pages by observed backchannel demand and rebuild the
  multi-disk schedule so the pages clients actually wait for move to the
  fast disks.

Determinism: no discipline consumes randomness, and ties break in FIFO
order (strict ``>`` while scanning the queue front-to-back), so runs stay
bit-reproducible per seed and the FIFO discipline reproduces historic
baselines exactly.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from repro.broadcast.program import DiskAssignment, build_schedule
from repro.broadcast.schedule import Schedule

__all__ = [
    "DISCIPLINES",
    "PullScheduler",
    "FifoScheduler",
    "RxWScheduler",
    "LwfScheduler",
    "PushReprogrammer",
    "make_scheduler",
]

#: Selectable pull-queue disciplines (``SchedulerConfig.discipline``).
#: Mirrors ``repro.obs.events.SCHEDULER_DISCIPLINES`` (lint rule REP005
#: enforces the sync without a runtime import).
DISCIPLINES: tuple[str, ...] = ("fifo", "rxw", "lwf")


class PullScheduler:
    """Base discipline: the hook surface the bounded queue drives.

    The queue calls the ``on_*`` hooks with the page and its arrival slot
    (the server's absolute tick count) for every offer outcome, and
    :meth:`select` when a pull slot frees up.  The base implementation is
    plain FIFO; subclasses override the hooks they need.

    Two decision counters feed the metrics registry
    (``repro.obs.events.SCHEDULER_DECISIONS``): ``pops`` — pull services
    granted — and ``reordered`` — services that did *not* take the FIFO
    head.  ``temperature`` accumulates per-page observed demand (every
    offer, duplicates and drops included) when ``track_temperature`` is
    set; it deliberately survives measurement-phase counter resets, being
    a demand signal for :class:`PushReprogrammer`, not a statistic.
    """

    name = "fifo"

    def __init__(self, *, track_temperature: bool = False):
        self.track_temperature = track_temperature
        #: Cumulative observed demand per page (offers of any outcome).
        self.temperature: dict[int, int] = {}
        # Decision counters (reset with the queue's stats).
        self.pops = 0
        self.reordered = 0

    def _observe(self, page: int) -> None:
        if self.track_temperature:
            self.temperature[page] = self.temperature.get(page, 0) + 1

    # -- offer-side hooks --------------------------------------------------
    def on_enqueued(self, page: int, now: int) -> None:
        """A distinct request for ``page`` entered the queue at slot ``now``."""
        self._observe(page)

    def on_duplicate(self, page: int, now: int) -> None:
        """Another request arrived for an already-queued page."""
        self._observe(page)

    def on_dropped(self, page: int, now: int) -> None:
        """A distinct request was dropped because the queue was full."""
        self._observe(page)

    def on_served(self, page: int, now: int) -> None:
        """``page`` was popped for service (clear per-page wait state)."""

    def on_offers(self, enqueued: list[int], duplicates: list[int],
                  dropped: list[int], now: int) -> None:
        """One batch of offers at slot ``now``, grouped by outcome.

        The batch form of the three hooks above, called once per
        :meth:`~repro.server.queue.BoundedRequestQueue.offer_many`.  Each
        list keeps arrival order.  Grouping loses nothing for a discipline
        whose per-page state depends only on that page's own offers:
        every drop follows every admission of the batch, and a duplicate
        of a page admitted in the batch follows its admission.  A
        discipline that overrides a per-page hook overrides this too.
        """
        if self.track_temperature:
            temperature = self.temperature
            for pages in (enqueued, duplicates, dropped):
                for page in pages:
                    temperature[page] = temperature.get(page, 0) + 1

    # -- selection ---------------------------------------------------------
    def select(self, fifo: "deque[int]", now: int) -> int:
        """The queued page the next pull slot should serve.

        ``fifo`` is the queue's arrival-ordered deque (never empty here);
        the base class serves its head.
        """
        return fifo[0]

    def reset_decisions(self) -> None:
        """Zero the decision counters (measurement-phase boundary)."""
        self.pops = 0
        self.reordered = 0


class FifoScheduler(PullScheduler):
    """The paper's discipline — first-come-first-served over distinct pages.

    Identical to the base class; exists so ``discipline="fifo"`` names a
    concrete type and benchmarks can price the hook overhead alone.
    """

    name = "fifo"


class RxWScheduler(PullScheduler):
    """R×W (Aksoy & Franklin): serve max ``waiters × (wait + 1)^aging``.

    ``waiters`` counts every request observed for the page while queued
    (the first arrival plus duplicates) and ``wait`` is slots since the
    first arrival, so popular pages and starving pages both rise.  The
    ``aging`` exponent weights the wait term: 1.0 is classic R×W, values
    below 1 favour request counts (toward most-requested-first at 0),
    values above 1 favour the longest waiter (starvation resistance).
    Ties keep FIFO order.
    """

    name = "rxw"

    def __init__(self, *, aging: float = 1.0,
                 track_temperature: bool = False):
        if aging < 0:
            raise ValueError("aging must be non-negative")
        super().__init__(track_temperature=track_temperature)
        self.aging = aging
        self._first_arrival: dict[int, int] = {}
        self._waiters: dict[int, int] = {}

    def on_enqueued(self, page: int, now: int) -> None:
        self._observe(page)
        self._first_arrival[page] = now
        self._waiters[page] = 1

    def on_duplicate(self, page: int, now: int) -> None:
        self._observe(page)
        self._waiters[page] += 1

    def on_served(self, page: int, now: int) -> None:
        del self._first_arrival[page]
        del self._waiters[page]

    def on_offers(self, enqueued: list[int], duplicates: list[int],
                  dropped: list[int], now: int) -> None:
        first = self._first_arrival
        waiters = self._waiters
        for page in enqueued:
            first[page] = now
            waiters[page] = 1
        for page in duplicates:
            waiters[page] += 1
        super().on_offers(enqueued, duplicates, dropped, now)

    def waiters(self, page: int) -> int:
        """Requests observed for a queued page (0 when not queued)."""
        return self._waiters.get(page, 0)

    def select(self, fifo: "deque[int]", now: int) -> int:
        first = self._first_arrival
        waiters = self._waiters
        aging = self.aging
        best = fifo[0]
        best_score = -1.0
        for page in fifo:
            score = waiters[page] * (now - first[page] + 1.0) ** aging
            if score > best_score:
                best = page
                best_score = score
        return best


class LwfScheduler(PullScheduler):
    """Longest-total-wait-first: maximize summed outstanding wait.

    Each page's priority is the total wait accumulated by *all* its
    outstanding requests — duplicates included, each from its own arrival
    slot — kept as O(1) running aggregates (request count and arrival-slot
    sum) per page.  A page with many recent duplicates can overtake a
    page with one old request, which is exactly where LWF and FIFO
    diverge.  Ties keep FIFO order.
    """

    name = "lwf"

    def __init__(self, *, track_temperature: bool = False):
        super().__init__(track_temperature=track_temperature)
        self._count: dict[int, int] = {}
        self._arrival_sum: dict[int, int] = {}

    def on_enqueued(self, page: int, now: int) -> None:
        self._observe(page)
        self._count[page] = 1
        self._arrival_sum[page] = now

    def on_duplicate(self, page: int, now: int) -> None:
        self._observe(page)
        self._count[page] += 1
        self._arrival_sum[page] += now

    def on_served(self, page: int, now: int) -> None:
        del self._count[page]
        del self._arrival_sum[page]

    def on_offers(self, enqueued: list[int], duplicates: list[int],
                  dropped: list[int], now: int) -> None:
        count = self._count
        arrival_sum = self._arrival_sum
        for page in enqueued:
            count[page] = 1
            arrival_sum[page] = now
        for page in duplicates:
            count[page] += 1
            arrival_sum[page] += now
        super().on_offers(enqueued, duplicates, dropped, now)

    def total_wait(self, page: int, now: int) -> float:
        """Summed wait (slots, +1 each) of a page's outstanding requests."""
        count = self._count.get(page, 0)
        return count * (now + 1.0) - self._arrival_sum.get(page, 0)

    def select(self, fifo: "deque[int]", now: int) -> int:
        count = self._count
        arrival_sum = self._arrival_sum
        best = fifo[0]
        best_score = float("-inf")
        for page in fifo:
            score = count[page] * (now + 1.0) - arrival_sum[page]
            if score > best_score:
                best = page
                best_score = score
        return best


def make_scheduler(discipline: str, *, aging: float = 1.0,
                   track_temperature: bool = False) -> PullScheduler:
    """Construct the discipline named by ``SchedulerConfig.discipline``."""
    if discipline == "rxw":
        return RxWScheduler(aging=aging,
                            track_temperature=track_temperature)
    if discipline == "lwf":
        return LwfScheduler(track_temperature=track_temperature)
    if discipline == "fifo":
        return FifoScheduler(track_temperature=track_temperature)
    raise ValueError(f"unknown discipline {discipline!r} "
                     f"(expected one of {DISCIPLINES})")


class PushReprogrammer:
    """Temperature-driven online rebuild of the push program.

    Every ``interval`` slots the engine asks for a rebuild; one happens
    only when at least ``min_requests`` new backchannel offers were
    observed since the last rebuild (pure silence carries no signal —
    the same principle as the adaptive controller's no-signal windows).

    The rebuild ranks pages by cumulative observed demand (hottest
    first, page id breaking ties) and refills the original disk layout
    in that order, so the pages clients actually wait for migrate to the
    fast disks.  Pages never requested keep their aggregate-rank order
    behind the observed ones.  No Offset transform is applied: observed
    backchannel demand already excludes cache-absorbed pages, which is
    the empirical counterpart of what Offset approximates a priori.

    Chopped programs are rejected at config validation: reprogramming
    rebuilds a *full* program, and re-adding a chopped page would strand
    clients already waiting on the old program's safety net.
    """

    def __init__(self, db_size: int, disk_sizes: tuple[int, ...],
                 rel_freqs: tuple[int, ...], *, interval: int,
                 min_requests: int):
        if interval < 1:
            raise ValueError("interval must be positive")
        if min_requests < 1:
            raise ValueError("min_requests must be positive")
        self.db_size = db_size
        self.disk_sizes = tuple(disk_sizes)
        self.rel_freqs = tuple(rel_freqs)
        self.interval = interval
        self.min_requests = min_requests
        self.reprograms = 0
        self._demand_at_last = 0
        #: (slot, window demand) per accepted rebuild.
        self.trace: list[tuple[int, int]] = []

    def ranking(self, temperature: dict[int, int]) -> list[int]:
        """Demand-ranked page order: hot pages first, cold in rank order."""
        hot = sorted(temperature, key=lambda page: (-temperature[page], page))
        hot_set = set(hot)
        return hot + [page for page in range(self.db_size)
                      if page not in hot_set]

    def maybe_reprogram(self, now: int,
                        scheduler: PullScheduler) -> Optional[Schedule]:
        """A rebuilt schedule when enough new demand accrued, else None."""
        demand = sum(scheduler.temperature.values())
        if demand - self._demand_at_last < self.min_requests:
            return None
        self._demand_at_last = demand
        assignment = DiskAssignment.from_ranking(
            self.ranking(scheduler.temperature), self.disk_sizes,
            self.rel_freqs)
        self.reprograms += 1
        self.trace.append((now, demand))
        return build_schedule(assignment)
