"""The Virtual Client (VC) — the rest of the client population.

The VC aggregates "an arbitrarily large client population" into one request
source (Section 3.1): a Poisson stream of rate
``ThinkTimeRatio / MCThinkTime`` requests per broadcast unit.  Each request
is tagged steady-state or warm-up by a coin weighted by ``SteadyStatePerc``:

- steady-state requests are filtered through a fully-warm cache — modelled
  as absorption by the static set of the ``CacheSize − 1`` highest-valued
  pages (Section 4.1.1),
- warm-up requests bypass the cache (an empty cache misses everything),

and every surviving request passes the threshold filter before reaching
the server's backchannel queue.

Requests are drawn in buffers of :data:`_BUFFER_SIZE` (page, coin) pairs.
Cache absorption depends on nothing but the pair, so it is applied to a
whole buffer at once when the buffer is drawn: the buffer keeps only the
surviving pages plus a prefix count of survivors over buffer positions,
and one slot's requests become one slice of the survivors.  Only the
threshold filter, which depends on the slot's program position, runs per
surviving request.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.client.threshold import ThresholdFilter
from repro.workload.access import think_time_rate
from repro.workload.zipf import ZipfSampler

__all__ = ["VirtualClient"]

#: Requests drawn per buffer refill.  Large enough to amortize the numpy
#: calls, small enough to keep memory trivial.
_BUFFER_SIZE = 1 << 16


class VirtualClient:
    """Aggregate request source for all clients other than the MC."""

    def __init__(self, probabilities: np.ndarray, steady_set: frozenset[int],
                 steady_state_perc: float, mc_think_time: float,
                 think_time_ratio: float,
                 threshold: Optional[ThresholdFilter],
                 rng: np.random.Generator):
        """Args:
            probabilities: the aggregate (server-view) access distribution.
            steady_set: pages a fully-warm cache holds (absorbs steady hits).
            steady_state_perc: fraction of represented clients in steady
                state (the paper's SteadyStatePerc).
            mc_think_time / think_time_ratio: define the request rate.
            threshold: ThresPerc filter, or None to skip filtering.
            rng: seeded generator (owns the Poisson and access draws).
        """
        if not 0.0 <= steady_state_perc <= 1.0:
            raise ValueError("steady_state_perc must be within [0, 1]")
        self.rate = think_time_rate(mc_think_time, think_time_ratio)
        self.steady_set = steady_set
        self.threshold = threshold
        self._db_size = int(probabilities.size)
        self._rng = rng
        self._sampler = ZipfSampler(probabilities, rng)
        self._steady_perc = steady_state_perc
        self._cacheable = np.zeros(self._db_size, dtype=bool)
        self._cacheable[np.fromiter(steady_set, dtype=np.intp,
                                    count=len(steady_set))] = True
        # The current buffer: surviving pages in draw order, and the number
        # of survivors before each buffer position (int32, read through
        # memoryviews so per-slot reads yield plain Python ints).  Empty
        # until the first request: refills happen lazily, on the first draw
        # past the buffer's end, so they interleave with the Poisson draws
        # on the shared generator exactly as one-at-a-time draws would.
        self._survivors = memoryview(np.zeros(0, dtype=np.int32))
        self._prefix = memoryview(np.zeros(1, dtype=np.int32))
        self._cursor = 0
        self._buffered = 0
        # Fast-path threshold lookup: a flat row-major distance table so the
        # hot loop does one memoryview index instead of a per-page binary
        # search.
        self._cycle = 0
        self._dist_flat: Optional[memoryview] = None
        self._threshold_slots = 0.0
        if threshold is not None and threshold.schedule is not None:
            self._set_table(threshold.schedule)
            self._threshold_slots = threshold.threshold_slots
        # Accounting (cumulative; engines reset at phase boundaries).
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0

    def arrivals_for_slots(self, count: int) -> list[int]:
        """Batched Poisson draws: requests arriving in each of ``count`` slots."""
        return self._rng.poisson(self.rate, count).tolist()

    def set_threshold_slots(self, threshold_slots: float) -> None:
        """Retune the fast-path threshold (adaptive controller hook)."""
        self._threshold_slots = threshold_slots

    def set_schedule(self, schedule) -> None:
        """Rebuild the flat distance table after a program reprogram.

        The cached table was derived from the schedule at construction;
        a reprogrammed server must refresh it or the threshold filter
        keeps judging distances against the dead program.
        """
        if self._dist_flat is None:
            raise ValueError("this client applies no threshold filter")
        self._set_table(schedule)

    def _set_table(self, schedule) -> None:
        table = schedule.distance_table(self._db_size)
        self._cycle = table.shape[1]
        self._dist_flat = memoryview(table.ravel())

    def _refill(self) -> None:
        """Draw the next buffer and absorb its steady-state cache hits."""
        pages = self._sampler.sample(_BUFFER_SIZE)
        if self._steady_perc >= 1.0:
            absorbed = self._cacheable[pages]
        elif self._steady_perc <= 0.0:
            absorbed = np.zeros(_BUFFER_SIZE, dtype=bool)
        else:
            steady = self._rng.random(_BUFFER_SIZE) < self._steady_perc
            absorbed = steady & self._cacheable[pages]
        kept = ~absorbed
        prefix = np.zeros(_BUFFER_SIZE + 1, dtype=np.int32)
        np.cumsum(kept, dtype=np.int32, out=prefix[1:])
        self._survivors = memoryview(pages[kept].astype(np.int32))
        self._prefix = memoryview(prefix)
        self._cursor = 0
        self._buffered = _BUFFER_SIZE

    def requests_for_slot(self, count: int, schedule_pos: int) -> list[int]:
        """The pages (of ``count`` raw accesses) that reach the server.

        Applies the steady-state cache absorption and the threshold filter;
        the caller offers the survivors to the server queue in order.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        self.generated += count
        cursor = self._cursor
        end = cursor + count
        if end <= self._buffered:
            prefix = self._prefix
            first = prefix[cursor]
            last = prefix[end]
            self._cursor = end
            survivors = self._survivors[first:last].tolist()
        else:
            survivors = self._take_across_refill(count)
        self.absorbed_by_cache += count - len(survivors)
        dist_flat = self._dist_flat
        if dist_flat is None or not survivors:
            return survivors
        cycle = self._cycle
        base = schedule_pos % cycle
        threshold_slots = self._threshold_slots
        passed = [page for page in survivors
                  if dist_flat[page * cycle + base] > threshold_slots]
        self.filtered_by_threshold += len(survivors) - len(passed)
        return passed

    def _take_across_refill(self, count: int) -> list[int]:
        """Cache survivors of the next ``count`` draws, refilling as needed."""
        survivors: list[int] = []
        while count:
            if self._cursor >= self._buffered:
                self._refill()
            cursor = self._cursor
            end = min(cursor + count, self._buffered)
            prefix = self._prefix
            survivors += self._survivors[prefix[cursor]:prefix[end]].tolist()
            count -= end - cursor
            self._cursor = end
        return survivors

    def reset_stats(self) -> None:
        """Zero the accounting counters (measurement-phase boundary)."""
        self.generated = 0
        self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0
