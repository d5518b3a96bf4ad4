"""Unit tests for the aggregate virtual client."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.broadcast.program import Disk, DiskAssignment, build_schedule
from repro.client.threshold import ThresholdFilter
from repro.client.virtual import VirtualClient
from repro.workload.access import think_time_rate
from repro.workload.zipf import ZipfSampler, zipf_probabilities


def fig1_schedule():
    return build_schedule(DiskAssignment((
        Disk((0,), 4), Disk((1, 2), 2), Disk((3, 4, 5, 6), 1))))


def make_vc(steady_set=frozenset(), steady_perc=0.95, ttr=10.0,
            threshold=None, seed=0, n=7):
    return VirtualClient(zipf_probabilities(n, 0.95), steady_set,
                         steady_perc, mc_think_time=20.0,
                         think_time_ratio=ttr, threshold=threshold,
                         rng=np.random.default_rng(seed))


class TestArrivals:
    def test_rate_formula(self):
        vc = make_vc(ttr=250.0)
        assert vc.rate == pytest.approx(12.5)

    def test_poisson_mean_tracks_rate(self):
        vc = make_vc(ttr=100.0)  # rate 5.0
        counts = vc.arrivals_for_slots(20_000)
        assert np.mean(counts) == pytest.approx(5.0, abs=0.1)

    def test_arrivals_in_slot_non_negative(self):
        vc = make_vc()
        assert all(count >= 0 for count in vc.arrivals_for_slots(100))


class TestFiltering:
    def test_steady_requests_absorbed_by_steady_set(self):
        vc = make_vc(steady_set=frozenset(range(7)), steady_perc=1.0)
        survivors = list(vc.requests_for_slot(500, schedule_pos=0))
        assert survivors == []
        assert vc.absorbed_by_cache == 500

    def test_warm_requests_bypass_cache(self):
        vc = make_vc(steady_set=frozenset(range(7)), steady_perc=0.0)
        survivors = list(vc.requests_for_slot(500, schedule_pos=0))
        assert len(survivors) == 500
        assert vc.absorbed_by_cache == 0

    def test_threshold_filters_near_pages(self):
        threshold = ThresholdFilter(fig1_schedule(), 1.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        survivors = list(vc.requests_for_slot(300, schedule_pos=0))
        # Every page is on the program within one cycle: all filtered.
        assert survivors == []
        assert vc.filtered_by_threshold == 300

    def test_zero_threshold_blocks_imminent_page_only(self):
        threshold = ThresholdFilter(fig1_schedule(), 0.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        survivors = list(vc.requests_for_slot(1000, schedule_pos=0))
        # Page 0 occupies position 0; it is the only filtered page.
        assert 0 not in survivors
        assert vc.filtered_by_threshold > 0
        assert len(survivors) + vc.filtered_by_threshold == 1000

    def test_generated_counts_every_access(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=0.5)
        list(vc.requests_for_slot(400, schedule_pos=0))
        assert vc.generated == 400

    def test_reset_stats(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=1.0)
        list(vc.requests_for_slot(100, schedule_pos=0))
        vc.reset_stats()
        assert vc.generated == vc.absorbed_by_cache == 0
        assert vc.filtered_by_threshold == 0

    def test_set_threshold_slots_changes_filtering(self):
        threshold = ThresholdFilter(fig1_schedule(), 0.0)
        vc = make_vc(steady_perc=0.0, threshold=threshold)
        vc.set_threshold_slots(float(len(fig1_schedule())))
        survivors = list(vc.requests_for_slot(300, schedule_pos=0))
        assert survivors == []

    def test_steady_misses_still_reach_server(self):
        vc = make_vc(steady_set=frozenset({0}), steady_perc=1.0, seed=5)
        survivors = list(vc.requests_for_slot(2000, schedule_pos=0))
        # Hot page 0 absorbed; everything else flows through.
        assert 0 not in survivors
        assert len(survivors) > 0


# -- parity with the per-request path -----------------------------------------

_REPLICA_BUFFER = 1 << 16
TTR = 250.0


class PerRequestReplica:
    """The per-request virtual client the batched one replaced.

    Draws one (page, steady coin) pair at a time from 65,536-pair buffers
    refilled lazily on the first draw past the end, and filters each
    request on its own: absorption by the steady set, then the threshold.
    """

    def __init__(self, probabilities, steady_set, steady_perc, threshold,
                 rng):
        self.rate = think_time_rate(20.0, TTR)
        self.steady_set = steady_set
        self._steady_perc = steady_perc
        self._rng = rng
        self._sampler = ZipfSampler(probabilities, rng)
        self._db_size = probabilities.size
        self._pages: list[int] = []
        self._steady: list[bool] = []
        self._cursor = 0
        self._table = None
        self._threshold_slots = 0.0
        if threshold is not None:
            self.set_schedule(threshold.schedule)
            self._threshold_slots = threshold.threshold_slots
        self.generated = self.absorbed_by_cache = 0
        self.filtered_by_threshold = 0

    def arrivals_for_slots(self, count):
        return self._rng.poisson(self.rate, count).tolist()

    def set_threshold_slots(self, threshold_slots):
        self._threshold_slots = threshold_slots

    def set_schedule(self, schedule):
        self._table = schedule.distance_table(self._db_size)

    def _next(self):
        if self._cursor >= len(self._pages):
            self._pages = self._sampler.sample(_REPLICA_BUFFER).tolist()
            if self._steady_perc >= 1.0:
                self._steady = [True] * _REPLICA_BUFFER
            elif self._steady_perc <= 0.0:
                self._steady = [False] * _REPLICA_BUFFER
            else:
                self._steady = (self._rng.random(_REPLICA_BUFFER)
                                < self._steady_perc).tolist()
            self._cursor = 0
        index = self._cursor
        self._cursor += 1
        return self._pages[index], self._steady[index]

    def requests_for_slot(self, count, schedule_pos):
        survivors = []
        self.generated += count
        for _ in range(count):
            page, steady = self._next()
            if steady and page in self.steady_set:
                self.absorbed_by_cache += 1
                continue
            table = self._table
            if (table is not None
                    and table[page, schedule_pos % table.shape[1]]
                    <= self._threshold_slots):
                self.filtered_by_threshold += 1
                continue
            survivors.append(page)
        return survivors


_PAGES = 7
_SCHEDULES = (
    fig1_schedule(),
    build_schedule(DiskAssignment((Disk((3, 4), 3),
                                   Disk((0, 1, 2, 5, 6), 1)))),
)

_ops = st.lists(st.one_of(
    st.tuples(st.just("slot"), st.integers(0, 40_000), st.integers(0, 40)),
    st.tuples(st.just("poisson"), st.integers(1, 50)),
    st.tuples(st.just("threshold"),
              st.floats(0.0, 12.0, allow_nan=False)),
    st.tuples(st.just("schedule"), st.sampled_from((0, 1))),
), min_size=1, max_size=12)


@settings(max_examples=40, deadline=None)
@given(ops=_ops,
       steady_perc=st.one_of(st.sampled_from((0.0, 1.0)),
                             st.floats(0.0, 1.0, allow_nan=False)),
       steady_set=st.frozensets(st.integers(0, _PAGES - 1)),
       thresh_perc=st.sampled_from((None, 0.0, 0.25, 0.6)),
       seed=st.integers(0, 2**32 - 1))
def test_batched_path_equals_per_request_replica(ops, steady_perc,
                                                 steady_set, thresh_perc,
                                                 seed):
    """Survivors, counters and the generator state match a per-request
    replica through slots that cross buffer refills, Poisson chunk draws
    on the shared generator, and mid-buffer threshold and program
    changes."""
    probabilities = zipf_probabilities(_PAGES, 0.95)
    threshold = (None if thresh_perc is None
                 else ThresholdFilter(_SCHEDULES[0], thresh_perc))
    rngs = (np.random.default_rng(seed), np.random.default_rng(seed))
    batched = VirtualClient(probabilities, steady_set, steady_perc,
                            mc_think_time=20.0, think_time_ratio=TTR,
                            threshold=threshold, rng=rngs[0])
    replica = PerRequestReplica(probabilities, steady_set, steady_perc,
                                threshold, rngs[1])
    for op in ops:
        if op[0] == "slot":
            _, count, schedule_pos = op
            assert (batched.requests_for_slot(count, schedule_pos)
                    == replica.requests_for_slot(count, schedule_pos))
        elif op[0] == "poisson":
            assert (batched.arrivals_for_slots(op[1])
                    == replica.arrivals_for_slots(op[1]))
        elif threshold is not None and op[0] == "threshold":
            batched.set_threshold_slots(op[1])
            replica.set_threshold_slots(op[1])
        elif threshold is not None:
            batched.set_schedule(_SCHEDULES[op[1]])
            replica.set_schedule(_SCHEDULES[op[1]])
        for counter in ("generated", "absorbed_by_cache",
                        "filtered_by_threshold"):
            assert getattr(batched, counter) == getattr(replica, counter)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state


def test_replica_parity_at_buffer_boundaries():
    """Pinned cases: slots ending exactly at a buffer's end (the next
    buffer must not be drawn before the Poisson chunk that follows) and
    slots straddling it."""
    probabilities = zipf_probabilities(_PAGES, 0.95)
    threshold = ThresholdFilter(_SCHEDULES[0], 0.25)
    rngs = (np.random.default_rng(9), np.random.default_rng(9))
    batched = VirtualClient(probabilities, frozenset({0, 1}), 0.5,
                            mc_think_time=20.0, think_time_ratio=TTR,
                            threshold=threshold, rng=rngs[0])
    replica = PerRequestReplica(probabilities, frozenset({0, 1}), 0.5,
                                threshold, rngs[1])
    for count in (_REPLICA_BUFFER, 3, _REPLICA_BUFFER - 3, 10,
                  _REPLICA_BUFFER + 7, 4):
        assert (batched.requests_for_slot(count, 3)
                == replica.requests_for_slot(count, 3))
        assert batched.arrivals_for_slots(2) == replica.arrivals_for_slots(2)
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert batched.absorbed_by_cache == replica.absorbed_by_cache
    assert batched.filtered_by_threshold == replica.filtered_by_threshold
