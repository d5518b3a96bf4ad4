"""Unit tests for the virtual client's access stream and think-time rate.

The buffered (page, steady-coin) stream is owned by
:class:`~repro.client.virtual.VirtualClient`, which absorbs steady-state
cache hits per buffer; these tests read the stream through
``requests_for_slot`` with a cache that either holds every page (so
exactly the steady draws are absorbed) or is bypassed.
"""

import numpy as np
import pytest

from repro.client.virtual import VirtualClient
from repro.workload.access import think_time_rate
from repro.workload.zipf import zipf_probabilities

_PAGES = 20


def make_vc(steady=0.95, seed=1, cached=True):
    """A VC over 20 pages whose cache, if ``cached``, holds them all."""
    steady_set = frozenset(range(_PAGES)) if cached else frozenset()
    return VirtualClient(zipf_probabilities(_PAGES, 0.95), steady_set,
                         steady, mc_think_time=20.0, think_time_ratio=10.0,
                         threshold=None, rng=np.random.default_rng(seed))


class TestThinkTimeRate:
    def test_paper_rates(self):
        # ThinkTime 20, ratio 250 -> 12.5 requests per broadcast unit.
        assert think_time_rate(20.0, 250.0) == pytest.approx(12.5)
        assert think_time_rate(20.0, 10.0) == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ValueError):
            think_time_rate(0.0, 10.0)
        with pytest.raises(ValueError):
            think_time_rate(20.0, 0.0)


class TestAccessStream:
    def test_steady_perc_validated(self):
        with pytest.raises(ValueError):
            make_vc(steady=1.5)
        with pytest.raises(ValueError):
            make_vc(steady=-0.1)

    def test_next_yields_valid_pages(self):
        vc = make_vc(cached=False)
        for _ in range(1000):
            (page,) = vc.requests_for_slot(1, schedule_pos=0)
            assert type(page) is int and 0 <= page < _PAGES

    def test_all_steady_when_perc_is_one(self):
        vc = make_vc(steady=1.0)
        assert vc.requests_for_slot(500, schedule_pos=0) == []
        assert vc.absorbed_by_cache == 500

    def test_none_steady_when_perc_is_zero(self):
        vc = make_vc(steady=0.0)
        assert len(vc.requests_for_slot(500, schedule_pos=0)) == 500
        assert vc.absorbed_by_cache == 0

    def test_steady_fraction_tracks_parameter(self):
        vc = make_vc(steady=0.3, seed=7)
        for _ in range(50):
            vc.requests_for_slot(1000, schedule_pos=0)
        assert vc.absorbed_by_cache / 50_000 == pytest.approx(0.3, abs=0.02)

    def test_take_matches_protocol(self):
        vc = make_vc(seed=11, cached=False)
        pages = vc.requests_for_slot(10_000, schedule_pos=0)
        assert len(pages) == vc.generated == 10_000
        assert min(pages) >= 0 and max(pages) < _PAGES

    def test_take_negative_rejected(self):
        with pytest.raises(ValueError):
            make_vc().requests_for_slot(-1, schedule_pos=0)

    def test_take_spanning_refills(self):
        vc = make_vc(seed=3, cached=False)
        # Larger than one internal buffer; must span refills seamlessly.
        count = (1 << 16) + 123
        assert len(vc.requests_for_slot(count, schedule_pos=0)) == count

    def test_zero_take_draws_nothing(self):
        rng = np.random.default_rng(4)
        vc = VirtualClient(zipf_probabilities(_PAGES, 0.95), frozenset(),
                           0.5, mc_think_time=20.0, think_time_ratio=10.0,
                           threshold=None, rng=rng)
        state = rng.bit_generator.state
        assert vc.requests_for_slot(0, schedule_pos=0) == []
        assert rng.bit_generator.state == state

    def test_deterministic_given_seed(self):
        a = make_vc(seed=42, steady=0.5)
        b = make_vc(seed=42, steady=0.5)
        for count in (1, 0, 17, 500, 1):
            assert (a.requests_for_slot(count, schedule_pos=0)
                    == b.requests_for_slot(count, schedule_pos=0))
