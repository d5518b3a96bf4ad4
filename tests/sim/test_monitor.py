"""Unit and property tests for the statistics collectors."""

import math
import statistics

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import Tally

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


class TestTally:
    def test_empty_tally(self):
        tally = Tally()
        assert tally.count == 0
        assert math.isnan(tally.mean)
        assert math.isnan(tally.variance)

    def test_single_observation(self):
        tally = Tally()
        tally.add(5.0)
        assert tally.count == 1
        assert tally.mean == 5.0
        assert tally.min == tally.max == 5.0
        assert math.isnan(tally.variance)

    def test_known_moments(self):
        values = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
        tally = Tally()
        for value in values:
            tally.add(value)
        assert tally.mean == pytest.approx(statistics.fmean(values))
        assert tally.variance == pytest.approx(statistics.variance(values))
        assert tally.stddev == pytest.approx(statistics.stdev(values))
        assert tally.min == 2.0
        assert tally.max == 9.0

    @given(st.lists(finite_floats, min_size=2, max_size=200))
    def test_matches_numpy(self, values):
        tally = Tally()
        for value in values:
            tally.add(value)
        assert tally.mean == pytest.approx(np.mean(values), rel=1e-9,
                                           abs=1e-6)
        assert tally.variance == pytest.approx(np.var(values, ddof=1),
                                               rel=1e-6, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.lists(finite_floats, min_size=1, max_size=50))
    def test_merge_equals_combined_stream(self, first, second):
        separate = Tally()
        for value in first:
            separate.add(value)
        other = Tally()
        for value in second:
            other.add(value)
        separate.merge(other)

        combined = Tally()
        for value in first + second:
            combined.add(value)
        assert separate.count == combined.count
        assert separate.mean == pytest.approx(combined.mean, rel=1e-9,
                                              abs=1e-6)
        assert separate.min == combined.min
        assert separate.max == combined.max

    def test_merge_empty_is_noop(self):
        tally = Tally()
        tally.add(1.0)
        tally.merge(Tally())
        assert tally.count == 1

    def test_merge_into_empty_copies(self):
        tally = Tally()
        other = Tally()
        other.add(3.0)
        other.add(5.0)
        tally.merge(other)
        assert tally.count == 2
        assert tally.mean == 4.0

    def test_non_finite_observation_rejected(self):
        """NaN/inf must raise instead of silently poisoning the moments
        while min/max comparisons stay false."""
        tally = Tally()
        tally.add(1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                tally.add(bad)
            with pytest.raises(ValueError):
                tally.add_weighted(bad, 2.0)
        assert tally.count == 1  # nothing was absorbed
        assert tally.mean == 1.0


class TestFromMoments:
    def test_matches_streamed_equivalent(self):
        values = [2.0, 4.0, 4.5, 7.0, 9.0]
        arr = np.asarray(values)
        mean = float(arr.mean())
        batch = Tally.from_moments(arr.size, mean,
                                   float(np.square(arr - mean).sum()),
                                   float(arr.min()), float(arr.max()))
        streamed = Tally()
        for value in values:
            streamed.add(value)
        assert batch.count == streamed.count
        assert batch.mean == pytest.approx(streamed.mean)
        assert batch.variance == pytest.approx(streamed.variance)
        assert batch.min == streamed.min
        assert batch.max == streamed.max

    def test_zero_count_gives_empty_tally(self):
        tally = Tally.from_moments(0, math.nan, math.nan,
                                   math.nan, math.nan)
        assert tally.count == 0
        assert math.isnan(tally.mean)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Tally.from_moments(-1, 0.0, 0.0, 0.0, 0.0)

    def test_non_finite_moments_rejected(self):
        with pytest.raises(ValueError):
            Tally.from_moments(3, math.nan, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            Tally.from_moments(3, 0.0, math.inf, 0.0, 0.0)

    @given(st.lists(finite_floats, min_size=1, max_size=50),
           st.lists(finite_floats, min_size=1, max_size=50))
    def test_merge_of_clean_batches_matches_pooled_stream(self, first,
                                                          second):
        def batch(values):
            arr = np.asarray(values, dtype=np.float64)
            mean = float(arr.mean())
            return Tally.from_moments(
                arr.size, mean, float(np.square(arr - mean).sum()),
                float(arr.min()), float(arr.max()))

        merged = batch(first)
        merged.merge(batch(second))
        pooled = Tally()
        for value in first + second:
            pooled.add(value)
        assert merged.count == pooled.count
        assert merged.mean == pytest.approx(pooled.mean, rel=1e-9,
                                            abs=1e-6)
        if pooled.count > 1:
            assert merged.variance == pytest.approx(pooled.variance,
                                                    rel=1e-6, abs=1e-6)
        assert merged.min == pooled.min
        assert merged.max == pooled.max

