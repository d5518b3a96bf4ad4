"""Unit tests for the PullBW-weighted MUX."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.server.mux import PushPullMux


class TestPushPullMux:
    def test_bounds_validated(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            PushPullMux(-0.1, rng)
        with pytest.raises(ValueError):
            PushPullMux(1.1, rng)

    def test_pure_push_never_pulls(self):
        mux = PushPullMux(0.0, np.random.default_rng(0))
        assert not any(mux.wants_pull() for _ in range(1000))

    def test_pure_pull_always_pulls(self):
        mux = PushPullMux(1.0, np.random.default_rng(0))
        assert all(mux.wants_pull() for _ in range(1000))

    @pytest.mark.parametrize("pull_bw", [0.1, 0.3, 0.5])
    def test_coin_is_calibrated(self, pull_bw):
        mux = PushPullMux(pull_bw, np.random.default_rng(7))
        draws = [mux.wants_pull() for _ in range(50_000)]
        assert np.mean(draws) == pytest.approx(pull_bw, abs=0.01)

    def test_deterministic_given_seed(self):
        a = PushPullMux(0.5, np.random.default_rng(3))
        b = PushPullMux(0.5, np.random.default_rng(3))
        assert [a.wants_pull() for _ in range(100)] == \
            [b.wants_pull() for _ in range(100)]

    def test_degenerate_settings_do_not_consume_randomness(self):
        rng = np.random.default_rng(5)
        mux = PushPullMux(0.0, rng)
        before = rng.random()
        for _ in range(100):
            mux.wants_pull()
        rng2 = np.random.default_rng(5)
        assert before == rng2.random()


@settings(max_examples=40, deadline=None)
@given(segments=st.lists(
           st.tuples(st.one_of(st.sampled_from((0.0, 1.0)),
                               st.floats(0.0, 1.0, allow_nan=False)),
                     st.integers(0, 3000)),
           min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_buffered_coin_equals_scalar_replica(segments, seed):
    """Block-drawn coins decide every slot exactly as one scalar
    ``rng.random()`` per non-degenerate toss would, while a controller
    moves ``pull_bw`` (across 0 and 1 included) and tosses cross block
    refills."""
    mux = PushPullMux(0.5, np.random.default_rng(seed))
    scalar = np.random.default_rng(seed)
    for pull_bw, slots in segments:
        mux.pull_bw = pull_bw
        for _ in range(slots):
            if pull_bw <= 0.0:
                expected = False
            elif pull_bw >= 1.0:
                expected = True
            else:
                expected = scalar.random() < pull_bw
            assert mux.wants_pull() is expected
