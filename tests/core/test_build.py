"""Unit tests for system construction."""

import numpy as np
import pytest

from repro.cache.p import PPolicy
from repro.cache.pix import PixPolicy
from repro.core.build import build_system
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from tests.conftest import small_config


class TestBuildPushProgram:
    def test_pure_pull_has_no_program(self, pull_config):
        state = build_system(pull_config)
        assert state.schedule is None

    def test_offset_applied_by_default(self, ipp_config):
        state = build_system(ipp_config)
        assert state.schedule is not None
        assignment = state.schedule.assignment
        # With offset, disk 1 starts at rank cache_size (5), not rank 0.
        assert assignment.disks[0].pages[0] == 5

    def test_offset_disabled(self):
        config = small_config(server__offset=False)
        state = build_system(config)
        assert state.schedule.assignment.disks[0].pages[0] == 0

    def test_chop_shrinks_program(self):
        config = small_config(server__chop=10)
        state = build_system(config)
        assert len(state.schedule.pages) == 10

    def test_chopped_pages_are_pull_only(self):
        config = small_config(server__chop=10)
        state = build_system(config)
        missing = set(range(20)) - set(state.schedule.pages)
        assert len(missing) == 10


class TestBuildSystem:
    def test_cache_policy_matches_algorithm(self, ipp_config, pull_config,
                                            push_config):
        assert isinstance(build_system(ipp_config).mc.cache.policy,
                          PixPolicy)
        assert isinstance(build_system(push_config).mc.cache.policy,
                          PixPolicy)
        assert isinstance(build_system(pull_config).mc.cache.policy,
                          PPolicy)

    def test_steady_set_size_is_cache_minus_one(self, ipp_config):
        state = build_system(ipp_config)
        assert len(state.steady_set) == ipp_config.client.cache_size - 1

    def test_warmup_target_size_is_cache_size(self, ipp_config):
        state = build_system(ipp_config)
        assert len(state.warmup_target) == ipp_config.client.cache_size

    def test_pure_pull_steady_set_is_hottest_pages(self, pull_config):
        state = build_system(pull_config)
        expected = frozenset(range(pull_config.client.cache_size - 1))
        assert state.steady_set == expected

    def test_noise_zero_means_identical_probabilities(self, ipp_config):
        state = build_system(ipp_config)
        assert np.allclose(state.mc_probabilities, state.vc_probabilities)

    def test_noise_perturbs_only_mc(self):
        config = small_config(client__noise=0.35)
        state = build_system(config)
        assert not np.allclose(state.mc_probabilities,
                               state.vc_probabilities)
        # Same multiset: noise permutes, never alters, probabilities.
        assert np.allclose(np.sort(state.mc_probabilities),
                           np.sort(state.vc_probabilities))

    def test_same_seed_same_system(self, ipp_config):
        a = build_system(ipp_config)
        b = build_system(ipp_config)
        assert a.schedule.slots == b.schedule.slots
        assert a.steady_set == b.steady_set
        assert a.mc.draw_page() == b.mc.draw_page()

    def test_server_pull_bw_follows_algorithm(self, push_config,
                                              pull_config, ipp_config):
        assert build_system(push_config).server.mux.pull_bw == 0.0
        assert build_system(pull_config).server.mux.pull_bw == 1.0
        assert build_system(ipp_config).server.mux.pull_bw == 0.5

    def test_vc_rate(self, ipp_config):
        state = build_system(ipp_config)
        expected = (ipp_config.client.think_time_ratio
                    / ipp_config.client.think_time)
        assert state.vc.rate == pytest.approx(expected)

    def test_cache_policy_override(self):
        from repro.cache.lix import LixPolicy
        from repro.cache.lru import LruPolicy

        for name, expected in (("lru", LruPolicy), ("lix", LixPolicy),
                               ("p", PPolicy), ("pix", PixPolicy)):
            state = build_system(small_config(client__cache_policy=name))
            assert isinstance(state.mc.cache.policy, expected), name

    def test_cache_policy_validated(self):
        with pytest.raises(ValueError, match="cache_policy"):
            small_config(client__cache_policy="fifo")

    def test_noise_does_not_shift_other_streams(self):
        """Spawned RNG streams are independent: toggling noise must not
        change the virtual client's draw sequence."""
        quiet = build_system(small_config())
        noisy = build_system(small_config(client__noise=0.35))
        quiet_draws = quiet.vc.arrivals_for_slots(50)
        noisy_draws = noisy.vc.arrivals_for_slots(50)
        assert quiet_draws == noisy_draws


class TestApplySchedule:
    @pytest.mark.parametrize("engine_cls", [FastEngine, ReferenceEngine])
    def test_reprogramming_keeps_every_component_on_the_live_program(
            self, engine_cls):
        config = small_config(client__think_time_ratio=20,
                              scheduler__reprogram_interval=200,
                              scheduler__reprogram_min_requests=5,
                              fleet__num_clients=40, fleet__think_time=160.0,
                              fleet__cache_size=5)
        state = build_system(config)
        original = state.schedule
        engine_cls(config, state=state).run()
        assert state.reprogrammer.reprograms > 0
        assert state.schedule is not original
        assert state.server.schedule is state.schedule
        assert state.mc_threshold.schedule is state.schedule
