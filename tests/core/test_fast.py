"""Unit tests for the fast engine's protocol and shortcuts."""

import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine, SimulationStall, simulate, simulate_warmup
from tests.conftest import small_config


class TestSteadyStateProtocol:
    def test_measure_access_count_honoured(self, ipp_config):
        result = FastEngine(ipp_config).run()
        assert (result.mc_hits + result.mc_misses
                == ipp_config.run.measure_accesses)

    def test_response_all_counts_every_access(self, ipp_config):
        result = FastEngine(ipp_config).run()
        assert result.response_all.count == ipp_config.run.measure_accesses
        assert result.response_miss.count == result.mc_misses

    def test_hits_have_zero_delay(self, push_config):
        result = FastEngine(push_config).run()
        # all-access mean == miss mean * miss rate.
        expected = result.response_miss.mean * result.mc_miss_rate
        assert result.response_all.mean == pytest.approx(expected, rel=1e-9)

    def test_deterministic_given_seed(self, ipp_config):
        a = FastEngine(ipp_config).run()
        b = FastEngine(ipp_config).run()
        assert a == b

    def test_different_seeds_differ(self, ipp_config):
        a = FastEngine(ipp_config).run()
        b = FastEngine(ipp_config.with_(run__seed=8)).run()
        assert a.response_miss.mean != b.response_miss.mean

    def test_pure_push_ignores_virtual_client(self, push_config):
        result = FastEngine(push_config).run()
        assert result.vc_generated == 0
        assert result.requests_enqueued == 0

    def test_pure_pull_uses_no_push_slots(self, pull_config):
        result = FastEngine(pull_config).run()
        assert result.slots_push == 0
        assert result.slots_pull > 0

    def test_ipp_mixes_push_and_pull(self, ipp_config):
        result = FastEngine(ipp_config).run()
        assert result.slots_push > 0
        assert result.slots_pull > 0

    def test_measured_slots_positive(self, ipp_config):
        result = FastEngine(ipp_config).run()
        assert 0 < result.measured_slots <= result.total_slots


class TestAnalyticShortcut:
    def test_analytic_matches_general_loop_exactly(self, push_config):
        analytic = FastEngine(push_config).run()
        general = FastEngine(push_config, force_general=True).run()
        assert analytic.response_miss.mean == pytest.approx(
            general.response_miss.mean)
        assert analytic.mc_hits == general.mc_hits
        assert analytic.mc_misses == general.mc_misses

    def test_analytic_warmup_matches_general(self, push_config):
        analytic = FastEngine(push_config).run_warmup()
        general = FastEngine(push_config, force_general=True).run_warmup()
        assert analytic.warmup_times == general.warmup_times

    @pytest.mark.parametrize("mode", ["run", "run_warmup"])
    def test_synthesized_slot_counts_are_exact(self, push_config, mode):
        """Every slot in the measured window, counted by cycle position."""
        from repro.core.build import build_system

        # 500 accesses: rounding a padding share would be off by one here.
        config = push_config.with_(run__measure_accesses=500)
        schedule = build_system(config).schedule
        result = getattr(FastEngine(config), mode)()
        start = int(result.total_slots - result.measured_slots)
        window = range(start, int(result.total_slots))
        padding = sum(schedule.page_at(s) is None for s in window)
        assert result.slots_padding == padding > 0
        assert result.slots_push == len(window) - padding
        assert result.slots_pull == result.slots_idle == 0


class TestWarmupProtocol:
    def test_warmup_times_monotone(self, ipp_config):
        result = FastEngine(ipp_config).run_warmup()
        assert result.warmup_times
        levels = sorted(result.warmup_times)
        times = [result.warmup_times[level] for level in levels]
        assert times == sorted(times)
        assert 0.95 in result.warmup_times

    def test_steady_run_has_no_warmup_times(self, ipp_config):
        assert FastEngine(ipp_config).run().warmup_times is None

    def test_warmup_requires_cache(self):
        config = small_config(client__cache_size=0)
        with pytest.raises(ValueError):
            FastEngine(config).run_warmup()


class TestGuards:
    def test_max_slots_stall_raises(self, ipp_config):
        config = ipp_config.with_(run__max_slots=50)
        with pytest.raises(SimulationStall):
            FastEngine(config).run()

    def test_controller_requires_ipp(self, push_config):
        from repro.core.adaptive import AdaptiveController, AdaptivePolicy

        controller = AdaptiveController(AdaptivePolicy(), 0.5, 0.0)
        with pytest.raises(ValueError):
            FastEngine(push_config, controller=controller)


class TestModuleHelpers:
    def test_simulate(self, ipp_config):
        result = simulate(ipp_config)
        assert result.algorithm == "ipp"

    def test_simulate_warmup(self, ipp_config):
        result = simulate_warmup(ipp_config)
        assert result.warmup_times

    def test_zero_cache_client_always_misses(self):
        config = small_config(Algorithm.PURE_PULL, client__cache_size=0,
                              run__measure_accesses=50)
        result = simulate(config)
        assert result.mc_hits == 0
        assert result.mc_misses == 50
