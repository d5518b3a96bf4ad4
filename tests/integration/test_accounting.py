"""Cross-cutting accounting invariants of the measurement methodology.

The paper's methodology (Section 4) measures only after warm-up and
settling; these tests pin down that the reported statistics really do
describe the measured window alone, and that the virtual client's
bookkeeping is consistent with its configured request rate.
"""

import pytest

from repro.core.algorithms import Algorithm
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from tests.conftest import small_config


class TestMeasuredWindowIsolation:
    def test_vc_counters_cover_only_the_measured_window(self, ipp_config):
        """vc_generated must match rate x measured_slots, not the whole
        run — the engine resets VC accounting at the measure boundary."""
        config = ipp_config.with_(client__think_time_ratio=10.0,
                                  run__settle_accesses=300,
                                  run__measure_accesses=300)
        result = FastEngine(config).run()
        rate = config.client.think_time_ratio / config.client.think_time
        expected = rate * result.measured_slots
        assert result.vc_generated == pytest.approx(expected, rel=0.25)
        assert result.measured_slots < result.total_slots

    def test_vc_accounting_partitions(self, ipp_config):
        result = FastEngine(ipp_config).run()
        reaching_server = (result.vc_generated - result.vc_absorbed
                           - result.vc_filtered)
        # Requests reaching the server = queue offers minus the MC's own.
        assert reaching_server == result.request_offers - result.mc_pulls_sent

    def test_longer_settle_does_not_change_seeded_expectations_much(self):
        short = FastEngine(small_config(run__settle_accesses=100)).run()
        long = FastEngine(small_config(run__settle_accesses=600)).run()
        # Same seed, same distributional regime: means stay in the same
        # ballpark (the system is stationary once warm).
        assert long.response_miss.mean == pytest.approx(
            short.response_miss.mean, rel=0.6, abs=3.0)

    def test_served_counts_stay_within_enqueued(self, pull_config):
        result = FastEngine(pull_config).run()
        # Served can exceed enqueued only via requests enqueued before the
        # measurement boundary (queue contents survive the counter reset).
        capacity = pull_config.server.queue_size
        assert result.requests_served <= result.requests_enqueued + capacity


#: Engine factories; ``fast`` takes the Pure-Push analytic path where it
#: applies, ``fast-general`` always runs the slot loop.
ENGINES = {
    "fast": FastEngine,
    "fast-general": lambda config: FastEngine(config, force_general=True),
    "reference": ReferenceEngine,
}


class TestEngineParity:
    @pytest.mark.parametrize("algorithm", list(Algorithm))
    def test_both_engines_honour_the_protocol(self, algorithm):
        config = small_config(algorithm, run__settle_accesses=50,
                              run__measure_accesses=120)
        for engine_cls in (FastEngine, ReferenceEngine):
            result = engine_cls(config).run()
            assert result.mc_hits + result.mc_misses == 120
            assert result.response_all.count == 120

    @pytest.mark.parametrize("algorithm", list(Algorithm),
                             ids=lambda algorithm: algorithm.value)
    @pytest.mark.parametrize("mode", ["run", "run_warmup"])
    @pytest.mark.parametrize("engine", list(ENGINES))
    def test_slot_kinds_sum_exactly(self, engine, mode, algorithm):
        """The slot kinds count every slot aired in the measured window,
        plus the fast slot loop's exit-slack tick (DESIGN.md §6)."""
        result = getattr(ENGINES[engine](small_config(algorithm)), mode)()
        slots = (result.slots_push + result.slots_pull
                 + result.slots_padding + result.slots_idle)
        analytic = engine == "fast" and algorithm is Algorithm.PURE_PUSH
        exit_slack = 0 if engine == "reference" or analytic else 1
        assert slots == result.measured_slots + exit_slack


class TestSeedDiscipline:
    def test_replicates_vary_but_same_seed_repeats(self, ipp_config):
        first = FastEngine(ipp_config).run()
        again = FastEngine(ipp_config).run()
        other = FastEngine(ipp_config.with_(run__seed=99)).run()
        assert first == again
        assert first != other

    def test_algorithm_change_does_not_leak_streams(self):
        """Changing only the algorithm must not alter the MC's access
        stream: the same pages get drawn in the same order."""
        from repro.core.build import build_system

        ipp = build_system(small_config(Algorithm.IPP))
        pull = build_system(small_config(Algorithm.PURE_PULL))
        ipp_draws = [ipp.mc.draw_page() for _ in range(50)]
        pull_draws = [pull.mc.draw_page() for _ in range(50)]
        assert ipp_draws == pull_draws
