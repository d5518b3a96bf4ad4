"""Unit tests for hot-loop phase timing."""

import pytest

from repro.core.fast import FastEngine
from repro.obs.profile import ENGINE_PHASES, HotLoopProfile, profile_run


class TestHotLoopProfile:
    def test_starts_empty(self):
        prof = HotLoopProfile()
        assert prof.timed_seconds == 0.0
        assert prof.slots_per_second == 0.0
        assert list(prof.phase_seconds) == list(ENGINE_PHASES)

    def test_throughput(self):
        prof = HotLoopProfile()
        prof.slots = 1000
        prof.wall_seconds = 0.5
        assert prof.slots_per_second == pytest.approx(2000.0)

    def test_render_mentions_every_phase(self):
        prof = HotLoopProfile()
        prof.server_tick = 0.3
        prof.vc_arrivals = 0.1
        prof.slots = 100
        prof.wall_seconds = 0.5
        text = prof.render()
        for phase in ENGINE_PHASES:
            assert phase in text
        assert "100" in text            # slot count
        assert "(untimed)" in text      # 0.5 wall > 0.4 timed


class TestProfileRun:
    def test_profile_run_matches_plain_run(self, ipp_config):
        plain = FastEngine(ipp_config).run()
        result, prof = profile_run(ipp_config)
        plain_dict, result_dict = plain.to_dict(), result.to_dict()
        plain_dict.pop("manifest")  # timestamps differ between the runs
        result_dict.pop("manifest")
        assert result_dict == plain_dict

    def test_phases_are_populated(self, ipp_config):
        _, prof = profile_run(ipp_config)
        assert prof.slots > 0
        assert prof.wall_seconds > 0.0
        assert prof.slots_per_second > 0.0
        # The engine ticks and draws arrivals every slot; those phases
        # must have accumulated real time.
        assert prof.server_tick > 0.0
        assert prof.vc_arrivals > 0.0
        assert prof.timed_seconds <= prof.wall_seconds

    def test_pure_push_goes_through_general_loop(self, push_config):
        _, prof = profile_run(push_config)
        assert prof.slots > 0
        assert prof.deliver >= 0.0
