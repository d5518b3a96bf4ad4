"""Unit tests for the event calendar and event types."""

import math

import pytest

from repro.sim.core import Environment, SimulationError, Timeout


class TestEnvironment:
    def test_clock_starts_at_zero(self):
        assert Environment().now == 0.0

    def test_clock_honours_initial_time(self):
        assert Environment(initial_time=5.5).now == 5.5

    def test_run_until_advances_clock_even_without_events(self):
        env = Environment()
        env.run(until=10.0)
        assert env.now == 10.0

    def test_run_until_past_raises(self):
        env = Environment(initial_time=5.0)
        with pytest.raises(ValueError):
            env.run(until=1.0)

    def test_peek_empty_queue_is_inf(self):
        assert Environment().peek() == math.inf

    def test_peek_reports_next_event_time(self):
        env = Environment()
        env.timeout(3.0)
        env.timeout(1.0)
        assert env.peek() == 1.0

    def test_step_on_empty_queue_raises(self):
        with pytest.raises(SimulationError):
            Environment().step()

    def test_step_advances_to_event_time(self):
        env = Environment()
        env.timeout(2.5)
        env.step()
        assert env.now == 2.5

    def test_run_drains_all_events_without_until(self):
        env = Environment()
        fired = []
        env.timeout(1.0).add_callback(lambda e: fired.append(env.now))
        env.timeout(4.0).add_callback(lambda e: fired.append(env.now))
        env.run()
        assert fired == [1.0, 4.0]

    def test_run_until_excludes_later_events(self):
        env = Environment()
        fired = []
        env.timeout(1.0).add_callback(lambda e: fired.append(1))
        env.timeout(5.0).add_callback(lambda e: fired.append(5))
        env.run(until=3.0)
        assert fired == [1]
        assert env.now == 3.0

    def test_same_time_events_fire_in_scheduling_order(self):
        env = Environment()
        order = []
        for tag in range(5):
            env.timeout(1.0, value=tag).add_callback(
                lambda e: order.append(e.value))
        env.run()
        assert order == [0, 1, 2, 3, 4]

    def test_negative_delay_rejected(self):
        env = Environment()
        with pytest.raises(ValueError):
            env.timeout(-1.0)


class TestEvent:
    def test_fresh_event_is_pending(self):
        event = Environment().event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self):
        event = Environment().event()
        with pytest.raises(SimulationError):
            _ = event.value

    def test_succeed_carries_value(self):
        env = Environment()
        event = env.event()
        event.succeed("payload")
        env.run()
        assert event.processed
        assert event.ok
        assert event.value == "payload"

    def test_double_succeed_raises(self):
        event = Environment().event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        event = Environment().event()
        with pytest.raises(TypeError):
            event.fail("not an exception")

    def test_fail_marks_not_ok(self):
        env = Environment()
        event = env.event()
        boom = RuntimeError("boom")
        event.fail(boom)
        env.run()
        assert not event.ok
        assert event.value is boom

    def test_callback_after_processed_runs_immediately(self):
        env = Environment()
        event = env.event()
        event.succeed(11)
        env.run()
        seen = []
        event.add_callback(lambda e: seen.append(e.value))
        assert seen == [11]

    def test_succeed_with_delay(self):
        env = Environment()
        event = env.event()
        event.succeed(delay=4.0)
        times = []
        event.add_callback(lambda e: times.append(env.now))
        env.run()
        assert times == [4.0]


class TestTimeout:
    def test_timeout_fires_with_value(self):
        env = Environment()
        timeout = env.timeout(2.0, value="tick")
        env.run()
        assert timeout.processed
        assert timeout.value == "tick"

    def test_zero_delay_allowed(self):
        env = Environment()
        timeout = env.timeout(0.0)
        env.run()
        assert timeout.processed
        assert env.now == 0.0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Timeout(Environment(), -0.5)

