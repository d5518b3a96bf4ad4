"""The run protocol both engines share: warm, settle, then measure.

The paper's numbers come from one fixed protocol.  A steady-state run
fills the measured client's cache (*warm*), lets the system run for
``RunConfig.settle_accesses`` more accesses (*settle*), and then measures
``RunConfig.measure_accesses`` accesses.  A warm-up run (Figure 4)
measures from a cold cache until the 95% warm level is crossed.

:class:`RunProtocol` owns everything about a run that is not the
simulated model itself: the phase state machine, the measurement-boundary
reset, request-tracer attachment, :class:`~repro.core.metrics.RunResult`
assembly and the provenance stamp.  An engine supplies only its loop and
reports each completed measured-client access through
:meth:`RunProtocol.completed`, so the per-slot work stays in the engine.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import TYPE_CHECKING, Callable

from repro.core.config import SystemConfig
from repro.core.metrics import RunResult, TallySnapshot
from repro.server.broadcast_server import SlotKind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (obs -> core)
    from repro.core.build import SystemState
    from repro.obs.requests import RequestTracer

__all__ = ["RunProtocol", "SimulationStall"]


class SimulationStall(RuntimeError):
    """The run hit ``max_slots`` before reaching its stop condition."""


class RunProtocol:
    """One engine run: phase bookkeeping, result assembly and stamping."""

    def __init__(self, engine: str, config: SystemConfig,
                 state: "SystemState", warmup: bool,
                 request_tracer: "RequestTracer | None" = None):
        """Args:
            engine: engine name recorded in the manifest.
            config: the simulated system.
            state: its live components.
            warmup: run the warm-up protocol (Figure 4) instead of the
                steady-state one.
            request_tracer: attached to the MC and the queue for the
                duration of :meth:`execute`.
        """
        if warmup and state.mc.warmup is None:
            raise ValueError("warm-up runs need a non-empty cache")
        self.engine = engine
        self.config = config
        self.state = state
        self.warmup = warmup
        self.request_tracer = request_tracer
        #: True from the measurement boundary on; engines copy it into a
        #: local after each :meth:`completed` call.
        self.measuring = False
        #: True once the stop condition is reached.
        self.done = False
        self.measure_start = 0.0
        self.end_time = 0.0
        #: Queue-length samples over the measured slots, filled in by the
        #: engine's loop.
        self.qlen_sum = 0
        self.qlen_slots = 0
        self._warming = True
        self._settle_left = config.run.settle_accesses
        self._measure_left = config.run.measure_accesses

    def execute(self, loop: Callable[["RunProtocol"], None]) -> RunResult:
        """Run the engine's ``loop(self)``, which returns once the protocol
        is done, and return the stamped result.

        The request tracer is attached before the loop starts, so a loop
        that hoists ``queue.offer`` calls the observed wrapper, and it is
        detached even when the loop raises (a reused state must never
        carry a stale observer).
        """
        # lint: allow[REP001] -- wall-clock run duration for the manifest
        started = time.perf_counter()
        state = self.state
        rtracer = self.request_tracer
        if rtracer is not None:
            if rtracer.think_time is None:
                rtracer.think_time = state.mc.think_time
            state.mc.tracer = rtracer
            state.server.queue.attach_observer(rtracer.on_queue_offer)
        try:
            if self.warmup:
                self.begin_measure(0.0)
            loop(self)
        finally:
            if rtracer is not None:
                state.server.queue.detach_observer()
                state.mc.tracer = None
        # lint: allow[REP001] -- provenance elapsed_seconds, not sim time
        return self.stamp(self.result(), time.perf_counter() - started)

    def completed(self, t: float) -> bool:
        """Account one completed MC access at time ``t``.

        Returns True when it ends the run, and then records ``end_time``.
        """
        if self.measuring:
            if self.warmup:
                tracker = self.state.mc.warmup
                self.done = tracker is not None and tracker.complete
            else:
                self._measure_left -= 1
                self.done = self._measure_left <= 0
            if self.done:
                self.end_time = float(t)
            return self.done
        if self._warming:
            self._warming = not self.state.mc.cache.is_full
        else:
            self._settle_left -= 1
            if self._settle_left <= 0:
                self.begin_measure(t)
        return False

    def begin_measure(self, t: float) -> None:
        """Open the measured window at time ``t``: zero every statistic."""
        state = self.state
        state.mc.measuring = True
        state.mc.reset_stats()
        state.server.reset_stats()
        state.vc.reset_stats()
        if state.fleet is not None:
            state.fleet.reset_stats()
        self.measuring = True
        self.measure_start = float(t)

    def result(self) -> RunResult:
        """The measured window's statistics."""
        state = self.state
        mc = state.mc
        queue = state.server.queue
        slots = state.server.slot_counts
        vc = state.vc
        return RunResult(
            algorithm=self.config.algorithm.value,
            seed=self.config.run.seed,
            response_miss=TallySnapshot.of(mc.response_miss,
                                           mc.latency_miss.quantiles()),
            response_all=TallySnapshot.of(mc.response_all,
                                          mc.latency_all.quantiles()),
            mc_hits=mc.hits,
            mc_misses=mc.misses,
            mc_pulls_sent=mc.pulls_sent,
            requests_enqueued=queue.enqueued,
            requests_duplicate=queue.duplicates,
            requests_dropped=queue.dropped,
            requests_served=queue.served,
            slots_push=slots[SlotKind.PUSH],
            slots_pull=slots[SlotKind.PULL],
            slots_padding=slots[SlotKind.PADDING],
            slots_idle=slots[SlotKind.IDLE],
            queue_length_mean=(self.qlen_sum / self.qlen_slots
                               if self.qlen_slots else 0.0),
            measured_slots=self.end_time - self.measure_start,
            total_slots=self.end_time,
            vc_generated=vc.generated,
            vc_absorbed=vc.absorbed_by_cache,
            vc_filtered=vc.filtered_by_threshold,
            warmup_times=(dict(mc.warmup.crossing_times)
                          if self.warmup and mc.warmup is not None
                          else None),
            fleet=(state.fleet.snapshot()
                   if state.fleet is not None else None),
        )

    def stamp(self, result: RunResult, elapsed: float) -> RunResult:
        """Attach the run-provenance manifest (lazy import: obs -> core)."""
        from repro.obs.manifest import run_manifest

        return replace(result, manifest=run_manifest(
            self.config, self.engine, elapsed_seconds=elapsed))
