"""The benchmark's workloads: one simulated system each, plus its output bands.

Every workload is a fixed amount of simulated work — one engine run through
the warm, settle and measure phases of one :class:`SystemConfig` — repeated
with a fresh seed per repetition.  The load is simulated, so no wall-clock
generator exists: the measured client (MC) is closed-loop with one
outstanding access and ThinkTime 20, the virtual client (VC) is open-loop
Poisson in simulated time, and each fleet client is closed-loop.

The bands bound the MC's mean miss response (broadcast units) and the
queue's drop rate.  Over 60 repetition seeds per workload the observed
ranges were: vc-saturated 618-993 and 0.740-0.744, fleet-rxw 379-678 and
0.729-0.750, reference-ipp 388-631 and 0.316-0.334.  The bands are much
wider than that, so every seed passes while a run whose simulated
behaviour broke does not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.algorithms import Algorithm
from repro.core.build import SystemState
from repro.core.config import SystemConfig
from repro.core.fast import FastEngine
from repro.core.simulation import ReferenceEngine
from repro.obs.profile import HotLoopProfile

__all__ = ["Workload", "WORKLOADS", "rep_seed"]

_PAPER_IPP = SystemConfig(algorithm=Algorithm.IPP)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: the system simulated and its checks."""

    name: str
    #: Why the workload is in the benchmark (one sentence).
    why: str
    #: ``"fast"`` or ``"reference"``.
    engine: str
    #: The simulated system; ``run.seed`` is replaced per repetition.
    config: SystemConfig
    #: Inclusive band for ``RunResult.response_miss.mean``.
    response_band: tuple[float, float]
    #: Inclusive band for ``RunResult.drop_rate``.
    drop_band: tuple[float, float]

    def config_for(self, seed: int) -> SystemConfig:
        """The workload's system with ``seed`` as its RNG seed."""
        return self.config.with_(run__seed=seed)

    def make_engine(self, config: SystemConfig, state: SystemState,
                    profiler: HotLoopProfile | None = None):
        """Construct this workload's engine around a pre-built state."""
        if self.engine == "reference":
            if profiler is not None:
                raise ValueError("the reference engine takes no profiler")
            return ReferenceEngine(config, state=state)
        return FastEngine(config, state=state, profiler=profiler)


def rep_seed(seed: int, rep: int) -> int:
    """The simulation seed of repetition ``rep`` under benchmark ``seed``.

    Each repetition simulates a different seed so a run's median averages
    over the seed-to-seed spread of simulated work, while the same
    benchmark seed always yields the same sequence of inputs.
    """
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="vc-saturated",
        why=("Figure 3a's IPP 95% point at ThinkTimeRatio 250 puts VC "
             "filtering and queue admission under the heaviest load the "
             "paper sweeps, with ~74% of offers dropped."),
        engine="fast",
        config=_PAPER_IPP.with_(
            client__think_time_ratio=250.0,
            server__pull_bw=0.5, server__thresh_perc=0.0,
            server__queue_size=100, scheduler__discipline="fifo",
            run__settle_accesses=100, run__measure_accesses=200),
        response_band=(300.0, 1600.0),
        drop_band=(0.72, 0.76),
    ),
    Workload(
        name="fleet-rxw",
        why=("The saturated sched-sweep point: a 20,000-client fleet does "
             "most of the work and RxW scans a full queue, while the VC "
             "does little, so a VC-only change should move nothing."),
        engine="fast",
        config=_PAPER_IPP.with_(
            client__think_time_ratio=10.0,
            server__pull_bw=0.10,
            scheduler__discipline="rxw",
            scheduler__reprogram_interval=5000,
            fleet__num_clients=20_000,
            # 20,000 clients x ThinkTime 20 / 16,000 = ThinkTimeRatio 25.
            fleet__think_time=16_000.0,
            fleet__think_time_spread=0.5,
            fleet__zipf_offset_spread=50,
            fleet__cache_size_spread=0.5,
            run__settle_accesses=0, run__measure_accesses=100),
        response_band=(180.0, 1100.0),
        drop_band=(0.70, 0.78),
    ),
    Workload(
        name="reference-ipp",
        why=("Figure 3a's IPP 95% point at ThinkTimeRatio 50 on the "
             "reference engine, the only workload that runs repro.sim and "
             "the process-per-entity protocol."),
        engine="reference",
        config=_PAPER_IPP.with_(
            client__think_time_ratio=50.0,
            run__settle_accesses=100, run__measure_accesses=200),
        response_band=(190.0, 1000.0),
        drop_band=(0.29, 0.36),
    ),
)}
