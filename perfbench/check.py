"""Output checks on every benchmark run, and the statistics digest.

A run that raises, returns NaN, or breaks one of these checks counts as
failed.  The identities hold exactly on correct code:

- every measured MC access is a hit or a miss,
- the slot kinds add up to the measured slots — plus exactly one on the
  fast engine, which ticks one slot past its stop condition,
- with a fleet, every generated fleet access was absorbed, filtered or
  offered.

The MC's mean miss response and the drop rate must also fall inside the
workload's committed band.  The digest hashes every simulated statistic
(the provenance manifest, which holds timestamps, excluded) so two commits
can show bit-identical simulations; it is reported, never gated.
"""

from __future__ import annotations

import hashlib
import json
import math

from repro.core.metrics import RunResult

__all__ = ["check_result", "digest"]

#: Extra ticks each engine records after its stop condition.
_EXTRA_TICKS = {"fast": 1, "reference": 0}


def digest(result: RunResult) -> str:
    """SHA-256 of the run's simulated statistics, manifest excluded."""
    data = result.to_dict()
    data.pop("manifest", None)
    blob = json.dumps(data, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def check_result(workload, result: RunResult) -> list[str]:
    """Every way ``result`` fails the workload's output check (empty: ok)."""
    problems: list[str] = []
    config = workload.config
    measured = result.mc_hits + result.mc_misses
    if measured != config.run.measure_accesses:
        problems.append(f"mc_hits + mc_misses = {measured}, expected "
                        f"measure_accesses = {config.run.measure_accesses}")
    kinds = (result.slots_push + result.slots_pull + result.slots_padding
             + result.slots_idle)
    expected = result.measured_slots + _EXTRA_TICKS[workload.engine]
    if kinds != expected:
        problems.append(f"slot kinds sum to {kinds}, expected {expected}")
    if config.fleet.num_clients:
        fleet = result.fleet or {}
        accounted = (fleet.get("absorbed", 0) + fleet.get("filtered", 0)
                     + fleet.get("offered", 0))
        if fleet.get("generated") != accounted:
            problems.append(f"fleet generated {fleet.get('generated')} != "
                            f"absorbed + filtered + offered = {accounted}")
    response = result.response_miss.mean
    low, high = workload.response_band
    if not (math.isfinite(response) and low <= response <= high):
        problems.append(f"mean miss response {response} outside "
                        f"[{low}, {high}]")
    drop = result.drop_rate
    low, high = workload.drop_band
    if not (math.isfinite(drop) and low <= drop <= high):
        problems.append(f"drop rate {drop} outside [{low}, {high}]")
    if not math.isfinite(result.total_slots) or result.total_slots <= 0:
        problems.append(f"total_slots {result.total_slots} is not positive")
    return problems
