"""Publish a fleet's per-user accounting through the metrics registry.

The fleet keeps plain resettable counters, mirrored as deltas through
:class:`~repro.obs.metrics.MetricsMirror` like the server's
(:mod:`repro.obs.server_metrics`).  Gauges carry the per-user wait
statistics (dispersion, quantiles, Jain's index) from the fleet's
:meth:`~repro.fleet.state.FleetState.snapshot`.
"""

from __future__ import annotations

import math

from repro.obs.metrics import MetricsMirror, MetricsRegistry

__all__ = ["FleetMetricsAdapter", "bind_fleet_metrics"]

#: Resettable fleet counters mirrored as ``<prefix>_<name>_total``.
_COUNTERS = ("generated", "absorbed", "filtered", "offered", "delivered")
#: Snapshot keys mirrored as same-named gauges.
_GAUGES = (
    "num_clients", "users_measured", "still_waiting",
    "mean_wait", "max_wait",
    "user_wait_mean", "user_wait_min", "user_wait_max",
    "user_wait_p50", "user_wait_p90", "user_wait_p99",
    "jain_index",
)


class FleetMetricsAdapter(MetricsMirror):
    """Mirror one fleet's statistics into a metrics registry."""

    def __init__(self, registry: MetricsRegistry, fleet,
                 prefix: str = "fleet"):
        self.fleet = fleet
        self.prefix = prefix
        super().__init__(
            registry,
            {f"{prefix}_{name}_total": f"fleet accesses {name}"
             for name in _COUNTERS},
            {f"{prefix}_{name}": f"fleet {name}" for name in _GAUGES})

    def readings(self):
        """The fleet's counters and gauges from one ``snapshot``."""
        prefix = self.prefix
        snapshot = self.fleet.snapshot()
        gauges = {}
        for name in _GAUGES:
            value = snapshot[name]
            # Gauges have no NaN convention; an unmeasured statistic
            # simply reads 0 until users complete accesses.
            gauges[f"{prefix}_{name}"] = (
                0.0 if isinstance(value, float) and math.isnan(value)
                else value)
        return ({f"{prefix}_{name}_total": snapshot[name]
                 for name in _COUNTERS}, gauges)


def bind_fleet_metrics(registry: MetricsRegistry, fleet,
                       prefix: str = "fleet") -> FleetMetricsAdapter:
    """Create an adapter and perform the initial sync."""
    adapter = FleetMetricsAdapter(registry, fleet, prefix=prefix)
    adapter.sync()
    return adapter
