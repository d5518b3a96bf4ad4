"""Publish the broadcast server's own counters through the registry.

:class:`~repro.server.broadcast_server.BroadcastServer` and its
:class:`~repro.server.queue.BoundedRequestQueue` keep plain integer
counters (slot counts by kind, enqueued/duplicate/dropped/served) that
historically bypassed :class:`~repro.obs.metrics.MetricsRegistry`
entirely — simulated runs exported them through ``RunResult`` while any
other consumer had to know the snapshot dict shapes.  The adapter here
mirrors those counters into registry instruments so simulated and
real-network runs share one metrics-export path: the net server syncs
every telemetry snapshot, a simulation syncs once after ``run()``, and
both end up with identical instrument names.  The delta-with-reset
export is :class:`~repro.obs.metrics.MetricsMirror`'s.
"""

from __future__ import annotations

from repro.obs.events import SCHEDULER_DECISIONS
from repro.obs.metrics import MetricsMirror, MetricsRegistry

__all__ = ["ServerMetricsAdapter", "bind_server_metrics"]

#: Queue counters mirrored as ``<prefix>_requests_<outcome>_total``.
_OUTCOMES = ("enqueued", "duplicates", "dropped", "served")


class ServerMetricsAdapter(MetricsMirror):
    """Mirror one server's accounting into a metrics registry.

    Instruments created (under ``<prefix>_``):

    - ``<prefix>_slots_<kind>_total`` — counter per slot kind,
    - ``<prefix>_requests_<outcome>_total`` — counter per queue outcome
      (enqueued / duplicates / dropped) plus ``served``,
    - ``<prefix>_queue_depth`` / ``<prefix>_queue_capacity`` — gauges,
    - ``<prefix>_queue_drop_rate`` — gauge (fraction of *distinct*
      offers dropped; see ``BoundedRequestQueue.drop_rate``),
    - ``<prefix>_schedule_pos`` — gauge (push-program cursor),
    - ``<prefix>_sched_<decision>_total`` — counter per scheduler
      decision kind (``repro.obs.events.SCHEDULER_DECISIONS``: pull
      services granted / services taken out of FIFO order).

    Call :meth:`sync` whenever an up-to-date registry view is needed.
    """

    def __init__(self, registry: MetricsRegistry, server,
                 prefix: str = "server"):
        self.server = server
        self.prefix = prefix
        counters = {f"{prefix}_slots_{kind.value}_total":
                    f"slots that carried a {kind.value}"
                    for kind in server.slot_counts}
        for outcome in _OUTCOMES:
            counters[f"{prefix}_requests_{outcome}_total"] = (
                f"backchannel requests {outcome}")
        for decision in SCHEDULER_DECISIONS:
            counters[f"{prefix}_sched_{decision}_total"] = (
                f"pull-scheduler decisions: {decision}")
        super().__init__(registry, counters, {
            f"{prefix}_queue_depth": "requests queued now",
            f"{prefix}_queue_capacity": "queue capacity",
            f"{prefix}_queue_drop_rate":
                "fraction of offered requests dropped",
            f"{prefix}_schedule_pos": "push-program cursor",
        })

    def readings(self):
        """The server's counters and gauges from one ``stats_snapshot``."""
        prefix = self.prefix
        snapshot = self.server.stats_snapshot()
        queue = snapshot["queue"]
        counters = {f"{prefix}_slots_{kind}_total": count
                    for kind, count in snapshot["slots"].items()}
        for outcome in _OUTCOMES:
            counters[f"{prefix}_requests_{outcome}_total"] = queue[outcome]
        for decision in SCHEDULER_DECISIONS:
            counters[f"{prefix}_sched_{decision}_total"] = (
                queue["scheduler"][decision])
        return counters, {
            f"{prefix}_queue_depth": queue["depth"],
            f"{prefix}_queue_capacity": queue["capacity"],
            f"{prefix}_queue_drop_rate": queue["drop_rate"],
            f"{prefix}_schedule_pos": snapshot["schedule_pos"],
        }


def bind_server_metrics(registry: MetricsRegistry, server,
                        prefix: str = "server") -> ServerMetricsAdapter:
    """Create an adapter and perform the initial sync.

    Works identically for a just-finished simulation's
    ``state.server`` and for the live server inside
    :class:`repro.net.server.NetServer`.
    """
    adapter = ServerMetricsAdapter(registry, server, prefix=prefix)
    adapter.sync()
    return adapter
