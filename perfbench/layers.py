"""Per-layer metrics: what each one measures and what it should move.

``LAYER_METRICS`` is the benchmark's per-layer table.  Each row names the
module the metric belongs to, the end-to-end metric a change to that layer
should move, and the workload where the layer dominates (or sits idle).
``BENCHMARK.json`` lists the same names, units and directions; its format
has no room for the targets, so they live here and in every results file.

Layers a workload does not exercise (no fleet, no reprogrammer, no event
kernel, no profiler on the reference engine) report 0.
"""

from __future__ import annotations

import statistics
from typing import NamedTuple

__all__ = ["LayerMetric", "LAYER_METRICS", "layer_metrics"]


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    #: The module(s) the metric belongs to.
    layer: str
    #: The end-to-end metric a change to this layer should move.
    moves: str
    #: The workload where the layer dominates or sits idle.
    where: str

    @property
    def exact(self) -> bool:
        """A simulated count or ratio: the same on every run of a seed."""
        return self.unit in ("count", "ratio") and self.layer != "tracing"


_VC = ("client.virtual", "run_s, slots_per_s",
       "dominates vc-saturated; small on fleet-rxw")
_QUEUE = ("server.queue", "run_s",
          "offer/drop on vc-saturated; pop-heavy on fleet-rxw")
_SCHED = ("server.schedulers", "run_s on fleet-rxw",
          "select at depth 100 and rebuilds on fleet-rxw; O(1) FIFO on "
          "vc-saturated")
_SERVER = ("server.broadcast_server + server.mux", "slots_per_s",
           "every workload")
_MC = ("client.measured + cache + workload + client.threshold",
       "none predicted (under 1% everywhere)",
       "shows when a cache change is not worth claiming")
_FLEET = ("fleet", "run_s on fleet-rxw", "dominates fleet-rxw; absent "
          "elsewhere")
_SIM = ("sim", "run_s on reference-ipp", "dominates reference-ipp; absent "
        "elsewhere")
_CORE = ("core (engine loop)", "run_s", "all workloads; p99 shows rebuild "
         "and chunk-refill stalls")
_TRACE = ("tracing", "none (cost of looking)", "all workloads")

LAYER_METRICS: tuple[LayerMetric, ...] = tuple(
    LayerMetric(name, unit, better, *where) for name, unit, better, where in (
        ("vc.requests_for_slot.calls", "count", "lower", _VC),
        ("vc.requests_for_slot.self_s", "s", "lower", _VC),
        ("vc.raw_draws", "count", "lower", _VC),
        ("vc.ns_per_draw", "ns", "lower", _VC),
        ("vc.survivor_ratio", "ratio", "lower", _VC),
        ("vc.arrivals_for_slots.s", "s", "lower", _VC),
        ("queue.offer.calls", "count", "lower", _QUEUE),
        ("queue.offer.ns_per_call", "ns", "lower", _QUEUE),
        ("queue.offer.enqueued_ratio", "ratio", "higher", _QUEUE),
        ("queue.pop.calls", "count", "lower", _QUEUE),
        ("queue.pop.self_ns_per_call", "ns", "lower", _QUEUE),
        ("queue.depth_mean", "count", "lower", _QUEUE),
        ("sched.select.ns_per_call", "ns", "lower", _SCHED),
        ("sched.reordered_ratio", "ratio", "lower", _SCHED),
        ("reprogram.calls", "count", "lower", _SCHED),
        ("reprogram.rebuilds", "count", "lower", _SCHED),
        ("reprogram.set_schedule_s", "s", "lower", _SCHED),
        ("server.tick.calls", "count", "lower", _SERVER),
        ("server.tick.self_ns_per_call", "ns", "lower", _SERVER),
        ("mux.wants_pull.ns_per_call", "ns", "lower", _SERVER),
        ("server.pull_slot_share", "ratio", "higher", _SERVER),
        ("mc.draw_page.ns_per_call", "ns", "lower", _MC),
        ("mc.lookup.ns_per_call", "ns", "lower", _MC),
        ("mc.hit_ratio", "ratio", "higher", _MC),
        ("mc.receive.ns_per_call", "ns", "lower", _MC),
        ("threshold.passes.ns_per_call", "ns", "lower", _MC),
        ("fleet.generate.calls", "count", "lower", _FLEET),
        ("fleet.generate.self_s", "s", "lower", _FLEET),
        ("fleet.generate.ns_per_access", "ns", "lower", _FLEET),
        ("fleet.deliver.s", "s", "lower", _FLEET),
        ("fleet.deliver.ns_per_delivered", "ns", "lower", _FLEET),
        ("fleet.absorbed_ratio", "ratio", "higher", _FLEET),
        ("sim.env.step.calls", "count", "lower", _SIM),
        ("sim.env.step.self_ns_per_event", "ns", "lower", _SIM),
        ("core.loop_self_s", "s", "lower", _CORE),
        ("core.slot_us_p50", "us", "lower", _CORE),
        ("core.slot_us_p99", "us", "lower", _CORE),
        ("core.slot_samples", "count", "lower", _CORE),
        ("trace.overhead_ratio", "ratio", "lower", _TRACE),
        ("profile.overhead_ratio", "ratio", "lower", _TRACE),
    ))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _quantile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, n=100)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def layer_metrics(recorder, run_ns: int) -> dict[str, float]:
    """Per-layer values of one traced run, without the overhead ratios.

    Args:
        recorder: the run's :class:`~perfbench.shims.SpanRecorder`.
        run_ns: host time of the traced ``engine.run()`` call.
    """
    span = recorder.span
    requests = span("vc.requests_for_slot")
    offer = span("queue.offer")
    pop = span("queue.pop")
    select = span("sched.select")
    tick = span("server.tick")
    lookup = span("mc.lookup")
    generate = span("fleet.generate")
    deliver = span("fleet.deliver")
    step = span("sim.env.step")
    reprogram = span("reprogram.maybe_reprogram")
    set_schedule_ns = sum(s.inclusive_ns for name, s in recorder.spans.items()
                          if name.startswith("reprogram.set_schedule."))
    starts = recorder.starts
    slot_us = [(b - a) / 1e3 for a, b in zip(starts, starts[1:])]

    def per_call(s) -> float:
        return _ratio(s.inclusive_ns, s.calls)

    return {
        "vc.requests_for_slot.calls": requests.calls,
        "vc.requests_for_slot.self_s": requests.self_ns / 1e9,
        "vc.raw_draws": requests.units_in,
        "vc.ns_per_draw": _ratio(requests.self_ns, requests.units_in),
        "vc.survivor_ratio": _ratio(requests.units_out, requests.units_in),
        "vc.arrivals_for_slots.s":
            span("vc.arrivals_for_slots").inclusive_ns / 1e9,
        "queue.offer.calls": offer.calls,
        "queue.offer.ns_per_call": per_call(offer),
        "queue.offer.enqueued_ratio": _ratio(offer.units_out, offer.calls),
        "queue.pop.calls": pop.calls,
        "queue.pop.self_ns_per_call": _ratio(pop.self_ns, pop.calls),
        "queue.depth_mean": _ratio(tick.units_in, tick.calls),
        "sched.select.ns_per_call": per_call(select),
        "sched.reordered_ratio": _ratio(select.units_out, select.calls),
        "reprogram.calls": reprogram.calls,
        "reprogram.rebuilds": reprogram.units_out,
        "reprogram.set_schedule_s": set_schedule_ns / 1e9,
        "server.tick.calls": tick.calls,
        "server.tick.self_ns_per_call": _ratio(tick.self_ns, tick.calls),
        "mux.wants_pull.ns_per_call": per_call(span("mux.wants_pull")),
        "server.pull_slot_share": _ratio(tick.units_out, tick.calls),
        "mc.draw_page.ns_per_call": per_call(span("mc.draw_page")),
        "mc.lookup.ns_per_call": per_call(lookup),
        "mc.hit_ratio": _ratio(lookup.units_out, lookup.calls),
        "mc.receive.ns_per_call": per_call(span("mc.receive")),
        "threshold.passes.ns_per_call": per_call(span("threshold.passes")),
        "fleet.generate.calls": generate.calls,
        "fleet.generate.self_s": generate.self_ns / 1e9,
        "fleet.generate.ns_per_access": _ratio(generate.self_ns,
                                               generate.units_in),
        "fleet.deliver.s": deliver.inclusive_ns / 1e9,
        "fleet.deliver.ns_per_delivered": _ratio(deliver.inclusive_ns,
                                                 deliver.units_in),
        "fleet.absorbed_ratio": _ratio(generate.units_out, generate.units_in),
        "sim.env.step.calls": step.calls,
        "sim.env.step.self_ns_per_event": _ratio(step.self_ns, step.calls),
        "core.loop_self_s": (run_ns - recorder.top_level_ns) / 1e9,
        "core.slot_us_p50": _quantile(slot_us, 50),
        "core.slot_us_p99": _quantile(slot_us, 99),
        "core.slot_samples": len(slot_us),
    }
