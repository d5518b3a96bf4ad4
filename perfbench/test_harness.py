"""Tests of the benchmark harness itself.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench.check import check_result, digest
from perfbench.layers import LAYER_METRICS, layer_metrics
from perfbench.shims import SpanRecorder, install, uninstall
from perfbench.workloads import WORKLOADS, Workload, rep_seed
from repro.core.build import build_system

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _small(name: str) -> Workload:
    """A benchmark workload shrunk to a run of a few seconds at most."""
    workload = WORKLOADS[name]
    config = workload.config.with_(client__cache_size=20,
                                   client__think_time_ratio=10.0,
                                   run__settle_accesses=5,
                                   run__measure_accesses=20)
    if config.fleet.num_clients:
        config = config.with_(fleet__num_clients=2000,
                              fleet__think_time=1600.0,
                              scheduler__reprogram_interval=500)
    return replace(workload, config=config)


def _run(workload: Workload, recorder=None, remove=False):
    config = workload.config_for(7)
    state = build_system(config)
    engine = workload.make_engine(config, state)
    if recorder is not None:
        installed = install(recorder, state, engine)
        if remove:
            uninstall(installed)
            assert not any(attr in vars(obj) for obj, attr in installed)
    return engine.run()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shims_leave_results_unchanged(name):
    workload = _small(name)
    plain = _run(workload)
    recorder = SpanRecorder()
    traced = _run(workload, recorder)
    removed = _run(workload, SpanRecorder(), remove=True)
    assert digest(traced) == digest(plain) == digest(removed)
    assert recorder.span("server.tick").calls > 0
    if workload.config.fleet.num_clients:
        assert recorder.span("fleet.generate").calls > 0
        assert recorder.span("reprogram.maybe_reprogram").calls > 0
    if workload.engine == "reference":
        assert recorder.span("sim.env.step").calls > 0
    values = layer_metrics(recorder, run_ns=10**12)
    assert set(values) | {"trace.overhead_ratio", "profile.overhead_ratio"} \
        == {m.name for m in LAYER_METRICS}


class _Clock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


class _Leaf:
    def __init__(self, clock):
        self.clock = clock

    def work(self, ns):
        self.clock.t += ns
        return ns

    def pages(self, count):
        for page in range(count):
            self.clock.t += 2
            yield page


class _Outer:
    def __init__(self, clock, leaf):
        self.clock = clock
        self.leaf = leaf

    def run(self):
        self.clock.t += 10
        self.leaf.work(5)
        self.clock.t += 1
        self.leaf.work(3)
        return "done"


def test_self_time_subtracts_nested_calls():
    clock = _Clock()
    leaf = _Leaf(clock)
    outer = _Outer(clock, leaf)
    recorder = SpanRecorder(clock=clock)
    recorder.wrap(leaf, "work", "leaf.work", keep=True,
                  tally=lambda args, result: (args[0], 1))
    recorder.wrap(outer, "run", "outer.run")
    assert outer.run() == "done"
    clock.t += 100  # untimed loop work between top-level calls
    leaf.work(4)

    outer_span = recorder.span("outer.run")
    assert (outer_span.calls, outer_span.inclusive_ns, outer_span.self_ns) \
        == (1, 19, 11)
    leaf_span = recorder.span("leaf.work")
    assert (leaf_span.calls, leaf_span.inclusive_ns, leaf_span.self_ns) \
        == (3, 12, 12)
    assert (leaf_span.units_in, leaf_span.units_out) == (12, 3)
    assert recorder.top_level_ns == 19 + 4
    parents = [parent for _, _, _, parent in recorder.events]
    assert parents == ["outer.run", "outer.run", None]


def test_materialized_iterator_is_timed_inside_its_span():
    clock = _Clock()
    leaf = _Leaf(clock)
    recorder = SpanRecorder(clock=clock)
    recorder.wrap(leaf, "pages", "leaf.pages", materialize=True)
    assert leaf.pages(3) == [0, 1, 2]
    assert recorder.span("leaf.pages").inclusive_ns == 6


def test_probe_counts_counter_deltas():
    clock = _Clock()
    leaf = _Leaf(clock)
    recorder = SpanRecorder(clock=clock)
    recorder.wrap(leaf, "work", "leaf.work",
                  probe=lambda: (clock.t, 2 * clock.t))
    leaf.work(5)
    leaf.work(2)
    span = recorder.span("leaf.work")
    assert (span.units_in, span.units_out) == (7, 14)


@pytest.fixture(scope="module")
def fleet_result():
    """A small fleet run, with bands drawn around its own statistics."""
    workload = _small("fleet-rxw")
    result = _run(workload)
    response, drop = result.response_miss.mean, result.drop_rate
    workload = replace(workload, response_band=(response / 2, response * 2),
                       drop_band=(drop / 2, drop * 2))
    return workload, result


def test_output_check_accepts_a_correct_run(fleet_result):
    workload, result = fleet_result
    assert check_result(workload, result) == []


@pytest.mark.parametrize("corrupt", [
    lambda r: replace(r, mc_hits=r.mc_hits + 1),
    lambda r: replace(r, slots_pull=r.slots_pull + 1),
    lambda r: replace(r, slots_padding=r.slots_padding - 1),
    lambda r: replace(r, fleet={**r.fleet, "offered": r.fleet["offered"] + 1}),
    lambda r: replace(r, response_miss=replace(r.response_miss,
                                               mean=math.nan)),
    lambda r: replace(r, response_miss=replace(r.response_miss,
                                               mean=1e9)),
    lambda r: replace(r, requests_dropped=0),
], ids=["hits", "pull-slots", "padding-slots", "fleet", "nan", "band",
        "drops"])
def test_output_check_fails_on_a_corrupted_result(fleet_result, corrupt):
    workload, result = fleet_result
    bad = corrupt(result)
    assert check_result(workload, bad)
    assert digest(bad) != digest(result)


def test_rep_seeds_are_deterministic_and_distinct():
    assert rep_seed(3, 0) == rep_seed(3, 0)
    assert len({rep_seed(seed, rep) for seed in range(5)
                for rep in range(20)}) == 100


def test_benchmark_json_matches_the_harness():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for entry in spec["workloads"]:
        assert entry["why"] == WORKLOADS[entry["name"]].why
    assert spec["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS]
