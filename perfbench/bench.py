"""Measure one workload: untraced end-to-end runs or traced per-layer runs.

All times are host time.  Repetitions run back to back in one process and
thread until the next one would overrun the time budget; each repetition
simulates its own seed (:func:`perfbench.workloads.rep_seed`), and every
metric is the median over repetitions.

- Untraced (``trace=0``): host seconds per run (``run_s``), simulated
  slots per host second (``slots_per_s``), host seconds to build the
  system and construct the engine (``setup_s``) and the process's peak
  resident memory (``peak_rss_mb``).
- Traced (``trace=1``): each repetition runs the same seed untraced,
  traced by the shims of :mod:`perfbench.shims`, and — fast engine only —
  with a ``HotLoopProfile`` attached through ``profiler=``, in alternating
  order.  The traced and profiled runs must reproduce the untraced
  ``RunResult`` exactly; the per-layer metrics of :mod:`perfbench.layers`
  come from the traced runs, simulated counts and ratios from the first
  repetition so that they repeat exactly for a seed.

A run fails when it raises (``SimulationStall`` included), breaks the
output check of :mod:`perfbench.check`, or differs from its untraced twin.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import time
import traceback
from pathlib import Path

import numpy

from perfbench.check import check_result, digest
from perfbench.layers import LAYER_METRICS, layer_metrics
from perfbench.shims import SpanRecorder, install
from perfbench.workloads import WORKLOADS, Workload, rep_seed
from repro.core.build import build_system
from repro.obs.manifest import config_to_dict
from repro.obs.profile import HotLoopProfile

__all__ = ["Bench", "END_TO_END_UNITS", "measure_plain", "measure_traced",
           "provenance", "report"]

ROOT = Path(__file__).resolve().parent.parent
RESULTS = Path(__file__).resolve().parent / "results"

END_TO_END_UNITS = {"run_s": "s", "slots_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the program's Python source tree."""
    src = ROOT / "src"
    sha = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        sha.update(str(path.relative_to(src)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def provenance() -> dict:
    """Where and on what a result was measured."""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python_version": platform.python_version(),
        "numpy_version": numpy.__version__,
        "git_revision": _git_revision(),
        "source_sha256": _source_digest(),
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Bench:
    """Runs repetitions of one workload and keeps their records."""

    def __init__(self, workload: Workload, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.reps: list[dict] = []
        #: Provenance manifest the engine stamped on the first result.
        self.manifest: dict | None = None

    def repetitions(self):
        """Yield repetition indices until the next would overrun."""
        started = time.perf_counter()
        rep = 0
        while True:
            rep_started = time.perf_counter()
            yield rep
            rep += 1
            now = time.perf_counter()
            if now - started + (now - rep_started) > self.seconds:
                return

    def warm_up(self) -> None:
        """One untimed set-up, so lazy imports are not timed as set-up."""
        config = self.workload.config_for(rep_seed(self.seed, 0))
        self.workload.make_engine(config, build_system(config))

    def one_run(self, rep: int, mode: str, recorder: SpanRecorder | None = None,
                profiler: HotLoopProfile | None = None) -> dict:
        """Set up and run repetition ``rep``; returns its record.

        ``mode`` labels the record (``plain``, ``traced``, ``profiled``).
        A completed run's record holds its setup and run seconds,
        simulated slots and statistics digest.
        """
        workload = self.workload
        config = workload.config_for(rep_seed(self.seed, rep))
        record: dict = {"rep": rep, "mode": mode, "seed": config.run.seed}
        self.attempted += 1
        gc.collect()  # the previous run's garbage is not this run's cost
        try:
            started = time.perf_counter()
            state = build_system(config)
            engine = workload.make_engine(config, state, profiler=profiler)
            setup_done = time.perf_counter()
            if recorder is not None:
                install(recorder, state, engine)
            run_started = time.perf_counter_ns()
            result = engine.run()
            run_ns = time.perf_counter_ns() - run_started
        except Exception as exc:  # a failed run is counted, not fatal
            record.update(ok=False, problems=["".join(
                traceback.format_exception_only(type(exc), exc)).strip()])
            self.failed += 1
            return record
        problems = check_result(workload, result)
        record.update(ok=not problems, problems=problems,
                      setup_s=setup_done - started, run_s=run_ns / 1e9,
                      run_ns=run_ns, total_slots=result.total_slots,
                      digest=digest(result))
        if problems:
            self.failed += 1
        if self.manifest is None:
            self.manifest = result.manifest
        return record

    def fail(self, record: dict, problem: str) -> None:
        """Mark a completed run as failed after the fact."""
        record["ok"] = False
        record["problems"].append(problem)
        self.failed += 1


def measure_plain(bench: Bench) -> dict[str, float]:
    """The end-to-end metrics, from untraced repetitions."""
    for rep in bench.repetitions():
        bench.reps.append(bench.one_run(rep, "plain"))
    ok = [r for r in bench.reps if r["ok"]]
    if not ok:
        return {}
    return {
        "run_s": statistics.median(r["run_s"] for r in ok),
        "slots_per_s": statistics.median(r["total_slots"] / r["run_s"]
                                         for r in ok),
        "setup_s": statistics.median(r["setup_s"] for r in ok),
        "peak_rss_mb": _peak_rss_mb(),
    }


def measure_traced(bench: Bench) -> tuple[dict[str, float], list[dict]]:
    """The per-layer metrics, from traced runs with untraced twins.

    Returns the metrics and each traced repetition's span tables.
    """
    profiled = bench.workload.engine == "fast"
    per_rep: list[dict[str, float]] = []
    spans: list[dict] = []
    for rep in bench.repetitions():
        modes = ["plain", "traced"] + (["profiled"] if profiled else [])
        if rep % 2:
            modes.reverse()  # alternate the order so host drift cancels
        recorder = SpanRecorder()
        records = {}
        for mode in modes:
            records[mode] = bench.one_run(
                rep, mode,
                recorder=recorder if mode == "traced" else None,
                profiler=HotLoopProfile() if mode == "profiled" else None)
            bench.reps.append(records[mode])
        if not all(r["ok"] for r in records.values()):
            continue
        plain = records["plain"]
        for mode in modes:
            if records[mode]["digest"] != plain["digest"]:
                bench.fail(records[mode],
                           f"{mode} RunResult differs from the untraced run")
        if not all(r["ok"] for r in records.values()):
            continue
        values = layer_metrics(recorder, records["traced"]["run_ns"])
        values["trace.overhead_ratio"] = (records["traced"]["run_s"]
                                          / plain["run_s"])
        values["profile.overhead_ratio"] = (
            records["profiled"]["run_s"] / plain["run_s"] if profiled
            else 0.0)
        per_rep.append(values)
        spans.append({"rep": rep,
                      "spans": {name: span.to_dict() for name, span
                                in sorted(recorder.spans.items())},
                      "events": recorder.events})
    if not per_rep:
        return {}, spans
    # Counts come from the first repetition, so they repeat exactly for a
    # seed; times are medians over repetitions.
    return ({m.name: per_rep[0][m.name] if m.exact else statistics.median(
                 values[m.name] for values in per_rep)
             for m in LAYER_METRICS}, spans)


def report(workload_name: str, seed: int, seconds: float,
           trace: bool) -> int:
    """Measure, write the full record, print the summary and result line.

    Returns the process exit code.
    """
    workload = WORKLOADS.get(workload_name)
    if workload is None:
        raise SystemExit(f"unknown workload {workload_name!r}; "
                         f"known: {', '.join(WORKLOADS)}")
    bench = Bench(workload, seed, seconds)
    bench.warm_up()
    if trace:
        metrics, spans = measure_traced(bench)
        units = {m.name: m.unit for m in LAYER_METRICS}
    else:
        metrics, spans = measure_plain(bench), []
        units = END_TO_END_UNITS
    failed_frac = bench.failed / bench.attempted
    prov = provenance()
    record = {
        "workload": {"name": workload.name, "why": workload.why,
                     "engine": workload.engine,
                     "config": config_to_dict(workload.config)},
        "seed": seed, "seconds": seconds, "trace": int(trace),
        "provenance": prov, "manifest": bench.manifest,
        "attempted": bench.attempted, "failed": bench.failed,
        "failed_frac": failed_frac, "metrics": metrics,
        "repetitions": bench.reps, "spans": spans,
    }
    if trace:
        record["layers"] = [m._asdict() for m in LAYER_METRICS]
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / (f"{workload.name}-seed{seed}-"
                     f"{'trace' if trace else 'plain'}.json")
    out.write_text(json.dumps(record, indent=1, default=repr) + "\n")

    plain_reps = sum(r["mode"] == "plain" for r in bench.reps)
    print(f"workload {workload.name} ({workload.engine} engine), seed {seed}, "
          f"{'traced' if trace else 'untraced'}, {plain_reps} untraced runs")
    print(f"host {prov['host']}, {prov['cpus_usable']}/{prov['cpu_count']} "
          f"cpus, python {prov['python_version']}, numpy "
          f"{prov['numpy_version']}, git {prov['git_revision']}, "
          f"src sha256 {prov['source_sha256'][:12]}")
    if bench.reps and "digest" in bench.reps[0]:
        print(f"statistics digest of repetition 0: {bench.reps[0]['digest']}")
    for r in bench.reps:
        for problem in [] if r["ok"] else r["problems"]:
            print(f"FAILED rep {r['rep']} ({r['mode']}): {problem}")
    for name, value in metrics.items():
        print(f"  {name:34} {value:>16.6g} {units[name]}")
    print(f"  {'failed_frac':34} {failed_frac:>16.6g} ratio")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": bench.failed == 0 and bool(metrics),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if metrics else 1
