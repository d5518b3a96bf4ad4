"""Command-line interface: ``repro-broadcast`` / ``python -m repro``.

Subcommands:

- ``figures`` — regenerate one or all of the paper's figures and print
  the series as tables (optionally saving JSON and slot traces),
- ``simulate`` — run a single configured system and dump its metrics
  (``--metrics`` adds a metrics-registry snapshot via the same adapter
  the network server exports through),
- ``serve`` — serve one configured system over TCP with a wall-clock
  slot clock (``--self-test`` runs the loopback server+fleet sweep and
  checks the latency ordering against the simulator),
- ``loadgen`` — drive a running ``serve`` instance with a client fleet
  and report wall-clock latencies,
- ``trace`` — run one system with a tracer attached and write a trace
  (one record per broadcast slot, or per measured-client access with
  ``--requests``) as JSONL or columnar ``.npy`` (``--format``, or
  auto-detected from the output suffix),
- ``report`` — summarize a saved figure JSON (tables, quantiles,
  provenance) or a JSONL / columnar trace (wait breakdown) in the
  terminal,
- ``compare`` — diff two saved figure JSONs (same figure, different
  code versions) and flag series drift beyond replicate noise
  (Welch's t-test per point, tolerance fallback; exit 0 match /
  1 drift / 2 structural, see docs/COMPARE.md),
- ``fleet-sweep`` — sweep PullBW with a per-user client fleet and plot
  fairness statistics (per-user p99, wait dispersion, Jain's index);
  ``--parity`` instead validates a homogeneous fleet against its
  aggregate-VC equivalent through the compare harness (same exit-code
  contract; see docs/FLEET.md),
- ``sched-sweep`` — sweep PullBW once per pull-queue discipline (FIFO /
  RxW / LWF) with a client fleet attached, plotting mean response next
  to the fleet wait tail (p99 / max) so the discipline choice's effect
  under saturation is visible; emits compare-ready figure JSON (see
  docs/SCHEDULERS.md),
- ``convert`` — convert a trace between JSONL and columnar ``.npy``
  losslessly, in either direction,
- ``profile`` — run the fast engine with phase timers and print the
  per-phase wall-time breakdown,
- ``program`` — show a broadcast program's layout and analytic delays,
- ``tune`` — recommend IPP knob settings for a load range,
- ``lint`` — domain-aware static analysis (determinism, seed discipline,
  cross-engine parity; see docs/STATIC_ANALYSIS.md),
- ``sanitize`` — runtime determinism check: replay one configured system
  twice per engine (including once in a subprocess under a different
  ``PYTHONHASHSEED``) and diff the slot traces bit-exactly, reporting
  the first divergent slot (exit 0 deterministic / 1 divergence /
  2 error).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.core.algorithms import Algorithm
from repro.core.config import SystemConfig
from repro.core.fast import simulate
from repro.experiments import ALL_FIGURES, FULL, QUICK, Profile, render_figure
from repro.experiments.reporting import render_ascii_chart
from repro.obs.events import SCHEDULER_DISCIPLINES

__all__ = ["main", "build_parser"]


def _version() -> str:
    """Package version from installed metadata, source tree as fallback."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:  # pragma: no cover - metadata always present when installed
        from repro import __version__
        return __version__


def _add_system_args(parser: argparse.ArgumentParser) -> None:
    """The single-system knobs shared by simulate / trace / profile."""
    parser.add_argument("--algorithm", choices=[a.value for a in Algorithm],
                        default="ipp")
    parser.add_argument("--ttr", type=float, default=10.0,
                        help="ThinkTimeRatio (client population scale)")
    parser.add_argument("--pull-bw", type=float, default=0.5)
    parser.add_argument("--thresh-perc", type=float, default=0.0)
    parser.add_argument("--steady-state-perc", type=float, default=0.95)
    parser.add_argument("--noise", type=float, default=0.0)
    parser.add_argument("--chop", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--settle", type=int, default=4000)
    parser.add_argument("--measure", type=int, default=5000)
    parser.add_argument(
        "--fleet-clients", type=int, default=0, metavar="N",
        help="add a per-user client fleet of N individually tracked "
             "clients (0 = disabled; see docs/FLEET.md)")
    parser.add_argument(
        "--fleet-think-time", type=float, default=4000.0, metavar="UNITS",
        help="mean fleet-client think time in broadcast units")
    parser.add_argument(
        "--fleet-think-spread", type=float, default=0.0, metavar="FRAC",
        help="per-client think-time spread fraction in [0, 1]")
    parser.add_argument(
        "--fleet-offset-spread", type=int, default=0, metavar="PAGES",
        help="per-client popularity-ranking rotation drawn from [0, N]")
    parser.add_argument(
        "--fleet-cache-size", type=int, default=100, metavar="PAGES",
        help="fleet warm-cache size (steady-state absorption)")
    parser.add_argument(
        "--fleet-cache-spread", type=float, default=0.0, metavar="FRAC",
        help="per-client cache-size spread fraction in [0, 1]")


def _system_config(args) -> SystemConfig:
    """Build the configured system from simulate-style arguments.

    ``--figure`` (trace / profile only) swaps in that figure's
    representative sweep point; the run-scale knobs (--seed, --settle,
    --measure) still apply on top.
    """
    figure = getattr(args, "figure", None)
    if figure is not None:
        from repro.experiments.points import REPRESENTATIVE_POINTS

        config = REPRESENTATIVE_POINTS.get(figure)
        if config is None:
            known = ", ".join(sorted(REPRESENTATIVE_POINTS))
            raise SystemExit(f"unknown figure id {figure!r} (known: {known})")
    else:
        config = SystemConfig(algorithm=Algorithm(args.algorithm)).with_(
            client__think_time_ratio=args.ttr,
            client__steady_state_perc=args.steady_state_perc,
            client__noise=args.noise,
            server__pull_bw=args.pull_bw,
            server__thresh_perc=args.thresh_perc,
            server__chop=args.chop,
        )
    if getattr(args, "fleet_clients", 0):
        config = config.with_(
            fleet__num_clients=args.fleet_clients,
            fleet__think_time=args.fleet_think_time,
            fleet__think_time_spread=args.fleet_think_spread,
            fleet__zipf_offset_spread=args.fleet_offset_spread,
            fleet__cache_size=args.fleet_cache_size,
            fleet__cache_size_spread=args.fleet_cache_spread,
        )
    return config.with_(
        run__seed=args.seed,
        run__settle_accesses=args.settle,
        run__measure_accesses=args.measure,
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro-broadcast",
        description="Reproduction of 'Balancing Push and Pull for Data "
                    "Broadcast' (SIGMOD 1997)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)

    figures = sub.add_parser(
        "figures", help="regenerate the paper's figures")
    figures.add_argument(
        "ids", nargs="*", metavar="FIG",
        help=f"figure ids ({', '.join(ALL_FIGURES)}); default: all")
    figures.add_argument(
        "--full", action="store_true",
        help="paper-scale runs (slow); default is the quick profile")
    figures.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width for the sweeps (default: the profile's "
             "own width; --full uses every core)")
    figures.add_argument(
        "--seed", type=int, default=42, help="base RNG seed")
    figures.add_argument(
        "--json", type=Path, default=None, metavar="DIR",
        help="also write one JSON file per figure into DIR")
    figures.add_argument(
        "--trace", type=Path, default=None, metavar="DIR",
        help="also write a slot trace of each figure's representative "
             "point into DIR")
    figures.add_argument(
        "--trace-format", choices=("jsonl", "columnar"), default="jsonl",
        help="on-disk format for --trace captures (columnar = "
             "memory-mappable .npy; default: jsonl)")
    figures.add_argument(
        "--drop-rates", action="store_true",
        help="print server drop-rate tables as well")
    figures.add_argument(
        "--chart", action="store_true",
        help="also plot each figure as an ASCII chart")
    figures.add_argument(
        "--watch", action=argparse.BooleanOptionalAction, default=None,
        help="live sweep dashboard on stderr (completed/total replicates, "
             "running means, ETA); default: on when stderr is a tty")

    one = sub.add_parser("simulate", help="run one configured system")
    _add_system_args(one)
    one.add_argument(
        "--metrics", action="store_true",
        help="include a metrics-registry snapshot (same instrument names "
             "a live serve instance reports over STATS frames)")

    serve = sub.add_parser(
        "serve", help="serve one configured system over TCP (asyncio)")
    _add_system_args(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0,
        help="TCP port to bind (default: 0 = ephemeral, printed at start)")
    serve.add_argument(
        "--slot-duration", type=float, default=0.005, metavar="SECONDS",
        help="wall-clock seconds per broadcast slot (default: 0.005)")
    serve.add_argument(
        "--slots", type=int, default=None, metavar="N",
        help="stop after N slots (default: run until interrupted; "
             "--self-test default: 2000)")
    serve.add_argument(
        "--send-queue", type=int, default=256, metavar="FRAMES",
        help="per-connection send-queue capacity (default: 256)")
    serve.add_argument(
        "--drop-after", type=int, default=64, metavar="FRAMES",
        help="consecutive shed frames before a slow client is dropped")
    serve.add_argument(
        "--self-test", action="store_true",
        help="loopback mode: server + client fleet in-process, swept over "
             "PullBW and checked against the simulator's p90 ordering")
    serve.add_argument(
        "--clients", type=int, default=200,
        help="(self-test) fleet size (default: 200)")
    serve.add_argument(
        "--think-time", type=float, default=200.0, metavar="UNITS",
        help="(self-test) mean client think time in broadcast units")
    serve.add_argument(
        "--stats-json", type=Path, default=None, metavar="FILE",
        help="write the final stats (self-test: figure-schema JSON that "
             "'report' renders) to FILE")
    serve.add_argument(
        "--watch", action="store_true",
        help="render a live stats dashboard to stderr once per second "
             "(slot, clients, queue, slot mix, net counters)")

    loadgen = sub.add_parser(
        "loadgen", help="drive a running serve instance with a client fleet")
    _add_system_args(loadgen)
    loadgen.add_argument("--host", default="127.0.0.1")
    loadgen.add_argument("--port", type=int, required=True,
                         help="the serve instance's TCP port")
    loadgen.add_argument(
        "--slot-duration", type=float, default=0.005, metavar="SECONDS",
        help="the server's nominal slot duration (used to convert think "
             "times; latencies are normalized by the observed duration)")
    loadgen.add_argument("--clients", type=int, default=200)
    loadgen.add_argument(
        "--think-time", type=float, default=200.0, metavar="UNITS",
        help="mean client think time in broadcast units (default: 200)")
    loadgen.add_argument(
        "--duration", type=float, default=10.0, metavar="SECONDS",
        help="how long to generate load (default: 10s)")
    loadgen.add_argument(
        "--settle-slots", type=int, default=0, metavar="N",
        help="exclude requests issued before server slot N")
    loadgen.add_argument(
        "--stats-json", type=Path, default=None, metavar="FILE",
        help="write the fleet's result JSON to FILE")
    loadgen.add_argument(
        "--watch", action="store_true",
        help="poll the server for STATS once per second and render a live "
             "dashboard to stderr while generating load")

    trace = sub.add_parser(
        "trace", help="run one system and write a slot-level JSONL trace")
    _add_system_args(trace)
    trace.add_argument(
        "--figure", default=None, metavar="FIG",
        help="trace this figure's representative sweep point instead of "
             "the --algorithm/--ttr/... knobs")
    trace.add_argument(
        "--engine", choices=("fast", "reference"), default="fast",
        help="which engine to trace (default: fast)")
    trace.add_argument(
        "--out", type=Path, default=Path("trace.jsonl"), metavar="FILE",
        help="output path (default: trace.jsonl)")
    trace.add_argument(
        "--requests", action="store_true",
        help="trace measured-client request lifecycles (one record per "
             "access) instead of broadcast slots")
    trace.add_argument(
        "--format", choices=("auto", "jsonl", "columnar"), default="auto",
        help="trace encoding: jsonl (text), columnar (memory-mappable "
             ".npy), or auto by --out suffix (default)")
    trace_sampling = trace.add_mutually_exclusive_group()
    trace_sampling.add_argument(
        "--sample-every", type=int, default=None, metavar="N",
        help="(--requests) trace 1 access in N deterministically; "
             "breakdown and quantiles are inverse-probability corrected")
    trace_sampling.add_argument(
        "--reservoir", type=int, default=None, metavar="K",
        help="(--requests) keep a seeded uniform reservoir of K records "
             "regardless of run length (seeded from --seed)")

    report = sub.add_parser(
        "report", help="summarize a saved figure JSON or JSONL trace")
    report.add_argument(
        "path", nargs="?", type=Path, default=None, metavar="FIGURE_JSON",
        help="a results/figure_*.json file to render")
    report.add_argument(
        "--trace", type=Path, default=None, metavar="FILE",
        help="summarize a JSONL or columnar .npy trace (slot or request "
             "records) instead")
    report.add_argument(
        "--think-time", type=float, default=None, metavar="UNITS",
        help="think time per access, to fill the think row of a request-"
             "trace wait breakdown")

    from repro.experiments.compare import DEFAULT_ALPHA, DEFAULT_TOLERANCE

    compare = sub.add_parser(
        "compare",
        help="diff two saved figure JSONs for drift beyond replicate noise")
    compare.add_argument("a", type=Path, metavar="A_JSON",
                         help="reference figure JSON (left side)")
    compare.add_argument("b", type=Path, metavar="B_JSON",
                         help="candidate figure JSON (right side)")
    compare.add_argument(
        "--alpha", type=float, default=DEFAULT_ALPHA,
        help="two-sided significance for the per-point Welch's t-test "
             f"on means (default: {DEFAULT_ALPHA})")
    compare.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help="combined absolute/relative tolerance used when replicate "
             "noise is unavailable (v1 archives, single replicates, zero "
             "stddev) and for drop rates / quantiles "
             f"(default: {DEFAULT_TOLERANCE})")
    compare.add_argument(
        "--series", default=None, metavar="LABELS",
        help="comma-separated series labels to compare (default: all)")
    compare.add_argument(
        "--format", choices=("table", "json"), default="table",
        help="report rendering (default: table)")

    fleet = sub.add_parser(
        "fleet-sweep",
        help="sweep PullBW with per-user fleet fairness statistics")
    fleet.add_argument(
        "--clients", type=int, default=10_000,
        help="fleet population per run (default: 10000)")
    fleet.add_argument(
        "--think-time", type=float, default=None, metavar="UNITS",
        help="mean client think time (default: scaled with --clients to a "
             "ThinkTimeRatio-25 aggregate load)")
    fleet.add_argument(
        "--homogeneous", action="store_true",
        help="disable the per-client heterogeneity spreads")
    fleet.add_argument(
        "--full", action="store_true",
        help="paper-scale runs (slow); default is the quick profile")
    fleet.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width for the sweep")
    fleet.add_argument("--seed", type=int, default=42,
                       help="base RNG seed")
    fleet.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the figure (or parity report) JSON to FILE")
    fleet.add_argument(
        "--chart", action="store_true",
        help="also plot the figure as an ASCII chart")
    fleet.add_argument(
        "--parity", action="store_true",
        help="instead check a homogeneous fleet against its aggregate-VC "
             "equivalent (compare-harness exit codes: 0 parity / 1 drift "
             "/ 2 structural)")
    fleet.add_argument(
        "--parity-clients", type=int, default=200, metavar="N",
        help="(--parity) homogeneous fleet size (default: 200)")

    sched = sub.add_parser(
        "sched-sweep",
        help="sweep PullBW once per pull-queue discipline (FIFO/RxW/LWF)")
    sched.add_argument(
        "--disciplines", default=",".join(SCHEDULER_DISCIPLINES),
        metavar="LIST",
        help="comma-separated disciplines to sweep "
             f"(default: {','.join(SCHEDULER_DISCIPLINES)})")
    sched.add_argument(
        "--aging", type=float, default=1.0,
        help="RxW aging exponent (default: 1.0; 0 = pure waiter count)")
    sched.add_argument(
        "--clients", type=int, default=2000,
        help="fleet population per run (default: 2000)")
    sched.add_argument(
        "--full", action="store_true",
        help="paper-scale runs (slow); default is the quick profile")
    sched.add_argument(
        "--workers", type=int, default=None,
        help="process-pool width for the sweep")
    sched.add_argument("--seed", type=int, default=42,
                       help="base RNG seed")
    sched.add_argument(
        "--json", type=Path, default=None, metavar="FILE",
        help="also write the figure JSON to FILE")
    sched.add_argument(
        "--chart", action="store_true",
        help="also plot the figure as an ASCII chart")

    convert = sub.add_parser(
        "convert", help="convert a trace between JSONL and columnar .npy")
    convert.add_argument(
        "src", type=Path, metavar="SRC",
        help="source trace (.jsonl or .npy)")
    convert.add_argument(
        "dst", type=Path, metavar="DST",
        help="destination trace (the other format; direction is chosen "
             "from the suffixes)")

    profile_cmd = sub.add_parser(
        "profile", help="time the fast engine's hot-loop phases")
    _add_system_args(profile_cmd)
    profile_cmd.add_argument(
        "--figure", default=None, metavar="FIG",
        help="profile this figure's representative sweep point")

    prog = sub.add_parser("program", help="inspect a broadcast program")
    prog.add_argument("--cache-size", type=int, default=100)
    prog.add_argument("--chop", type=int, default=0)
    prog.add_argument("--no-offset", action="store_true")

    tune = sub.add_parser(
        "tune", help="recommend IPP knob settings for a load range")
    tune.add_argument("--loads", default="10,50,250",
                      help="comma-separated ThinkTimeRatio range")
    tune.add_argument("--pull-bw", default="0.3,0.5",
                      help="comma-separated PullBW candidates")
    tune.add_argument("--thresh-perc", default="0,0.25,0.35",
                      help="comma-separated ThresPerc candidates")
    tune.add_argument("--chop", default="0",
                      help="comma-separated chop-depth candidates")
    tune.add_argument("--objective", choices=("worst_case", "mean"),
                      default="worst_case")
    tune.add_argument("--settle", type=int, default=500)
    tune.add_argument("--measure", type=int, default=800)
    tune.add_argument("--replicates", type=int, default=1)
    tune.add_argument("--seed", type=int, default=42)

    lint = sub.add_parser(
        "lint", help="domain static analysis: determinism, seeds, parity")
    from repro.lint.cli import add_arguments as add_lint_arguments

    add_lint_arguments(lint)

    sanitize = sub.add_parser(
        "sanitize",
        help="runtime determinism check: replay a config per engine and "
             "diff the slot traces bit-exactly")
    _add_system_args(sanitize)
    sanitize.add_argument(
        "--figure", default=None, metavar="FIG",
        help="sanitize this figure's representative sweep point instead "
             "of the --algorithm/--ttr/... knobs")
    sanitize.add_argument(
        "--engine", choices=("both", "fast", "reference"), default="both",
        help="which engine(s) to replay (default: both)")
    sanitize.add_argument(
        "--hash-seed", default=None, metavar="SEED",
        help="PYTHONHASHSEED for the subprocess replay (default: 31337)")
    sanitize.add_argument(
        "--no-hashseed", action="store_true",
        help="skip the subprocess replay (in-process replays only)")
    sanitize.add_argument(
        "--inject-divergence", type=int, default=None, metavar="SLOT",
        help="self-test hook: perturb the in-process replay from SLOT "
             "onward, proving the diff trips and names the slot")
    sanitize.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report rendering (default: text)")

    return parser


def _write_request_trace(config: SystemConfig, path: Path,
                         engine: str = "fast", fmt: str = "auto",
                         sampling=None) -> int:
    """Request-trace ``config`` into a file; prints the breakdown."""
    from repro.experiments.tracing import write_request_trace

    tracer = write_request_trace(config, path, engine=engine, fmt=fmt,
                                 sampling=sampling)
    print(tracer.breakdown().render())
    quantiles = tracer.wait_quantiles()
    if quantiles:
        print("measured miss wait quantiles: "
              + "  ".join(f"{k}={v:.1f}" for k, v in quantiles.items()))
    if sampling is not None:
        meta = sampling.describe()
        print(f"sampling: {meta['policy']} kept {meta['sampled']} of "
              f"{meta['seen']} accesses (aggregates are weighted "
              f"estimates)")
    return tracer.records_emitted


def _cmd_figures(args) -> int:
    ids = args.ids or list(ALL_FIGURES)
    unknown = [i for i in ids if i not in ALL_FIGURES]
    if unknown:
        print(f"unknown figure id(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    base = FULL if args.full else QUICK
    profile = Profile(
        settle_accesses=base.settle_accesses,
        measure_accesses=base.measure_accesses,
        replicates=base.replicates,
        workers=args.workers if args.workers is not None else base.workers,
        base_seed=args.seed,
    )
    if args.json is not None:
        args.json.mkdir(parents=True, exist_ok=True)
    if args.trace is not None:
        args.trace.mkdir(parents=True, exist_ok=True)
    watch = (sys.stderr.isatty() if args.watch is None else args.watch)
    for fig_id in ids:
        # lint: allow[REP001] -- wall-clock elapsed time for user-facing
        started = time.perf_counter()
        if watch:
            from repro.experiments.base import sweep_progress
            from repro.obs.dashboard import Dashboard, SweepMonitor

            monitor = SweepMonitor(dashboard=Dashboard(),
                                   title=f"figure {fig_id}")
            with sweep_progress(monitor):
                figure = ALL_FIGURES[fig_id](profile)
            monitor.finish()
        else:
            figure = ALL_FIGURES[fig_id](profile)
        # lint: allow[REP001] -- figure-regeneration reporting, not sim time
        elapsed = time.perf_counter() - started
        if figure.manifest is not None:
            figure.manifest["elapsed_seconds"] = elapsed
        print(render_figure(figure, show_drop_rates=args.drop_rates))
        if args.chart:
            print()
            print(render_ascii_chart(figure))
        print(f"[figure {fig_id} regenerated in {elapsed:.1f}s]\n")
        if args.json is not None:
            path = args.json / f"figure_{fig_id}.json"
            path.write_text(json.dumps(figure.to_dict(), indent=2))
        if args.trace is not None:
            from repro.experiments.tracing import trace_representative

            trace_path, emitted = trace_representative(
                fig_id, profile, args.trace, fmt=args.trace_format)
            print(f"[trace {fig_id}: {emitted} slot records -> "
                  f"{trace_path}]\n")
    return 0


def _cmd_simulate(args) -> int:
    config = _system_config(args)
    if not args.metrics:
        print(json.dumps(simulate(config).to_dict(), indent=2))
        return 0
    from repro.core.fast import FastEngine
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.server_metrics import bind_server_metrics

    engine = FastEngine(config)
    result = engine.run()
    registry = MetricsRegistry()
    bind_server_metrics(registry, engine.state.server)
    if engine.state.fleet is not None:
        from repro.fleet.metrics import bind_fleet_metrics

        bind_fleet_metrics(registry, engine.state.fleet)
    output = result.to_dict()
    output["metrics"] = registry.snapshot()
    print(json.dumps(output, indent=2))
    return 0


def _cmd_serve(args) -> int:
    import asyncio

    config = _system_config(args)
    if args.self_test:
        from repro.experiments.reporting import render_figure as render
        from repro.net.selftest import SelfTestSettings, run_selftest

        settings = SelfTestSettings(
            num_clients=args.clients,
            slots=args.slots if args.slots is not None else 2000,
            slot_duration=args.slot_duration,
            think_time=args.think_time,
            seed=args.seed,
        )
        result = run_selftest(config, settings)
        if args.stats_json is not None:
            args.stats_json.parent.mkdir(parents=True, exist_ok=True)
            args.stats_json.write_text(
                json.dumps(result.figure.to_dict(), indent=2))
            print(f"[self-test figure JSON -> {args.stats_json}]")
        print(render(result.figure))
        for diag in result.diagnostics:
            fleet = diag["fleet"]
            print(f"  pull_bw={diag['pull_bw']:g}: "
                  f"{fleet['measured_latencies']} measured latencies, "
                  f"{fleet['censored']} censored, "
                  f"effective slot {fleet['effective_slot_duration']:.4g}s")
        verdict = "matches" if result.ordering_ok else "DOES NOT match"
        print(f"self-test: wall-clock p90 ordering {verdict} the "
              f"simulator's (fleet={result.fleet_p90}, "
              f"sim={result.sim_p90})")
        return 0 if result.ok else 1

    from repro.net.server import NetServer, NetServerSettings

    async def _serve():
        server = NetServer(config, NetServerSettings(
            host=args.host, port=args.port,
            slot_duration=args.slot_duration,
            send_queue_frames=args.send_queue,
            drop_after=args.drop_after,
            max_slots=args.slots))
        await server.start()
        print(f"serving {config.algorithm.value} on "
              f"{args.host}:{server.port} "
              f"(slot {args.slot_duration}s"
              + (f", {args.slots} slots)" if args.slots else ")"),
              flush=True)
        watch_task = None
        if args.watch:
            from repro.obs.dashboard import Dashboard, render_stats_frame

            dashboard = Dashboard(interval=0.0)

            async def _watch():
                title = f"serve :{server.port}"
                while True:
                    await asyncio.sleep(1.0)
                    dashboard.show(
                        render_stats_frame(server.stats_snapshot(), title),
                        force=True)

            watch_task = asyncio.create_task(_watch())
        try:
            if args.slots is not None:
                await server.wait_finished()
            else:
                await asyncio.Event().wait()  # until interrupted
            return server.stats_snapshot()
        finally:
            if watch_task is not None:
                watch_task.cancel()
            await server.stop()

    try:
        stats = asyncio.run(_serve())
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    if args.stats_json is not None:
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(json.dumps(stats, indent=2))
        print(f"[stats JSON -> {args.stats_json}]")
    else:
        print(json.dumps(stats, indent=2))
    return 0


def _cmd_loadgen(args) -> int:
    import asyncio

    from repro.net.client import ClientFleet, FleetSettings

    config = _system_config(args)

    async def _drive():
        fleet = ClientFleet(
            config, args.host, args.port, args.slot_duration,
            FleetSettings(num_clients=args.clients,
                          think_time=args.think_time,
                          settle_slots=args.settle_slots),
            seed=args.seed)
        await fleet.start()
        if not args.watch:
            await asyncio.sleep(args.duration)
            return await fleet.stop(fetch_stats=True)
        from repro.obs.dashboard import Dashboard, render_stats_frame

        dashboard = Dashboard(interval=0.0)
        loop = asyncio.get_running_loop()
        deadline = loop.time() + args.duration
        title = f"loadgen -> {args.host}:{args.port}"
        while True:
            remaining = deadline - loop.time()
            if remaining <= 0:
                break
            await asyncio.sleep(min(1.0, remaining))
            stats = await fleet.fetch_stats()
            if stats is None:  # every connection is down
                continue
            # Fleet-side metrics share the frame with the server's stats,
            # so one dashboard shows both ends of the wire.
            stats = dict(stats)
            stats.setdefault("metrics", {}).update(
                fleet.registry.snapshot())
            dashboard.show(render_stats_frame(stats, title), force=True)
        return await fleet.stop(fetch_stats=True)

    try:
        result = asyncio.run(_drive())
    except ConnectionRefusedError:
        print(f"loadgen: nothing listening on {args.host}:{args.port} "
              f"(start 'repro-broadcast serve' first)", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130
    output = result.to_dict()
    if args.stats_json is not None:
        args.stats_json.parent.mkdir(parents=True, exist_ok=True)
        args.stats_json.write_text(json.dumps(output, indent=2))
        print(f"[fleet JSON -> {args.stats_json}]")
    print(json.dumps({k: v for k, v in output.items()
                      if k != "server_stats"}, indent=2))
    return 0


def _cmd_trace(args) -> int:
    config = _system_config(args)
    if (args.sample_every is not None or args.reservoir is not None) \
            and not args.requests:
        print("trace: --sample-every/--reservoir require --requests "
              "(slot traces are not sampled)", file=sys.stderr)
        return 2
    if args.requests:
        sampling = None
        if args.sample_every is not None:
            from repro.obs.sampling import EveryNSampling

            sampling = EveryNSampling(args.sample_every)
        elif args.reservoir is not None:
            from repro.obs.sampling import ReservoirSampling

            sampling = ReservoirSampling(args.reservoir, seed=args.seed)
        emitted = _write_request_trace(config, args.out, engine=args.engine,
                                       fmt=args.format, sampling=sampling)
        print(f"{emitted} request records -> {args.out}")
    else:
        from repro.experiments.tracing import write_slot_trace

        emitted = write_slot_trace(config, args.out, engine=args.engine,
                                   fmt=args.format)
        print(f"{emitted} slot records -> {args.out}")
    return 0


def _cmd_compare(args) -> int:
    from repro.experiments.compare import compare_files
    from repro.experiments.reporting import render_compare

    series = None
    if args.series is not None:
        series = [label.strip() for label in args.series.split(",")
                  if label.strip()]
    try:
        comparison = compare_files(args.a, args.b, alpha=args.alpha,
                                   tolerance=args.tolerance, series=series)
    except (OSError, ValueError) as exc:
        print(f"compare: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(comparison.to_dict(), indent=2))
    else:
        print(render_compare(comparison))
    return comparison.exit_code


def _cmd_fleet_sweep(args) -> int:
    from repro.fleet import fleet_parity_report, fleet_sweep_figure

    base = FULL if args.full else QUICK
    profile = Profile(
        settle_accesses=base.settle_accesses,
        measure_accesses=base.measure_accesses,
        replicates=base.replicates,
        workers=args.workers if args.workers is not None else base.workers,
        base_seed=args.seed,
    )
    if args.parity:
        report = fleet_parity_report(profile,
                                     num_clients=args.parity_clients)
        if args.json is not None:
            args.json.parent.mkdir(parents=True, exist_ok=True)
            args.json.write_text(json.dumps(report, indent=2))
            print(f"[parity report JSON -> {args.json}]")
        verdict = report["comparison"]["verdict"]
        print(f"fleet parity: {args.parity_clients} homogeneous clients "
              f"vs aggregate VC (ThinkTimeRatio "
              f"{report['ttr_base']:g}+{report['fleet_ttr']:g})")
        print("  aggregate VC response: "
              + "  ".join(f"{y:.1f}" for y in report["aggregate_response"]))
        print("  fleet response:        "
              + "  ".join(f"{y:.1f}" for y in report["fleet_response"]))
        print(f"  response curves: {verdict}")
        print(f"  closed-loop rate: worst error "
              f"{report['worst_rate_error']:.2%} "
              f"(tolerance {report['rate_tolerance']:.0%}) -> "
              f"{'ok' if report['rate_ok'] else 'FAIL'}")
        print(f"  PullBW ordering preserved: "
              f"{'yes' if report['ordering_ok'] else 'NO'}")
        return report["exit_code"]

    figure = fleet_sweep_figure(
        profile, num_clients=args.clients, think_time=args.think_time,
        heterogeneous=not args.homogeneous)
    print(render_figure(figure))
    if args.chart:
        print()
        print(render_ascii_chart(figure))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(figure.to_dict(), indent=2))
        print(f"[figure JSON -> {args.json}]")
    return 0


def _cmd_sched_sweep(args) -> int:
    from repro.experiments.schedulers import (
        discipline_summary,
        render_summary,
        sched_sweep_figure,
    )

    disciplines = tuple(d.strip() for d in args.disciplines.split(",")
                        if d.strip())
    unknown = [d for d in disciplines if d not in SCHEDULER_DISCIPLINES]
    if not disciplines or unknown:
        print(f"sched-sweep: unknown discipline(s) "
              f"{', '.join(unknown) or '(none given)'} "
              f"(choose from {', '.join(SCHEDULER_DISCIPLINES)})",
              file=sys.stderr)
        return 2
    base = FULL if args.full else QUICK
    profile = Profile(
        settle_accesses=base.settle_accesses,
        measure_accesses=base.measure_accesses,
        replicates=base.replicates,
        workers=args.workers if args.workers is not None else base.workers,
        base_seed=args.seed,
    )
    figure = sched_sweep_figure(profile, disciplines=disciplines,
                                aging=args.aging, num_clients=args.clients)
    print(render_figure(figure))
    summary = discipline_summary(figure)
    print(f"\nat PullBW {figure.series[0].x[0]:g} (most saturated point):")
    print(render_summary(summary))
    if args.chart:
        print()
        print(render_ascii_chart(figure))
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps(figure.to_dict(), indent=2))
        print(f"[figure JSON -> {args.json}]")
    return 0


def _cmd_convert(args) -> int:
    from repro.obs.columnar import columnar_to_jsonl, jsonl_to_columnar

    if (args.src.suffix == ".npy") == (args.dst.suffix == ".npy"):
        print("convert: exactly one of SRC/DST must be a columnar .npy "
              "trace (the other is treated as JSONL)", file=sys.stderr)
        return 2
    try:
        if args.src.suffix == ".npy":
            args.dst.parent.mkdir(parents=True, exist_ok=True)
            count = columnar_to_jsonl(args.src, args.dst)
        else:
            args.dst.parent.mkdir(parents=True, exist_ok=True)
            count = jsonl_to_columnar(args.src, args.dst)
    except (FileNotFoundError, ValueError) as exc:
        print(f"convert: {exc}", file=sys.stderr)
        return 2
    print(f"{count} records: {args.src} -> {args.dst}")
    return 0


def _load_trace_array(path: Path):
    """A trace file as a columnar array, or None when it holds no record.

    ``.npy`` traces load memory-mapped; JSONL traces are read into
    records (the table sniffed from the first one) and converted.
    """
    from repro.obs.columnar import (
        _sniff_jsonl_table,
        load_columnar,
        records_to_array,
    )
    from repro.obs.requests import RequestRecord
    from repro.obs.trace import SlotRecord, read_jsonl

    if path.suffix == ".npy":
        array = load_columnar(path)
        return array if array.shape[0] else None
    with path.open() as handle:
        first = next((line for line in handle if line.strip()), None)
    if first is None:
        return None
    table = _sniff_jsonl_table(json.loads(first))
    cls = RequestRecord if table == "request" else SlotRecord
    return records_to_array(read_jsonl(path, cls=cls), table=table)


def _report_trace(path: Path, think_time) -> int:
    """Summarize a trace file (slot or request records, either format).

    Both formats go through one columnar summary: breakdowns via the
    vectorized column reductions, quantiles as exact order statistics.
    """
    import numpy as np

    from repro.obs.columnar import (
        breakdown_of_array,
        exact_quantiles,
        measured_miss_waits,
        slot_summary,
        table_of,
    )

    try:
        array = _load_trace_array(path)
    except (FileNotFoundError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if array is None:
        print(f"{path}: empty trace")
        return 2
    if table_of(array) == "request":
        measured = int(np.count_nonzero(array["measured"]))
        print(f"request trace: {array.shape[0]} records "
              f"({measured} measured) from {path}")
        print()
        print(breakdown_of_array(array, think_time=think_time).render())
        waits = measured_miss_waits(array)
        if waits.size:
            marks = exact_quantiles(waits)
            assert marks is not None
            print(f"measured miss wait quantiles: p50={marks['p50']:.1f}  "
                  f"p90={marks['p90']:.1f}  p99={marks['p99']:.1f}  "
                  f"max={waits.max():.1f}")
        return 0
    summary = slot_summary(array)
    print(f"slot trace: {summary['slots']} slots from {path}")
    print("  slots by kind: "
          + ", ".join(f"{k}={v}" for k, v in sorted(summary["kinds"].items())))
    print(f"  mean queue depth: {summary['mean_queue_depth']:.2f}")
    print(f"  requests dropped: {summary['dropped']}")
    return 0


def _cmd_report(args) -> int:
    if (args.path is None) == (args.trace is None):
        print("report: give exactly one of FIGURE_JSON or --trace FILE",
              file=sys.stderr)
        return 2
    if args.trace is not None:
        return _report_trace(args.trace, args.think_time)
    from repro.experiments.base import load_figure
    from repro.experiments.reporting import render_manifest, render_quantiles

    figure = load_figure(args.path)
    print(render_figure(figure))
    print()
    print("response-time quantiles (per series point):")
    print(render_quantiles(figure))
    print()
    print(render_manifest(figure.manifest))
    return 0


def _cmd_profile(args) -> int:
    from repro.obs.profile import profile_run

    config = _system_config(args)
    result, prof = profile_run(config)
    print(prof.render())
    print()
    print(f"response_miss mean : {result.response_miss.mean:.2f} "
          f"broadcast units over {result.response_miss.count} misses")
    print(f"drop rate          : {result.drop_rate:.1%}")
    return 0


def _cmd_program(args) -> int:
    from repro.core.build import build_push_program
    from repro.workload.zipf import zipf_probabilities

    config = SystemConfig(algorithm=Algorithm.IPP).with_(
        client__cache_size=args.cache_size,
        server__offset=not args.no_offset,
        server__chop=args.chop,
    )
    probs = zipf_probabilities(config.server.db_size,
                               config.client.zipf_theta)
    schedule = build_push_program(config, probs)
    assert schedule is not None
    print(f"major cycle: {len(schedule)} slots "
          f"({schedule.num_empty_slots} padding)")
    assert schedule.assignment is not None
    for index, disk in enumerate(schedule.assignment.disks, start=1):
        sample = ", ".join(str(p) for p in disk.pages[:5])
        print(f"disk {index}: {disk.size} pages @ rel_freq "
              f"{disk.rel_freq} (hottest: {sample}, ...)")
    for page in (0, 100, 500, 999):
        if page in schedule:
            print(f"page {page}: freq {schedule.frequency(page)}/cycle, "
                  f"E[delay] = {schedule.expected_delay(page):.1f}")
        else:
            print(f"page {page}: not broadcast (pull only)")
    return 0


def _cmd_sanitize(args) -> int:
    from repro.lint.sanitize import DEFAULT_HASH_SEED, sanitize_config

    if args.no_hashseed and args.hash_seed is not None:
        print("sanitize: --hash-seed and --no-hashseed are mutually "
              "exclusive", file=sys.stderr)
        return 2
    config = _system_config(args)
    engines = (("fast", "reference") if args.engine == "both"
               else (args.engine,))
    hash_seed = (None if args.no_hashseed
                 else args.hash_seed or DEFAULT_HASH_SEED)
    try:
        report = sanitize_config(
            config, engines=engines, hash_seed=hash_seed,
            inject_divergence=args.inject_divergence)
    except RuntimeError as exc:
        print(f"sanitize: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_tune(args) -> int:
    from repro.experiments.base import Profile
    from repro.tuning import TuningSpec, recommend

    def floats(text):
        return tuple(float(v) for v in text.split(",") if v)

    spec = TuningSpec(
        loads=floats(args.loads),
        pull_bw_grid=floats(args.pull_bw),
        thresh_grid=floats(args.thresh_perc),
        chop_grid=tuple(int(v) for v in args.chop.split(",") if v),
        objective=args.objective,
    )
    profile = Profile(settle_accesses=args.settle,
                      measure_accesses=args.measure,
                      replicates=args.replicates,
                      base_seed=args.seed)
    report = recommend(SystemConfig(algorithm=Algorithm.IPP), spec, profile)
    print(report.format())
    return 0


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "figures":
        return _cmd_figures(args)
    if args.command == "simulate":
        return _cmd_simulate(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadgen":
        return _cmd_loadgen(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "fleet-sweep":
        return _cmd_fleet_sweep(args)
    if args.command == "sched-sweep":
        return _cmd_sched_sweep(args)
    if args.command == "convert":
        return _cmd_convert(args)
    if args.command == "profile":
        return _cmd_profile(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "lint":
        from repro.lint.cli import run as run_lint_cli

        return run_lint_cli(args)
    if args.command == "sanitize":
        return _cmd_sanitize(args)
    return _cmd_program(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
