"""repro.obs — observability: tracing, metrics, profiling, trace diffing.

The simulators' only output used to be end-of-run aggregates; this package
opens the black box:

- :mod:`repro.obs.trace` — per-slot structured records through pluggable
  sinks (null / in-memory ring / JSONL file),
- :mod:`repro.obs.columnar` — the columnar trace backend: numpy
  structured-array sink with memory-mapped ``.npy`` persistence,
  lossless JSONL converters, and vectorized breakdown / exact-quantile
  analytics for million-record traces,
- :mod:`repro.obs.metrics` — a counters/gauges/histograms registry with a
  shared no-op mode for zero-cost disabled instrumentation, and the
  delta mirror that publishes a component's resettable counters into it,
- :mod:`repro.obs.profile` — the fast engine's hot-loop phase profile
  (slots/sec, per-phase wall-time breakdown),
- :mod:`repro.obs.compare` — trace diffing that pinpoints the first slot
  where two engine runs diverge,
- :mod:`repro.obs.requests` — request-lifecycle tracing: one record per
  measured-client access with a wait decomposition,
- :mod:`repro.obs.latency` — log-bucketed latency histograms with
  interpolated p50/p90/p99 quantiles,
- :mod:`repro.obs.sampling` — 1-in-N and seeded-reservoir sampling
  policies for the request tracer, with inverse-probability correction
  weights so sampled aggregates estimate the full population,
- :mod:`repro.obs.dashboard` — live terminal telemetry: sweep-progress
  monitor (``figures --watch``) and net STATS frame rendering (``serve
  --watch`` / ``loadgen --watch``) over one metrics vocabulary,
- :mod:`repro.obs.manifest` — run/sweep provenance manifests (seed,
  config, versions, timestamp),
- :mod:`repro.obs.server_metrics` — the mirror of the broadcast
  server's own slot/queue counters into a metrics registry, so
  simulated runs and the :mod:`repro.net` server share one
  metrics-export path.

Everything is opt-in: engines built without a tracer/profiler run the
exact pre-observability hot path.
"""

from repro.obs.columnar import (
    REQUEST_DTYPE,
    SLOT_DTYPE,
    ColumnarSink,
    array_to_records,
    breakdown_of_array,
    columnar_to_jsonl,
    exact_quantiles,
    jsonl_to_columnar,
    load_columnar,
    measured_miss_waits,
    records_to_array,
    slot_summary,
    table_of,
)
from repro.obs.compare import TraceDiff, capture_trace, compare_engines, diff_traces
from repro.obs.dashboard import (
    Dashboard,
    SweepMonitor,
    quantiles_from_bucket_snapshot,
    render_stats_frame,
)
from repro.obs.latency import LATENCY_BUCKETS, LatencyHistogram, log_buckets
from repro.obs.manifest import (
    MANIFEST_VERSION,
    config_to_dict,
    package_version,
    run_manifest,
    sweep_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsMirror,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.obs.profile import HotLoopProfile, profile_run
from repro.obs.sampling import (
    EveryNSampling,
    ReservoirSampling,
    SamplingPolicy,
    sample_stream,
)
from repro.obs.server_metrics import ServerMetricsAdapter, bind_server_metrics
from repro.obs.requests import (
    RequestRecord,
    RequestTracer,
    WaitBreakdown,
    breakdown_of,
    read_requests_jsonl,
)
from repro.obs.trace import (
    JsonlSink,
    MemorySink,
    NullSink,
    SlotRecord,
    SlotTracer,
    TraceSink,
    read_jsonl,
)

__all__ = [
    "SlotRecord",
    "SlotTracer",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "read_jsonl",
    "ColumnarSink",
    "SLOT_DTYPE",
    "REQUEST_DTYPE",
    "load_columnar",
    "table_of",
    "records_to_array",
    "array_to_records",
    "jsonl_to_columnar",
    "columnar_to_jsonl",
    "breakdown_of_array",
    "measured_miss_waits",
    "exact_quantiles",
    "slot_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsMirror",
    "NULL_REGISTRY",
    "HotLoopProfile",
    "profile_run",
    "TraceDiff",
    "diff_traces",
    "capture_trace",
    "compare_engines",
    "RequestRecord",
    "RequestTracer",
    "WaitBreakdown",
    "breakdown_of",
    "read_requests_jsonl",
    "LatencyHistogram",
    "LATENCY_BUCKETS",
    "log_buckets",
    "MANIFEST_VERSION",
    "config_to_dict",
    "package_version",
    "run_manifest",
    "sweep_manifest",
    "SamplingPolicy",
    "EveryNSampling",
    "ReservoirSampling",
    "sample_stream",
    "Dashboard",
    "SweepMonitor",
    "render_stats_frame",
    "quantiles_from_bucket_snapshot",
    "ServerMetricsAdapter",
    "bind_server_metrics",
]
