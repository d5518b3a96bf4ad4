"""Request-lifecycle tracing: one structured record per MC access.

PR 1's slot tracer shows what the *server* did each broadcast unit; this
module follows the paper's headline quantity from the other side — where
each measured-client access's wait actually went:

    issued -> cache hit            (wait 0)
    issued -> miss -> [pull sent -> enqueued | duplicate | dropped]
           -> ... queue / push wait ... -> page on air -> served

A :class:`RequestTracer` attaches to either engine (they share the
:class:`~repro.client.measured.MeasuredClient`, so the hook points are
identical by construction) and emits one :class:`RequestRecord` per
completed access through the same sink protocol the slot tracer uses
(:class:`~repro.obs.trace.NullSink` / ``MemorySink`` / ``JsonlSink``).
Alongside the per-request stream it accumulates a
:class:`WaitBreakdown` — the think / push-wait / pull-queue-wait /
service decomposition over the measured phase — and a
:class:`~repro.obs.latency.LatencyHistogram` of measured waits for
quantile reporting.

Tracing is opt-in; engines built without a request tracer keep the PR 1
hot-loop budget (one hoisted boolean test per slot).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Optional

from repro.obs.latency import LatencyHistogram
from repro.obs.trace import TraceSink, _record_from_dict, read_jsonl

__all__ = [
    "OPTIONAL_REQUEST_FIELDS",
    "RequestRecord",
    "RequestTracer",
    "WaitBreakdown",
    "breakdown_of",
    "read_requests_jsonl",
]


@dataclass(frozen=True, slots=True)
class RequestRecord:
    """The full lifecycle of one measured-client access."""

    #: MC access sequence number (0-based, all phases).
    index: int
    #: Page the MC wanted.
    page: int
    #: Time the access was issued (broadcast units).
    issued_at: float
    #: True when the access fell inside the measured phase.
    measured: bool
    #: True when the cache answered (wait is then 0).
    hit: bool
    #: True when the MC sent a backchannel request for the page.
    pull_sent: bool
    #: What the server queue did with the MC's request:
    #: "enqueued" / "duplicate" / "dropped", None when no pull was sent.
    pull_outcome: Optional[str]
    #: Push wait the MC would face if it never pulled: slots until the
    #: page's next scheduled appearance (+1 for its transmission), None
    #: for pages not on the push program ("no safety net").
    predicted_push_wait: Optional[float]
    #: Backchannel requests for this page (any client, the MC included)
    #: observed at the server queue while the access was outstanding.
    page_offers: int
    #: Slot boundary at which the page started transmitting (None for
    #: cache hits).
    on_air_at: Optional[float]
    #: Time the page was in the client's hands.
    served_at: float
    #: What satisfied the access: "cache", "push", or "pull".
    served_kind: str
    #: Total response time: served_at - issued_at.
    wait: float
    #: Wait before the page went on air (push wait or pull queue wait,
    #: depending on served_kind); None for cache hits.
    queue_wait: Optional[float]
    #: Time on the air until delivery (<= 1 slot); None for cache hits.
    service: Optional[float]

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RequestRecord":
        """Inverse of :meth:`to_dict`, tolerant across trace versions.

        Unknown keys are ignored (a newer writer may add fields) and
        missing Optional fields default to ``None`` (an older writer may
        lack them); a missing *required* field raises a ValueError that
        names it, instead of a bare KeyError.
        """
        return _record_from_dict(cls, data, OPTIONAL_REQUEST_FIELDS,
                                 "request")


#: RequestRecord fields typed Optional: absent keys in a serialized
#: record default to None instead of failing the load (these are also
#: the columnar backend's null-mask columns, in this order).
OPTIONAL_REQUEST_FIELDS: tuple[str, ...] = (
    "pull_outcome", "predicted_push_wait", "on_air_at", "queue_wait",
    "service")


def read_requests_jsonl(path: str | Path) -> list[RequestRecord]:
    """Load a request trace previously written through a ``JsonlSink``."""
    return read_jsonl(path, cls=RequestRecord)


@dataclass
class WaitBreakdown:
    """Where the measured phase's client time went, by lifecycle stage.

    Counts cover measured accesses only (matching ``RunResult``).  The
    wait totals decompose exactly: for every miss,
    ``queue_wait + service == wait``, with ``queue_wait`` attributed to
    ``push_wait`` or ``pull_wait`` by the kind of slot that served it.
    """

    #: Event counts.  Exact ints for full traces; weighted (possibly
    #: fractional) population estimates when the records came through a
    #: sampling policy (see :mod:`repro.obs.sampling`).
    accesses: float = 0
    hits: float = 0
    misses: float = 0
    pulls_sent: float = 0
    pulls_enqueued: float = 0
    pulls_duplicate: float = 0
    pulls_dropped: float = 0
    served_push: float = 0
    served_pull: float = 0
    #: Total think time (accesses x ThinkTime; the engine fills it in).
    think: float = 0.0
    #: Total wait before the page aired, split by the serving slot kind.
    push_wait: float = 0.0
    pull_wait: float = 0.0
    #: Total on-air transmission time.
    service: float = 0.0

    def add(self, record: RequestRecord, weight: float = 1) -> None:
        """Fold one completed record in (caller filters to measured).

        ``weight`` is the record's inverse-probability correction when it
        came through a sampling policy: the record counts as ``weight``
        identical accesses, turning the breakdown into an unbiased
        estimate of the full population's.  The default of integer ``1``
        keeps full traces on the exact integer/float arithmetic they had
        before sampling existed (``1 * x`` is exactly ``x``).
        """
        self.accesses += weight
        if record.hit:
            self.hits += weight
            return
        self.misses += weight
        if record.pull_sent:
            self.pulls_sent += weight
            if record.pull_outcome == "enqueued":
                self.pulls_enqueued += weight
            elif record.pull_outcome == "duplicate":
                self.pulls_duplicate += weight
            elif record.pull_outcome == "dropped":
                self.pulls_dropped += weight
        queue_wait = record.queue_wait or 0.0
        if record.served_kind == "pull":
            self.served_pull += weight
            self.pull_wait += weight * queue_wait
        else:
            self.served_push += weight
            self.push_wait += weight * queue_wait
        self.service += weight * (record.service or 0.0)

    # -- derived views -----------------------------------------------------
    @property
    def total_wait(self) -> float:
        """Total blocked time (push + pull queue waits + service)."""
        return self.push_wait + self.pull_wait + self.service

    @property
    def mean_wait(self) -> float:
        """Mean response time over measured misses (the paper's metric)."""
        return self.total_wait / self.misses if self.misses else math.nan

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form (adds the derived totals)."""
        data = asdict(self)
        data["total_wait"] = self.total_wait
        data["mean_wait"] = self.mean_wait
        return data

    def render(self) -> str:
        """Terminal table: stage, blocked time, share, events."""
        from repro.experiments.reporting import format_table

        blocked = self.total_wait
        busy = blocked + self.think

        def share(part: float) -> str:
            return f"{part / busy:.1%}" if busy else "-"

        def events(count: float):
            # Weighted (sampled) breakdowns estimate fractional counts;
            # full traces print the exact ints they always did.
            return int(count) if float(count).is_integer() else (
                f"{count:.1f}")

        rows = [
            ("think", self.think, share(self.think), events(self.accesses)),
            ("push wait", self.push_wait, share(self.push_wait),
             events(self.served_push)),
            ("pull queue wait", self.pull_wait, share(self.pull_wait),
             events(self.served_pull)),
            ("service (on air)", self.service, share(self.service),
             events(self.misses)),
        ]
        table = format_table(
            ("stage", "broadcast units", "share", "events"), rows)
        summary = (f"accesses {events(self.accesses)} (hits "
                   f"{events(self.hits)} / misses {events(self.misses)}), "
                   f"pulls sent {events(self.pulls_sent)} "
                   f"(enqueued {events(self.pulls_enqueued)}, duplicate "
                   f"{events(self.pulls_duplicate)}, dropped "
                   f"{events(self.pulls_dropped)})")
        return f"{table}\n{summary}"


def breakdown_of(records: Iterable[RequestRecord],
                 think_time: Optional[float] = None,
                 measured_only: bool = True) -> WaitBreakdown:
    """Aggregate saved records into a :class:`WaitBreakdown`.

    Used by ``repro-broadcast report --trace`` to reconstruct the
    decomposition from a JSONL file; ``think_time`` (broadcast units per
    access) fills the think row when known.
    """
    breakdown = WaitBreakdown()
    for record in records:
        if measured_only and not record.measured:
            continue
        breakdown.add(record)
    if think_time is not None:
        breakdown.think = think_time * breakdown.accesses
    return breakdown


@dataclass
class _OpenRequest:
    """Mutable in-flight state between ``on_access`` and completion."""

    index: int
    page: int
    issued_at: float
    measured: bool
    pull_sent: bool = False
    pull_outcome: Optional[str] = None
    predicted_push_wait: Optional[float] = None
    page_offers: int = 0
    on_air_at: Optional[float] = None
    on_air_kind: Optional[str] = None


class RequestTracer:
    """Collects engine hook calls into per-request records.

    The MC is a closed loop — at most one access is outstanding — so the
    tracer is a small state machine over one :class:`_OpenRequest`.  Hook
    call order per access::

        on_access -> on_hit
        on_access -> on_miss [-> on_miss_predict] [-> on_pull]
                  -> (on_queue_offer ...) -> on_air -> on_served

    ``on_queue_offer`` is wired through
    :meth:`~repro.server.queue.BoundedRequestQueue.attach_observer`, so
    it sees *every* backchannel request (the VC's included) and counts
    the ones for the page the MC is blocked on.

    Args:
        sink: destination for completed records.
        think_time: broadcast units the MC thinks between accesses (the
            engines fill this in when left None) — used for the think row
            of :meth:`breakdown`.
        metrics: optional :class:`~repro.obs.metrics.MetricsRegistry`
            accumulating aggregate request counters and a wait histogram.
        sampling: optional :class:`~repro.obs.sampling.SamplingPolicy`.
            When set, only accepted accesses are traced (skipped ones
            cost a single policy call) and every kept record carries an
            inverse-probability weight through the breakdown, histogram,
            and metrics, so the aggregates estimate the full population.
            Reservoir policies hold their records back until
            :meth:`finalize`.
    """

    def __init__(self, sink: TraceSink, think_time: Optional[float] = None,
                 metrics=None, sampling=None):
        self.sink = sink
        self.think_time = think_time
        self.sampling = sampling
        self.records_emitted = 0
        #: Accesses offered to the tracer (sampled or not).
        self.accesses_seen = 0
        self.breakdown_stats = WaitBreakdown()
        #: Measured miss waits, for p50/p90/p99 reporting.
        self.wait_histogram = LatencyHistogram(
            "request_wait", "measured MC response times")
        self._open: Optional[_OpenRequest] = None
        self._next_index = 0
        self._finalized = False
        self._metrics = metrics
        if metrics is not None:
            self._m_hits = metrics.counter(
                "request_hits_total", "measured MC cache hits")
            self._m_misses = metrics.counter(
                "request_misses_total", "measured MC cache misses")
            self._m_pulls = metrics.counter(
                "request_pulls_total", "measured MC backchannel requests")
            self._m_wait = metrics.histogram(
                "request_wait", "measured MC response times",
                buckets=self.wait_histogram.bounds)

    # -- engine hooks ------------------------------------------------------
    def on_access(self, page: int, now: float, measured: bool) -> None:
        """The MC issued an access for ``page`` at ``now``.

        With a sampling policy attached, a rejected access leaves no
        open request — every later hook is a no-op for it (they all
        guard on ``self._open``), which is where sampling's speedup
        comes from.
        """
        index = self._next_index
        self._next_index += 1
        self.accesses_seen += 1
        if self.sampling is not None and not self.sampling.accept(index):
            self._open = None
            return
        self._open = _OpenRequest(index=index, page=page,
                                  issued_at=now, measured=measured)

    def on_hit(self, page: int, now: float) -> None:
        """The cache answered the open access."""
        open_ = self._open
        if open_ is None:
            return
        self._emit(RequestRecord(
            index=open_.index, page=page, issued_at=open_.issued_at,
            measured=open_.measured, hit=True, pull_sent=False,
            pull_outcome=None, predicted_push_wait=None, page_offers=0,
            on_air_at=None, served_at=now, served_kind="cache", wait=0.0,
            queue_wait=None, service=None))

    def on_miss(self, page: int, now: float) -> None:
        """The open access missed the cache; the MC now blocks."""
        # Nothing to record yet — the open request simply stays open
        # until the broadcast (or a pull response) serves it.

    def on_miss_predict(self, push_wait: float) -> None:
        """Predicted push wait for the open miss (engine-supplied).

        ``inf`` (page not on the push program) is stored as None so the
        records stay strict-JSON serializable.
        """
        if self._open is not None:
            self._open.predicted_push_wait = (
                None if math.isinf(push_wait) else push_wait)

    def on_pull(self, page: int, now: float, outcome) -> None:
        """The MC sent a backchannel request; ``outcome`` is its
        :class:`~repro.server.queue.Offer`."""
        open_ = self._open
        if open_ is not None and open_.page == page:
            open_.pull_sent = True
            open_.pull_outcome = getattr(outcome, "value", str(outcome))

    def on_queue_offer(self, page: int, outcome) -> None:
        """A backchannel request reached the server queue (any client)."""
        open_ = self._open
        if open_ is not None and open_.page == page:
            open_.page_offers += 1

    def on_air(self, now: float, kind) -> None:
        """The awaited page started transmitting at slot boundary ``now``.

        ``kind`` is the serving :class:`~repro.server.broadcast_server.\
SlotKind` (push or pull).
        """
        open_ = self._open
        if open_ is not None and open_.on_air_at is None:
            open_.on_air_at = now
            open_.on_air_kind = getattr(kind, "value", str(kind))

    def on_served(self, page: int, now: float) -> None:
        """The awaited page arrived; close and emit the record."""
        open_ = self._open
        if open_ is None:
            return
        wait = now - open_.issued_at
        on_air = open_.on_air_at
        if on_air is not None:
            queue_wait = max(0.0, on_air - open_.issued_at)
            service = now - max(on_air, open_.issued_at)
        else:
            # The serving slot was never observed (shouldn't happen when
            # both hook sides are wired); count the whole wait as queueing.
            queue_wait = wait
            service = 0.0
        self._emit(RequestRecord(
            index=open_.index, page=page, issued_at=open_.issued_at,
            measured=open_.measured, hit=False,
            pull_sent=open_.pull_sent, pull_outcome=open_.pull_outcome,
            predicted_push_wait=open_.predicted_push_wait,
            page_offers=open_.page_offers, on_air_at=on_air,
            served_at=now, served_kind=open_.on_air_kind or "push",
            wait=wait, queue_wait=queue_wait, service=service))

    # -- results -----------------------------------------------------------
    def _emit(self, record: RequestRecord) -> None:
        self._open = None
        if self.sampling is None:
            self._deliver(record, 1)
            return
        weight = self.sampling.commit(record)
        if weight is not None:
            self._deliver(record, weight)
        # weight None: the policy holds the record (reservoir); it is
        # delivered — or evicted — at finalize() time.

    def _deliver(self, record: RequestRecord, weight: float) -> None:
        self.sink.emit(record)
        self.records_emitted += 1
        if record.measured:
            self.breakdown_stats.add(record, weight)
            if not record.hit:
                self.wait_histogram.observe(record.wait, weight)
            if self._metrics is not None:
                if record.hit:
                    self._m_hits.inc(weight)
                else:
                    self._m_misses.inc(weight)
                    self._m_wait.observe(record.wait, weight)
                if record.pull_sent:
                    self._m_pulls.inc(weight)

    def finalize(self) -> None:
        """Flush records a deferring sampling policy held back.

        Idempotent; called automatically by :meth:`breakdown`,
        :meth:`wait_quantiles`, and :meth:`close`.  A no-op for full
        traces and streaming policies.
        """
        if self._finalized or self.sampling is None:
            return
        self._finalized = True
        for record, weight in self.sampling.drain():
            self._deliver(record, weight)

    def breakdown(self) -> WaitBreakdown:
        """The measured-phase wait decomposition (think row filled when
        ``think_time`` is known)."""
        self.finalize()
        stats = self.breakdown_stats
        if self.think_time is not None:
            stats.think = self.think_time * stats.accesses
        return stats

    def wait_quantiles(self) -> Optional[dict[str, float]]:
        """p50/p90/p99 of measured miss waits (None before any miss).

        Sampled tracers report weighted quantiles — unbiased estimates
        of the full-trace quantiles, since the policies sample by index,
        never by value.
        """
        self.finalize()
        return self.wait_histogram.quantiles()

    def close(self) -> None:
        """Flush any deferred sampled records and close the sink."""
        self.finalize()
        self.sink.close()
