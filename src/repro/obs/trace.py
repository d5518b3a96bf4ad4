"""Slot-level tracing: structured per-slot records through pluggable sinks.

Both simulation engines can attach a :class:`SlotTracer`; the engine then
emits one :class:`SlotRecord` per broadcast slot it completes, snapshotted
at the instant the server ticks (after the measured client's boundary
activity, before the slot's virtual-client arrivals).  Because the two
engines pin the same within-slot event order (DESIGN.md §6), the records
are directly comparable: on a deterministic Pure-Push run the reference
and fast engines produce *identical* traces, which is what
:mod:`repro.obs.compare` exploits to pinpoint divergences.

Sinks decide what happens to the records:

- :class:`NullSink` discards them (measures pure hook overhead),
- :class:`MemorySink` keeps them in an optional-capacity ring buffer,
- :class:`JsonlSink` streams them to a JSON-lines file.

Tracing is strictly opt-in — engines built without a tracer skip every
hook, so the default hot path is untouched.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Optional

from repro.obs.events import SLOT_KINDS

__all__ = [
    "OPTIONAL_SLOT_FIELDS",
    "SlotRecord",
    "TraceSink",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "SlotTracer",
    "read_jsonl",
]

#: SlotRecord fields typed Optional: absent keys in a serialized record
#: default to None instead of failing the load (these are also the
#: columnar backend's null-mask columns, in this order).
OPTIONAL_SLOT_FIELDS: tuple[str, ...] = ("page", "mc_waiting")


@dataclass(frozen=True, slots=True)
class SlotRecord:
    """Everything observable about one broadcast slot.

    The snapshot instant is right after the server emitted the slot: queue
    depth and cumulative queue counters reflect every request that arrived
    up to (and including) the slot boundary, but none of the Poisson
    arrivals strictly inside the slot — those land in the next record's
    ``vc_arrivals``.
    """

    #: Slot index (0-based broadcast unit).
    slot: int
    #: What the slot carried: "push", "pull", "padding", or "idle".
    kind: str
    #: Page transmitted (None for padding / idle slots).
    page: Optional[int]
    #: Backchannel queue depth after the slot was emitted.
    queue_depth: int
    #: Cumulative queue counters at the same instant (reset with the
    #: engine's measurement phases, like every other statistic).
    enqueued: int
    duplicates: int
    dropped: int
    served: int
    #: Page the measured client is blocked on (None while thinking).
    mc_waiting: Optional[int]
    #: MC backchannel requests since the previous record.
    mc_arrivals: int
    #: VC requests reaching the queue since the previous record.
    vc_arrivals: int

    def to_dict(self) -> dict:
        """JSON-ready plain-dict form."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SlotRecord":
        """Inverse of :meth:`to_dict`, tolerant across trace versions.

        Unknown keys are ignored (a newer writer may add fields) and
        missing Optional fields default to ``None`` (an older writer may
        lack them); a missing *required* field raises a ValueError that
        names it, instead of a bare KeyError.
        """
        return _record_from_dict(cls, data, OPTIONAL_SLOT_FIELDS, "slot")


def _record_from_dict(cls, data: dict, optional: tuple[str, ...],
                      table: str):
    """Rebuild a ``cls`` trace record from its serialized dict.

    Shared by :meth:`SlotRecord.from_dict` and
    :meth:`~repro.obs.requests.RequestRecord.from_dict`: keys outside
    ``cls``'s fields are dropped, absent ``optional`` fields become None,
    and an absent required field is a ValueError naming the ``table``.
    """
    fields = {}
    for name in cls.__slots__:
        if name in data:
            fields[name] = data[name]
        elif name in optional:
            fields[name] = None
        else:
            raise ValueError(
                f"{table} trace record missing required field {name!r}")
    return cls(**fields)


class TraceSink:
    """Destination for trace records.  Subclasses override :meth:`emit`."""

    def emit(self, record: SlotRecord) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources (idempotent)."""

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullSink(TraceSink):
    """Counts records and drops them (for overhead measurements)."""

    def __init__(self):
        self.emitted = 0

    def emit(self, record: SlotRecord) -> None:
        self.emitted += 1


class MemorySink(TraceSink):
    """Keeps records in memory; a ring buffer when ``capacity`` is set."""

    def __init__(self, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive")
        self._ring: deque[SlotRecord] = deque(maxlen=capacity)
        self.emitted = 0

    @property
    def records(self) -> list[SlotRecord]:
        """The retained records, oldest first."""
        return list(self._ring)

    def emit(self, record: SlotRecord) -> None:
        self._ring.append(record)
        self.emitted += 1

    def clear(self) -> None:
        """Drop the retained records (keeps the emitted count)."""
        self._ring.clear()


class JsonlSink(TraceSink):
    """Streams records to a JSON-lines file, one object per slot."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._file: Optional[IO[str]] = self.path.open("w")
        self.emitted = 0

    def emit(self, record: SlotRecord) -> None:
        if self._file is None:
            raise ValueError(f"sink for {self.path} is closed")
        json.dump(record.to_dict(), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.emitted += 1

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


def read_jsonl(path: str | Path, cls=SlotRecord) -> list:
    """Load a trace previously written by :class:`JsonlSink`.

    ``cls`` is the record type to rebuild — any class with a
    ``from_dict`` classmethod (e.g.
    :class:`~repro.obs.requests.RequestRecord` for request traces).
    """
    records = []
    with Path(path).open() as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(cls.from_dict(json.loads(line)))
    return records


class SlotTracer:
    """Collects engine hook calls into per-slot records.

    The engines call :meth:`on_mc_request` / :meth:`on_vc_requests` as
    backchannel requests reach the server queue and :meth:`on_slot` right
    after each server tick; the tracer folds the arrival counts since the
    previous tick into the record and hands it to the sink.  An optional
    :class:`~repro.obs.metrics.MetricsRegistry` additionally accumulates
    aggregate counters and a queue-depth histogram.
    """

    def __init__(self, sink: TraceSink, metrics=None):
        self.sink = sink
        self.records_emitted = 0
        self._mc_arrivals = 0
        self._vc_arrivals = 0
        self._last_dropped = 0
        self._metrics = metrics
        if metrics is not None:
            self._slot_counters = {
                kind: metrics.counter(f"trace_slots_{kind}_total",
                                      f"slots that carried {kind}")
                for kind in SLOT_KINDS}
            self._dropped = metrics.counter(
                "trace_requests_dropped_total",
                "requests dropped at the snapshot instants")
            self._depth_hist = metrics.histogram(
                "trace_queue_depth", "queue depth sampled per slot",
                buckets=(0, 1, 2, 5, 10, 25, 50, 100, 250))

    def on_mc_request(self, page: int) -> None:
        """The measured client sent a backchannel request for ``page``."""
        self._mc_arrivals += 1

    def on_vc_requests(self, count: int) -> None:
        """``count`` virtual-client requests reached the queue."""
        self._vc_arrivals += count

    def on_slot(self, slot: int, kind, page: Optional[int], queue,
                mc_waiting: Optional[int]) -> None:
        """The server emitted slot ``slot``; snapshot and ship a record.

        ``kind`` is a :class:`~repro.server.broadcast_server.SlotKind`;
        ``queue`` the server's
        :class:`~repro.server.queue.BoundedRequestQueue`.
        """
        record = SlotRecord(
            slot=slot,
            kind=kind.value,
            page=page,
            queue_depth=len(queue),
            enqueued=queue.enqueued,
            duplicates=queue.duplicates,
            dropped=queue.dropped,
            served=queue.served,
            mc_waiting=mc_waiting,
            mc_arrivals=self._mc_arrivals,
            vc_arrivals=self._vc_arrivals,
        )
        self._mc_arrivals = 0
        self._vc_arrivals = 0
        self.sink.emit(record)
        self.records_emitted += 1
        if self._metrics is not None:
            self._slot_counters[record.kind].inc()
            # The queue counter is cumulative (and resets with measurement
            # phases); difference it into a monotonic trace-level counter.
            delta = record.dropped - self._last_dropped
            self._dropped.inc(delta if delta > 0 else 0)
            self._last_dropped = record.dropped
            self._depth_hist.observe(record.queue_depth)

    def close(self) -> None:
        """Close the underlying sink."""
        self.sink.close()
