"""A lightweight counters / gauges / histograms registry.

The registry is the aggregate side of the observability layer: tracers,
engines, and tools register named instruments and bump them; a snapshot is
a plain nested dict, render() a human-readable table.  Design constraints:

- **near-zero overhead when disabled** — a disabled registry hands out
  shared no-op instruments whose methods do nothing, so instrumented code
  never needs ``if metrics:`` guards;
- **no dependencies** — histogram summary statistics reuse the streaming
  :class:`~repro.sim.monitor.Tally` the simulation kernel already ships,
  so a histogram's mean/stddev stay numerically stable over millions of
  observations.

Names are free-form but conventionally ``snake_case`` with a ``_total``
suffix for counters (the prometheus idiom).
"""

from __future__ import annotations

import bisect
import math
from typing import Mapping, Sequence

from repro.sim.monitor import Tally

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsMirror",
    "NULL_REGISTRY",
]

#: Default histogram bucket upper bounds (broadcast-unit scale).
DEFAULT_BUCKETS: tuple[float, ...] = (
    1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_
        self._value = 0

    @property
    def value(self) -> int:
        return self._value

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self._value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name: str, help_: str = ""):
        self.name = name
        self.help = help_
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        self._value = value

    def inc(self, amount: float = 1.0) -> None:
        self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self._value -= amount

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Bucketed distribution plus streaming summary statistics.

    ``buckets`` are inclusive upper bounds; one overflow bucket (+inf) is
    appended automatically.  Summary statistics (count/mean/stddev/min/max)
    come from a Welford :class:`~repro.sim.monitor.Tally`.
    """

    __slots__ = ("name", "help", "bounds", "counts", "_tally")

    def __init__(self, name: str, help_: str = "",
                 buckets: Sequence[float] = DEFAULT_BUCKETS):
        if not buckets:
            raise ValueError("histogram needs at least one bucket bound")
        bounds = tuple(sorted(float(b) for b in buckets))
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.name = name
        self.help = help_
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # +1 for the +inf overflow
        self._tally = Tally()

    def observe(self, value: float, weight: float = 1) -> None:
        """Record one observation, optionally carrying a frequency weight.

        ``weight`` is the inverse-probability correction factor a sampled
        stream attaches to each kept observation (see
        :mod:`repro.obs.sampling`); the default of integer ``1`` keeps
        unweighted histograms on the exact integer-count / plain-Welford
        path, so unsampled runs stay bit-identical.
        """
        # The tally validates first, so a rejected value (non-finite, or
        # a non-positive weight) leaves the buckets untouched too.
        if weight == 1:
            self._tally.add(value)
        else:
            self._tally.add_weighted(value, weight)
        self.counts[bisect.bisect_left(self.bounds, value)] += weight

    def observe_many(self, values) -> None:
        """Record a batch of unweighted observations, vectorized.

        Equivalent to calling :meth:`observe` once per value but O(batch)
        in numpy: bucket indices via ``searchsorted`` (same left-bisect
        convention as the scalar path) and the summary statistics folded
        in as one batch-moment :meth:`~repro.sim.monitor.Tally.merge`
        (exact Chan et al., so the mean/variance match the streamed
        equivalent).  The per-user fleet statistics feed thousands to
        millions of values per snapshot through this path.
        """
        import numpy as np

        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        if not np.isfinite(arr).all():
            raise ValueError("non-finite observation in batch")
        indices = np.searchsorted(self.bounds, arr, side="left")
        counts = self.counts
        for index, count in zip(*np.unique(indices, return_counts=True)):
            counts[int(index)] += int(count)
        mean = float(arr.mean())
        self._tally.merge(Tally.from_moments(
            int(arr.size), mean, float(np.square(arr - mean).sum()),
            float(arr.min()), float(arr.max())))

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        Bucket-wise, so it only makes sense — and is only allowed — when
        both histograms share the same bucket bounds; merging histograms
        with different bounds raises ValueError.  Summary statistics
        merge through :meth:`~repro.sim.monitor.Tally.merge` (Chan et
        al.), so the result matches observing the pooled stream
        directly, up to bucket resolution in the quantiles.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histogram {other.name!r} into {self.name!r}: "
                f"bucket bounds differ ({len(other.bounds)} vs "
                f"{len(self.bounds)} bounds)")
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self._tally.merge(other._tally)

    @property
    def count(self) -> float:
        """Total observation weight (an exact int when unweighted)."""
        return self._tally.count

    @property
    def mean(self) -> float:
        return self._tally.mean

    @property
    def stddev(self) -> float:
        return self._tally.stddev

    def quantile(self, q: float) -> float:
        """Approximate ``q``-quantile from the bucket histogram.

        Returns the upper bound of the non-empty bucket the quantile
        falls in (+inf maps to the observed max), NaN when empty.  The
        0- and 1-quantiles are exact: they return the observed min and
        max rather than a bucket bound — ``q=0`` would otherwise be
        satisfied by the very first bucket even when its count is 0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        tally = self._tally
        if tally.count == 0:
            return math.nan
        if q == 0.0:
            return tally.min
        if q == 1.0:
            return tally.max
        rank = q * tally.count
        cumulative = 0
        for index, count in enumerate(self.counts):
            if count == 0:
                continue
            cumulative += count
            if cumulative >= rank:
                if index == len(self.bounds):
                    return tally.max
                return self.bounds[index]
        return tally.max

    def snapshot(self) -> dict:
        tally = self._tally
        return {
            "type": "histogram",
            "count": tally.count,
            "mean": tally.mean,
            "stddev": tally.stddev,
            "min": tally.min if tally.count else math.nan,
            "max": tally.max if tally.count else math.nan,
            "buckets": {
                **{str(bound): count
                   for bound, count in zip(self.bounds, self.counts)},
                "+inf": self.counts[-1],
            },
        }


class _NullInstrument:
    """Shared do-nothing stand-in handed out by disabled registries."""

    __slots__ = ()
    name = "<disabled>"
    help = ""
    value = 0
    count = 0
    mean = math.nan
    stddev = math.nan

    def inc(self, amount=1) -> None:
        pass

    def dec(self, amount=1) -> None:
        pass

    def set(self, value) -> None:
        pass

    def observe(self, value, weight=1) -> None:
        pass

    def observe_many(self, values) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def quantile(self, q) -> float:
        return math.nan

    def snapshot(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class MetricsRegistry:
    """Get-or-create home for named instruments.

    A *disabled* registry (``MetricsRegistry(enabled=False)``, or the
    module-level :data:`NULL_REGISTRY`) returns a shared no-op instrument
    from every factory and registers nothing, so instrumented code pays
    one attribute call per update and no memory.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._instruments: dict[str, object] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> list[str]:
        """Registered instrument names, sorted."""
        return sorted(self._instruments)

    def _get_or_create(self, cls, name: str, *args, **kwargs):
        if not self.enabled:
            return _NULL_INSTRUMENT
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise TypeError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {cls.__name__}")
            return existing
        instrument = cls(name, *args, **kwargs)
        self._instruments[name] = instrument
        return instrument

    def counter(self, name: str, help_: str = "") -> Counter:
        """Get or create the named counter."""
        return self._get_or_create(Counter, name, help_)

    def gauge(self, name: str, help_: str = "") -> Gauge:
        """Get or create the named gauge."""
        return self._get_or_create(Gauge, name, help_)

    def histogram(self, name: str, help_: str = "",
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        """Get or create the named histogram."""
        return self._get_or_create(Histogram, name, help_, buckets)

    def snapshot(self) -> dict:
        """Nested plain-dict state of every instrument."""
        return {name: instrument.snapshot()
                for name, instrument in sorted(self._instruments.items())}

    def render(self) -> str:
        """Human-readable table of the current snapshot."""
        lines = []
        width = max((len(n) for n in self._instruments), default=4)
        for name, state in self.snapshot().items():
            kind = state.get("type", "?")
            if kind in ("counter", "gauge"):
                detail = f"{state['value']:g}"
            else:
                detail = (f"count={state['count']} mean={state['mean']:.4g} "
                          f"min={state['min']:.4g} max={state['max']:.4g}")
            lines.append(f"{name:<{width}}  {kind:<9}  {detail}")
        return "\n".join(lines) if lines else "(no metrics registered)"


class MetricsMirror:
    """Mirror a component's own counters and gauges into a registry.

    Simulation components keep plain cumulative counters that are
    *resettable* (``reset_stats()`` zeroes them at the warm-up/measure
    boundary), while registry counters only go up.  The mirror therefore
    remembers the last value it exported per counter and publishes
    deltas, treating a backward jump as a reset (the post-reset value is
    the delta).  Gauges simply take the current reading.

    A subclass names its instruments (``{name: help}``) at construction,
    where they are created eagerly so a snapshot taken before the first
    :meth:`sync` still lists the full set at zero, and implements
    :meth:`readings`.
    """

    def __init__(self, registry: MetricsRegistry,
                 counters: Mapping[str, str], gauges: Mapping[str, str]):
        self.registry = registry
        self._last: dict[str, int] = {}
        for name, help_ in counters.items():
            registry.counter(name, help_)
        for name, help_ in gauges.items():
            registry.gauge(name, help_)

    def readings(self) -> tuple[Mapping[str, int], Mapping[str, float]]:
        """The component's current ``(counters, gauges)`` by name."""
        raise NotImplementedError

    def sync(self) -> None:
        """Publish the component's current readings into the registry.

        Each call is O(number of instruments) and touches nothing else.
        """
        counters, gauges = self.readings()
        for name, value in counters.items():
            delta = value - self._last.get(name, 0)
            if delta < 0:
                # The component's counters were reset (measurement
                # boundary); the post-reset value is what accumulated since.
                delta = value
            if delta:
                self.registry.counter(name).inc(delta)
            self._last[name] = value
        for name, value in gauges.items():
            self.registry.gauge(name).set(value)


#: A process-wide disabled registry: the no-op default for instrumentation.
NULL_REGISTRY = MetricsRegistry(enabled=False)
