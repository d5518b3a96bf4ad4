"""Statistics collectors for simulation output.

:class:`Tally` accumulates per-observation statistics (response times)
with numerically stable streaming updates (Welford), so
million-observation runs stay accurate.
"""

from __future__ import annotations

import math

__all__ = ["Tally"]


class Tally:
    """Streaming count / mean / variance / extrema of observations."""

    __slots__ = ("count", "_mean", "_m2", "min", "max")

    def __init__(self):
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf

    def add(self, value: float) -> None:
        """Record one observation.

        Non-finite values raise: a NaN would silently poison ``_mean`` /
        ``_m2`` while the ``min``/``max`` comparisons stay false, leaving
        an inconsistent snapshot long after the bad observation.
        """
        if not math.isfinite(value):
            raise ValueError(f"non-finite observation {value!r}")
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def add_weighted(self, value: float, weight: float) -> None:
        """Record one observation carrying a frequency weight.

        West's (1979) weighted Welford update: the observation counts as
        ``weight`` identical samples, so inverse-probability corrected
        streams (sampled request traces) estimate the full-population
        mean/variance.  ``count`` becomes the total weight — fractional
        when weights are — and the n-1 variance denominator is then the
        usual frequency-weight convention.  This is a separate method
        (not a ``weight=1`` default on :meth:`add`) so the unweighted
        path keeps its exact ``delta / count`` rounding: multiplying by
        ``weight / count`` rounds differently and would break
        bit-identical unsampled runs.
        """
        if not math.isfinite(value):
            raise ValueError(f"non-finite observation {value!r}")
        if not weight > 0:
            raise ValueError("weight must be positive")
        self.count += weight
        delta = value - self._mean
        self._mean += delta * weight / self.count
        self._m2 += weight * delta * (value - self._mean)
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @classmethod
    def from_moments(cls, count: float, mean: float, m2: float,
                     min_: float, max_: float) -> "Tally":
        """A tally pre-loaded with batch moments (for vectorized feeds).

        ``m2`` is the sum of squared deviations from ``mean`` (the Welford
        accumulator), so batch producers can compute the moments with one
        numpy pass and fold them in via :meth:`merge` — exact Chan et al.,
        identical to having streamed every observation.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        tally = cls()
        if count == 0:
            return tally
        for name, value in (("mean", mean), ("m2", m2),
                            ("min", min_), ("max", max_)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite batch {name} {value!r}")
        tally.count = count
        tally._mean = mean
        tally._m2 = m2
        tally.min = min_
        tally.max = max_
        return tally

    def merge(self, other: "Tally") -> None:
        """Fold another tally's observations into this one."""
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            self.min, self.max = other.min, other.max
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self._mean if self.count else math.nan

    @property
    def variance(self) -> float:
        """Sample variance (n-1 denominator)."""
        if self.count < 2:
            return math.nan
        return self._m2 / (self.count - 1)

    @property
    def stddev(self) -> float:
        """Sample standard deviation (NaN below two observations)."""
        variance = self.variance
        return math.sqrt(variance) if variance == variance else math.nan

    def as_dict(self) -> dict:
        """Plain-dict summary (the form the metrics registry exports)."""
        empty = self.count == 0
        return {
            "count": self.count,
            "mean": self.mean,
            "stddev": self.stddev,
            "min": math.nan if empty else self.min,
            "max": math.nan if empty else self.max,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Tally(count={self.count}, mean={self.mean:.4g}, "
                f"min={self.min:.4g}, max={self.max:.4g})")

