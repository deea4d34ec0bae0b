"""Latency statistics.

"In evaluating possible configurations, we use the latency experienced
by the application as the governing metric."  Latencies are recorded
per *block* (the figures' y-axes are per-4KB-block microseconds), split
into read and write, and only during the measurement phase — the
warmup half of every trace is replayed but not recorded.

:class:`LatencyStat` is a streaming accumulator (count/total/min/max
plus log-scale histogram buckets, so percentiles can be estimated
without storing samples).

:class:`PercentileSketch` is the bounded-state quantile companion: a
log-bucket (DDSketch-style) sketch whose percentile estimates carry a
*guaranteed* relative-error bound, with memory bounded by the bucket
cap regardless of how many observations stream through.  A
``LatencyStat`` optionally carries one (``REPRO_METRICS_SKETCH`` or an
explicit :class:`MetricsCollector` argument), keeping the streaming
pipeline's metrics memory-bounded end to end; the differential harness
cross-checks sketch estimates against exact quantiles within the
documented bound (see ``repro.validation.differential``).
"""

from __future__ import annotations

import math
import os
from typing import Dict, List, Optional

from repro._units import US, format_time
from repro.errors import ConfigError

#: Environment knob enabling percentile sketches inside every
#: ``LatencyStat`` a :class:`MetricsCollector` creates.  ``off`` /
#: ``0`` / unset disables (the default); ``on`` / ``1`` / ``true``
#: enables at :data:`DEFAULT_SKETCH_ERROR`; a float in (0, 1) enables
#: at that relative-error bound.
SKETCH_ENV = "REPRO_METRICS_SKETCH"

#: Default relative-error bound of an enabled sketch (1 %).
DEFAULT_SKETCH_ERROR = 0.01


def _sketch_error_from_env() -> Optional[float]:
    env = os.environ.get(SKETCH_ENV, "").strip().lower()
    if env in ("", "0", "off", "false", "no"):
        return None
    if env in ("1", "on", "true", "yes"):
        return DEFAULT_SKETCH_ERROR
    try:
        error = float(env)
    except ValueError:
        raise ConfigError(
            "%s must be a flag or a relative error in (0, 1), got %r"
            % (SKETCH_ENV, env)
        )
    if not 0.0 < error < 1.0:
        raise ConfigError(
            "%s relative error must be in (0, 1), got %g" % (SKETCH_ENV, error)
        )
    return error


class PercentileSketch:
    """Streaming log-bucket quantile sketch with a relative-error bound.

    DDSketch-style: a positive value ``v`` lands in bucket
    ``ceil(log_gamma(v))`` with ``gamma = (1 + e) / (1 - e)``, so every
    value in bucket ``i`` lies in ``(gamma^(i-1), gamma^i]`` and the
    bucket midpoint estimate ``2 * gamma^i / (gamma + 1)`` is within
    relative error ``e`` of *any* value in the bucket — hence
    :meth:`percentile` is within ``e`` (relative) of the exact
    empirical quantile, whatever the distribution.

    State is a sparse bucket dict bounded by ``max_buckets`` (the
    lowest buckets collapse into their neighbor when the cap is hit,
    which can only degrade accuracy of the extreme low tail); memory
    is O(max_buckets) no matter how many observations stream through —
    the property the bounded-memory replay pipeline needs.
    """

    __slots__ = ("relative_error", "_gamma", "_log_gamma", "count", "_zero_count", "_buckets", "_max_buckets")

    def __init__(self, relative_error: float = DEFAULT_SKETCH_ERROR, max_buckets: int = 4096) -> None:
        if not 0.0 < relative_error < 1.0:
            raise ValueError("relative_error must be in (0, 1)")
        if max_buckets < 2:
            raise ValueError("max_buckets must be >= 2")
        self.relative_error = relative_error
        self._gamma = (1.0 + relative_error) / (1.0 - relative_error)
        self._log_gamma = math.log(self._gamma)
        self.count = 0
        self._zero_count = 0
        self._buckets: Dict[int, int] = {}
        self._max_buckets = max_buckets

    def record(self, value: float) -> None:
        """Add one non-negative observation."""
        if value < 0:
            raise ValueError("sketch values must be non-negative")
        self.count += 1
        if value == 0:
            self._zero_count += 1
            return
        index = math.ceil(math.log(value) / self._log_gamma)
        buckets = self._buckets
        buckets[index] = buckets.get(index, 0) + 1
        if len(buckets) > self._max_buckets:
            self._collapse_lowest()

    def _collapse_lowest(self) -> None:
        """Merge the lowest bucket into its upward neighbor (bounds the
        bucket count; only the extreme low tail loses precision)."""
        lowest, second = sorted(self._buckets)[:2]
        self._buckets[second] += self._buckets.pop(lowest)

    def percentile(self, fraction: float) -> float:
        """The estimated ``fraction`` quantile (0..1).

        Within ``relative_error`` of the exact empirical quantile of
        the recorded values (rank ``fraction * (count - 1)`` of the
        sorted sample), modulo float rounding at bucket boundaries and
        low-tail collapse under bucket pressure.  Returns 0.0 when
        empty.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = fraction * (self.count - 1)
        if rank < self._zero_count:
            return 0.0
        seen = self._zero_count
        gamma = self._gamma
        last_index = None
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            last_index = index
            if seen > rank:
                break
        assert last_index is not None
        return 2.0 * gamma ** last_index / (gamma + 1.0)

    def merge(self, other: "PercentileSketch") -> None:
        """Fold another sketch into this one (must share gamma).

        The check is exact, not tolerance-based: two sketches built from
        distinct ``relative_error`` values use different bucket
        geometries even when their gammas agree to within float noise,
        and folding one's bucket indices into the other silently
        corrupts every quantile.
        """
        if other.relative_error != self.relative_error:
            raise ValueError(
                "cannot merge sketches with different relative errors "
                "(%g vs %g)" % (self.relative_error, other.relative_error)
            )
        self.count += other.count
        self._zero_count += other._zero_count
        buckets = self._buckets
        for index, bucket_count in other._buckets.items():
            buckets[index] = buckets.get(index, 0) + bucket_count
        while len(buckets) > self._max_buckets:
            self._collapse_lowest()

    def __getstate__(self):
        return {
            "relative_error": self.relative_error,
            "count": self.count,
            "zero_count": self._zero_count,
            "buckets": dict(self._buckets),
            "max_buckets": self._max_buckets,
        }

    def __setstate__(self, state) -> None:
        self.__init__(state["relative_error"], state["max_buckets"])
        self.count = state["count"]
        self._zero_count = state["zero_count"]
        self._buckets = dict(state["buckets"])

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "relative_error": self.relative_error,
            "buckets": len(self._buckets),
            "p50": self.percentile(0.50),
            "p90": self.percentile(0.90),
            "p99": self.percentile(0.99),
            "p999": self.percentile(0.999),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<PercentileSketch n=%d e=%g buckets=%d>" % (
            self.count,
            self.relative_error,
            len(self._buckets),
        )


class LatencyStat:
    """Streaming latency accumulator with log-scale histogram buckets.

    ``sketch`` optionally attaches a :class:`PercentileSketch`: every
    recorded latency is fed to it too, giving tight-error percentiles
    (the built-in histogram is good to a factor of two) at bounded
    memory.  The sketch never participates in result signatures or
    fingerprints — enabling it cannot change what the drift gates see.
    """

    #: bucket boundaries in nanoseconds: 100ns, 200ns, 400ns, ... ~ 1.7s
    _BUCKET_BASE_NS = 100
    _N_BUCKETS = 25

    __slots__ = ("count", "total_ns", "min_ns", "max_ns", "_buckets", "sketch")

    def __init__(self, sketch: Optional[PercentileSketch] = None) -> None:
        self.count = 0
        self.total_ns = 0
        self.min_ns: Optional[int] = None
        self.max_ns = 0
        self._buckets: List[int] = [0] * self._N_BUCKETS
        self.sketch = sketch

    def record(self, latency_ns: int) -> None:
        """Add one observation."""
        self.record_n(latency_ns, 1)

    def record_n(self, latency_ns: int, n: int) -> None:
        """Add ``n`` observations of one latency — the same state as
        ``n`` calls of :meth:`record` (the replay driver flushes its
        run-length accumulators through this)."""
        self.count += n
        self.total_ns += latency_ns * n
        if self.min_ns is None or latency_ns < self.min_ns:
            self.min_ns = latency_ns
        if latency_ns > self.max_ns:
            self.max_ns = latency_ns
        # Closed form of "double a 100ns threshold until it covers the
        # latency": bucket i spans (100*2^(i-1), 100*2^i] ns, so the
        # index is the bit length of ceil(latency/100) - 1, clamped to
        # the bucket range.  Equivalent to the obvious loop but O(1).
        base = self._BUCKET_BASE_NS
        quotient = (latency_ns + base - 1) // base
        index = (quotient - 1).bit_length() if quotient > 1 else 0
        if index >= self._N_BUCKETS:
            index = self._N_BUCKETS - 1
        self._buckets[index] += n
        sketch = self.sketch
        if sketch is not None:
            for _ in range(n):
                sketch.record(latency_ns)

    @property
    def mean_ns(self) -> float:
        """Mean latency in nanoseconds (0.0 when empty)."""
        if self.count == 0:
            return 0.0
        return self.total_ns / self.count

    @property
    def mean_us(self) -> float:
        """Mean latency in microseconds — the figures' unit."""
        return self.mean_ns / US

    def percentile(self, fraction: float) -> float:
        """Estimate a percentile (0..1) from the histogram, in ns.

        Returns the upper edge of the bucket containing the requested
        rank, clamped into ``[min_ns, max_ns]`` so the estimate never
        leaves the observed range; good to a factor of two, which
        suffices for shape checks.  ``fraction == 0.0`` reflects the
        recorded minimum.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be in [0, 1]")
        if self.count == 0:
            return 0.0
        min_ns = self.min_ns or 0
        if fraction == 0.0:
            return float(min_ns)
        rank = fraction * self.count
        seen = 0
        threshold = self._BUCKET_BASE_NS
        for bucket_count in self._buckets:
            # Empty leading buckets say nothing about the sample; only a
            # bucket that holds observations can satisfy the rank.
            if bucket_count:
                seen += bucket_count
                if seen >= rank:
                    if threshold < min_ns:
                        return float(min_ns)
                    if threshold > self.max_ns:
                        return float(self.max_ns)
                    return float(threshold)
            threshold *= 2
        return float(self.max_ns)

    def merge(self, other: "LatencyStat") -> None:
        """Fold another accumulator into this one."""
        self.count += other.count
        self.total_ns += other.total_ns
        if other.min_ns is not None and (self.min_ns is None or other.min_ns < self.min_ns):
            self.min_ns = other.min_ns
        self.max_ns = max(self.max_ns, other.max_ns)
        for index, bucket_count in enumerate(other._buckets):
            self._buckets[index] += bucket_count
        # getattr: results unpickled from caches written before the
        # sketch slot existed have no ``sketch`` attribute.
        other_sketch = getattr(other, "sketch", None)
        if self.sketch is not None and other_sketch is not None:
            self.sketch.merge(other_sketch)

    def as_dict(self) -> Dict[str, float]:
        summary = {
            "count": self.count,
            "mean_us": self.mean_us,
            "min_us": (self.min_ns or 0) / US,
            "max_us": self.max_ns / US,
            "p50_us": self.percentile(0.50) / US,
            "p99_us": self.percentile(0.99) / US,
        }
        sketch = getattr(self, "sketch", None)
        if sketch is not None and sketch.count:
            summary["sketch_p50_us"] = sketch.percentile(0.50) / US
            summary["sketch_p99_us"] = sketch.percentile(0.99) / US
        return summary

    def __getstate__(self):
        return {
            "count": self.count,
            "total_ns": self.total_ns,
            "min_ns": self.min_ns,
            "max_ns": self.max_ns,
            "buckets": list(self._buckets),
            "sketch": self.sketch,
        }

    def __setstate__(self, state) -> None:
        self.count = state["count"]
        self.total_ns = state["total_ns"]
        self.min_ns = state["min_ns"]
        self.max_ns = state["max_ns"]
        self._buckets = list(state["buckets"])
        # Tolerate payloads pickled before the sketch existed.
        self.sketch = state.get("sketch")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<LatencyStat n=%d mean=%s>" % (self.count, format_time(round(self.mean_ns)))


class TimelineStat:
    """Time-bucketed mean latencies: latency *as a function of when*.

    Used by the restart/recovery experiments to show how latency
    evolves after a reboot — a dimension the aggregate means hide.
    Buckets are fixed-width in simulated time, keyed relative to the
    measurement start.
    """

    __slots__ = ("bucket_ns", "_sums", "_counts")

    def __init__(self, bucket_ns: int) -> None:
        if bucket_ns <= 0:
            raise ValueError("bucket width must be positive")
        self.bucket_ns = bucket_ns
        self._sums: Dict[int, int] = {}
        self._counts: Dict[int, int] = {}

    def record(self, at_ns: int, latency_ns: int) -> None:
        bucket = at_ns // self.bucket_ns
        self._sums[bucket] = self._sums.get(bucket, 0) + latency_ns
        self._counts[bucket] = self._counts.get(bucket, 0) + 1

    def series(self) -> List[tuple]:
        """Sorted (bucket_start_ns, mean_latency_ns, count) triples."""
        return [
            (
                bucket * self.bucket_ns,
                self._sums[bucket] / self._counts[bucket],
                self._counts[bucket],
            )
            for bucket in sorted(self._sums)
        ]

    def __len__(self) -> int:
        return len(self._sums)


class MetricsCollector:
    """All per-run application-level metrics.

    The replay driver (``System._thread_process``) records only the
    blocks and requests of measured trace records; warmup records are
    replayed but never reach a collector.

    ``timeline_bucket_ns`` (optional) additionally records read
    latencies into time buckets relative to the measurement start.

    ``sketch_error`` attaches a :class:`PercentileSketch` at that
    relative-error bound to every latency accumulator; ``None`` (the
    default) defers to the ``REPRO_METRICS_SKETCH`` environment
    variable (off unless set).  Sketches ride along with the replay
    driver's recording — ``LatencyStat.record_n`` feeds them — and
    never affect result signatures.
    """

    def __init__(
        self,
        timeline_bucket_ns: Optional[int] = None,
        sketch_error: Optional[float] = None,
    ) -> None:
        if sketch_error is None:
            sketch_error = _sketch_error_from_env()

        def stat() -> LatencyStat:
            if sketch_error is None:
                return LatencyStat()
            return LatencyStat(sketch=PercentileSketch(sketch_error))

        self.read_latency = stat()
        self.write_latency = stat()
        # request-level latencies (whole multi-block operations)
        self.read_request_latency = stat()
        self.write_request_latency = stat()
        self.blocks_read = 0
        self.blocks_written = 0
        self.measurement_start_ns: Optional[int] = None
        self.read_timeline: Optional[TimelineStat] = (
            TimelineStat(timeline_bucket_ns) if timeline_bucket_ns else None
        )

    def begin_measurement(self, now_ns: int) -> None:
        """Mark the measurement boundary (idempotent: the first call's
        timestamp stays)."""
        if self.measurement_start_ns is None:
            self.measurement_start_ns = now_ns
