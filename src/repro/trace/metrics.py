"""Metrics primitives: counters, gauges and fixed-bucket histograms.

Every value recorded here is derived from **virtual time** or virtual-time
event counts, so a seeded scenario produces identical metrics on every
run.  The registry is deliberately plain: metric objects are created on
demand by name, and :meth:`MetricsRegistry.snapshot` returns nothing but
dicts, lists and numbers so harness reports can embed it directly in
their result payloads (and ``json.dumps`` it without custom encoders).
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Optional, Sequence, Tuple

from ..telemetry.sketch import QuantileSketch

#: Default buckets for queueing-delay style histograms, in virtual ns
#: (1 µs, 10 µs, 100 µs, 1 ms, 10 ms, 100 ms).
QUEUE_DELAY_BUCKETS_NS: Tuple[int, ...] = (
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
)

#: Default buckets for kernel-stage latencies (same decades).
LATENCY_BUCKETS_NS: Tuple[int, ...] = QUEUE_DELAY_BUCKETS_NS


class Counter:
    """A monotonically increasing integer."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter decrement: {amount}")
        self.value += amount


class Gauge:
    """A value that can move both ways (queue depths, live threads)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def set(self, value: float) -> None:
        """Replace the gauge value."""
        self.value = value

    def add(self, delta: float) -> None:
        """Shift the gauge by ``delta`` (either sign)."""
        self.value += delta


class Histogram:
    """Fixed-bucket histogram.

    Bucket-edge convention: ``bounds`` are **inclusive upper edges**, so
    bucket ``i`` counts values ``v`` with ``bounds[i-1] < v <= bounds[i]``
    (the first bucket has no lower edge).  A value strictly larger than
    the last bound lands in the **overflow bucket**: ``counts`` always has
    ``len(bounds) + 1`` entries and ``counts[-1]`` is the overflow count.
    Snapshots export that overflow count explicitly (the ``overflow``
    key), matching Prometheus's ``+Inf`` bucket minus the last finite one.

    A :class:`~repro.telemetry.sketch.QuantileSketch` can be attached as
    ``sketch``; :meth:`record` then tees every observation into it, which
    is how telemetry runs capture full-fidelity quantiles at existing
    recording sites without a second instrumentation pass.
    """

    __slots__ = ("bounds", "counts", "total", "count", "min", "max", "sketch")

    def __init__(self, bounds: Sequence[int]):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"histogram bounds must be sorted and non-empty: {bounds}")
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.count = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.sketch: Optional[QuantileSketch] = None

    def record(self, value: float) -> None:
        """Record one observation."""
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1
        # min()/max() spelled as comparisons: same result, two builtin
        # calls fewer on a path taken once per dispatched task
        low = self.min
        if low is None or value < low:
            self.min = value
        high = self.max
        if high is None or value > high:
            self.max = value
        if self.sketch is not None:
            self.sketch.add(value)


class MetricsRegistry:
    """Name-keyed store of counters, gauges, histograms and sketches.

    Setting :attr:`sketch_observations` **before** recording makes every
    histogram tee its observations into an attached
    :class:`~repro.telemetry.sketch.QuantileSketch`; the sketches then
    ride along in :meth:`snapshot` (a ``"sketches"`` section, present
    only when non-empty so non-telemetry snapshots are unchanged) and
    fold through :meth:`merge_snapshot` like every other metric.
    """

    def __init__(self):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._sketches: Dict[str, QuantileSketch] = {}
        #: When true, histograms created (or first touched) afterwards
        #: record into an attached quantile sketch as well.
        self.sketch_observations = False

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter()
        return counter

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self._gauges[name] = Gauge()
        return gauge

    def histogram(self, name: str, bounds: Sequence[int] = QUEUE_DELAY_BUCKETS_NS) -> Histogram:
        """The histogram called ``name`` (created on first use).

        ``bounds`` only applies at creation; later calls reuse the
        existing buckets.
        """
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(bounds)
        if self.sketch_observations and histogram.sketch is None:
            histogram.sketch = self._sketches.setdefault(name, QuantileSketch())
        return histogram

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, dict]:
        """Plain-dict dump of every metric, keys sorted for determinism.

        Histogram entries carry ``counts`` (``len(bounds) + 1`` buckets,
        inclusive upper edges) plus an explicit ``overflow`` — the count
        of values above the last bound, i.e. the ``+Inf`` bucket minus
        the last finite one — so JSON consumers never have to know the
        implicit-last-bucket convention.  A ``"sketches"`` section is
        present only when quantile sketches were recorded or merged.
        """
        snap = {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "overflow": h.counts[-1],
                    "sum": h.total,
                    "count": h.count,
                    "min": h.min,
                    "max": h.max,
                }
                for name, h in sorted(self._histograms.items())
            },
        }
        if self._sketches:
            snap["sketches"] = {
                name: self._sketches[name].to_dict()
                for name in sorted(self._sketches)
            }
        return snap

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        The parallel harness runs each worker's cells under a private
        registry and merges the snapshots back in shard order, so a
        parallel run's counters and histograms equal the serial run's.
        Counters add; histogram buckets, sums and counts add (bounds must
        match, the shared defaults guarantee it in practice); gauges are
        last-write-wins — they are instantaneous values, and merging in
        shard order reproduces the serial "final value" semantics.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name).set(value)
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histogram(name, bounds=data["bounds"])
            if list(histogram.bounds) != list(data["bounds"]):
                raise ValueError(
                    f"histogram {name!r} bucket mismatch: "
                    f"{list(histogram.bounds)} != {list(data['bounds'])}"
                )
            for i, count in enumerate(data["counts"]):
                histogram.counts[i] += count
            histogram.total += data["sum"]
            histogram.count += data["count"]
            if data["count"]:
                histogram.min = (
                    data["min"] if histogram.min is None else min(histogram.min, data["min"])
                )
                histogram.max = (
                    data["max"] if histogram.max is None else max(histogram.max, data["max"])
                )
        for name, data in snapshot.get("sketches", {}).items():
            sketch = self._sketches.get(name)
            if sketch is None:
                self._sketches[name] = QuantileSketch.from_dict(data)
            else:
                sketch.merge(data)

    def format(self) -> str:
        """Human-readable metrics summary (CLI ``--metrics`` output)."""
        snap = self.snapshot()
        lines = []
        if snap["counters"]:
            lines.append("counters:")
            for name, value in snap["counters"].items():
                lines.append(f"  {name:48s} {value}")
        if snap["gauges"]:
            lines.append("gauges:")
            for name, value in snap["gauges"].items():
                lines.append(f"  {name:48s} {value}")
        if snap["histograms"]:
            lines.append("histograms:")
            for name, data in snap["histograms"].items():
                mean = data["sum"] / data["count"] if data["count"] else 0.0
                lines.append(
                    f"  {name:48s} n={data['count']} mean={mean:.0f} "
                    f"min={data['min']} max={data['max']}"
                )
                edges = [*data["bounds"], "inf"]
                buckets = " ".join(
                    f"<={edge}:{count}" for edge, count in zip(edges, data["counts"]) if count
                )
                if buckets:
                    lines.append(f"    {buckets}")
        if snap.get("sketches"):
            lines.append("sketches:")
            for name, data in snap["sketches"].items():
                sketch = QuantileSketch.from_dict(data)
                quantiles = " ".join(
                    f"{label}={value:.0f}"
                    for label, value in sketch.quantiles().items()
                    if value is not None
                )
                lines.append(
                    f"  {name:48s} n={sketch.count} "
                    f"centroids={sketch.centroid_count()} {quantiles}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
