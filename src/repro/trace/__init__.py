"""Unified tracing & metrics for the simulated runtime and kernel.

Everything in this package is keyed to **virtual time**: timestamps are
the integer-nanosecond clock of :class:`~repro.runtime.simulator.Simulator`
(converted to microseconds only at Chrome-trace export), never wall time.
A traced quantity therefore describes the *simulated* schedule — task
queueing delays, kernel registration→confirmation→dispatch latencies —
and a seeded scenario captures byte-identically on every run, which makes
a trace both a debugging artefact and a regression fixture.

Usage::

    from repro.trace import capture, write_chrome_trace

    with capture() as tracer:
        ...  # build browsers, run attacks/workloads
    write_chrome_trace(tracer, "trace.json")   # open in Perfetto
    print(tracer.metrics.format())

Simulators created inside :func:`capture` pick the tracer up on
construction; an existing browser can be adopted with
``tracer.attach(browser.sim)``.

A capture is in one of three states (see :mod:`repro.trace.tracer`):

* **disabled** — outside a capture every simulator shares the disabled
  :data:`NULL_TRACER`, whose cost at each instrumentation site is one
  attribute load and one branch;
* **metrics-only** — ``capture(Tracer(events=False))`` records counters,
  gauges and histograms but buffers no event, for callers that read only
  ``tracer.metrics``;
* **full** — ``capture()`` records metrics and buffers every event.

No metric depends on whether events are buffered.
"""

from .access import state_access
from .export import chrome_trace, dump_chrome_trace, format_timeline, write_chrome_trace
from .metrics import (
    LATENCY_BUCKETS_NS,
    QUEUE_DELAY_BUCKETS_NS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .tracer import NULL_TRACER, Tracer, capture, current_tracer

__all__ = [
    "LATENCY_BUCKETS_NS",
    "NULL_TRACER",
    "QUEUE_DELAY_BUCKETS_NS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Tracer",
    "capture",
    "chrome_trace",
    "current_tracer",
    "dump_chrome_trace",
    "format_timeline",
    "state_access",
    "write_chrome_trace",
]
