"""Core microbenchmarks: events/sec through the discrete-event hot path.

``python -m repro bench core`` runs seeded microbenchmarks over the
layers every experiment bottoms out in — raw ``Simulator`` dispatch, the
``EventLoop`` drain, timers, postMessage ping-pong, kernel two-stage
scheduling, and the traced-vs-untraced overhead — and writes
``BENCH_core.json``.

Methodology
-----------

Each benchmark builds a fresh workload per repeat, garbage-collects,
then times one full drain with ``time.perf_counter_ns``.  Each repeat
yields one mean per-event cost (elapsed ÷ events).  Reported:

* ``events_per_sec`` — the *best* repeat (least interference);
* ``median_ns_per_event`` / ``max_ns_per_event`` — the median and the
  maximum of the per-repeat means (a wide gap ⇒ noisy machine).

The ``raw-dispatch``, ``timer-storm`` and ``wheel`` workloads are also
run against the frozen seed implementations (:mod:`.bench_reference`)
in the same process, giving an in-run, same-machine speedup (``wheel``:
timer-wheel vs seed-heap dispatch of an out-of-order storm).  The
reference throughput doubles as a machine-speed calibration for the CI
regression check: ``check_regression`` compares *normalised* throughput
(live ÷ reference) against the committed baseline, so a slower CI
runner does not fail the gate and a faster one does not mask a
regression.

Workloads draw any randomness from a seeded private stream
(:mod:`repro.runtime.rng`); two invocations execute identical schedules.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

from ..kernel.policies.deterministic import DeterministicSchedulingPolicy
from ..kernel.policy import CompositePolicy, SchedulingGrid
from ..kernel.space import KernelSpace
from ..runtime.eventloop import EventLoop
from ..runtime.messaging import make_channel
from ..runtime.rng import RngService
from ..runtime.simulator import Simulator
from ..runtime.timers import TimerRegistry
from ..trace import Tracer, capture
from .bench_reference import ReferenceEventLoop, ReferenceSimulator

#: Benchmark scale at --quick 1 (full scale; --quick shrinks by 10x).
DEFAULT_EVENTS = {
    "raw-dispatch": 200_000,
    "dispatch-chain": 100_000,
    "timer-storm": 30_000,
    "wheel": 100_000,
    "worker-ping-pong": 10_000,
    "kernel-schedule": 10_000,
    "traced-overhead": 20_000,
}

DEFAULT_REPEATS = 5

#: Fail the CI gate when normalised events/sec drops below this fraction
#: of the committed baseline (ISSUE 5: >20% regression fails).
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------------
# workloads: each returns (run, events) — run() drains the schedule and
# returns the processed-event count
# ----------------------------------------------------------------------

def _setup_raw_dispatch(n: int, reference: bool) -> Callable[[], int]:
    sim = ReferenceSimulator() if reference else Simulator()
    schedule = sim.schedule

    def _noop() -> None:
        pass

    for i in range(n):
        schedule(i * 1_000, _noop)

    def run() -> int:
        sim.run()
        return sim.events_processed

    return run


def _setup_dispatch_chain(n: int, reference: bool) -> Callable[[], int]:
    sim = ReferenceSimulator() if reference else Simulator()
    remaining = [n]

    def _next() -> None:
        remaining[0] -= 1
        if remaining[0] > 0:
            sim.schedule(sim.dispatch_time + 1_000, _next)

    sim.schedule(0, _next)

    def run() -> int:
        sim.run()
        return sim.events_processed

    return run


def _setup_timer_storm(n: int, reference: bool) -> Callable[[], int]:
    sim = ReferenceSimulator() if reference else Simulator()
    loop_cls = ReferenceEventLoop if reference else EventLoop
    loop = loop_cls(sim, "main", task_dispatch_cost=0)
    timers = TimerRegistry(loop)
    rng = RngService(seed=0).stream("bench.timer-storm")
    fired = [0]

    def _tick() -> None:
        fired[0] += 1

    for _ in range(n):
        timers.set_timeout(_tick, rng.randrange(0, 50))

    def run() -> int:
        sim.run()
        assert fired[0] == n, (fired[0], n)
        return sim.events_processed

    return run


def _setup_wheel(n: int, reference: bool) -> Callable[[], int]:
    """Out-of-order pre-scheduled storm on the simulator's timed lane.

    Every schedule lands at a seeded random time over a wide horizon, so
    nothing takes the in-order FIFO fast path: the live build exercises
    the hierarchical timer wheel end to end (push, slot sort, cascade),
    the reference build the seed's binary heap.
    """
    sim = ReferenceSimulator() if reference else Simulator()
    rng = RngService(seed=0).stream("bench.wheel")
    schedule = sim.schedule
    horizon = n * 2_000

    def _noop() -> None:
        pass

    for _ in range(n):
        schedule(rng.randrange(0, horizon), _noop)

    def run() -> int:
        sim.run()
        return sim.events_processed

    return run


def _setup_worker_ping_pong(n: int, reference: bool) -> Callable[[], int]:
    sim = ReferenceSimulator() if reference else Simulator()
    loop_cls = ReferenceEventLoop if reference else EventLoop
    main = loop_cls(sim, "main", task_dispatch_cost=0)
    worker = loop_cls(sim, "worker", task_dispatch_cost=0)
    side_main, side_worker = make_channel("bench", main, worker, latency_ns=10_000)
    rounds = [0]

    def _on_worker(event) -> None:
        side_worker.post(event.data + 1)

    def _on_main(event) -> None:
        rounds[0] += 1
        if rounds[0] < n:
            side_main.post(event.data + 1)

    side_worker.add_handler(_on_worker)
    side_main.add_handler(_on_main)

    def run() -> int:
        side_main.post(0)
        sim.run()
        assert rounds[0] == n, (rounds[0], n)
        return sim.events_processed

    return run


def _setup_kernel_schedule(n: int, reference: bool) -> Callable[[], int]:
    sim = ReferenceSimulator() if reference else Simulator()
    loop_cls = ReferenceEventLoop if reference else EventLoop
    loop = loop_cls(sim, "kbench", task_dispatch_cost=0)
    policy = CompositePolicy([DeterministicSchedulingPolicy()])
    kspace = KernelSpace(loop, policy, SchedulingGrid(), label="bench")
    dispatched = [0]

    def _cb() -> None:
        dispatched[0] += 1

    scheduler = kspace.scheduler
    for i in range(n):
        event = scheduler.register("timeout", {"default": _cb}, hint=1_000 * (i + 1))
        scheduler.confirm(event)

    def run() -> int:
        sim.run()
        assert dispatched[0] == n, (dispatched[0], n)
        return sim.events_processed

    return run


def _setup_traced(n: int) -> Callable[[], int]:
    """timer-storm under an enabled tracer (for the overhead ratio)."""
    tracer = Tracer()
    with capture(tracer):
        sim = Simulator()
        loop = EventLoop(sim, "main", task_dispatch_cost=0)
    timers = TimerRegistry(loop)
    rng = RngService(seed=0).stream("bench.timer-storm")
    fired = [0]

    def _tick() -> None:
        fired[0] += 1

    with capture(tracer):
        for _ in range(n):
            timers.set_timeout(_tick, rng.randrange(0, 50))

    def run() -> int:
        with capture(tracer):
            sim.run()
        assert fired[0] == n
        return sim.events_processed

    return run


WORKLOADS: Dict[str, Callable[[int, bool], Callable[[], int]]] = {
    "raw-dispatch": _setup_raw_dispatch,
    "dispatch-chain": _setup_dispatch_chain,
    "timer-storm": _setup_timer_storm,
    "wheel": _setup_wheel,
    "worker-ping-pong": _setup_worker_ping_pong,
    "kernel-schedule": _setup_kernel_schedule,
}

#: Workloads also run against the frozen seed implementations.
REFERENCE_WORKLOADS = ("raw-dispatch", "timer-storm", "wheel")


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------

def _measure(
    setup: Callable[[], Callable[[], int]], repeats: int
) -> Dict[str, float]:
    samples: List[Tuple[int, int]] = []  # (elapsed_ns, events)
    for _ in range(repeats):
        run = setup()
        gc.collect()
        start = time.perf_counter_ns()
        events = run()
        elapsed = time.perf_counter_ns() - start
        samples.append((max(elapsed, 1), events))
    per_event = [elapsed / events for elapsed, events in samples]
    best = max(events * 1e9 / elapsed for elapsed, events in samples)
    return {
        "events": samples[0][1],
        "repeats": repeats,
        "events_per_sec": round(best, 1),
        "median_ns_per_event": round(statistics.median(per_event), 1),
        "max_ns_per_event": round(max(per_event), 1),
    }


def run_bench_core(
    scale: float = 1.0,
    repeats: int = DEFAULT_REPEATS,
    only: Optional[List[str]] = None,
) -> dict:
    """Run the suite; returns the BENCH_core.json payload."""
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, got {repeats}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale}")
    names = only or list(WORKLOADS)
    known = set(WORKLOADS) | {"traced-overhead"}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"unknown benchmarks {unknown}; expected {sorted(known)}")
    benchmarks: Dict[str, dict] = {}
    for name in names:
        if name == "traced-overhead":
            continue
        n = max(int(DEFAULT_EVENTS[name] * scale), 100)
        setup = WORKLOADS[name]
        benchmarks[name] = _measure(lambda: setup(n, False), repeats)
        if name in REFERENCE_WORKLOADS:
            benchmarks[f"{name}-reference"] = _measure(lambda: setup(n, True), repeats)

    speedups = {
        name: round(
            benchmarks[name]["events_per_sec"]
            / benchmarks[f"{name}-reference"]["events_per_sec"],
            2,
        )
        for name in REFERENCE_WORKLOADS
        if name in benchmarks and f"{name}-reference" in benchmarks
    }

    traced = None
    if only is None or "traced-overhead" in names:
        n = max(int(DEFAULT_EVENTS["traced-overhead"] * scale), 100)
        untraced = _measure(lambda: _setup_timer_storm(n, False), repeats)
        traced_m = _measure(lambda: _setup_traced(n), repeats)
        traced = {
            "untraced_events_per_sec": untraced["events_per_sec"],
            "traced_events_per_sec": traced_m["events_per_sec"],
            "overhead_ratio": round(
                untraced["events_per_sec"] / traced_m["events_per_sec"], 2
            ),
        }

    report = {
        "schema": 3,
        "scale": scale,
        "benchmarks": benchmarks,
        "speedups_vs_seed_reference": speedups,
    }
    if traced is not None:
        report["traced_overhead"] = traced
    return report


# ----------------------------------------------------------------------
# regression gate
# ----------------------------------------------------------------------

def _normalised(report: dict, name: str) -> Optional[float]:
    """Machine-independent throughput: live ÷ in-run seed reference."""
    bench = report.get("benchmarks", {})
    live = bench.get(name, {}).get("events_per_sec")
    ref = bench.get(f"{name}-reference", {}).get("events_per_sec")
    if not live or not ref:
        return None
    return live / ref


def check_regression(
    report: dict, baseline: dict, tolerance: float = REGRESSION_TOLERANCE
) -> List[str]:
    """Compare a fresh report against the committed baseline.

    Returns human-readable failure lines (empty = pass).  Normalised
    (reference-calibrated) throughput is compared where both runs have a
    reference measurement; benchmarks without one fall back to the raw
    events/sec ratio, which is only meaningful on comparable machines.
    """
    failures: List[str] = []
    current = report.get("benchmarks", {})
    previous = baseline.get("benchmarks", {})
    for name in previous:
        if name.endswith("-reference") or name not in current:
            continue
        now_norm = _normalised(report, name)
        then_norm = _normalised(baseline, name)
        if now_norm is not None and then_norm is not None:
            ratio, basis = now_norm / then_norm, "normalised"
        else:
            now_raw = current[name].get("events_per_sec") or 0
            then_raw = previous[name].get("events_per_sec") or 0
            if not now_raw or not then_raw:
                continue
            ratio, basis = now_raw / then_raw, "raw"
        if ratio < 1.0 - tolerance:
            failures.append(
                f"{name}: {basis} events/sec regressed to {ratio:.2f}x of the "
                f"baseline (tolerance {1.0 - tolerance:.2f}x); refresh with "
                "'python -m repro bench core --out "
                "benchmarks/baselines/bench_core_baseline.json' if intended"
            )
    return failures


def format_report(report: dict) -> str:
    """Human-readable table for the CLI."""
    lines = []
    header = (
        f"{'benchmark':22s} {'events':>9s} {'events/sec':>12s} "
        f"{'median ns/ev':>13s} {'max ns/ev':>10s}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, stats in report["benchmarks"].items():
        lines.append(
            f"{name:22s} {stats['events']:>9d} {stats['events_per_sec']:>12,.0f} "
            f"{stats['median_ns_per_event']:>13.1f} {stats['max_ns_per_event']:>10.1f}"
        )
    speedups = report.get("speedups_vs_seed_reference") or {}
    if speedups:
        lines.append("")
        for name, ratio in speedups.items():
            lines.append(f"speedup vs seed reference [{name}]: {ratio:.2f}x")
    traced = report.get("traced_overhead")
    if traced:
        lines.append(
            f"traced overhead: {traced['overhead_ratio']:.2f}x "
            f"({traced['untraced_events_per_sec']:,.0f} -> "
            f"{traced['traced_events_per_sec']:,.0f} events/sec)"
        )
    return "\n".join(lines)
