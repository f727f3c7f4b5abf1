"""End-to-end, layer-attributed benchmark of the JSKernel reproduction.

One workload per process::

    python3 perfbench/run.py --workload pageload --seed 0 --seconds 15 --trace 0

runs the workload closed-loop for ``--seconds`` (whole passes, at least
``MIN_UNITS`` units), checks its virtual-time outputs, and prints one
JSON object as the last line: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A line starting with
``perfbench-detail`` above it carries sample counts, ``fail_frac``, the
pass digest and workload-specific figures.  The exit code is 1 when an
output check fails.

Every workload, untraced and traced, with a table::

    python3 perfbench/run.py --all [--seconds N] [--seed N]

Run from the repository root; the program is imported from ``src/``.
See ``perfbench/README.md`` for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Dict, List, Optional, Tuple

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
#: ``unit_wall_ms.p90`` is reported only from this many samples up, so
#: that ten samples lie beyond it.
P90_MIN_SAMPLES = 100
#: A run attempts at least this many units, so the p90 is always there.
MIN_UNITS = P90_MIN_SAMPLES
#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 5
#: Reference slices just before and just after each set-up probe.
SETUP_SLICES = 4
DIGESTS_FILE = os.path.join(HERE, "digests.json")
SPANS_DIR = ".perfbench"


def import_program():
    """Put ``src/`` of the current directory first on the path and import it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        sys.stderr.write(f"perfbench: no program at {src}/repro; run from the repo root\n")
        raise SystemExit(2)
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import perf_workloads

    return perf_workloads



# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def nearest_rank(sorted_values, q: float) -> float:
    """The ``q``-quantile by nearest rank of already sorted values."""
    index = max(math.ceil(q * len(sorted_values)) - 1, 0)
    return sorted_values[index]


def latency_metrics(samples_ns) -> Dict[str, float]:
    """``unit_wall_ms.p50`` always; ``.p90`` only from 100 samples up."""
    ordered = sorted(samples_ns)
    out = {"unit_wall_ms.p50": statistics.median(ordered) / 1e6}
    if len(ordered) >= P90_MIN_SAMPLES:
        out["unit_wall_ms.p90"] = nearest_rank(ordered, 0.9) / 1e6
    return out


def max_rss_mb() -> float:
    """Peak resident set of this process so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
class Loop:
    """Runs passes back to back, timing every unit.

    Failed units count as attempted and failed and add no latency
    sample.  The ``on_unit`` hook (the traced run's unit ids) and the
    ``speed`` reference slices run between units; their time is part of
    neither unit nor of :attr:`busy_ns`.  With ``speed``,
    :attr:`intervals` holds each sample's host-speed interval.
    """

    def __init__(self, workload, on_unit=None, speed=None):
        self.workload = workload
        self.samples = array("q")
        self.intervals = array("q")
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.results: List[dict] = []
        self.busy_ns = 0
        #: peak RSS (MB) at the end of the first pass
        self.first_pass_rss_mb: Optional[float] = None
        self._hook = on_unit
        self._speed = speed
        self._hook_ns = 0
        self._mark = 0

    def _on_unit(self, ok: bool, error: Optional[str]) -> None:
        now = time.perf_counter_ns()
        elapsed = now - self._mark
        self.attempted += 1
        if ok:
            self.samples.append(elapsed)
        else:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(str(error))
        if self._hook is not None:
            self._hook()
        if self._speed is not None:
            interval = self._speed.after_unit(elapsed)
            if ok:
                self.intervals.append(interval)
        self._mark = time.perf_counter_ns()
        self._hook_ns += self._mark - now

    def one_pass(self) -> Optional[dict]:
        """One pass; ``None`` when it raised (counted as a failed unit)."""
        start = self._mark = time.perf_counter_ns()
        self._hook_ns = 0
        try:
            result = self.workload.run_pass(self._on_unit)
        except Exception as exc:  # the pass aborted: one more failed unit
            self.attempted += 1
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            result = None
        self.busy_ns += time.perf_counter_ns() - start - self._hook_ns
        if self.first_pass_rss_mb is None:
            self.first_pass_rss_mb = max_rss_mb()
        if result is not None:
            self.results.append(result)
        return result

    def run(self, seconds: float, min_units: int) -> None:
        """Whole passes until ``seconds`` and ``min_units`` are both reached."""
        while not self.results or self.busy_ns < seconds * 1e9 or self.attempted < min_units:
            if self.one_pass() is None:
                return


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------
def load_pinned() -> dict:
    with open(DIGESTS_FILE, encoding="utf-8") as handle:
        return json.load(handle)


def check_results(wl, workload, results: List[dict], reference: Optional[str] = None):
    """Digest every pass; returns ``(digest, failures)``.

    Every pass must reproduce the first (or ``reference``, the untraced
    pass of a traced run) and, for a pinned seed, the pinned digest.
    """
    failures: List[str] = []
    if not results:
        return None, ["no pass completed"]
    digests = [wl.digest(result) for result in results]
    first = reference or digests[0]
    if any(d != first for d in digests):
        failures.append(f"{workload.name}: pass digests differ: {sorted(set(digests))}")
    pinned = load_pinned().get(workload.name, {}).get(str(workload.seed))
    if pinned is not None and pinned != first:
        failures.append(f"{workload.name}: digest {first} != pinned {pinned}")
    failures.extend(workload.check(results[0]))
    return first, failures


# ----------------------------------------------------------------------
# set-up probes
# ----------------------------------------------------------------------
def probe_setup(workload: str, seed: int) -> Tuple[float, float]:
    """Seconds from starting a fresh process to its first timed unit.

    Also returns the host-speed factor of reference slices run just
    before and after.
    """
    speed = hostspeed.HostSpeed()
    for _ in range(SETUP_SLICES):
        speed.sample()
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
    finally:
        child.wait(timeout=120)
    if child.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
    for _ in range(SETUP_SLICES):
        speed.sample()
    return elapsed, speed.factor()


# ----------------------------------------------------------------------
# one workload, untraced or traced
# ----------------------------------------------------------------------
def run_untraced(wl, workload, seconds: float) -> dict:
    """End-to-end metrics, host times rescaled to nominal host speed."""
    speed = hostspeed.HostSpeed()
    speed.sample()
    loop = Loop(workload, speed=speed)
    loop.run(seconds, MIN_UNITS)
    speed.sample()
    digest, failures = check_results(wl, workload, loop.results)
    probes = [probe_setup(workload.name, workload.seed) for _ in range(SETUP_PROBES)]
    ok_units = len(loop.samples)
    factor = speed.factor()
    nominal = [sample / speed.interval_factor(k)
               for sample, k in zip(loop.samples, loop.intervals)]
    metrics = {
        "units_per_s": (ok_units / (loop.busy_ns / 1e9) * factor, "1/s"),
        "setup_s": (statistics.median(elapsed / f for elapsed, f in probes), "s"),
        "max_rss_mb": (loop.first_pass_rss_mb, "MB"),
    }
    for name, value in latency_metrics(nominal).items():
        metrics[name] = (value, "ms")
    raw = {
        "units_per_s": ok_units / (loop.busy_ns / 1e9),
        "setup_s": statistics.median(elapsed for elapsed, _f in probes),
        **latency_metrics(loop.samples),
    }
    samples = {
        "units_per_s": ok_units, "unit_wall_ms.p50": ok_units,
        "unit_wall_ms.p90": ok_units, "setup_s": len(probes), "max_rss_mb": 1,
    }
    extra = workload.details(loop.results[0]) if loop.results else {}
    extra["max_rss_mb_end"] = max_rss_mb()
    extra["host_speed"] = {
        "factor": factor, "slices": len(speed.slices),
        "setup_factors": [f for _elapsed, f in probes], "raw": raw,
    }
    return finish(workload, [loop], digest, failures, metrics, samples, extra)


def run_traced(wl, workload, seconds: float, spans_out: str) -> dict:
    import perf_layers

    untraced = Loop(workload)
    untraced.one_pass()
    ref_digest, failures = check_results(wl, workload, untraced.results)
    untraced_unit_s = untraced.busy_ns / 1e9 / max(untraced.attempted, 1)

    rec = perf_layers.Recorder()

    def next_unit() -> None:
        rec.unit += 1

    traced = Loop(workload, on_unit=next_unit)
    installed = perf_layers.install(rec)
    rec.start()
    try:
        traced.run(seconds, 1)
    finally:
        rec.stop()
        installed.remove()
    leftover = perf_layers.leftover_wrappers()
    if leftover:
        failures.append(f"wrappers left installed: {leftover[:5]}")
    _digest, traced_failures = check_results(wl, workload, traced.results, ref_digest)
    failures.extend(f for f in traced_failures if f not in failures)
    os.makedirs(os.path.dirname(spans_out), exist_ok=True)
    rec.spans.write(spans_out)
    metrics = perf_layers.layer_metrics(rec, traced.attempted, untraced_unit_s)
    samples = {name: traced.attempted for name in metrics}
    extra = {"spans": len(rec.spans), "spans_dropped": rec.spans.dropped}
    return finish(workload, [untraced, traced], ref_digest, failures, metrics, samples, extra)


def finish(workload, loops, digest, failures, metrics, samples, extra) -> dict:
    """The result object and the detail line of one run."""
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    if failed:
        errors = [error for loop in loops for error in loop.errors]
        failures = failures + [f"{failed} failed units: {errors[:3]}"]
    detail = {
        "workload": workload.name,
        "seed": workload.seed,
        "digest": digest,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / max(attempted, 1),
        "samples": {name: samples.get(name, 0) for name in metrics},
        "failures": failures,
        **extra,
    }
    result = {
        "correct": not failures,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return {"detail": detail, "result": result}


# ----------------------------------------------------------------------
# every workload, with a table
# ----------------------------------------------------------------------
def run_all(args) -> int:
    bench = load_bench()
    status = 0
    for spec in bench["workloads"]:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", spec["name"],
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = proc.stdout.strip().splitlines()
            detail = next((json.loads(line.split(" ", 1)[1]) for line in lines
                           if line.startswith("perfbench-detail ")), None)
            if proc.returncode != 0 or detail is None:
                status = 1
                print(f"{spec['name']} trace={trace}: FAILED (exit {proc.returncode})")
                print(proc.stderr.strip()[-2000:] or "\n".join(lines[-5:]))
                continue
            result = json.loads(lines[-1])
            print(f"== {spec['name']} (seed {args.seed}, trace {trace}) digest {detail['digest']} "
                  f"attempted {result['attempted']} failed {result['failed']} "
                  f"fail_frac {detail['fail_frac']:.4f}")
            for key in ("virtual_overhead_pct",):
                if detail.get(key) is not None:
                    print(f"   {key:<40} {detail[key]:>14.4f} %   (virtual time, deterministic)")
            for name, metric in result["metrics"].items():
                print(f"   {name:<40} {metric['value']:>14.4f} {metric['unit']:<10} "
                      f"n={detail['samples'].get(name, 0)}")
    return status


def load_bench() -> dict:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both modes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        import_program()
        return run_all(args)
    if not args.workload:
        parser.error("--workload is required (or --all)")

    wl = import_program()
    if args.workload not in wl.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; have {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    if args.trace:
        spans_out = os.path.join(SPANS_DIR, f"spans-{workload.name}-{workload.seed}.json")
        out = run_traced(wl, workload, args.seconds, spans_out)
    else:
        out = run_untraced(wl, workload, args.seconds)
    print("perfbench-detail " + json.dumps(out["detail"], sort_keys=True))
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
