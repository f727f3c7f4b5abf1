"""Per-layer attribution for the benchmark's traced run.

The traced run wraps the public functions of each ``repro`` layer from
the outside (nothing inside ``src/`` changes), records a span per timed
call and keeps per-layer *self time*: a span's duration minus the child
spans inside it.  Self time is accumulated live, by charging the time
between two consecutive span boundaries to the layer on top of the span
stack (or to ``unattributed`` when the stack is empty), so the per-layer
self times plus ``unattributed`` sum exactly to the traced wall time.
The span log keeps the same information per span, and :func:`self_times`
recomputes the split from it offline.

Three wrapper kinds:

* ``time``  — a span per call;
* ``gen``   — a generator function: the span is open across the whole
  iteration but only the resumptions are charged to the layer (the
  consumer's code between two ``next()`` calls stays with the consumer);
* ``count`` — very hot calls: counted, never timed.

A call of a target that is already on the span stack (recursion, a
``super()`` call, a re-entrant kick) opens no second span: it belongs to
the outer one.  ``count`` targets still count it, generator targets do
not (a recursive ``descendants`` walk is one walk).
"""

from __future__ import annotations

import importlib
import itertools
import json
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

UNATTRIBUTED = "unattributed"

#: Marker attribute carried by every wrapper (the removal check looks for it).
MARK = "__perfbench_wrapper__"


# ----------------------------------------------------------------------
# probes: per-target extras measured around a call
# ----------------------------------------------------------------------
def _sim_probe(args, kwargs):
    return args[0].events_processed


def _sim_settle(counts, token, args, result):
    counts["runtime.simulator.events"] += args[0].events_processed - token


def _browser_sim_probe(args, kwargs):
    return args[0].sim.events_processed


def _browser_sim_settle(counts, token, args, result):
    counts["runtime.simulator.events"] += args[0].sim.events_processed - token


def _hb_settle(counts, token, args, result):
    counts["analysis.hb_edges"] += result.edge_count()


def _cells_settle(counts, token, args, result):
    counts["harness.parallel.cells"] += len(result)


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module`` + ``path`` (``Class.attr`` or ``func``)."""

    layer: str
    module: str
    path: str
    kind: str = "time"
    #: Counter bumped once per call.
    count: Optional[str] = None
    #: Counter bumped once per yielded item (``gen`` targets).
    per_item: Optional[str] = None
    probe: Optional[Callable] = None
    settle: Optional[Callable] = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.path}"


def _t(layer, module, path, kind="time", **extra) -> Target:
    return Target(layer, "repro." + module, path, kind, **extra)


#: The wrapped public calls, by layer.  ``Renderer._on_frame`` is the one
#: private hook: the frame body has no public entry point, and without it
#: the render layer would only ever show the cost of arming a frame.
#: Attacks step the simulator one event at a time from
#: ``attacks.base.run_until_key``; that loop is timed as the simulator
#: (one span per measurement) rather than ``Simulator.step`` itself,
#: which is too hot to time.
#: ``harness.cube.run_cube_cell`` is a cell body the engine calls; it is
#: charged to ``unattributed`` so the engine's self time excludes it.
TARGETS: Tuple[Target, ...] = (
    _t("runtime.simulator", "runtime.simulator", "Simulator.run",
       probe=_sim_probe, settle=_sim_settle),
    _t("runtime.simulator", "runtime.simulator", "Simulator.run_until",
       probe=_sim_probe, settle=_sim_settle),
    _t("runtime.simulator", "attacks.base", "run_until_key",
       probe=_browser_sim_probe, settle=_browser_sim_settle),
    _t("runtime.eventloop", "runtime.eventloop", "EventLoop.post_task", "count",
       count="runtime.eventloop.tasks"),
    _t("runtime.eventloop", "runtime.eventloop", "EventLoop.post", "count",
       count="runtime.eventloop.tasks"),
    _t("runtime.eventloop", "runtime.eventloop", "EventLoop.post_microtask", "count",
       count="runtime.eventloop.microtasks"),
    _t("runtime.messaging", "runtime.messaging", "MessageEndpoint.post",
       count="runtime.messaging.posts"),
    _t("runtime.messaging", "runtime.messaging", "MessageEndpoint.deliver",
       count="runtime.messaging.deliveries"),
    _t("runtime.dom", "runtime.dom", "Element.descendants", "gen",
       count="runtime.dom.walks", per_item="runtime.dom.nodes_walked"),
    _t("runtime.dom", "runtime.dom", "Document.create_element",
       count="runtime.dom.elements_created"),
    _t("runtime.dom", "runtime.dom", "Document.node_count"),
    _t("runtime.render", "runtime.render", "Renderer.pump", count="runtime.render.pumps"),
    _t("runtime.render", "runtime.render", "Renderer._on_frame"),
    _t("runtime.render", "runtime.render", "Renderer.request_animation_frame", "count",
       count="runtime.render.rafs"),
    _t("runtime.network", "runtime.network", "SimNetwork.request",
       count="runtime.network.requests"),
    _t("kernel", "kernel.scheduler", "Scheduler.register", count="kernel.registered"),
    _t("kernel", "kernel.scheduler", "Scheduler.register_confirmed"),
    _t("kernel", "kernel.scheduler", "Scheduler.confirm", count="kernel.confirmed"),
    _t("kernel", "kernel.scheduler", "Scheduler.cancel", count="kernel.cancelled"),
    _t("kernel", "kernel.dispatcher", "Dispatcher.kick", count="kernel.kicks"),
    _t("kernel", "kernel.threadmgr", "ThreadManager.construct_worker"),
    _t("kernel", "kernel.threadmgr", "ThreadManager.post_to_worker"),
    _t("defenses", "defenses.base", "make_browser", count="defenses.browsers"),
    _t("trace", "trace.tracer", "Tracer.complete", "count", count="trace.records"),
    _t("trace", "trace.tracer", "Tracer.instant", "count", count="trace.records"),
    _t("trace", "trace.tracer", "Tracer.counter", "count", count="trace.records"),
    _t("trace", "trace.tracer", "Tracer.async_event", "count", count="trace.records"),
    _t("trace", "trace.metrics", "Histogram.record", "count",
       count="trace.histogram_records"),
    _t("trace", "trace.tracer", "Tracer.events"),
    _t("trace", "trace.metrics", "MetricsRegistry.snapshot"),
    _t("trace", "trace.metrics", "MetricsRegistry.merge_snapshot"),
    _t("trace", "harness.cube", "overhead_profile"),
    _t("telemetry", "telemetry.sketch", "QuantileSketch.add", count="telemetry.sketch_adds"),
    _t("harness.parallel", "harness.parallel", "ExperimentEngine.stream", "gen",
       per_item="harness.parallel.cells"),
    _t("harness.parallel", "harness.parallel", "ExperimentEngine.run",
       settle=_cells_settle),
    _t(UNATTRIBUTED, "harness.cube", "run_cube_cell"),
    _t("workloads", "workloads.sites", "generate_site", count="workloads.sites_generated"),
    _t("workloads", "workloads.sites", "site_stats", count="workloads.sites_generated"),
    _t("workloads", "workloads.population", "run_population_page"),
    _t("workloads", "workloads.population", "population_sweep"),
    _t("explore", "explore.oracles", "evaluate_run", count="explore.trials"),
    _t("explore", "explore.oracles", "traced_run", count="explore.traced_runs"),
    _t("explore", "explore.campaign", "generate_trial"),
    _t("explore", "explore.campaign", "run_fuzz_cell"),
    _t("explore", "explore.campaign", "run_campaign"),
    _t("analysis", "analysis.hbgraph", "build_hb_graph", count="analysis.hb_graphs",
       settle=_hb_settle),
    _t("analysis", "analysis.races", "analyze_races"),
    _t("analysis", "analysis.races", "detect_races"),
    _t("analysis", "analysis.determinism", "schedule_divergence"),
    _t("attacks", "attacks.base", "Attack.run"),
    _t("attacks", "attacks.base", "TimingAttack.run_trial"),
)

#: Targets no workload calls, with the reason.  The coverage test checks
#: that every other target fires, so a caller that bypasses a wrapper
#: (say, by binding the method before the wrappers went in) shows up.
NOT_EXERCISED: Dict[str, str] = {
    "repro.runtime.simulator.Simulator.run":
        "pages and attacks drive the simulator through run_until and run_until_key",
    "repro.runtime.render.Renderer.request_animation_frame":
        "no synthetic page or default-slice attack requests an animation frame",
    "repro.kernel.scheduler.Scheduler.cancel": "no workload cancels a kernel event",
    "repro.kernel.threadmgr.ThreadManager.post_to_worker":
        "no jskernel cell posts a message to a worker",
    "repro.trace.metrics.MetricsRegistry.merge_snapshot":
        "serial engine runs have no ambient tracer to merge cell metrics into",
}

#: Layers in report order (``unattributed`` is reported separately).
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(t.layer for t in TARGETS if t.layer != UNATTRIBUTED)
)
#: Layers with at least one timed target, so a self time to report.
TIMED_LAYERS: Tuple[str, ...] = tuple(
    layer for layer in LAYERS
    if any(t.layer == layer and t.kind != "count" for t in TARGETS)
)

#: Raw counters the wrappers and probes bump.
COUNTERS: Tuple[str, ...] = tuple(
    dict.fromkeys(
        [c for t in TARGETS for c in (t.count, t.per_item) if c]
        + ["runtime.simulator.events", "analysis.hb_edges", "harness.parallel.cells"]
    )
)


# ----------------------------------------------------------------------
# span log
# ----------------------------------------------------------------------
class SpanLog:
    """Capped in-memory span store: one flat ``array`` of fixed-width rows.

    A span gets its id when it opens and its row when it closes, so rows
    are in closing order (children before parents).  A row is id, name,
    layer, start, end, active time (the summed resumption slices for
    generator spans, ``end - start`` otherwise), parent id (``-1`` at the
    root) and unit id.  Rows past ``cap`` are counted in :attr:`dropped`;
    live self-time accounting continues regardless.
    """

    FIELDS = ("id", "name", "layer", "start", "end", "active", "parent", "unit")
    WIDTH = len(FIELDS)

    #: Closed rows are batched as tuples and packed into the array in bulk.
    BATCH = 4096

    def __init__(self, cap: int = 200_000):
        self.cap = cap
        self.dropped = 0
        self.opened = 0
        self.names: List[str] = []
        self.buf = array("q")
        self._batch: List[tuple] = []

    def __len__(self) -> int:
        self.flush()
        return len(self.buf) // self.WIDTH

    def intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def new_id(self) -> int:
        self.opened += 1
        return self.opened - 1

    def close(self, row: tuple) -> None:
        batch = self._batch
        batch.append(row)
        if len(batch) >= self.BATCH:
            self.flush()

    def flush(self) -> None:
        batch = self._batch
        room = max(self.cap - len(self.buf) // self.WIDTH, 0)
        self.buf.extend(itertools.chain.from_iterable(batch[:room]))
        self.dropped += max(len(batch) - room, 0)
        batch.clear()

    def rows(self) -> List[dict]:
        self.flush()
        buf, width, names = self.buf, self.WIDTH, self.names
        out = []
        for base in range(0, len(buf), width):
            row = dict(zip(self.FIELDS, buf[base:base + width]))
            row["name"] = names[row["name"]]
            row["layer"] = names[row["layer"]]
            out.append(row)
        return out

    def write(self, path: str) -> None:
        """Write the log as JSON: the row fields, the name table, the rows."""
        self.flush()
        payload = {
            "fields": list(self.FIELDS),
            "names": self.names,
            "dropped": self.dropped,
            "rows": self.buf.tolist(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, separators=(",", ":"))


def self_times(rows: List[dict], wall_ns: int) -> Dict[str, int]:
    """Per-layer self time recomputed offline from span rows.

    A span's self time is its active time minus the active time of its
    direct children; ``unattributed`` is the wall time minus the active
    time of root spans.  Equal to the live accounting when no span was
    dropped.
    """
    child_ns: Dict[int, int] = {}
    root_ns = 0
    for row in rows:
        if row["parent"] >= 0:
            child_ns[row["parent"]] = child_ns.get(row["parent"], 0) + row["active"]
        else:
            root_ns += row["active"]
    out: Dict[str, int] = {UNATTRIBUTED: wall_ns - root_ns}
    for row in rows:
        layer = row["layer"]
        out[layer] = out.get(layer, 0) + row["active"] - child_ns.get(row["id"], 0)
    return out


# ----------------------------------------------------------------------
# the recorder
# ----------------------------------------------------------------------
class Recorder:
    """Span stack, live self-time accounting, counters and the span log.

    Stack frames are ``(layer, key, span row)``.  ``mark`` holds the time
    of the last span boundary; the wrappers charge the interval since it
    to the layer on top of the stack and move it forward.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns, cap: int = 200_000):
        self.clock = clock
        self.self_ns: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_ns[UNATTRIBUTED] = 0
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        #: Calls seen per target name (coverage: did every wrapper fire?).
        self.calls: Dict[str, int] = {}
        #: Open spans per target name (re-entrant calls open none).
        self.active: Dict[str, int] = {}
        self.spans = SpanLog(cap)
        self.unit = 0
        self.wall_ns = 0
        self.stack: List[tuple] = []
        self.mark = [0]
        self._start = 0

    def start(self) -> None:
        self._start = self.mark[0] = self.clock()

    def stop(self) -> None:
        now = self.clock()
        layer = self.stack[-1][0] if self.stack else UNATTRIBUTED
        self.self_ns[layer] += now - self.mark[0]
        self.mark[0] = now
        self.wall_ns += now - self._start


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap_time(rec: Recorder, target: Target, original: Callable) -> Callable:
    layer, key = target.layer, target.name
    count, probe, settle = target.count, target.probe, target.settle
    counts, calls, active, self_ns = rec.counts, rec.calls, rec.active, rec.self_ns
    stack, mark, clock, spans = rec.stack, rec.mark, rec.clock, rec.spans
    name_id, layer_id = spans.intern(key), spans.intern(layer)
    calls.setdefault(key, 0)
    active.setdefault(key, 0)

    def wrapper(*args, **kwargs):
        calls[key] += 1
        if count:
            counts[count] += 1
        if active[key]:
            return original(*args, **kwargs)
        token = probe(args, kwargs) if probe else None
        start = clock()
        if stack:
            top = stack[-1]
            self_ns[top[0]] += start - mark[0]
            parent = top[2]
        else:
            self_ns[UNATTRIBUTED] += start - mark[0]
            parent = -1
        mark[0] = start
        span = spans.new_id()
        stack.append((layer, key, span))
        active[key] += 1
        try:
            result = original(*args, **kwargs)
        finally:
            end = clock()
            self_ns[layer] += end - mark[0]
            mark[0] = end
            stack.pop()
            active[key] -= 1
            spans.close((span, name_id, layer_id, start, end, end - start, parent, rec.unit))
        if settle:
            settle(counts, token, args, result)
        return result

    return wrapper


def _wrap_count(rec: Recorder, target: Target, original: Callable) -> Callable:
    key, count = target.name, target.count
    counts, calls = rec.counts, rec.calls
    calls.setdefault(key, 0)

    def wrapper(*args, **kwargs):
        calls[key] += 1
        counts[count] += 1
        return original(*args, **kwargs)

    return wrapper


def _timed_iteration(rec: Recorder, target: Target, inner, name_id: int, layer_id: int):
    """Drive ``inner``, charging only its resumptions to the target's layer."""
    layer, key, per_item = target.layer, target.name, target.per_item
    counts, active, self_ns = rec.counts, rec.active, rec.self_ns
    stack, mark, clock, spans = rec.stack, rec.mark, rec.clock, rec.spans
    span = None
    first = opener = busy = items = end = 0
    try:
        while True:
            start = clock()
            if stack:
                top = stack[-1]
                self_ns[top[0]] += start - mark[0]
                parent = top[2]
            else:
                self_ns[UNATTRIBUTED] += start - mark[0]
                parent = -1
            if span is None:
                span, first, opener = spans.new_id(), start, parent
            mark[0] = start
            stack.append((layer, key, span))
            active[key] += 1
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                end = clock()
                self_ns[layer] += end - mark[0]
                mark[0] = end
                stack.pop()
                active[key] -= 1
                busy += end - start
            items += 1
            yield item
    finally:
        if per_item:
            counts[per_item] += items
        if span is not None:
            spans.close((span, name_id, layer_id, first, end, busy, opener, rec.unit))
        inner.close()


def _wrap_gen(rec: Recorder, target: Target, original: Callable) -> Callable:
    key, count = target.name, target.count
    counts, calls, active = rec.counts, rec.calls, rec.active
    name_id, layer_id = rec.spans.intern(key), rec.spans.intern(target.layer)
    calls.setdefault(key, 0)
    active.setdefault(key, 0)

    def wrapper(*args, **kwargs):
        calls[key] += 1
        if active[key]:
            return original(*args, **kwargs)
        if count:
            counts[count] += 1
        return _timed_iteration(rec, target, original(*args, **kwargs), name_id, layer_id)

    return wrapper


_WRAPPERS = {"time": _wrap_time, "count": _wrap_count, "gen": _wrap_gen}


def _wrap(rec: Recorder, target: Target, original):
    """A wrapper for ``original`` (a function or a property)."""
    if isinstance(original, property):
        return property(_wrap(rec, target, original.fget))
    wrapper = _WRAPPERS[target.kind](rec, target, original)
    wrapper.__name__ = getattr(original, "__name__", target.path)
    wrapper.__qualname__ = getattr(original, "__qualname__", target.path)
    wrapper.__doc__ = original.__doc__
    setattr(wrapper, MARK, target.name)
    return wrapper


def _subclasses(cls: type) -> List[type]:
    found, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


def _repro_modules() -> List[object]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Installation:
    """The patches one :func:`install` made; :meth:`remove` undoes them."""

    def __init__(self):
        self.patches: List[Tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def remove(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()


def install(rec: Recorder, targets: Tuple[Target, ...] = TARGETS) -> Installation:
    """Wrap every target; returns the installation to remove afterwards.

    Methods are wrapped on their class and on every subclass that
    overrides them.  Functions are wrapped in their module and in every
    ``repro`` module that imported them by name — a caller that bound
    the function at import time would otherwise bypass the wrapper.
    """
    done = Installation()
    modules = _repro_modules()
    for target in targets:
        module = importlib.import_module(target.module)
        owner_name, _, attr = target.path.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name)
            for owner in [cls, *_subclasses(cls)]:
                if attr in owner.__dict__:
                    done.patch(owner, attr, _wrap(rec, target, owner.__dict__[attr]))
            continue
        original = getattr(module, attr)
        wrapper = _wrap(rec, target, original)
        for other in modules:
            namespace = vars(other)
            for name, value in list(namespace.items()):
                if value is original:
                    done.patch(other, name, wrapper)
    return done


def leftover_wrappers() -> List[str]:
    """Every wrapper still reachable from a ``repro`` module or class."""
    found = []
    seen = set()
    for module in _repro_modules():
        for name, value in list(vars(module).items()):
            if hasattr(value, MARK):
                found.append(f"{module.__name__}.{name}")
            if isinstance(value, type) and value not in seen:
                seen.add(value)
                for attr, member in value.__dict__.items():
                    inner = member.fget if isinstance(member, property) else member
                    if hasattr(inner, MARK):
                        found.append(f"{value.__module__}.{value.__qualname__}.{attr}")
    return sorted(set(found))


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def layer_metrics(
    rec: Recorder, units: int, untraced_unit_s: float
) -> Dict[str, Tuple[float, str]]:
    """The traced run's per-layer metrics: ``name -> (value, unit)``.

    Everything that grows with the run is reported per attempted unit,
    so a faster build that fits more units into the run does not read
    as more work: self times in ``s/unit`` (they sum, with
    ``unattributed.self_s``, to ``traced_wall_s``) and counts in
    ``count/unit``.
    """
    counts = rec.counts
    per_unit = max(units, 1)
    out: Dict[str, Tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (rec.self_ns[layer] / 1e9 / per_unit, "s/unit")
    for name in COUNTERS:
        if name != "explore.traced_runs":
            out[name] = (counts[name] / per_unit, "count/unit")
    events = counts["runtime.simulator.events"]
    out["runtime.simulator.host_ns_per_event"] = (
        rec.self_ns["runtime.simulator"] / events if events else 0.0, "ns"
    )
    registered = counts["kernel.registered"]
    out["kernel.confirm_frac"] = (
        counts["kernel.confirmed"] / registered if registered else 0.0, "fraction"
    )
    # every trial runs once; further traced runs are determinism replays
    out["explore.replays"] = (
        max(counts["explore.traced_runs"] - counts["explore.trials"], 0) / per_unit,
        "count/unit",
    )
    out["unattributed.self_s"] = (rec.self_ns[UNATTRIBUTED] / 1e9 / per_unit, "s/unit")
    traced_unit_s = rec.wall_ns / 1e9 / per_unit
    out["traced_wall_s"] = (traced_unit_s, "s/unit")
    out["trace_overhead_x"] = (
        traced_unit_s / untraced_unit_s if untraced_unit_s > 0 else 0.0, "x"
    )
    return out
