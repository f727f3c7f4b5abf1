"""Parallel sharded execution engine for experiment cells.

The paper's evaluation (§IV–§V) is an embarrassingly parallel grid: every
Table I ``(attack, defense, seed)`` cell, determinism-audit seed, Figure
2 size point and Alexa site visit is a pure deterministic function of its
parameters.  This module shards those cells across a process pool and
reassembles the results in submission order, so a parallel run is
byte-identical to a serial one — determinism is the repo's headline
property, and the engine is itself audited by the existing
:mod:`repro.analysis.determinism` machinery (see ``python -m repro bench``
and ``tests/test_parallel_engine.py``).

Execution model
---------------

* A :class:`Cell` is ``(kind, params)``; each kind names a registered
  runner (a module-level function, so it pickles under both ``fork`` and
  ``spawn`` start methods).
* ``workers <= 1`` runs cells in-process, in order, under whatever tracer
  capture is ambient — exactly the historical serial behaviour.
* ``workers > 1`` dispatches contiguous chunks to a
  :class:`~concurrent.futures.ProcessPoolExecutor`.  Each worker runs its
  chunk under a private :class:`~repro.trace.Tracer` when the parent has
  an enabled capture, and the parent merges the per-worker metrics
  snapshots back into the ambient registry **in chunk order**, so
  counters and histograms equal the serial capture's (trace *events* are
  not shipped back — use a serial run when you need the full timeline).
* Every cell is individually guarded: a poisoned cell produces a
  :class:`CellResult` with ``error`` set instead of killing the pool.
* With a :class:`~repro.harness.cache.ResultCache`, cells already on disk
  are never dispatched at all, and fresh results are stored after the
  run; computed payloads are JSON-normalised first so a warm rerun
  returns byte-identical objects.
"""

from __future__ import annotations

import json
import math
import traceback
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..telemetry.run import RunTelemetry, current_run
from ..telemetry.spans import worker_recorder
from ..trace import Tracer, capture, current_tracer
from .cache import ResultCache, as_cache


@dataclass(frozen=True)
class Cell:
    """One experiment cell: a registered kind plus its parameters."""

    kind: str
    params: Dict[str, Any] = field(default_factory=dict)

    def label(self) -> str:
        """Compact human-readable identity (error messages, reports)."""
        inner = ", ".join(f"{k}={v!r}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})"


@dataclass
class CellResult:
    """Outcome of one cell: payload on success, error text on failure."""

    cell: Cell
    payload: Any = None
    error: Optional[str] = None
    cached: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None


# ----------------------------------------------------------------------
# cell-kind registry
# ----------------------------------------------------------------------
_RUNNERS: Dict[str, Callable[..., Any]] = {}


def cell_kind(name: str):
    """Register a module-level function as the runner for ``name``."""

    def decorate(fn):
        _RUNNERS[name] = fn
        return fn

    return decorate


@cell_kind("table1")
def _run_table1_cell(attack: str, defense: str, seed: int) -> dict:
    """One Table I cell: did the defense stop the attack?"""
    from ..attacks import create as create_attack

    result = create_attack(attack).run(defense, seed=seed)
    return {"defended": result.defended, "detail": result.detail}


@cell_kind("audit-schedule")
def _run_audit_cell(attack: str, defense: str, seed: int) -> dict:
    """One determinism-audit shard: the dispatch schedule under one seed."""
    from ..analysis.determinism import schedule_for_seed

    schedule, outcome = schedule_for_seed(attack, defense, seed)
    return {"schedule": schedule, "outcome": outcome}


@cell_kind("figure2")
def _run_figure2_cell(defense: str, size: int, seed: int) -> dict:
    """One Figure 2 point: reported parsing time for one file size."""
    from ..attacks.timing.script_parsing import ScriptParsingAttack

    return {"reported_ms": ScriptParsingAttack().reported_time_ms(defense, size, seed=seed)}


@cell_kind("table2")
def _run_table2_cell(defense: str, runs: int, seed: int) -> dict:
    """One Table II row: SVG-filtering and loopscan averages."""
    from ..analysis.stats import mean
    from ..attacks.timing.loopscan import LoopscanAttack
    from ..attacks.timing.svg_filtering import SvgFilteringAttack
    from ..runtime.rng import hash_seed

    svg = SvgFilteringAttack()
    loopscan = LoopscanAttack()

    def avg(attack, secret):
        return mean(
            [
                attack.run_trial(defense, secret, hash_seed(seed, f"t2:{defense}:{secret}:{i}"))
                for i in range(runs)
            ]
        )

    return {
        "svg_low_ms": avg(svg, "low"),
        "svg_high_ms": avg(svg, "high"),
        "loopscan_google_ms": avg(loopscan, "google"),
        "loopscan_youtube_ms": avg(loopscan, "youtube"),
    }


@cell_kind("alexa")
def _run_alexa_cell(config: str, rank: int, site_count: int, visits: int, seed: int) -> dict:
    """One Figure 3 cell: a site's average load time under one config."""
    from ..workloads.alexa import measure_site_average, site_for_rank

    site = site_for_rank(rank, site_count, seed)
    return {"avg_ms": measure_site_average(config, site, visits=visits, seed=seed)}


@cell_kind("population")
def _run_population_cell(
    rank: int,
    seed: int,
    size: int,
    mode: str = "model",
    config: str = "",
    visit: int = 0,
) -> dict:
    """One population-sweep visit (see :mod:`repro.workloads.population`)."""
    from ..workloads.population import run_population_page

    return run_population_page(
        rank, seed, size=size, mode=mode, config=config, visit=visit
    )


@cell_kind("fuzz")
def _run_fuzz_cell(**params) -> dict:
    """One fuzz-campaign shard (see :mod:`repro.explore.campaign`)."""
    from ..explore.campaign import run_fuzz_cell

    return run_fuzz_cell(**params)


@cell_kind("fuzz-diff")
def _run_fuzz_diff_cell(**params) -> dict:
    """One differential fuzz shard (see :mod:`repro.explore.campaign`)."""
    from ..explore.campaign import run_diff_cell

    return run_diff_cell(**params)


@cell_kind("cube")
def _run_cube_cell(attack: str, defense: str, seed: int, sketches: bool = False) -> dict:
    """One defense × attack cube cell: verdict + overhead profile."""
    from ..harness.cube import run_cube_cell

    return run_cube_cell(attack, defense, seed=seed, sketches=sketches)


# ----------------------------------------------------------------------
# worker-side execution
# ----------------------------------------------------------------------
def _jsonify(payload: Any) -> Any:
    """Normalise a payload through a JSON round-trip.

    Guarantees a computed result equals its cached-then-reloaded twin
    (tuples become lists, dict keys become strings) — the invariant the
    byte-identical warm-rerun promise rests on.
    """
    return json.loads(json.dumps(payload))


def _run_cell(spec: Tuple[str, Dict[str, Any]]) -> dict:
    """Run one cell spec; never raises — errors are captured per cell."""
    kind, params = spec
    runner = _RUNNERS.get(kind)
    if runner is None:
        return {"ok": False, "payload": None, "error": f"unknown cell kind {kind!r}"}
    try:
        return {"ok": True, "payload": _jsonify(runner(**params)), "error": None}
    except Exception as exc:
        return {
            "ok": False,
            "payload": None,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }


def _run_chunk(
    batch: Tuple[List[Tuple[str, Dict[str, Any]]], bool, bool, int],
) -> Tuple[List[dict], Optional[dict]]:
    """Worker entry point: run a contiguous chunk of cell specs.

    When ``collect_metrics`` is set the chunk runs under a private
    metrics-only capture (no trace events are buffered) and the metrics
    snapshot rides back with the results.  When ``collect_telemetry`` is
    set the tracer also records quantile sketches, and the worker appends
    its shard lifecycle and per-cell outcomes to the shared run log (the
    path rides in through ``$REPRO_RUNLOG``).
    """
    specs, collect_metrics, collect_telemetry, shard = batch
    # worker_recorder() installs itself as the process-ambient recorder,
    # so a long-lived pool worker reuses one run-log handle across chunks
    recorder = worker_recorder() if collect_telemetry else None

    def execute() -> List[dict]:
        results = []
        for spec in specs:
            outcome = _run_cell(spec)
            if recorder is not None:
                recorder.point(
                    "engine.cell", kind=spec[0], ok=outcome["ok"], cached=False
                )
            results.append(outcome)
        return results

    if not collect_metrics:
        return execute(), None
    tracer = Tracer(events=False)
    tracer.metrics.sketch_observations = collect_telemetry
    if recorder is not None:
        with recorder.span("engine.shard", shard=shard, cells=len(specs)):
            with capture(tracer):
                results = execute()
    else:
        with capture(tracer):
            results = execute()
    return results, tracer.metrics.snapshot()


# ----------------------------------------------------------------------
# the engine
# ----------------------------------------------------------------------
class ExperimentEngine:
    """Shard experiment cells across workers, with an optional cache.

    ``workers=None``/``0``/``1`` runs serially in-process (the ambient
    tracer capture applies directly); ``workers=N`` fans chunks out to N
    processes.  ``cache`` accepts anything :func:`~repro.harness.cache.as_cache`
    does.  After :meth:`run`, :attr:`computed`, :attr:`cache_hits` and
    :attr:`errors` describe what happened.
    """

    def __init__(
        self,
        workers: Optional[int] = None,
        cache=None,
        chunk_size: Optional[int] = None,
    ):
        self.workers = int(workers) if workers else 0
        self.cache: Optional[ResultCache] = as_cache(cache)
        self.chunk_size = chunk_size
        self.computed = 0
        self.cache_hits = 0
        self.errors = 0

    # ------------------------------------------------------------------
    def run(self, cells: Sequence[Cell]) -> List[CellResult]:
        """Execute every cell; results come back in submission order."""
        cells = list(cells)
        telem = current_run()
        results: List[Optional[CellResult]] = [None] * len(cells)
        # counters accumulate across run() calls; metrics report deltas
        computed_before = self.computed
        cache_hits_before = self.cache_hits
        errors_before = self.errors
        cache_before = (
            (self.cache.hits, self.cache.misses, self.cache.stores)
            if self.cache is not None
            else None
        )
        if telem is not None:
            telem.engine_run_started(len(cells), self.workers)

        pending: List[Tuple[int, Cell]] = []
        keys: Dict[int, str] = {}
        for index, cell in enumerate(cells):
            if self.cache is not None:
                key = self.cache.key(cell.kind, cell.params)
                keys[index] = key
                entry = self.cache.get(key)
                if entry is not None:
                    self.cache_hits += 1
                    results[index] = CellResult(cell, payload=entry["payload"], cached=True)
                    if telem is not None:
                        telem.cell_finished(cell, ok=True, cached=True)
                    continue
            pending.append((index, cell))

        if pending:
            pending_cells = [cell for _i, cell in pending]
            if self.workers > 1:
                raw = self._iter_pool(pending_cells, telem)
            else:
                raw = self._iter_serial(pending_cells, telem)
            for (index, cell), outcome in zip(pending, raw):
                self.computed += 1
                if outcome["ok"]:
                    result = CellResult(cell, payload=outcome["payload"])
                    if self.cache is not None:
                        self.cache.put(keys[index], cell.kind, cell.params, outcome["payload"])
                else:
                    self.errors += 1
                    result = CellResult(cell, error=outcome["error"])
                results[index] = result
                if telem is not None:
                    # the worker (parallel) or the serial loop's span
                    # already logged this cell; just account and repaint
                    telem.cell_finished(
                        cell,
                        ok=outcome["ok"],
                        cached=False,
                        error=outcome["error"],
                        emit=self.workers <= 1,
                    )

        tracer = current_tracer()
        if tracer.enabled:
            # surface engine traffic in --metrics output alongside the
            # cache's own get/put counters (see repro.harness.cache)
            metrics = tracer.metrics
            metrics.counter("engine.cells").inc(len(cells))
            metrics.counter("engine.computed").inc(self.computed - computed_before)
            metrics.counter("engine.cache_hits").inc(self.cache_hits - cache_hits_before)
            if self.errors > errors_before:
                metrics.counter("engine.errors").inc(self.errors - errors_before)
        if telem is not None and cache_before is not None:
            # mirror the ResultCache's own traffic counters (delta for
            # this run) into the snapshot's dedicated cache section —
            # the cache.* counters in the ambient registry stay where
            # they are, and the telemetry metrics section never carries
            # them, so nothing is double-counted
            telem.record_cache_traffic(
                self.cache.hits - cache_before[0],
                self.cache.misses - cache_before[1],
                self.cache.stores - cache_before[2],
            )

        return [result for result in results if result is not None]

    # ------------------------------------------------------------------
    # streaming execution
    # ------------------------------------------------------------------

    #: Chunk size :meth:`stream` uses when ``chunk_size`` is unset.
    #: A streaming run does not know its total cell count up front, so a
    #: fixed batch amortises process dispatch while keeping the resident
    #: window small (``window * STREAM_CHUNK`` cells at most).
    STREAM_CHUNK = 32

    def stream(
        self,
        cells: Iterable[Cell],
        window: Optional[int] = None,
    ) -> Iterator[CellResult]:
        """Execute a cell *iterator* with a bounded in-flight window.

        Unlike :meth:`run`, which materialises every cell and result,
        ``stream`` pulls cells lazily, keeps at most ``window`` chunks
        in flight (default ``2 * workers``), and yields each
        :class:`CellResult` as its shard completes — in **submission
        order**, so per-chunk metrics snapshots still merge in shard
        order and the merged telemetry equals a serial run's.  Resident
        state never exceeds the window: a million-cell sweep whose
        consumer aggregates into mergeable sketches runs in flat memory.

        Closing the generator early (``break``, per-job cancellation in
        serve mode) cancels every chunk that has not started and waits
        only for the chunks already running.
        """
        telem = current_run()
        computed_before = self.computed
        cache_hits_before = self.cache_hits
        errors_before = self.errors
        cache_before = (
            (self.cache.hits, self.cache.misses, self.cache.stores)
            if self.cache is not None
            else None
        )
        if telem is not None:
            telem.engine_stream_started(self.workers)
        yielded = 0
        try:
            if self.workers > 1:
                source = self._stream_pool(cells, telem, window)
            else:
                source = self._stream_serial(cells, telem)
            for result in source:
                yielded += 1
                yield result
        finally:
            tracer = current_tracer()
            if tracer.enabled:
                metrics = tracer.metrics
                metrics.counter("engine.cells").inc(yielded)
                metrics.counter("engine.computed").inc(self.computed - computed_before)
                metrics.counter("engine.cache_hits").inc(
                    self.cache_hits - cache_hits_before
                )
                if self.errors > errors_before:
                    metrics.counter("engine.errors").inc(self.errors - errors_before)
            if telem is not None and cache_before is not None:
                telem.record_cache_traffic(
                    self.cache.hits - cache_before[0],
                    self.cache.misses - cache_before[1],
                    self.cache.stores - cache_before[2],
                )

    def _finish_computed(
        self,
        cell: Cell,
        key: Optional[str],
        outcome: dict,
        telem: Optional[RunTelemetry],
        emit: bool,
    ) -> CellResult:
        """Fold one computed outcome into counters/cache/telemetry."""
        self.computed += 1
        if outcome["ok"]:
            result = CellResult(cell, payload=outcome["payload"])
            if self.cache is not None and key is not None:
                self.cache.put(key, cell.kind, cell.params, outcome["payload"])
        else:
            self.errors += 1
            result = CellResult(cell, error=outcome["error"])
        if telem is not None:
            telem.cell_finished(
                cell, ok=outcome["ok"], cached=False, error=outcome["error"], emit=emit
            )
        return result

    def _stream_serial(
        self, cells: Iterable[Cell], telem: Optional[RunTelemetry]
    ) -> Iterator[CellResult]:
        """In-process streaming: one cell resident at a time."""
        for cell in cells:
            if telem is not None:
                telem.cell_admitted()
            key = None
            if self.cache is not None:
                key = self.cache.key(cell.kind, cell.params)
                entry = self.cache.get(key)
                if entry is not None:
                    self.cache_hits += 1
                    if telem is not None:
                        telem.cell_finished(cell, ok=True, cached=True)
                    yield CellResult(cell, payload=entry["payload"], cached=True)
                    continue
            outcome = self._serial_outcome(cell, telem)
            yield self._finish_computed(cell, key, outcome, telem, emit=True)

    def _stream_pool(
        self,
        cells: Iterable[Cell],
        telem: Optional[RunTelemetry],
        window: Optional[int],
    ) -> Iterator[CellResult]:
        """Chunked pool streaming with a bounded in-flight window.

        Cache hits and completed chunks are yielded strictly in
        submission order; admission blocks (on the oldest future) once
        ``window`` chunks are in flight, which is what bounds both the
        pool's backlog and the parent's resident state.
        """
        tracer = current_tracer()
        collect_telemetry = telem is not None
        collect_metrics = tracer.enabled or collect_telemetry
        chunk = self.chunk_size or self.STREAM_CHUNK
        window = int(window) if window else max(2, self.workers * 2)
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")

        #: ("hit", cell, payload) | ("chunk", shard, [(cell, key)...], future)
        out: deque = deque()
        state = {"shard": 0, "in_flight": 0}
        buffer: List[Tuple[Cell, Optional[str]]] = []

        def flush(pool) -> None:
            nonlocal buffer
            if not buffer:
                return
            specs = [(cell.kind, cell.params) for cell, _key in buffer]
            future = pool.submit(
                _run_chunk, (specs, collect_metrics, collect_telemetry, state["shard"])
            )
            out.append(("chunk", state["shard"], buffer, future))
            if telem is not None:
                telem.shards_planned(1)
            state["shard"] += 1
            state["in_flight"] += 1
            buffer = []

        def drain(entry) -> Iterator[CellResult]:
            if entry[0] == "hit":
                _kind, cell, payload = entry
                self.cache_hits += 1
                if telem is not None:
                    telem.cell_finished(cell, ok=True, cached=True)
                yield CellResult(cell, payload=payload, cached=True)
                return
            _kind, shard, batch, future = entry
            chunk_results, snapshot = future.result()
            state["in_flight"] -= 1
            if snapshot is not None:
                ambient = current_tracer()
                if ambient.enabled:
                    ambient.metrics.merge_snapshot(snapshot)
                if telem is not None:
                    telem.merge_metrics(snapshot)
            if telem is not None:
                telem.shard_done(shard, len(chunk_results))
            for (cell, key), outcome in zip(batch, chunk_results):
                yield self._finish_computed(cell, key, outcome, telem, emit=False)

        def ready() -> bool:
            """Is the head of the output queue safe to drain now?

            Hits and completed chunks always are; a pending chunk only
            once the window is full (then we *block* on it — that is
            the flow control).
            """
            if not out:
                return False
            head = out[0]
            if head[0] == "hit" or head[3].done():
                return True
            return state["in_flight"] >= window

        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            for cell in cells:
                if telem is not None:
                    telem.cell_admitted()
                entry = None
                key = None
                if self.cache is not None:
                    key = self.cache.key(cell.kind, cell.params)
                    entry = self.cache.get(key)
                if entry is not None:
                    # a hit must not overtake buffered misses admitted
                    # before it: seal them into a (possibly short) chunk
                    # first so results stay in strict submission order
                    flush(pool)
                    out.append(("hit", cell, entry["payload"]))
                else:
                    buffer.append((cell, key))
                    if len(buffer) >= chunk:
                        flush(pool)
                while ready():
                    yield from drain(out.popleft())
            flush(pool)
            while out:
                yield from drain(out.popleft())
        finally:
            # an early close (consumer cancelled mid-stream) lands here
            # with futures still queued: cancel what never started, wait
            # only for the chunks already on a worker
            pool.shutdown(wait=True, cancel_futures=True)

    # ------------------------------------------------------------------
    def _serial_outcome(self, cell: Cell, telem: Optional[RunTelemetry]) -> dict:
        """Run one cell in-process (the telemetry-aware serial body).

        Without telemetry this is the historical serial path: the cell
        runs directly under the ambient tracer capture.  With telemetry
        the cell runs under a private sketch-recording metrics-only
        capture whose snapshot is folded into the telemetry metric set
        *and* the ambient tracer — the same merge semantics as a pool
        worker, so serial and parallel telemetry snapshots are
        byte-identical (trace *events* are not buffered in telemetry
        mode, matching the pool).
        """
        spec = (cell.kind, cell.params)
        if telem is None:
            return _run_cell(spec)
        tracer = Tracer(events=False)
        tracer.metrics.sketch_observations = True
        recorder = telem.recorder
        if recorder is not None:
            with recorder.span("engine.cell.run", kind=cell.kind):
                with capture(tracer):
                    outcome = _run_cell(spec)
        else:
            with capture(tracer):
                outcome = _run_cell(spec)
        snapshot = tracer.metrics.snapshot()
        telem.merge_metrics(snapshot)
        ambient = current_tracer()
        if ambient.enabled:
            ambient.metrics.merge_snapshot(snapshot)
        return outcome

    def _iter_serial(self, cells: Iterable[Cell], telem: Optional[RunTelemetry]):
        """In-process execution, yielding outcomes one cell at a time."""
        for cell in cells:
            yield self._serial_outcome(cell, telem)

    def _iter_pool(self, cells: List[Cell], telem: Optional[RunTelemetry]):
        """Chunked pool dispatch, yielding outcomes in submission order.

        Per-chunk metrics snapshots merge back in chunk order (both into
        the ambient tracer and the telemetry run), which keeps parallel
        runs metric-identical to serial ones regardless of completion
        order.
        """
        tracer = current_tracer()
        collect_telemetry = telem is not None
        collect_metrics = tracer.enabled or collect_telemetry
        specs = [(cell.kind, cell.params) for cell in cells]
        chunk = self.chunk_size or max(1, math.ceil(len(specs) / (self.workers * 4)))
        batches = [
            (specs[start : start + chunk], collect_metrics, collect_telemetry, shard)
            for shard, start in enumerate(range(0, len(specs), chunk))
        ]
        if telem is not None:
            telem.shards_planned(len(batches))
        with ProcessPoolExecutor(max_workers=self.workers) as pool:
            # pool.map preserves batch order, which keeps result assembly
            # and metrics merging deterministic regardless of completion
            # order
            for shard, (chunk_results, snapshot) in enumerate(
                pool.map(_run_chunk, batches)
            ):
                if snapshot is not None:
                    if tracer.enabled:
                        tracer.metrics.merge_snapshot(snapshot)
                    if telem is not None:
                        telem.merge_metrics(snapshot)
                if telem is not None:
                    telem.shard_done(shard, len(chunk_results))
                for outcome in chunk_results:
                    yield outcome


def run_cells(
    cells: Sequence[Cell],
    parallel: Optional[int] = None,
    cache=None,
) -> List[CellResult]:
    """One-shot convenience wrapper around :class:`ExperimentEngine`."""
    return ExperimentEngine(workers=parallel, cache=cache).run(cells)


__all__ = [
    "Cell",
    "CellResult",
    "ExperimentEngine",
    "cell_kind",
    "run_cells",
]
