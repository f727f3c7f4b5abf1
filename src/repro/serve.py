"""Long-running experiment service: ``python -m repro serve``.

The campaign commands are one-shot: build the cell list, run, print,
exit.  The service mode keeps an :class:`~repro.harness.parallel.
ExperimentEngine` resident and accepts **experiment jobs** as JSON lines
over a local ``AF_UNIX`` socket, streaming incremental results and
telemetry snapshots back on the same connection — the shape a
dashboard, a batch scheduler or the CI smoke job talks to.

Protocol (newline-delimited JSON, one object per line, both ways):

Requests::

    {"op": "submit", "job": {"kind": "population", "size": 5000, ...}}
    {"op": "cancel", "job_id": "job-3"}
    {"op": "status"}
    {"op": "ping"}
    {"op": "shutdown"}

A ``submit`` streams frames until the job resolves; every frame carries
``type`` and ``ts`` (unix seconds)::

    {"type": "accepted",  "job": "job-1", "kind": "population", ...}
    {"type": "result",    "job": "job-1", "seq": 0, "ok": true, "payload": ...}
    {"type": "telemetry", "job": "job-1", "done": 50, "errors": 0,
     "cached": 0, "computed": 50, "quantiles": {"p50_ms": ...}, ...}
    {"type": "done",      "job": "job-1", "report": {...}}

plus ``cancelled`` / ``error`` terminal frames, ``pong`` for pings and
``status`` / ``bye`` for the control ops.  A line that is not a JSON
object gets an ``error`` frame and the connection keeps serving; a
job spec (population or campaign) with a mistyped, out-of-range or
unknown-name field is refused before ``accepted`` with an ``error`` frame
naming it (``"field": "size"``).
Large population jobs set ``result_every`` to thin the per-page result
frames (0 = none, rely on the periodic telemetry frames); the summary
statistics are unaffected — aggregation happens server-side in the
bounded :class:`~repro.workloads.population.PopulationAggregate`.

Concurrency model: one accept loop plus one thread per connection.
Jobs execute on their connection's thread, serialized by a run lock
(the engine's process pool is the parallelism; overlapping jobs would
fight over workers).  ``cancel`` — from any connection — sets the job's
cancel event, which the runner polls between results; a client that
disconnects mid-stream cancels its own job the same way.  ``shutdown``
cancels everything, closes the listener and unlinks the socket path.

:func:`submit_and_stream`, :func:`request` and :func:`serve_forever`
are the client/CLI halves used by ``python -m repro serve`` and the
tests.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from typing import Callable, Dict, Iterator, List, Optional

__all__ = [
    "ExperimentServer",
    "JOB_KINDS",
    "request",
    "serve_forever",
    "submit_and_stream",
]

#: Telemetry frame cadence: one snapshot per this many finished cells.
DEFAULT_TELEMETRY_EVERY = 50


class _ClientGone(Exception):
    """The submitting client hung up mid-stream."""


class _Cancelled(Exception):
    """The job's cancel event fired."""


class JobSpecError(ValueError):
    """A job spec field has the wrong type or is out of range."""

    def __init__(self, field: str, message: str):
        super().__init__(f"job field {field!r}: {message}")
        self.field = field


#: Integer fields of a population job spec -> their minimum (None: any).
_POPULATION_INTS: Dict[str, Optional[int]] = {
    "size": 1,
    "seed": None,
    "visits": 1,
    "sessions": 1,
    "window": 1,
    "result_every": 0,
    "telemetry_every": 0,
}
#: Integer fields of a campaign job spec -> their minimum (None: any).
_CAMPAIGN_INTS: Dict[str, Optional[int]] = {
    "seed": None,
    "budget": 1,
    "max_witnesses": 1,
    "telemetry_every": 0,
    "parallel": 1,
}
#: Fields that may be ``null`` (their runner treats None as "not given").
_NULLABLE = ("sessions", "window", "parallel")


def _check_ints(spec: dict, ints: Dict[str, Optional[int]]) -> None:
    for field, minimum in ints.items():
        if field not in spec or (spec[field] is None and field in _NULLABLE):
            continue
        value = spec[field]
        if isinstance(value, bool) or not isinstance(value, int):
            raise JobSpecError(field, f"expected an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise JobSpecError(field, f"must be >= {minimum}, got {value}")


def _check_choice(spec: dict, field: str, default: str, choices: List[str]) -> None:
    value = spec.get(field, default)
    if value not in choices:
        raise JobSpecError(field, f"expected one of {choices}, got {value!r}")


def _check_population_spec(spec: dict) -> None:
    """Raise :class:`JobSpecError` for the first bad field of ``spec``."""
    from .workloads.population import MODES

    _check_ints(spec, _POPULATION_INTS)
    _check_choice(spec, "mode", "model", list(MODES))


def _check_campaign_spec(spec: dict) -> None:
    """Raise :class:`JobSpecError` for the first bad field of ``spec``."""
    from .attacks import all_attack_names
    from .defenses import available
    from .explore.campaign import DEFAULT_ATTACK, DEFAULT_DEFENSE, STRATEGIES

    _check_choice(spec, "attack", DEFAULT_ATTACK, all_attack_names())
    _check_choice(spec, "defense", DEFAULT_DEFENSE, available())
    _check_choice(spec, "strategy", "mixed", ["mixed", *STRATEGIES])
    _check_ints(spec, _CAMPAIGN_INTS)
    cache = spec.get("cache")
    if cache is not None and not isinstance(cache, str):
        raise JobSpecError("cache", f"expected a string or null, got {cache!r}")


#: Job kind -> spec validator, run before the job is ``accepted``.
_SPEC_CHECKS: Dict[str, Callable[[dict], None]] = {
    "population": _check_population_spec,
    "campaign": _check_campaign_spec,
}


class JobState:
    """Registry entry for one submitted job."""

    def __init__(self, job_id: str, kind: str):
        self.job_id = job_id
        self.kind = kind
        self.status = "running"  # running | done | cancelled | error
        self.cancel = threading.Event()
        self.results = 0
        self.errors = 0
        self.started = time.time()
        self.finished: Optional[float] = None

    def describe(self) -> dict:
        return {
            "id": self.job_id,
            "kind": self.kind,
            "status": self.status,
            "results": self.results,
            "errors": self.errors,
        }


# ----------------------------------------------------------------------
# job kinds
# ----------------------------------------------------------------------
def _run_population_job(spec: dict, emit, state: JobState) -> dict:
    """A population sweep streamed cell by cell (see ``workloads.population``)."""
    from .harness.parallel import ExperimentEngine
    from .telemetry.sketch import QuantileSketch
    from .workloads.population import (
        DEFAULT_BROWSER_MIX,
        PopulationAggregate,
        PopulationModel,
        population_cells,
        session_cells,
    )

    size = int(spec.get("size", 1000))
    seed = int(spec.get("seed", 0))
    mode = str(spec.get("mode", "model"))
    visits = int(spec.get("visits", 1))
    sessions = spec.get("sessions")
    window = spec.get("window")
    result_every = int(spec.get("result_every", 0))
    telemetry_every = int(spec.get("telemetry_every", DEFAULT_TELEMETRY_EVERY))
    engine = ExperimentEngine(
        workers=spec.get("parallel"), cache=spec.get("cache") or None
    )
    if sessions is not None:
        model = PopulationModel(size=size, seed=seed, browser_mix=DEFAULT_BROWSER_MIX)
        cells = session_cells(model, int(sessions), mode=mode)
    else:
        cells = population_cells(size, seed=seed, mode=mode, visits=visits)

    aggregate = PopulationAggregate()
    overall = QuantileSketch()
    seq = 0
    for result in engine.stream(cells, window=window):
        if state.cancel.is_set():
            raise _Cancelled()
        aggregate.add(result)
        if result.ok:
            overall.add(int(round(result.payload["load_ms"] * 1000.0)))
        else:
            state.errors += 1
        if result_every and seq % result_every == 0:
            emit(
                type="result",
                seq=seq,
                ok=result.ok,
                cached=result.cached,
                payload=result.payload if result.ok else None,
                error=result.error,
            )
        seq += 1
        state.results = seq
        if telemetry_every and seq % telemetry_every == 0:
            emit(
                type="telemetry",
                done=seq,
                errors=len(aggregate.errors) + aggregate.error_overflow,
                cached=engine.cache_hits,
                computed=engine.computed,
                quantiles={
                    label: (None if value is None else round(value / 1000.0, 3))
                    for label, value in overall.quantiles().items()
                },
            )
    report = aggregate.report()
    report.update(
        {
            "size": size,
            "seed": seed,
            "mode": mode,
            "sessions": sessions,
            "computed": engine.computed,
            "cache_hits": engine.cache_hits,
        }
    )
    return report


def _run_campaign_job(spec: dict, emit, state: JobState) -> dict:
    """A fuzz campaign (``explore.campaign``) with progress telemetry."""
    from .explore.campaign import DEFAULT_ATTACK, DEFAULT_DEFENSE, run_campaign

    telemetry_every = int(spec.get("telemetry_every", 4))

    def on_result(done: int, report: dict) -> None:
        if state.cancel.is_set():
            raise _Cancelled()
        state.results = done
        if telemetry_every and done % telemetry_every == 0:
            emit(
                type="telemetry",
                done=done,
                errors=len(report.get("errors", [])),
                cached=report.get("cached_shards", 0),
                computed=report.get("computed_shards", 0),
                quantiles={},
            )

    return run_campaign(
        attack=str(spec.get("attack", DEFAULT_ATTACK)),
        defense=str(spec.get("defense", DEFAULT_DEFENSE)),
        seed=int(spec.get("seed", 0)),
        budget=int(spec.get("budget", 50)),
        strategy=str(spec.get("strategy", "mixed")),
        parallel=spec.get("parallel"),
        cache=spec.get("cache") or None,
        max_witnesses=int(spec.get("max_witnesses", 5)),
        on_result=on_result,
    )


#: Job kind -> runner(spec, emit, state) -> final report dict.
JOB_KINDS: Dict[str, Callable[..., dict]] = {
    "population": _run_population_job,
    "campaign": _run_campaign_job,
}


# ----------------------------------------------------------------------
# the server
# ----------------------------------------------------------------------
class ExperimentServer:
    """Unix-socket experiment service (see the module docstring)."""

    def __init__(self, socket_path: str, accept_timeout: float = 0.2):
        self.socket_path = socket_path
        self.accept_timeout = accept_timeout
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._conn_threads: List[threading.Thread] = []
        self._jobs: Dict[str, JobState] = {}
        self._jobs_lock = threading.Lock()
        self._run_lock = threading.Lock()
        self._next_job = 0
        self._shutdown = threading.Event()
        self._shutdown_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------
    def start(self) -> None:
        """Bind, listen and spin up the accept loop (non-blocking)."""
        if os.path.exists(self.socket_path):
            os.unlink(self.socket_path)
        listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        listener.bind(self.socket_path)
        listener.listen(8)
        listener.settimeout(self.accept_timeout)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-serve-accept", daemon=True
        )
        self._accept_thread.start()

    def wait(self) -> None:
        """Block until :meth:`shutdown` (the CLI's foreground mode)."""
        while not self._shutdown.is_set():
            self._shutdown.wait(0.5)

    def shutdown(self) -> None:
        """Cancel every job, stop accepting, unlink the socket path.

        Idempotent and blocking: every caller returns only after the
        cleanup ran (a second caller waits on the first via the lock),
        so the foreground CLI cannot exit with the socket file behind.
        """
        self._shutdown.set()
        with self._shutdown_lock:
            if self._closed:
                return
            self._closed = True
            with self._jobs_lock:
                for state in self._jobs.values():
                    state.cancel.set()
            if self._accept_thread is not None:
                self._accept_thread.join(timeout=5.0)
            current = threading.current_thread()
            for thread in list(self._conn_threads):
                if thread is not current:
                    thread.join(timeout=5.0)
            if self._listener is not None:
                try:
                    self._listener.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            try:
                os.unlink(self.socket_path)
            except OSError:
                pass

    # -- accept/connection plumbing ------------------------------------
    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._shutdown.is_set():
            try:
                conn, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            thread = threading.Thread(
                target=self._handle_connection, args=(conn,), daemon=True
            )
            thread.start()
            self._conn_threads.append(thread)
            self._conn_threads = [t for t in self._conn_threads if t.is_alive()]

    def _handle_connection(self, conn: socket.socket) -> None:
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        try:
            for line in reader:
                line = line.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                except ValueError:
                    self._send(conn, {"type": "error", "message": "malformed JSON line"})
                    continue
                if not isinstance(request, dict):
                    self._send(
                        conn, {"type": "error", "message": "request must be a JSON object"}
                    )
                    continue
                if not self._dispatch(conn, request):
                    break
        except (_ClientGone, OSError):
            pass
        finally:
            try:
                reader.close()
                conn.close()
            except OSError:  # pragma: no cover - already closed
                pass

    def _send(self, conn: socket.socket, frame: dict) -> None:
        frame.setdefault("ts", round(time.time(), 3))
        data = (json.dumps(frame, sort_keys=True) + "\n").encode("utf-8")
        try:
            conn.sendall(data)
        except (BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise _ClientGone() from exc

    # -- request dispatch ----------------------------------------------
    def _dispatch(self, conn: socket.socket, request: dict) -> bool:
        """Handle one request; returns False when the connection should end."""
        op = request.get("op")
        if op == "ping":
            self._send(conn, {"type": "pong"})
            return True
        if op == "status":
            with self._jobs_lock:
                jobs = [state.describe() for state in self._jobs.values()]
            self._send(conn, {"type": "status", "jobs": jobs})
            return True
        if op == "cancel":
            job_id = str(request.get("job_id", ""))
            with self._jobs_lock:
                state = self._jobs.get(job_id)
            if state is None:
                self._send(conn, {"type": "error", "message": f"unknown job {job_id!r}"})
            else:
                state.cancel.set()
                self._send(conn, {"type": "cancelling", "job": job_id})
            return True
        if op == "shutdown":
            self._send(conn, {"type": "bye"})
            self.shutdown()  # joins every thread but this one
            return False
        if op == "submit":
            job = request.get("job") or {}
            if isinstance(job, dict):
                self._do_submit(conn, job)
            else:
                self._send(conn, {"type": "error", "message": "job must be a JSON object"})
            return True
        self._send(conn, {"type": "error", "message": f"unknown op {op!r}"})
        return True

    def _do_submit(self, conn: socket.socket, spec: dict) -> None:
        kind = str(spec.get("kind", ""))
        runner = JOB_KINDS.get(kind)
        if runner is None:
            self._send(
                conn,
                {
                    "type": "error",
                    "message": f"unknown job kind {kind!r}; "
                    f"expected one of {sorted(JOB_KINDS)}",
                },
            )
            return
        try:
            _SPEC_CHECKS[kind](spec)
        except JobSpecError as exc:
            self._send(conn, {"type": "error", "field": exc.field, "message": str(exc)})
            return
        with self._jobs_lock:
            self._next_job += 1
            state = JobState(f"job-{self._next_job}", kind)
            self._jobs[state.job_id] = state
        self._send(conn, {"type": "accepted", "job": state.job_id, "kind": kind})

        def emit(**frame) -> None:
            frame["job"] = state.job_id
            self._send(conn, frame)

        try:
            with self._run_lock:
                if state.cancel.is_set() or self._shutdown.is_set():
                    raise _Cancelled()
                report = runner(spec, emit, state)
            state.status = "done"
            emit(type="done", report=report)
        except _Cancelled:
            state.status = "cancelled"
            try:
                emit(type="cancelled", results=state.results)
            except _ClientGone:
                pass
        except _ClientGone:
            # the submitting client hung up: stop the job, keep serving
            state.cancel.set()
            state.status = "cancelled"
            raise
        except Exception as exc:  # noqa: BLE001 - job errors must not kill the server
            state.status = "error"
            emit(type="error", message=f"{type(exc).__name__}: {exc}")
        finally:
            state.finished = time.time()


# ----------------------------------------------------------------------
# client helpers
# ----------------------------------------------------------------------
def _connect(socket_path: str, timeout: Optional[float]) -> socket.socket:
    conn = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    conn.settimeout(timeout)
    conn.connect(socket_path)
    return conn


def request(socket_path: str, payload: dict, timeout: Optional[float] = 5.0) -> dict:
    """One request, one response frame (ping / status / cancel / shutdown)."""
    with _connect(socket_path, timeout) as conn:
        conn.sendall((json.dumps(payload) + "\n").encode("utf-8"))
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection without a response")
    return json.loads(line)


def submit_and_stream(
    socket_path: str, job: dict, timeout: Optional[float] = None
) -> Iterator[dict]:
    """Submit ``job`` and yield every frame until a terminal one.

    Terminal frames are ``done``, ``cancelled`` and ``error``; the
    generator closes the connection when it is closed early, which the
    server treats as a cancellation of the in-flight job.
    """
    conn = _connect(socket_path, timeout)
    try:
        conn.sendall((json.dumps({"op": "submit", "job": job}) + "\n").encode("utf-8"))
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        for line in reader:
            line = line.strip()
            if not line:
                continue
            frame = json.loads(line)
            yield frame
            if frame.get("type") in ("done", "cancelled", "error"):
                return
    finally:
        try:
            conn.close()
        except OSError:  # pragma: no cover - already closed
            pass


def serve_forever(socket_path: str) -> ExperimentServer:
    """Start a server on ``socket_path`` and block until it shuts down."""
    server = ExperimentServer(socket_path)
    server.start()
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
    return server
