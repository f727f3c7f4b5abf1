"""WebWorkers: true (virtual-time) parallel JavaScript threads.

Each :class:`WorkerAgent` owns an event loop, a :class:`WorkerScope` and a
message channel to its parent, and executes its script concurrently with
the main thread in virtual time — the concurrency web concurrency attacks
require (and the concurrency Chrome Zero's polyfill sacrifices).

The agent's *native internals* are allocated on the simulated heap, and
its termination path consults the browser's bug flags; this is where most
of the Table I CVE trigger conditions live.  See the per-CVE attack
modules for the exact scenarios.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, List, Optional

from ..errors import SecurityError, SimulationError
from .fetchapi import AbortController, FetchManager
from .heap import NULL, NativePtr
from .messaging import MessageEvent, make_channel
from .eventloop import EventLoop
from .interpose import Interposable
from .origin import URL, parse_url, same_origin
from .scopes import ErrorEvent, WorkerScope
from .sharedbuf import SimArrayBuffer
from .sharedmem import SharedMemAPI
from .task import TaskSource
from .xhr import XMLHttpRequest

#: Cost on the parent thread of constructing a Worker.
WORKER_CONSTRUCT_COST = 60_000
#: Cost of an importScripts call (excluding network time).
IMPORT_SCRIPTS_COST = 20_000

#: Fallback id stream for hosts predating per-browser numbering.
_worker_ids = itertools.count(1)

#: Sanitised error text for cross-origin failures (per HTML spec).
SANITIZED_ERROR = "Script error."


class CrossOriginScriptError(Exception):
    """An exception thrown by cross-origin script code.

    Its message must be sanitised before reaching ``onerror`` — unless the
    browser has the CVE-2011-1190 bug, which forwards it verbatim.
    """


class NativeWorkerInternals:
    """The browser-internal worker object (ports, wrapper state)."""

    def __init__(self, worker_id: int):
        self.worker_id = worker_id
        self.port_open = True

    def close_port(self) -> None:
        """Tear down the native message port."""
        self.port_open = False


class WorkerHandle(Interposable):
    """The object the creating thread holds (``new Worker(...)``).

    ``onmessage``/``onerror`` assignments go through setter traps so the
    kernel can interpose (paper Listing 5's Proxy).
    """

    def __init__(self, agent: "WorkerAgent"):
        super().__init__()
        self.onmessage: Optional[Callable[[MessageEvent], None]] = None
        self.onerror: Optional[Callable[[ErrorEvent], None]] = None
        self._agent = agent
        self.define_setter_trap("onmessage", self._native_set_onmessage)

    # -- API visible to page scripts -----------------------------------
    def postMessage(self, data: Any, transfer: Optional[List[Any]] = None) -> None:
        """Send a message to the worker."""
        self._agent.post_to_worker(data, transfer)

    def terminate(self) -> None:
        """``worker.terminate()`` from the parent."""
        self._agent.terminate(reason="parent")

    @property
    def state(self) -> str:
        """Worker lifecycle state (``spawning``/``running``/``terminated``)."""
        return self._agent.state

    # -- internals ------------------------------------------------------
    def _native_set_onmessage(self, handler: Optional[Callable]) -> None:
        agent = self._agent
        if agent.state == "terminated" and agent.has_bug("cve_2013_5602"):
            # buggy path: the wrapper's listener slot is already null
            NULL.deref(cve="CVE-2013-5602")
        self.set_raw("onmessage", handler)


class WorkerAgent:
    """One worker thread plus its parent-side plumbing."""

    def __init__(self, host, parent_loop: EventLoop, parent_base_url: URL, src):
        """``host`` is the owning Browser (sim/network/heap/profile)."""
        self.host = host
        # per-browser numbering keeps worker names (and therefore traces)
        # deterministic across repeated runs in one process
        self.id = next(getattr(host, "worker_seq", _worker_ids))
        self.name = f"worker-{self.id}"
        self.parent_loop = parent_loop
        self.src = src
        self.state = "spawning"
        self.termination_reason = ""
        profile = host.profile

        host.sim.consume(WORKER_CONSTRUCT_COST)

        self.loop = EventLoop(
            host.sim, self.name, task_dispatch_cost=profile.task_dispatch_cost
        )
        self.native_ptr: NativePtr = host.heap.alloc(
            NativeWorkerInternals(self.id), "WorkerInternals"
        )

        # channel: parent-side endpoint lives on the parent loop
        self.parent_endpoint, self.worker_endpoint = make_channel(
            f"{self.name}-chan", parent_loop, self.loop, profile.message_latency_ns
        )
        self.handle = WorkerHandle(self)
        self.parent_endpoint.add_handler(self._deliver_to_parent)

        # resolve the script
        if callable(src):
            self.script_url = parse_url("/inline-worker.js", base=parent_base_url)
            self.script_body: Optional[Callable] = src
        else:
            self.script_url = parse_url(str(src), base=parent_base_url)
            self.script_body = None

        self.scope = WorkerScope(self.loop, self.script_url.origin, self.script_url)
        self.scope._attach_parent_channel(self.worker_endpoint)
        # the worker's message port is held until the initial script has
        # been evaluated (HTML semantics): buffer early deliveries
        self._script_evaluated = False
        self._held_messages: List[MessageEvent] = []
        self.worker_endpoint.remove_handler(self.scope._dispatch_message)
        self.worker_endpoint.add_handler(self._deliver_to_worker)
        self._wire_scope_services()

        #: buffers transferred worker -> parent (CVE-2014-1488 substrate)
        self.transferred_out: List[SimArrayBuffer] = []
        #: buffers transferred parent -> worker (CVE-2014-1719 substrate)
        self.transferred_in: List[SimArrayBuffer] = []

        for hook in list(host.worker_hooks):
            hook(self)

        tracer = host.sim.tracer
        if tracer.enabled:
            if tracer.buffering:
                frame = host.sim.current_frame
                ctx = frame.thread_name if frame is not None else host.sim.native_context
                tracer.instant(
                    host.sim.trace_pid,
                    self.name,
                    "worker.spawn",
                    host.sim.now,
                    cat="worker",
                    args={
                        "src": self.script_url.serialize(),
                        "parent": parent_loop.name,
                        "ctx": ctx,
                    },
                )
            tracer.metrics.counter("workers.spawned").inc()

        self._begin_startup(parent_base_url)

    # ------------------------------------------------------------------
    # startup
    # ------------------------------------------------------------------
    def _begin_startup(self, parent_base_url: URL) -> None:
        host = self.host
        if not same_origin(self.script_url.origin, parent_base_url.origin):
            # cross-origin dedicated workers are forbidden; the error
            # message is where CVE-2014-1487 leaks
            detail = f"cannot load {self.script_url.serialize()}"
            self._fire_creation_error(detail, cross_origin=True)
            return

        def booted() -> None:
            if self.state != "spawning":
                return
            if self.script_body is not None:
                self._run_script(self.script_body)
                return
            resource = host.network.lookup(self.script_url)
            if resource is None or not callable(resource.body):
                self._fire_creation_error(
                    f"network error loading {self.script_url.serialize()}",
                    cross_origin=False,
                )
                return
            if resource.redirect_to is not None and not same_origin(
                resource.redirect_to.origin, self.script_url.origin
            ):
                # redirect to cross-origin: CVE-2010-4576 leaks final URL
                if self.has_bug("cve_2010_4576"):
                    detail = f"redirect to {resource.redirect_to.serialize()}"
                else:
                    detail = SANITIZED_ERROR
                self._fire_creation_error(detail, cross_origin=True, sanitized=True)
                return
            delay = host.network.transfer_time(resource.size_bytes)
            parse_cost = int(resource.size_bytes * host.profile.script_parse_cost_per_byte)
            self.loop.post(
                self._run_script,
                resource.body,
                delay=delay,
                cost=parse_cost,
                source=TaskSource.WORKER,
                label=f"{self.name}:boot",
            )

        self.loop.post(
            booted,
            delay=host.profile.worker_spawn_latency_ns,
            source=TaskSource.WORKER,
            label=f"{self.name}:spawn",
        )

    def _run_script(self, body: Callable) -> None:
        if self.state != "spawning":
            return
        self.state = "running"
        try:
            body(self.scope)
        except SecurityError:
            raise
        except Exception as exc:  # worker script error -> onerror event
            self._fire_runtime_error(exc)
        finally:
            self._script_evaluated = True
            held, self._held_messages = self._held_messages, []
            for event in held:
                self.loop.post(
                    self.scope._dispatch_message,
                    event,
                    source=TaskSource.MESSAGE,
                    label=f"{self.name}:held-message",
                )

    def _deliver_to_worker(self, event: MessageEvent) -> None:
        """Port gate: deliveries wait for initial script evaluation."""
        if self.state == "terminated":
            return
        if not self._script_evaluated:
            self._held_messages.append(event)
            return
        self.scope._dispatch_message(event)

    # ------------------------------------------------------------------
    # scope services
    # ------------------------------------------------------------------
    def _wire_scope_services(self) -> None:
        host = self.host
        scope = self.scope
        self.fetch_manager = FetchManager(
            self.loop, host.network, host.heap, self.script_url, scope.origin
        )
        scope.fetch = self.fetch_manager.fetch
        scope.AbortController = AbortController
        enforce_sop = not self.has_bug("cve_2013_1714")
        scope.XMLHttpRequest = lambda: XMLHttpRequest(
            self.loop, host.network, self.script_url, scope.origin, enforce_sop=enforce_sop
        )
        scope.ArrayBuffer = lambda size: SimArrayBuffer(host.heap, size)
        scope.SharedArrayBuffer = host.make_shared_buffer
        scope.sharedmem = SharedMemAPI(host.sharedmem, self.loop)
        scope.importScripts = self._import_scripts
        scope.close = lambda: self.terminate(reason="self")
        # route user postMessage through the agent so transferables are
        # tracked (CVE-2014-1488 substrate)
        scope.set_raw("postMessage", self.post_to_parent)
        # clocks follow the browser's clock policy
        scope.performance.policy = host.clock_policy_factory()
        scope.performance.origin = host.sim.now

    def _import_scripts(self, url: str) -> None:
        """``importScripts(url)`` — synchronous classic-script import."""
        host = self.host
        self.loop.sim.consume(IMPORT_SCRIPTS_COST)
        target = parse_url(url, base=self.script_url)
        resource = host.network.lookup(target)
        cross = not same_origin(target.origin, self.scope.origin)
        if resource is None:
            detail = f"importScripts failed for {target.serialize()}"
            raise self._import_error(detail, cross)
        if resource.redirect_to is not None and not same_origin(
            resource.redirect_to.origin, self.scope.origin
        ):
            # cross-origin redirect: the buggy error discloses the final
            # URL (CVE-2010-4576's leak)
            if self.has_bug("cve_2010_4576"):
                raise SimulationError(
                    f"importScripts redirected to {resource.redirect_to.serialize()}"
                )
            raise SimulationError(SANITIZED_ERROR)
        # synchronous block: network + parse time charged to this task
        self.loop.sim.consume(
            host.network.base_latency_ns
            + host.network.transfer_time(resource.size_bytes)
            + int(resource.size_bytes * host.profile.script_parse_cost_per_byte)
        )
        if isinstance(resource.body, Exception):
            detail = f"importScripts parse error in {target.serialize()}: {resource.body}"
            raise self._import_error(detail, cross)
        if callable(resource.body):
            try:
                resource.body(self.scope)
            except Exception as exc:
                if cross:
                    raise CrossOriginScriptError(str(exc)) from exc
                raise

    def _import_error(self, detail: str, cross_origin: bool) -> Exception:
        if cross_origin and not self.has_bug("cve_2015_7215"):
            return SimulationError(SANITIZED_ERROR)
        return SimulationError(detail)

    # ------------------------------------------------------------------
    # messaging
    # ------------------------------------------------------------------
    def post_to_worker(self, data: Any, transfer: Optional[List[Any]] = None) -> None:
        """Parent -> worker postMessage (the handle calls this)."""
        if self.state == "terminated":
            if self.has_bug("cve_2014_3194"):
                native = self.native_ptr.deref(cve="CVE-2014-3194")
                native.port_open  # touch the freed port
            return  # fixed browsers silently drop
        to_detach = []
        for item in transfer or []:
            if isinstance(item, SimArrayBuffer):
                self.transferred_in.append(item)
                if self.has_bug("cve_2014_1719"):
                    # buggy structured clone: neutering is skipped, so the
                    # parent keeps a usable (soon dangling) reference
                    continue
            to_detach.append(item)
        self.parent_endpoint.post(data, transfer=to_detach, origin="")

    def post_to_parent(self, data: Any, transfer: Optional[List[Any]] = None) -> None:
        """Worker -> parent postMessage (used by kernel plumbing)."""
        if transfer:
            for item in transfer:
                if isinstance(item, SimArrayBuffer):
                    self.transferred_out.append(item)
        self.worker_endpoint.post(data, transfer=transfer, origin=self.scope.origin.serialize())

    def _deliver_to_parent(self, event: MessageEvent) -> None:
        if self.state == "terminated":
            if self.has_bug("cve_2013_6646"):
                self.native_ptr.deref(cve="CVE-2013-6646")
            return
        handler = getattr(self.handle, "onmessage", None)
        if handler is not None:
            handler(event)

    # ------------------------------------------------------------------
    # errors
    # ------------------------------------------------------------------
    def _fire_creation_error(
        self, detail: str, cross_origin: bool, sanitized: bool = False
    ) -> None:
        if cross_origin and not sanitized and not self.has_bug("cve_2014_1487"):
            detail = SANITIZED_ERROR
        self.state = "terminated"
        self.termination_reason = "creation-error"
        event = ErrorEvent(detail, filename=self.script_url.serialize())
        self.parent_loop.post(
            lambda: self.handle.onerror(event) if self.handle.onerror else None,
            source=TaskSource.WORKER,
            label=f"{self.name}:onerror",
        )

    def _fire_runtime_error(self, exc: Exception) -> None:
        cross = isinstance(exc, CrossOriginScriptError)
        message = str(exc)
        if cross and not self.has_bug("cve_2011_1190"):
            message = SANITIZED_ERROR
        event = ErrorEvent(message, filename=self.script_url.serialize())
        self.parent_loop.post(
            lambda: self.handle.onerror(event) if self.handle.onerror else None,
            source=TaskSource.WORKER,
            label=f"{self.name}:onerror",
        )

    # ------------------------------------------------------------------
    # termination
    # ------------------------------------------------------------------
    def has_bug(self, flag: str) -> bool:
        """Shortcut to the browser profile's bug flags."""
        return self.host.profile.has_bug(flag)

    @property
    def alive(self) -> bool:
        """True until terminated."""
        return self.state != "terminated"

    def crash(self, detail: str = "injected worker crash") -> None:
        """Kill the worker abruptly (fault injection).

        Models the worker *process* dying mid-run — the parent gets an
        ``onerror`` event (as for an unhandled script error) and the
        normal termination teardown runs, exercising exactly the
        racy-teardown paths the Table I CVEs live in.
        """
        if self.state == "terminated":
            return
        tracer = self.host.sim.tracer
        if tracer.enabled:
            if tracer.buffering:
                tracer.instant(
                    self.host.sim.trace_pid,
                    self.name,
                    "fault.worker-crash",
                    self.host.sim.now,
                    cat="fault",
                    args={"detail": detail},
                )
            tracer.metrics.counter("workers.crashed").inc()
        event = ErrorEvent(detail, filename=self.script_url.serialize())
        self.parent_loop.post(
            lambda: self.handle.onerror(event) if self.handle.onerror else None,
            source=TaskSource.WORKER,
            label=f"{self.name}:crash",
        )
        self.terminate(reason="crash")

    def terminate(self, reason: str = "parent") -> None:
        """Tear the worker down; bug flags decide how sloppily.

        The handle-visible state flips immediately (terminate() is
        synchronous for the caller), but the native teardown — stopping
        the loop, freeing natives — is applied at the caller's *local*
        virtual time, so worker tasks that causally precede the
        termination still run.
        """
        if self.state == "terminated":
            return
        self.state = "terminated"
        self.termination_reason = reason
        tracer = self.host.sim.tracer
        if tracer.enabled:
            if tracer.buffering:
                frame = self.host.sim.current_frame
                ctx = frame.thread_name if frame is not None else self.host.sim.native_context
                tracer.instant(
                    self.host.sim.trace_pid,
                    self.name,
                    "worker.terminate",
                    self.host.sim.now,
                    cat="worker",
                    args={"reason": reason, "ctx": ctx},
                )
            tracer.metrics.counter("workers.terminated").inc()
        self.host.sim.schedule(
            self.host.sim.now, self._finalize_termination, label=f"{self.name}:teardown"
        )

    def _finalize_termination(self) -> None:
        if getattr(self, "_teardown_done", False):
            return
        self._teardown_done = True
        self.loop.stop()

        # outstanding fetches: the CVE-2018-5092 path frees them but keeps
        # the abort-signal registration dangling
        self.fetch_manager.release_all(buggy=self.has_bug("cve_2018_5092"))

        # buffers this worker transferred to the parent: freeing them is
        # the CVE-2014-1488 bug (the parent owns them now)
        if self.has_bug("cve_2014_1488"):
            for buffer in self.transferred_out:
                if not buffer.ptr.freed:
                    buffer.ptr.free()

        # buffers transferred into the worker die with it (correct): the
        # parent's reference is detached... unless CVE-2014-1719 skipped
        # the neutering, leaving the parent a dangling pointer.
        for buffer in self.transferred_in:
            if not buffer.ptr.freed:
                buffer.ptr.free()

        if not self.has_bug("cve_2013_6646"):
            self.parent_endpoint.close()
            self.worker_endpoint.close()

        if not self.native_ptr.freed:
            self.native_ptr.free()
