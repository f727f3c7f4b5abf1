"""Shared-state access instrumentation.

The race detector (:mod:`repro.analysis.races`) needs to see every access
to state that more than one simulated thread can reach: native heap
allocations, SharedArrayBuffer counters, indexedDB slots and DOM nodes.
Runtime components report those accesses through :func:`state_access`,
which emits one ``state.access`` instant per operation.

Thread attribution
------------------

An access performed inside a task runs under an execution frame, and the
frame names the JavaScript thread.  Accesses performed by *frameless*
simulator callbacks (native browser work such as worker teardown) are
attributed to a per-dispatch ``native:<label>#<ordinal>`` pseudo-thread
instead (:attr:`~repro.runtime.simulator.Simulator.native_context`).  Each
native dispatch gets its own context, so the happens-before builder never
invents a program-order edge between two unrelated pieces of native work.
"""

from __future__ import annotations

from typing import Optional


def state_access(
    sim,
    obj: str,
    op: str,
    kind: str,
    access: str = "",
    detail: Optional[dict] = None,
) -> None:
    """Record one shared-state access on ``sim``'s tracer.

    ``obj`` is a run-deterministic object identity (e.g. ``heap:0x1000``);
    ``op`` is ``"read"`` or ``"write"`` (what the race detector compares);
    ``kind`` names the state family (``heap``/``sab``/``idb``/``dom``);
    ``access`` is the concrete operation (``free``, ``deref``, ``put``...).
    """
    tracer = sim.tracer
    if not tracer.enabled:
        return
    if tracer.buffering:
        frame = sim.current_frame
        thread = frame.thread_name if frame is not None else sim.native_context
        args = {"obj": obj, "op": op, "kind": kind}
        if access:
            args["access"] = access
        if detail:
            args.update(detail)
        tracer.instant(
            sim.trace_pid,
            thread,
            "state.access",
            sim.now,
            cat="state",
            args=args,
        )
    tracer.metrics.counter(f"state.accesses.{kind}").inc()
