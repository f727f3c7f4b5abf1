"""Promises with microtask semantics.

:class:`SimPromise` mirrors the JavaScript ``Promise`` contract the attacks
and the kernel rely on: reactions run as *microtasks* on the owning event
loop, chaining works, and rejections propagate.  It is intentionally small —
no async/await integration, no thenables — because simulated scripts are
written in continuation style.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from ..errors import SimulationError
from .eventloop import EventLoop
from .task import Microtask

PENDING = "pending"
FULFILLED = "fulfilled"
REJECTED = "rejected"

#: Cost charged per promise reaction (scheduling + closure call overhead).
REACTION_COST = 300


class SimPromise:
    """A promise bound to an event loop.

    Reactions registered via :meth:`then`/:meth:`catch` run as microtasks on
    the loop, in registration order, after the task that settled the promise.
    """

    __slots__ = ("loop", "label", "state", "value", "_reactions", "_reaction_label")

    def __init__(self, loop: EventLoop, label: str = "promise"):
        self.loop = loop
        self.label = label
        self.state = PENDING
        self.value: Any = None
        self._reactions: List[Tuple[Optional[Callable], Optional[Callable], "SimPromise"]] = []
        # built lazily: promise-heavy workloads flush many reactions and
        # must not pay an f-string per microtask
        self._reaction_label = ""

    # ------------------------------------------------------------------
    # settling
    # ------------------------------------------------------------------
    def resolve(self, value: Any = None) -> None:
        """Fulfil the promise (no-op if already settled)."""
        if self.state != PENDING:
            return
        if isinstance(value, SimPromise):
            value.then(self.resolve, self.reject)
            return
        self.state = FULFILLED
        self.value = value
        self._flush()

    def reject(self, reason: Any = None) -> None:
        """Reject the promise (no-op if already settled)."""
        if self.state != PENDING:
            return
        self.state = REJECTED
        self.value = reason
        self._flush()

    # ------------------------------------------------------------------
    # reactions
    # ------------------------------------------------------------------
    def then(
        self,
        on_fulfilled: Optional[Callable[[Any], Any]] = None,
        on_rejected: Optional[Callable[[Any], Any]] = None,
    ) -> "SimPromise":
        """Register reactions; returns the chained promise."""
        child = SimPromise(self.loop, label=f"{self.label}.then")
        self._reactions.append((on_fulfilled, on_rejected, child))
        if self.state != PENDING:
            self._flush()
        return child

    def catch(self, on_rejected: Callable[[Any], Any]) -> "SimPromise":
        """Register a rejection reaction."""
        return self.then(None, on_rejected)

    def finally_(self, on_settled: Callable[[], Any]) -> "SimPromise":
        """Register a reaction that runs regardless of outcome."""
        return self.then(lambda v: (on_settled(), v)[1], lambda r: (on_settled(), _reraise(r))[1])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _flush(self) -> None:
        reactions, self._reactions = self._reactions, []
        if not reactions:
            return
        sim = self.loop.sim
        tracer = sim.tracer
        flow = 0
        if tracer.buffering:
            frame = sim.current_frame
            settler = frame.thread_name if frame is not None else sim.native_context
            if settler != self.loop.name:
                # settled off-thread: record the causal handoff so the
                # happens-before builder can order settle before reactions
                flow = tracer.next_flow_id()
                tracer.instant(
                    sim.trace_pid,
                    settler,
                    "promise.settle",
                    sim.now,
                    cat="promise",
                    args={"promise": self.label, "state": self.state, "flow": flow},
                )
        label = self._reaction_label
        if not label:
            label = self._reaction_label = f"{self.label}:reaction"
        post_microtask = self.loop.post_microtask
        for on_fulfilled, on_rejected, child in reactions:
            if flow:
                fn, args = self._run_traced_reaction, (flow, on_fulfilled, on_rejected, child)
            else:
                fn, args = self._run_reaction, (on_fulfilled, on_rejected, child)
            post_microtask(Microtask(fn, args, cost=REACTION_COST, label=label))

    def _run_traced_reaction(
        self,
        flow: int,
        on_fulfilled: Optional[Callable],
        on_rejected: Optional[Callable],
        child: "SimPromise",
    ) -> None:
        sim = self.loop.sim
        tracer = sim.tracer
        if tracer.buffering:
            tracer.instant(
                sim.trace_pid,
                self.loop.name,
                "promise.reaction",
                sim.now,
                cat="promise",
                args={"promise": self.label, "flow": flow},
            )
        self._run_reaction(on_fulfilled, on_rejected, child)

    def _run_reaction(
        self,
        on_fulfilled: Optional[Callable],
        on_rejected: Optional[Callable],
        child: "SimPromise",
    ) -> None:
        if self.state == FULFILLED:
            handler = on_fulfilled
            passthrough = child.resolve
        elif self.state == REJECTED:
            handler = on_rejected
            passthrough = child.reject
        else:  # pragma: no cover - _flush only fires once settled
            raise SimulationError("reaction ran on a pending promise")
        if handler is None:
            passthrough(self.value)
            return
        try:
            result = handler(self.value)
        except Exception as exc:  # JS semantics: thrown -> rejected child
            child.reject(exc)
            return
        child.resolve(result)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def resolved(cls, loop: EventLoop, value: Any = None) -> "SimPromise":
        """A promise already fulfilled with ``value``."""
        promise = cls(loop)
        promise.resolve(value)
        return promise

    @classmethod
    def rejected_with(cls, loop: EventLoop, reason: Any) -> "SimPromise":
        """A promise already rejected with ``reason``."""
        promise = cls(loop)
        promise.reject(reason)
        return promise

    @classmethod
    def all(cls, loop: EventLoop, promises: List["SimPromise"]) -> "SimPromise":
        """Fulfil with the list of values once every input fulfils."""
        result = cls(loop, label="promise.all")
        values: List[Any] = [None] * len(promises)
        remaining = [len(promises)]
        if not promises:
            result.resolve([])
            return result

        def make_handler(index: int):
            def handler(value: Any) -> None:
                values[index] = value
                remaining[0] -= 1
                if remaining[0] == 0:
                    result.resolve(list(values))

            return handler

        for i, promise in enumerate(promises):
            promise.then(make_handler(i), result.reject)
        return result


def _reraise(reason: Any) -> None:
    if isinstance(reason, BaseException):
        raise reason
    raise SimulationError(f"promise rejected: {reason!r}")
