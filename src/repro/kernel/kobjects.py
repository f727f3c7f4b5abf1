"""Kernel objects: events and the kernel event queue (paper §III-C1).

A :class:`KernelEvent` is the kernel's record of one asynchronous
occurrence (a timer firing, a message arriving, a frame callback, a fetch
completing).  Its lifecycle follows the paper's two-stage scheduling:

    registered (PENDING, predicted time assigned)
        → confirmed (READY, args/this/callback bound)
        → dispatched (DISPATCHED)
    with CANCELLED reachable from PENDING/READY.

The :class:`KernelEventQueue` orders events by predicted time and supports
the paper's queue API: ``push``, ``pop``, ``top``, ``remove``, ``lookup``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..errors import KernelError

# lifecycle states
PENDING = "pending"
READY = "ready"
CANCELLED = "cancelled"
DISPATCHED = "dispatched"

_event_ids = itertools.count(1)


class KernelEvent:
    """One event in the kernel queue."""

    __slots__ = (
        "id",
        "kind",
        "predicted_time",
        "status",
        "callbacks",
        "chosen_callback",
        "args",
        "this",
        "label",
        "stub",
        "on_dispatch",
        "reg_time",
        "confirm_time",
        "trace_span",
        "queue",
    )

    def __init__(
        self,
        kind: str,
        predicted_time: int,
        callbacks: Optional[Dict[str, Callable]] = None,
        label: str = "",
    ):
        self.id = next(_event_ids)
        self.kind = kind
        self.predicted_time = predicted_time
        self.status = PENDING
        #: All possible callbacks (e.g. {"onload": f, "onerror": g}); the
        #: confirmation stage picks one and deletes the others (§III-D1).
        self.callbacks: Dict[str, Callable] = dict(callbacks) if callbacks else {}
        self.chosen_callback: Optional[Callable] = None
        self.args: Tuple[Any, ...] = ()
        self.this: Any = None
        self.label = label or kind
        #: User-space stub value returned at registration (e.g. a promise).
        self.stub: Any = None
        #: Optional dispatcher hook run instead of the callback.
        self.on_dispatch: Optional[Callable[["KernelEvent"], None]] = None
        #: Lifecycle stamps (virtual ns) for tracing: set by the scheduler
        #: at registration / confirmation.
        self.reg_time = 0
        self.confirm_time = 0
        #: Tracer-local async-span id (0 when the capture is disabled).
        self.trace_span = 0
        #: Back-reference to the owning :class:`KernelEventQueue`, set on
        #: push and cleared on removal, so status transitions can keep the
        #: queue's O(1) live/pending counters exact without heap scans.
        self.queue: Optional["KernelEventQueue"] = None

    # ------------------------------------------------------------------
    def confirm(
        self,
        args: Tuple[Any, ...] = (),
        this: Any = None,
        which: Optional[str] = None,
    ) -> None:
        """Confirmation stage: bind args/this, select the callback."""
        if self.status == CANCELLED:
            return
        if self.status != PENDING:
            raise KernelError(f"confirm on {self.status} event #{self.id}")
        self.args = args
        self.this = this
        if which is not None:
            if which not in self.callbacks:
                raise KernelError(f"event #{self.id} has no callback {which!r}")
            self.chosen_callback = self.callbacks[which]
            self.callbacks = {which: self.chosen_callback}
        elif self.callbacks:
            name, callback = next(iter(self.callbacks.items()))
            self.chosen_callback = callback
            self.callbacks = {name: callback}
        self.status = READY
        queue = self.queue
        if queue is not None:
            queue._pending -= 1

    def cancel(self) -> None:
        """Mark the event cancelled (dispatcher will discard it)."""
        status = self.status
        if status == PENDING or status == READY:
            self.status = CANCELLED
            queue = self.queue
            if queue is not None:
                queue._live -= 1
                if status == PENDING:
                    queue._pending -= 1
                self.queue = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<KernelEvent #{self.id} {self.kind} @{self.predicted_time} "
            f"{self.status}>"
        )


class KernelEventQueue:
    """Priority queue of kernel events ordered by predicted time."""

    def __init__(self):
        self._heap: List[Tuple[int, int, KernelEvent]] = []
        self._by_id: Dict[int, KernelEvent] = {}
        self._sim = None
        self._trace_row = ""
        self._last_depth = -1
        # cached depth gauge, rebound when the capture's tracer changes
        self._mh_tracer = None
        self._mh_depth = None
        # O(1) bookkeeping, kept exact by the push/pop/remove paths below
        # and by KernelEvent.cancel/confirm via the event's queue backref —
        # replaces the O(n) heap scans the seed used for len()/pending_count
        self._live = 0
        self._pending = 0

    def bind_trace(self, sim, row: str) -> None:
        """Emit depth counters onto ``row`` of ``sim``'s tracer."""
        self._sim = sim
        self._trace_row = row
        self._mh_tracer = None

    def _depth_changed(self) -> None:
        # one counter sample per net depth change; ``_by_id`` is the live
        # membership (heap entries linger until lazily pruned)
        sim = self._sim
        if sim is None or not sim.tracer.enabled:
            return
        depth = len(self._by_id)
        if depth == self._last_depth:
            return
        self._last_depth = depth
        tracer = sim.tracer
        if tracer.buffering:
            tracer.counter(
                sim.trace_pid,
                self._trace_row,
                "kernel.queue_depth",
                sim.now,
                {"depth": depth},
                cat="kernel",
            )
        if tracer is not self._mh_tracer:
            self._mh_tracer = tracer
            self._mh_depth = tracer.metrics.gauge(f"kernel.queue.depth.{self._trace_row}")
        self._mh_depth.set(depth)

    def push(self, event: KernelEvent) -> KernelEvent:
        """Insert an event at its predicted time."""
        heapq.heappush(self._heap, (event.predicted_time, event.id, event))
        self._by_id[event.id] = event
        status = event.status
        if status == PENDING or status == READY:
            event.queue = self
            self._live += 1
            if status == PENDING:
                self._pending += 1
        self._depth_changed()
        return event

    def top(self) -> Optional[KernelEvent]:
        """Earliest non-dispatched event, kept in the queue."""
        self._prune()
        if not self._heap:
            return None
        return self._heap[0][2]

    def pop(self) -> Optional[KernelEvent]:
        """Earliest event, removed from the queue."""
        self._prune()
        if not self._heap:
            return None
        _t, _i, event = heapq.heappop(self._heap)
        self._by_id.pop(event.id, None)
        self._forget(event)
        self._depth_changed()
        return event

    def remove(self, event: KernelEvent) -> None:
        """Remove an event regardless of predicted time (lazy)."""
        self._forget(event)
        event.status = DISPATCHED if event.status == DISPATCHED else CANCELLED
        self._by_id.pop(event.id, None)
        self._depth_changed()

    def lookup(self, event_id: int) -> Optional[KernelEvent]:
        """Find an event by id."""
        return self._by_id.get(event_id)

    def top_ready(self) -> Optional[KernelEvent]:
        """Earliest READY event, skipping pending heads.

        Used by pass-through (non-order-enforcing) dispatch, where an
        unconfirmed event must not hold back confirmed ones.
        """
        self._prune()
        best: Optional[KernelEvent] = None
        for _t, _i, event in self._heap:
            if event.status == READY and (
                best is None or event.predicted_time < best.predicted_time
            ):
                best = event
        return best

    def remove_by_id(self, event_id: int) -> None:
        """Drop an event from the id index (heap entry pruned lazily)."""
        event = self._by_id.pop(event_id, None)
        if event is not None:
            self._forget(event)
        self._depth_changed()

    def _forget(self, event: KernelEvent) -> None:
        """Stop counting ``event`` as a live member of this queue."""
        if event.queue is self:
            event.queue = None
            self._live -= 1
            if event.status == PENDING:
                self._pending -= 1

    def _prune(self) -> None:
        while self._heap and self._heap[0][2].status in (CANCELLED, DISPATCHED):
            _t, _i, event = heapq.heappop(self._heap)
            self._by_id.pop(event.id, None)
            self._forget(event)
        self._depth_changed()

    def __len__(self) -> int:
        """Live (non-cancelled, non-dispatched) members — O(1)."""
        return self._live

    @property
    def pending_count(self) -> int:
        """Events awaiting confirmation — O(1)."""
        return self._pending
