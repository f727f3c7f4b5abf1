"""``postMessage`` channels between threads.

A :class:`MessageEndpoint` pair connects two event loops (main ↔ worker).
Posting serialises the payload (structured-clone cost proportional to
payload size), transfers transferables (neutering them on the sending
side — the behaviour CVE-2014-1488 abuses), and enqueues a MESSAGE task on
the receiving loop after the channel latency.

JSKernel builds its kernel/user *overlay* on top of exactly this channel
(paper §III-E2): there is only one postMessage pipe between two threads, so
the kernel wraps payloads in an envelope with a type field.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from .eventloop import EventLoop
from .task import TaskSource

#: Base cost of a postMessage call (API dispatch).
POST_MESSAGE_COST = 1_000
#: Serialisation cost per payload size unit (structured clone).
CLONE_COST_PER_UNIT = 2


class MessageEvent:
    """The event object delivered to ``onmessage`` handlers."""

    __slots__ = ("data", "origin", "source", "timestamp", "transferred", "trace_flow")

    def __init__(
        self,
        data: Any,
        origin: str = "",
        source: Any = None,
        timestamp: int = 0,
        transferred: Optional[List[Any]] = None,
    ):
        self.data = data
        self.origin = origin
        self.source = source
        self.timestamp = timestamp
        #: Receiver-side views of transferred objects (share the backing
        #: store of the sender's now-detached references).
        self.transferred = transferred or []
        #: Flow id pairing the sender's ``postMessage`` instant with the
        #: receiver's ``message.receive`` (0 when untraced).
        self.trace_flow = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<MessageEvent data={self.data!r} origin={self.origin!r}>"


def payload_size(data: Any) -> int:
    """Rough structured-clone size of a payload, in abstract units."""
    if data is None or isinstance(data, bool):
        return 1
    if isinstance(data, (int, float)):
        return 8
    if isinstance(data, str):
        return len(data)
    if isinstance(data, (list, tuple)):
        return 8 + sum(payload_size(item) for item in data)
    if isinstance(data, dict):
        return 8 + sum(payload_size(k) + payload_size(v) for k, v in data.items())
    size = getattr(data, "byte_length", None)
    if size is not None:
        return int(size)
    return 16


class MessageEndpoint:
    """One side of a bidirectional message channel."""

    def __init__(self, name: str, loop: EventLoop, latency_ns: int):
        self.name = name
        self.loop = loop
        self.latency_ns = latency_ns
        self.peer: Optional["MessageEndpoint"] = None
        #: Handlers invoked, in order, for each delivered MessageEvent.
        self.handlers: List[Callable[[MessageEvent], None]] = []
        self.closed = False
        self.messages_delivered = 0
        # per-channel constant: posting must not build a label per message
        self._post_label = ""
        # cached metric handles, rebound when the capture's tracer changes;
        # the post and deliver sides bind separately so a capture only
        # grows the counters its messages actually moved
        self._mh_post_tracer = None
        self._mh_posted = None
        self._mh_clone_units = None
        self._mh_deliver_tracer = None
        self._mh_delivered = None

    # ------------------------------------------------------------------
    def connect(self, peer: "MessageEndpoint") -> None:
        """Pair this endpoint with ``peer`` (both directions)."""
        self.peer = peer
        peer.peer = self
        self._post_label = f"message->{peer.name}"
        peer._post_label = f"message->{self.name}"

    def post(self, data: Any, transfer: Optional[List[Any]] = None, origin: str = "") -> None:
        """Send ``data`` to the peer endpoint.

        Transferables in ``transfer`` are detached on this side before the
        message is delivered, matching structured-clone transfer semantics.
        """
        if self.peer is None:
            raise SimulationError(f"endpoint {self.name!r} is not connected")
        sim = self.loop.sim
        size = payload_size(data)
        sim.consume(POST_MESSAGE_COST + CLONE_COST_PER_UNIT * size)
        tracer = sim.tracer
        flow = 0
        if tracer.enabled:
            if tracer.buffering:
                flow = tracer.next_flow_id()
                args = {"to": self.peer.name, "size": size, "flow": flow}
                frame = sim.current_frame
                if frame is not None and frame.thread_name != self.loop.name:
                    args["ctx"] = frame.thread_name
                tracer.instant(
                    sim.trace_pid,
                    self.loop.name,
                    "postMessage",
                    sim.now,
                    cat="message",
                    args=args,
                )
            if tracer is not self._mh_post_tracer:
                self._mh_post_tracer = tracer
                self._mh_posted = tracer.metrics.counter("messages.posted")
                self._mh_clone_units = tracer.metrics.counter("messages.clone_units")
            self._mh_posted.inc()
            self._mh_clone_units.inc(size)
        views: List[Any] = []
        if transfer:
            for item in transfer:
                detach = getattr(item, "detach", None)
                if detach is None:
                    raise SimulationError(f"{item!r} is not transferable")
                make_view = getattr(item, "transferred_view", None)
                if make_view is not None:
                    views.append(make_view())
                detach()
        if self.closed or self.peer.closed:
            return  # messages to closed endpoints vanish
        event = MessageEvent(
            data, origin=origin, source=self, timestamp=sim.now, transferred=views
        )
        event.trace_flow = flow
        peer = self.peer
        peer.loop.post(
            peer.deliver,
            event,
            delay=self.latency_ns,
            source=TaskSource.MESSAGE,
            label=self._post_label,
        )

    def deliver(self, event: MessageEvent) -> None:
        """Dispatch a delivered message to all registered handlers."""
        if self.closed:
            return
        self.messages_delivered += 1
        sim = self.loop.sim
        tracer = sim.tracer
        if tracer.enabled:
            if tracer.buffering:
                tracer.instant(
                    sim.trace_pid,
                    self.loop.name,
                    "message.receive",
                    sim.now,
                    cat="message",
                    args={
                        "from": event.source.name if event.source else "",
                        "flow": event.trace_flow,
                    },
                )
            if tracer is not self._mh_deliver_tracer:
                self._mh_deliver_tracer = tracer
                self._mh_delivered = tracer.metrics.counter("messages.delivered")
            self._mh_delivered.inc()
        for handler in list(self.handlers):
            handler(event)

    def add_handler(self, handler: Callable[[MessageEvent], None]) -> None:
        """Register an ``onmessage``-style handler."""
        self.handlers.append(handler)

    def remove_handler(self, handler: Callable[[MessageEvent], None]) -> None:
        """Unregister a handler (no-op if absent)."""
        if handler in self.handlers:
            self.handlers.remove(handler)

    def clear_handlers(self) -> None:
        """Drop all handlers (worker termination)."""
        self.handlers.clear()

    def close(self) -> None:
        """Close the endpoint: undelivered and future messages are dropped."""
        self.closed = True
        self.handlers.clear()


def make_channel(
    name: str, loop_a: EventLoop, loop_b: EventLoop, latency_ns: int
) -> "tuple[MessageEndpoint, MessageEndpoint]":
    """Create a connected endpoint pair between two loops."""
    side_a = MessageEndpoint(f"{name}:a", loop_a, latency_ns)
    side_b = MessageEndpoint(f"{name}:b", loop_b, latency_ns)
    side_a.connect(side_b)
    return side_a, side_b
