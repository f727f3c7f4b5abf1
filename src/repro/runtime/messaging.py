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


#: Stack marker in :func:`payload_size`: the id below it leaves the path.
_LEAVE = object()


def payload_size(data: Any) -> int:
    """Rough structured-clone size of a payload, in abstract units.

    Scalars cost 1 (``None``/bools), 8 (numbers) or their length
    (strings); a list, tuple or dict costs 8 plus its items (a dict's
    keys and values); an object with ``byte_length`` costs that, anything
    else 16.  A sub-object reached twice is counted twice, but a
    container that is already on the current path — a cycle, which
    structured clone accepts — is charged as an 8-unit reference.  The
    walk is iterative, so deep payloads cannot exhaust the Python stack.
    """
    if isinstance(data, str):
        return len(data)  # the common message, one test
    total = 0
    on_path = set()  # ids of the containers being walked
    stack = [data]
    pop = stack.pop
    push = stack.append
    while stack:
        item = pop()
        if item is _LEAVE:
            on_path.discard(pop())
        elif isinstance(item, str):
            total += len(item)
        elif item is None or isinstance(item, bool):
            total += 1
        elif isinstance(item, (int, float)):
            total += 8
        elif isinstance(item, (list, tuple, dict)):
            total += 8
            key = id(item)
            if key in on_path:
                continue  # cycle: a reference, not another copy
            on_path.add(key)
            push(key)
            push(_LEAVE)
            if isinstance(item, dict):
                for k, v in item.items():
                    push(k)
                    push(v)
            else:
                stack.extend(item)
        else:
            size = getattr(item, "byte_length", None)
            total += 16 if size is None else int(size)
    return total


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
        peer = self.peer
        if peer is None:
            raise SimulationError(f"endpoint {self.name!r} is not connected")
        sim = self.loop.sim
        size = payload_size(data)
        sim.consume(POST_MESSAGE_COST + CLONE_COST_PER_UNIT * size)
        tracer = sim.tracer
        flow = 0
        if tracer.enabled:
            if tracer.buffering:
                flow = tracer.next_flow_id()
                args = {"to": peer.name, "size": size, "flow": flow}
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
        if self.closed or peer.closed:
            return  # messages to closed endpoints vanish
        event = MessageEvent(data, origin, self, sim.now, views)
        event.trace_flow = flow
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
