"""Unit tests for postMessage channels and transferables."""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SimulationError
from repro.harness.bench_reference import ReferenceEventLoop, ReferenceSimulator
from repro.runtime.eventloop import EventLoop
from repro.runtime.heap import SimHeap
from repro.runtime.messaging import make_channel, payload_size
from repro.runtime.origin import Origin, parse_url
from repro.runtime.scopes import BaseScope
from repro.runtime.sharedbuf import SimArrayBuffer
from repro.runtime.simulator import Simulator
from repro.trace import Tracer, capture
from repro.trace.export import dump_chrome_trace


@pytest.fixture
def channel():
    sim = Simulator()
    loop_a = EventLoop(sim, "a", task_dispatch_cost=0)
    loop_b = EventLoop(sim, "b", task_dispatch_cost=0)
    side_a, side_b = make_channel("test", loop_a, loop_b, latency_ns=100_000)
    return sim, side_a, side_b


def test_message_delivered_after_latency(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: seen.append((event.data, sim.dispatch_time)))
    side_a.post("hello")
    sim.run()
    assert seen[0][0] == "hello"
    assert seen[0][1] >= 100_000


def test_messages_preserve_order(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: seen.append(event.data))
    for i in range(5):
        side_a.post(i)
    sim.run()
    assert seen == [0, 1, 2, 3, 4]


def test_bidirectional(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: side_b.post(event.data + 1))
    side_a.add_handler(lambda event: seen.append(event.data))
    side_a.post(1)
    sim.run()
    assert seen == [2]


def test_closed_endpoint_drops_messages(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(seen.append)
    side_b.close()
    side_a.post("lost")
    sim.run()
    assert seen == []


def test_messages_in_flight_dropped_when_receiver_closes(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: seen.append(event.data))
    side_a.post("in-flight")
    side_b.close()  # closes before the delivery task runs
    sim.run()
    assert seen == []


def test_unconnected_endpoint_raises():
    sim = Simulator()
    loop = EventLoop(sim, "solo")
    from repro.runtime.messaging import MessageEndpoint

    endpoint = MessageEndpoint("solo", loop, 0)
    with pytest.raises(SimulationError):
        endpoint.post("x")


def test_transfer_detaches_sender_and_views_share_store(channel):
    sim, side_a, side_b = channel
    heap = SimHeap()
    buffer = SimArrayBuffer(heap, 64)
    buffer.write(0, 0x7F)
    received = []
    side_b.add_handler(lambda event: received.extend(event.transferred))
    side_a.post("take", transfer=[buffer])
    sim.run()
    assert buffer.detached
    view = received[0]
    assert not view.detached
    assert view.read(0) == 0x7F
    assert view.ptr is buffer.ptr


def test_non_transferable_raises(channel):
    _sim, side_a, _side_b = channel
    with pytest.raises(SimulationError):
        side_a.post("x", transfer=[object()])


def test_remove_and_clear_handlers(channel):
    sim, side_a, side_b = channel
    seen = []
    handler = seen.append
    side_b.add_handler(handler)
    side_b.remove_handler(handler)
    side_a.post("x")
    sim.run()
    assert seen == []


def test_payload_size_estimates():
    assert payload_size(None) == 1
    assert payload_size(3.14) == 8
    assert payload_size("abcd") == 4
    assert payload_size([1, 2]) == 8 + 16
    assert payload_size({"k": "vv"}) == 8 + 1 + 2
    heap = SimHeap()
    assert payload_size(SimArrayBuffer(heap, 256)) == 256


def test_messages_carry_origin(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: seen.append(event.origin))
    side_a.post("x", origin="https://sender.example")
    sim.run()
    assert seen == ["https://sender.example"]


# ----------------------------------------------------------------------
# payload_size: iterative walk, cycles and deep nesting
# ----------------------------------------------------------------------
def _recursive_payload_size(data):
    """The recursive ``payload_size`` body the iterative walk replaced,
    kept as the reference for acyclic payloads."""
    if data is None or isinstance(data, bool):
        return 1
    if isinstance(data, (int, float)):
        return 8
    if isinstance(data, str):
        return len(data)
    if isinstance(data, (list, tuple)):
        return 8 + sum(_recursive_payload_size(item) for item in data)
    if isinstance(data, dict):
        return 8 + sum(
            _recursive_payload_size(k) + _recursive_payload_size(v)
            for k, v in data.items()
        )
    size = getattr(data, "byte_length", None)
    if size is not None:
        return int(size)
    return 16


class _Buffer:
    """A transferable-like payload member with a byte length."""

    def __init__(self, byte_length):
        self.byte_length = byte_length


_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=6),
    st.integers(min_value=0, max_value=512).map(_Buffer),
    st.builds(object),
)

#: Acyclic payloads; the last branch shares one sub-object three times.
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=4), st.integers()), children, max_size=4),
        children.map(lambda shared: [shared, (shared,), {"again": shared}]),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_payloads)
def test_payload_size_matches_recursive_reference_on_acyclic_payloads(data):
    assert payload_size(data) == _recursive_payload_size(data)


def test_payload_size_charges_a_cycle_as_a_reference():
    d = {}
    d["self"] = d
    assert payload_size(d) == 8 + len("self") + 8
    items = [1]
    items.append(items)
    assert payload_size(items) == 8 + 8 + 8
    outer = []
    inner = [outer]
    outer.append(inner)
    assert payload_size(outer) == 8 + (8 + 8)
    # a shared, acyclic sub-object is still counted in full each time
    shared = ["ab"]
    assert payload_size([shared, shared, d]) == 8 + 2 * (8 + 2) + (8 + 4 + 8)


def test_payload_size_handles_deep_nesting():
    data = "leaf"
    for _ in range(5_000):
        data = [data]
    assert payload_size(data) == 8 * 5_000 + 4
    nested = {}
    for _ in range(5_000):
        nested = {"k": nested}
    assert payload_size(nested) == 8 * 5_000 + 1 * 5_000 + 8


def test_cyclic_payload_posts_and_delivers(channel):
    sim, side_a, side_b = channel
    seen = []
    side_b.add_handler(lambda event: seen.append(event.data))
    d = {}
    d["self"] = d
    side_a.post(d)
    sim.run()
    assert seen == [d]


# ----------------------------------------------------------------------
# message storms: the live core against the frozen seed reference
# ----------------------------------------------------------------------
STORM_MESSAGES = 300


def _self_post_storm(sim_cls, loop_cls):
    """Loopscan's shape: a window.postMessage-to-self loop whose handler
    reads the clock, spins for a while and re-posts."""
    sim = sim_cls()
    loop = loop_cls(sim, "main", record_trace=True)
    origin = Origin("https", "attacker.example")
    scope = BaseScope(loop, origin, parse_url("https://attacker.example/"))
    tx, rx = make_channel("window-self", loop, loop, latency_ns=4_000)
    stamps = []

    def on_message(event):
        stamps.append((event.timestamp, scope.performance.now()))
        if len(stamps) >= STORM_MESSAGES:
            return
        scope.busy_work(0.02)
        tx.post("tick", origin=origin.serialize())

    rx.add_handler(on_message)
    loop.post(lambda: tx.post("tick", origin=origin.serialize()), label="script")
    return sim, [loop], stamps


def _ping_pong(sim_cls, loop_cls):
    """Two loops bouncing a growing payload over one channel."""
    sim = sim_cls()
    main = loop_cls(sim, "main", record_trace=True)
    worker = loop_cls(sim, "worker", task_dispatch_cost=500, record_trace=True)
    side_main, side_worker = make_channel("ping", main, worker, latency_ns=25_000)
    stamps = []

    def bounce(endpoint):
        def handler(event):
            stamps.append((endpoint.name, event.timestamp))
            if len(stamps) < STORM_MESSAGES:
                endpoint.post({"n": len(stamps), "body": ["x"] * (len(stamps) % 7)})

        return handler

    side_main.add_handler(bounce(side_main))
    side_worker.add_handler(bounce(side_worker))
    main.post(lambda: side_main.post({"n": 0, "body": []}), label="script")
    return sim, [main, worker], stamps


def _observe(scenario, sim_cls, loop_cls, drive, tracer_kind):
    tracer = {"none": None, "metrics": Tracer(events=False), "full": Tracer()}[tracer_kind]
    with capture(tracer) if tracer is not None else nullcontext():
        sim, loops, stamps = scenario(sim_cls, loop_cls)
        if drive == "step":
            while sim.step():
                pass
        else:
            sim.run()
    # task ids come from a process-wide counter: compare them relative
    # to the run's first task
    first = min(record.task_id for loop in loops for record in loop.trace)
    observed = {
        "records": [
            [(r.task_id - first, r.label, r.source, r.start, r.end) for r in loop.trace]
            for loop in loops
        ],
        "stamps": stamps,
        "events_processed": sim.events_processed,
    }
    if tracer is not None:
        observed["metrics"] = tracer.metrics.snapshot()
    if tracer_kind == "full":
        observed["chrome"] = dump_chrome_trace(tracer)
    return observed


@pytest.mark.parametrize("tracer_kind", ["none", "metrics", "full"])
@pytest.mark.parametrize("scenario", [_self_post_storm, _ping_pong], ids=["storm", "ping-pong"])
def test_message_storm_matches_frozen_reference(scenario, tracer_kind):
    expected = _observe(scenario, ReferenceSimulator, ReferenceEventLoop, "step", tracer_kind)
    assert expected["events_processed"] > STORM_MESSAGES
    assert len(expected["stamps"]) == STORM_MESSAGES
    for sim_cls, loop_cls in ((Simulator, EventLoop), (ReferenceSimulator, ReferenceEventLoop)):
        for drive in ("step", "run"):
            assert _observe(scenario, sim_cls, loop_cls, drive, tracer_kind) == expected, (
                sim_cls.__name__,
                drive,
            )
