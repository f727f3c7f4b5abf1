"""Discrete-event simulation core.

The :class:`Simulator` owns virtual time (integer nanoseconds, see
:mod:`repro.runtime.simtime`) and a priority queue of timed callbacks.  Every
other runtime component — event loops, timers, the network, the renderer —
drives itself by scheduling callbacks here.

Execution frames
----------------

JavaScript tasks run *for a duration*: a callback that busy-loops for 3 ms
occupies its thread for 3 ms of virtual time, during which
``performance.now()`` advances and cross-thread messages pile up unprocessed.
We model this with :class:`ExecutionFrame`: while a task's Python callable is
running, the frame accumulates ``elapsed`` cost (every simulated operation
calls :meth:`Simulator.consume`), and :attr:`Simulator.now` reports the
*local* time ``start + elapsed``.  When the callable returns, the owning
event loop marks its thread busy until that local time, so subsequent tasks
queue behind it exactly as in a real event loop.

Cross-thread side effects performed mid-task (posting a message, starting a
network request) are stamped with the local time, which keeps the global
event order causally consistent even though Python executes the overlapping
tasks sequentially.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from typing import Callable, List, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from ..trace import current_tracer
from .wheel import G_BITS, SLOT_MASK, TimerWheel, _L1_SHIFT

#: Sentinel upper bound for ``run(until=None)``: one comparison against
#: +inf per dispatch is cheaper than re-testing ``until is not None``.
_NO_BOUND = float("inf")

#: Environment variable overriding the default runaway-loop backstop.
MAX_EVENTS_ENV = "REPRO_MAX_EVENTS"

#: Built-in runaway-experiment backstop (events per run/run_until call).
DEFAULT_MAX_EVENTS = 50_000_000

#: How many recently dispatched labels a SimulationError reports.
RECENT_LABEL_WINDOW = 20


def default_max_events() -> int:
    """The effective ``max_events`` backstop: ``$REPRO_MAX_EVENTS`` or the
    built-in default.

    Fuzz campaigns lower this (a perturbed schedule can loop where the
    nominal one terminates) so a runaway run fails fast with context
    instead of spinning through fifty million events.
    """
    raw = os.environ.get(MAX_EVENTS_ENV, "")
    if not raw:
        return DEFAULT_MAX_EVENTS
    try:
        value = int(raw)
    except ValueError:
        raise SimulationError(
            f"{MAX_EVENTS_ENV} must be an integer, got {raw!r}"
        ) from None
    if value <= 0:
        raise SimulationError(f"{MAX_EVENTS_ENV} must be positive, got {value}")
    return value


#: The ambient schedule perturber (see :func:`perturbation`); ``None``
#: outside an exploration run.  Mirrors the tracer's capture pattern:
#: simulators snapshot it at construction time.
_active_perturber = None


def current_perturber():
    """The ambient schedule perturber, or ``None``."""
    return _active_perturber


@contextmanager
def perturbation(perturber):
    """Install ``perturber`` for every simulator built inside the block.

    The perturber sees every :meth:`Simulator.schedule` call (and, through
    the event loops, every posted task) and may push events later in
    virtual time — the schedule-space exploration hook used by
    :mod:`repro.explore`.  Nesting restores the previous perturber on
    exit.
    """
    global _active_perturber
    previous = _active_perturber
    _active_perturber = perturber
    try:
        yield perturber
    finally:
        _active_perturber = previous


class ScheduledCall:
    """Handle for a scheduled callback; supports cancellation.

    ``sim`` back-references the owning simulator while the call sits in
    its ready queue — cancellation decrements the simulator's live-event
    count in O(1) — and is cleared on dispatch so a late ``cancel()``
    cannot double-count.
    """

    __slots__ = ("time", "seq", "fn", "cancelled", "label", "sim")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[[], None],
        label: str,
        sim: Optional["Simulator"] = None,
    ):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False
        self.label = label
        self.sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running (idempotent)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._live -= 1
            self.sim = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall {self.label!r} at {self.time} ({state})>"


class ExecutionFrame:
    """Cost accounting for one running task.

    ``start`` is the virtual time at which the task began executing;
    ``elapsed`` is the simulated CPU time consumed so far by the task's
    synchronous code.
    """

    __slots__ = ("start", "elapsed", "thread_name")

    def __init__(self, start: int, thread_name: str):
        self.start = start
        self.elapsed = 0
        self.thread_name = thread_name

    @property
    def local_now(self) -> int:
        """The thread-local current time inside this task."""
        return self.start + self.elapsed

    def consume(self, cost_ns: int) -> None:
        """Account ``cost_ns`` of synchronous CPU work to this task."""
        if cost_ns < 0:
            raise SimulationError(f"negative cost: {cost_ns}")
        self.elapsed += cost_ns


class Simulator:
    """The global discrete-event scheduler.

    Only one task's Python code runs at a time; virtual-time overlap between
    threads is reconstructed from frame accounting (see module docstring).
    """

    def __init__(self):
        self._time = 0
        # Dual-lane ready queue.  Discrete-event workloads schedule mostly
        # in non-decreasing time order, so an in-order append goes to the
        # FIFO lane (deque of ScheduledCall, O(1) push/pop) and only
        # out-of-order schedules pay the timed lane — a hierarchical
        # timer wheel (see repro.runtime.wheel) whose push is O(1) and
        # whose per-slot sort replaces the old heap's O(log n) Python
        # tuple comparisons.  Dispatch takes the (time, seq) minimum
        # across both lanes, so the total order is exactly the
        # single-heap order the seed used.
        self._wheel = TimerWheel()
        self._fifo: deque = deque()
        # Seed-era heap lane: unused by this class, but kept so the
        # frozen ReferenceSimulator subclass (harness.bench_reference)
        # can keep exercising the original single-heap hot path.
        self._heap: List[Tuple[int, int, ScheduledCall]] = []
        self._seq = 0
        #: Scheduled, non-cancelled events — maintained on schedule/
        #: cancel/dispatch so ``pending_events`` is O(1).
        self._live = 0
        self._frames: List[ExecutionFrame] = []
        self.events_processed = 0
        # per-run deterministic id streams for traced objects (DOM nodes,
        # shared buffers...) — process-global counters would break the
        # byte-identical-capture guarantee
        self._object_seqs: dict = {}
        # label/ordinal of the scheduled call currently dispatching, for
        # attributing frameless (native) work in traces
        self._dispatch_label = "init"
        self._dispatch_ordinal = 0
        #: The active capture's tracer (the shared disabled one outside a
        #: capture); every runtime/kernel component reaches it through its
        #: simulator.  ``trace_pid`` is this run's Chrome-trace process id.
        self.tracer = current_tracer()
        self.trace_pid = self.tracer.register_run() if self.tracer.buffering else 0
        #: The ambient schedule perturber (``None`` outside an exploration
        #: run); consulted on every schedule() and notified per dispatch.
        self.perturber = current_perturber()
        #: Labels of the most recently dispatched events, newest last —
        #: context for runaway-loop errors.
        self._recent_labels: deque = deque(maxlen=RECENT_LABEL_WINDOW)
        #: True only while :meth:`run` is draining (and no perturber is
        #: installed).  Event loops may then dispatch a same-time follow-up
        #: task inline instead of scheduling a wake, provided no other
        #: simulator event could interleave — see EventLoop._wake.  Kept
        #: False under step()/run_until(), where callers observe per-event
        #: granularity (a predicate may become true between two same-time
        #: events).
        self._inline_wake_ok = False

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    @property
    def now(self) -> int:
        """Current virtual time.

        Inside a running task this is the task-local time (start + consumed
        cost); between tasks it is the time of the event being dispatched.
        """
        frames = self._frames
        if frames:
            frame = frames[-1]
            return frame.start + frame.elapsed
        return self._time

    @property
    def dispatch_time(self) -> int:
        """Time of the most recent event pop (ignores frame progress)."""
        return self._time

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push_frame(self, frame: ExecutionFrame) -> None:
        """Enter a task execution frame (event loops call this)."""
        self._frames.append(frame)

    def pop_frame(self) -> ExecutionFrame:
        """Leave the current task execution frame."""
        if not self._frames:
            raise SimulationError("pop_frame with no active frame")
        return self._frames.pop()

    @property
    def current_frame(self) -> Optional[ExecutionFrame]:
        """The innermost active execution frame, if any."""
        return self._frames[-1] if self._frames else None

    def consume(self, cost_ns: int) -> None:
        """Account synchronous cost to the current frame (no-op outside).

        :meth:`ExecutionFrame.consume`, inlined: a ``postMessage`` round
        trip charges cost here three times.
        """
        frames = self._frames
        if frames:
            if cost_ns < 0:
                raise SimulationError(f"negative cost: {cost_ns}")
            frames[-1].elapsed += cost_ns

    @property
    def native_context(self) -> str:
        """Trace context for work running outside any execution frame.

        Each simulator dispatch gets a distinct ``native:<label>#<n>``
        context (``n`` is the dispatch ordinal, deterministic per run), so
        two frameless callbacks are never presented as sequenced on one
        pseudo-thread when they are in fact causally unrelated.
        """
        return f"native:{self._dispatch_label}#{self._dispatch_ordinal}"

    @property
    def trace_context(self) -> str:
        """The thread to attribute current work to in trace events:
        the running frame's thread, or the native pseudo-thread."""
        if self._frames:
            return self._frames[-1].thread_name
        return self.native_context

    def next_object_seq(self, prefix: str) -> int:
        """Next id in the per-run ``prefix`` stream (1-based, deterministic)."""
        seq = self._object_seqs.get(prefix, 0) + 1
        self._object_seqs[prefix] = seq
        return seq

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, at: int, fn: Callable[[], None], label: str = "") -> ScheduledCall:
        """Schedule ``fn`` to run at absolute virtual time ``at``.

        ``at`` may not be in the past relative to the *dispatch* clock; it
        may be earlier than the current frame's local time (a message sent
        late in a long task still has a send-time stamp inside the task).
        """
        if at < self._time:
            raise SimulationError(
                f"cannot schedule at {at} before dispatch time {self._time}"
            )
        perturber = self.perturber
        if perturber is not None:
            # exploration hook: perturbations may only *delay* events —
            # moving one earlier could violate causality (a message
            # delivered before it was sent), which would explore schedules
            # the real platform can never produce
            at = max(perturber.perturb(self, at, label), at)
        seq = self._seq + 1
        self._seq = seq
        call = ScheduledCall(at, seq, fn, label, self)
        fifo = self._fifo
        # seq strictly increases, so an equal-time append keeps the FIFO
        # lane sorted by (time, seq)
        if not fifo or at >= fifo[-1].time:
            fifo.append(call)
        else:
            wheel = self._wheel
            # TimerWheel.push's level-0 fast path, inlined: a rearming
            # timer storm pays this per schedule, and the extra call
            # frame showed up in profiles (keep in sync with wheel.py)
            if at >= wheel._ready_until and not ((at ^ wheel._base) >> _L1_SHIFT):
                index = (at >> G_BITS) & SLOT_MASK
                slots0 = wheel._slots0
                slot = slots0[index]
                if slot is None:
                    slots0[index] = [call]
                    wheel._occupied[0] |= 1 << index
                else:
                    slot.append(call)
                wheel._stored += 1
            else:
                wheel.push(call)
        self._live += 1
        return call

    def schedule_after(self, delay: int, fn: Callable[[], None], label: str = "") -> ScheduledCall:
        """Schedule ``fn`` after ``delay`` ns of *local* time."""
        return self.schedule(self.now + delay, fn, label)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------
    def _pop_next(self) -> Optional[ScheduledCall]:
        """Pop the earliest live call across both lanes (``None`` if drained)."""
        fifo = self._fifo
        wheel = self._wheel
        wready = wheel._ready
        while True:
            # wheel head: the ready-run front, priming (a peek() call) only
            # when the run is empty but entries are stored
            if wready:
                head = wready[wheel._pos]
            elif wheel._stored:
                head = wheel.peek()
            else:
                head = None
            if fifo:
                call = fifo[0]
                if head is not None and (
                    head.time < call.time
                    or (head.time == call.time and head.seq < call.seq)
                ):
                    call = wheel.pop()
                else:
                    fifo.popleft()
            elif head is not None:
                call = wheel.pop()
            else:
                return None
            if not call.cancelled:
                return call

    def step(self) -> bool:
        """Dispatch the single earliest pending event.

        Returns ``False`` when no events remain.  This is the one
        single-event dispatch body: :meth:`run_until` drives it once per
        event.  The per-event bookkeeping below (dispatch clock, live
        count, ``events_processed``, dispatch label and ordinal, recent
        labels, perturber hook) has exactly two other copies, kept in
        sync with it: :meth:`run`'s inline loop and the inline
        same-time continuation in ``EventLoop._wake``.
        """
        call = self._pop_next()
        if call is None:
            return False
        self._time = call.time
        self._live -= 1
        call.sim = None
        n = self.events_processed + 1
        self.events_processed = n
        label = call.label or "call"
        self._dispatch_label = label
        self._dispatch_ordinal = n
        self._recent_labels.append(label)
        if self.perturber is not None:
            self.perturber.on_dispatch(label)
        # single-step granularity is observable: no inline wake batching
        # inside this event, even when step() is nested in run()
        prev_inline = self._inline_wake_ok
        self._inline_wake_ok = False
        try:
            call.fn()
        finally:
            self._inline_wake_ok = prev_inline
        return True

    def recent_dispatch_context(self) -> str:
        """The last ~20 dispatched labels, oldest first (error context)."""
        if not self._recent_labels:
            return "(nothing dispatched yet)"
        return " -> ".join(self._recent_labels)

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue empties or virtual time passes ``until``.

        ``max_events`` is a runaway-experiment backstop (default:
        ``$REPRO_MAX_EVENTS`` or :data:`DEFAULT_MAX_EVENTS`); hitting it
        raises :class:`SimulationError` — with the recently dispatched
        task labels for context — rather than spinning forever.
        """
        limit = default_max_events() if max_events is None else max_events
        bound = _NO_BOUND if until is None else until
        # Hot loop: everything reachable per dispatch is bound to a local
        # once, the lane selection is inlined (no step() call per event),
        # and with the tracer disabled a dispatch allocates nothing — the
        # popped call and its queue entry were allocated at schedule time.
        wheel = self._wheel
        # the ready-run list is mutated in place, never rebound, so one
        # binding outside the loop stays valid across primes
        wready = wheel._ready
        wheel_peek = wheel.peek
        fifo = self._fifo
        fifo_popleft = fifo.popleft
        recent_append = self._recent_labels.append
        perturber = self.perturber
        # The backstop counts events_processed deltas rather than loop
        # iterations: event loops may dispatch same-time tasks inline
        # (bumping events_processed without a queue round-trip), and those
        # must count against the runaway limit exactly as if each had been
        # a scheduled wake.
        base = self.events_processed
        prev_inline = self._inline_wake_ok
        self._inline_wake_ok = perturber is None
        try:
            while True:
                # peek the earliest queued entry (cancelled ones included,
                # as the bounded stop condition predates cancellation
                # pruning); the wheel head is its ready-run front,
                # priming (slot drain/cascade) only when the run is empty
                if wready:
                    whead = wready[wheel._pos]
                elif wheel._stored:
                    whead = wheel_peek()
                else:
                    whead = None
                if fifo:
                    call = fifo[0]
                    head_time = call.time
                    use_fifo = True
                    if whead is not None:
                        wt = whead.time
                        if wt < head_time or (wt == head_time and whead.seq < call.seq):
                            head_time = wt
                            use_fifo = False
                elif whead is not None:
                    head_time = whead.time
                    use_fifo = False
                else:
                    break
                if head_time > bound:
                    self._time = until
                    return
                if use_fifo:
                    fifo_popleft()
                else:
                    call = whead
                    pos = wheel._pos + 1
                    if pos == len(wready):
                        wready.clear()
                        wheel._pos = 0
                    else:
                        wheel._pos = pos
                if call.cancelled:
                    # seed-faithful step semantics: once the head passed
                    # the bound check, the next *live* event dispatches
                    # without a re-check, and a fully-cancelled remainder
                    # returns early
                    call = self._pop_next()
                    if call is None:
                        return
                # per-event bookkeeping: keep in sync with step()
                self._time = call.time
                self._live -= 1
                call.sim = None
                n = self.events_processed + 1
                self.events_processed = n
                label = call.label or "call"
                self._dispatch_label = label
                self._dispatch_ordinal = n
                recent_append(label)
                if perturber is not None:
                    perturber.on_dispatch(label)
                call.fn()
                if self.events_processed - base > limit:
                    raise SimulationError(
                        f"simulation exceeded {limit} events (runaway loop?); "
                        f"last dispatched: {self.recent_dispatch_context()}"
                    )
        finally:
            self._inline_wake_ok = prev_inline
        if until is not None and until > self._time:
            self._time = until

    def run_until(
        self, predicate: Callable[[], bool], max_events: Optional[int] = None
    ) -> None:
        """Run until ``predicate()`` becomes true.

        Raises :class:`DeadlockError` if the event queue drains first: the
        awaited completion can then never occur.  ``max_events`` defaults
        like :meth:`run`.  Events dispatch one at a time through
        :meth:`step`, so the predicate is checked between every two
        events and inline wake batching stays off (it may become true
        between two same-time dispatches).
        """
        limit = default_max_events() if max_events is None else max_events
        step = self.step
        processed = 0
        while not predicate():
            if not step():
                raise DeadlockError(
                    "event queue drained before the awaited condition became true"
                )
            processed += 1
            if processed > limit:
                raise SimulationError(
                    f"run_until exceeded {limit} events (runaway loop?); "
                    f"last dispatched: {self.recent_dispatch_context()}"
                )

    @property
    def pending_events(self) -> int:
        """Number of scheduled, non-cancelled events (O(1): the count is
        maintained on schedule/cancel/dispatch, never by scanning)."""
        return self._live
