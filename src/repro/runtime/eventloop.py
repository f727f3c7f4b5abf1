"""Per-thread event loop with busy-time accounting.

Each JavaScript thread (the main thread and every worker) owns one
:class:`EventLoop`.  The loop holds a macrotask queue ordered by ready time
and a microtask queue drained after each macrotask, mirroring the HTML event
loop processing model closely enough for the paper's purposes: ordering,
queueing delays and interleaving are exact in virtual time.

Busy-time model
---------------

When the loop dispatches a task it opens an :class:`ExecutionFrame` on the
simulator, charges the task's fixed cost plus the loop's per-task dispatch
cost, runs the Python callback (which may consume more cost), drains
microtasks in the same frame, and finally marks the thread busy until the
frame's local end time.  A task whose ready time falls inside another task's
busy window is dispatched when the thread frees up — exactly the queueing
behaviour implicit clocks measure.

Hot path
--------

The macrotask queue is dual-lane like the simulator's ready queue: tasks
posted in non-decreasing ``(ready_time, id)`` order ride a FIFO deque,
out-of-order posts go to a heap, and the pop takes the minimum across both
— the same total order as a single heap at a fraction of the cost for the
common in-order workload.  The dispatch path binds its hot attributes to
locals, builds no strings when the tracer is disabled, and reuses cached
metric handles when it is enabled; a metrics-only tracer builds no event
``args`` either (see DESIGN.md §12).
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Callable, Deque, List, Optional, Tuple

from ..errors import SimulationError
from ..trace import QUEUE_DELAY_BUCKETS_NS
from .simulator import ExecutionFrame, ScheduledCall, Simulator
from .task import Microtask, Task, TaskRecord, TaskSource

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Same-time tasks one wake dispatch may run inline before falling back to
#: a scheduled wake.  The fallback keeps the simulator's ``max_events``
#: backstop effective against runaway same-time task chains while costing
#: one queue round-trip per batch.
_INLINE_BATCH_LIMIT = 100

#: Heap-lane size beyond which a wake converts it to the FIFO lane with
#: one sorted pass (see EventLoop._flush_heap_lane).
_HEAP_FLUSH_THRESHOLD = 32


def _task_order(task: "Task") -> "Tuple[int, int]":
    return (task.ready_time, task.id)


class EventLoop:
    """One thread's macrotask + microtask queues, driven by the simulator."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        task_dispatch_cost: int = 2_000,
        record_trace: bool = False,
    ):
        self.sim = sim
        self.name = name
        self.task_dispatch_cost = task_dispatch_cost
        # dual-lane macrotask queue: in-order posts ride the FIFO deque,
        # out-of-order posts go to the heap (see module docstring)
        self._queue: List[Tuple[int, int, Task]] = []
        self._tfifo: Deque[Task] = deque()
        # deque: the checkpoint pops from the left, and list.pop(0) is
        # O(n) — quadratic over a promise-heavy task's microtask chain
        self._microtasks: Deque[Microtask] = deque()
        self.busy_until = 0
        self.stopped = False
        self._wakeup: Optional[ScheduledCall] = None
        self._in_task = False
        self.tasks_run = 0
        self.record_trace = record_trace
        self.trace: List[TaskRecord] = []
        #: Observers called as fn(task, start, end) after each dispatch.
        self.task_observers: List[Callable[[Task, int, int], None]] = []
        # the wakeup label is per-loop constant: building it per _arm()
        # would allocate a string for every posted task
        self._wake_label = f"{name}:wake"
        # cached metric handles, rebound when the capture's tracer changes
        # (Tracer.attach can swap sim.tracer after construction)
        self._mh_tracer = None
        self._mh_task_counters: dict = {}
        self._mh_delay_hist = None
        self._mh_micro_counter = None

    # ------------------------------------------------------------------
    # posting work
    # ------------------------------------------------------------------
    def post_task(self, task: Task) -> Task:
        """Enqueue a macrotask; it runs no earlier than ``task.ready_time``."""
        if self.stopped:
            return task  # terminated workers silently drop new work
        sim = self.sim
        # sim.now and sim.dispatch_time, read directly: every message
        # and timer passes through here
        dispatch = sim._time
        frames = sim._frames
        if frames:
            frame = frames[-1]
            task.enqueue_time = frame.start + frame.elapsed
        else:
            task.enqueue_time = dispatch
        perturber = sim.perturber
        if perturber is not None:
            # schedule-space exploration hook: a perturbation may delay a
            # task's ready time (never advance it), reordering it against
            # tasks from other sources — see repro.explore.perturb
            task.ready_time = max(
                perturber.perturb(sim, task.ready_time, task.label or task.source.value),
                task.ready_time,
            )
        ready = task.ready_time
        if ready < dispatch:
            ready = task.ready_time = dispatch
        fifo = self._tfifo
        if not fifo:
            fifo.append(task)
        else:
            tail = fifo[-1]
            # ids are not guaranteed monotone for pre-built tasks, so the
            # in-order test compares the full (ready_time, id) key
            if ready > tail.ready_time or (ready == tail.ready_time and task.id > tail.id):
                fifo.append(task)
            else:
                _heappush(self._queue, (ready, task.id, task))
        if not self._in_task:
            # mid-task posts are armed when the running task finishes
            self._arm()
        return task

    def post(
        self,
        callback: Callable[..., None],
        *args,
        delay: int = 0,
        source: TaskSource = TaskSource.SCRIPT,
        cost: int = 0,
        label: str = "",
    ) -> Task:
        """Convenience wrapper building and posting a :class:`Task`."""
        sim = self.sim
        frames = sim._frames
        if frames:
            frame = frames[-1]
            now = frame.start + frame.elapsed
        else:
            now = sim._time
        return self.post_task(Task(callback, args, source, now + delay, cost, label))

    def post_microtask(self, micro: Microtask) -> None:
        """Enqueue a microtask.

        If the loop is mid-task the microtask runs at the current task's
        microtask checkpoint; otherwise a carrier macrotask is created so
        the microtask still runs asynchronously (matches queueMicrotask
        semantics from non-task contexts).
        """
        if self.stopped:
            return
        self._microtasks.append(micro)
        if not self._in_task:
            self.post(
                lambda: None,
                source=TaskSource.SCRIPT,
                label="microtask-checkpoint",
            )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Terminate the loop: drop all queued work, refuse new work."""
        self.stopped = True
        self._queue.clear()
        self._tfifo.clear()
        self._microtasks.clear()
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None

    @property
    def pending_tasks(self) -> int:
        """Number of queued, non-cancelled macrotasks."""
        live = sum(1 for _r, _i, t in self._queue if not t.cancelled)
        return live + sum(1 for t in self._tfifo if not t.cancelled)

    @property
    def idle(self) -> bool:
        """True when nothing is queued and no task is executing."""
        return not self._in_task and self.pending_tasks == 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _peek_task(self) -> Optional[Task]:
        """Earliest live queued task, pruning cancelled heads (not popped)."""
        heap = self._queue
        fifo = self._tfifo
        while heap and heap[0][2].cancelled:
            _heappop(heap)
        while fifo and fifo[0].cancelled:
            fifo.popleft()
        if fifo:
            task = fifo[0]
            if heap:
                head = heap[0]
                ht = head[0]
                if ht < task.ready_time or (ht == task.ready_time and head[1] < task.id):
                    return head[2]
            return task
        if heap:
            return heap[0][2]
        return None

    def _arm(self) -> None:
        """(Re)schedule the simulator wakeup for the next runnable task."""
        if self.stopped or self._in_task:
            return
        task = self._peek_task()
        if task is None:
            return
        run_at = task.ready_time
        busy = self.busy_until
        self._schedule_wake(run_at if run_at > busy else busy)

    def _schedule_wake(self, run_at: int) -> None:
        """Have a wake scheduled no later than ``run_at`` (clamped to the
        dispatch clock), replacing a later pending one."""
        sim = self.sim
        if run_at < sim._time:
            run_at = sim._time
        wakeup = self._wakeup
        if wakeup is not None and not wakeup.cancelled:
            if wakeup.time <= run_at:
                return
            wakeup.cancel()
        self._wakeup = sim.schedule(run_at, self._wake, self._wake_label)

    def _flush_heap_lane(self) -> None:
        """Drain a bulky heap lane into the FIFO lane in one sorted pass.

        A burst of out-of-order posts (30k timers set upfront, say) lands
        in the heap, and popping them back costs O(log n) Python-level
        tuple comparisons each.  One ``sorted()`` over tasks from both
        lanes is a single C-speed pass and leaves every subsequent pop
        O(1).  The key is the same ``(ready_time, id)`` the heap orders
        by, so the total order is unchanged.
        """
        heap = self._queue
        fifo = self._tfifo
        tasks = [entry[2] for entry in heap]
        heap.clear()
        tasks.extend(fifo)
        fifo.clear()
        tasks.sort(key=_task_order)
        fifo.extend(tasks)

    def _wake(self) -> None:
        """Simulator callback: run the next runnable task, then either run
        same-time follow-ups inline or schedule the next wake.

        Inline continuation: when the *next* task would be woken at
        exactly the current dispatch time and no other simulator event
        is queued at (or before) that time, nothing can interleave — the
        wake the seed would schedule is provably the very next dispatch.
        Run the task here instead, replicating the wake's bookkeeping
        (events_processed, dispatch label/ordinal, recent labels — the
        same per-event bookkeeping as ``Simulator.step`` and
        ``Simulator.run``'s inline loop; keep the three in sync) so every
        downstream observable, trace ordinals included, matches the
        schedule-a-wake path bit for bit.  Timer storms, where hundreds
        of timers share one millisecond slot, collapse from one full
        queue round-trip per task to one per slot.  Only ``Simulator.run``
        allows it (``_inline_wake_ok``): under ``step()``/``run_until()``
        the loop schedules a wake after every task.
        """
        self._wakeup = None
        if self.stopped:
            return
        heap = self._queue
        if len(heap) > _HEAP_FLUSH_THRESHOLD:
            self._flush_heap_lane()
        fifo = self._tfifo
        sim = self.sim
        run = self._run_task
        heappop = _heappop
        budget = _INLINE_BATCH_LIMIT
        inline = False
        while True:
            # earliest live queued task (_peek_task, inlined)
            while heap and heap[0][2].cancelled:
                heappop(heap)
            while fifo and fifo[0].cancelled:
                fifo.popleft()
            use_fifo = False
            if fifo:
                task = fifo[0]
                use_fifo = True
                if heap:
                    head = heap[0]
                    ht = head[0]
                    if ht < task.ready_time or (
                        ht == task.ready_time and head[1] < task.id
                    ):
                        task = head[2]
                        use_fifo = False
            elif heap:
                task = heap[0][2]
            else:
                return
            run_at = task.ready_time
            busy = self.busy_until
            if run_at < busy:
                run_at = busy
            dispatch = sim._time
            if run_at > dispatch:
                self._schedule_wake(run_at)
                return
            if inline:
                if not sim._inline_wake_ok or budget <= 0:
                    self._schedule_wake(dispatch)
                    return
                # no other simulator event may exist at (or before) the
                # current time (the earliest queued time, bounded
                # conservatively: cancelled entries count, and a wheel with
                # an empty ready run reports its drained-region bound —
                # every stored entry is at or past it, so a bound beyond
                # the dispatch time proves no entry can interleave, without
                # forcing a slot drain from here)
                sfifo = sim._fifo
                swheel = sim._wheel
                swready = swheel._ready
                if sfifo:
                    nt = sfifo[0].time
                    if swready:
                        wt = swready[swheel._pos].time
                        if wt < nt:
                            nt = wt
                    elif swheel._stored:
                        wt = swheel._ready_until
                        if wt < nt:
                            nt = wt
                    due = nt <= dispatch
                elif swready:
                    due = swready[swheel._pos].time <= dispatch
                else:
                    due = swheel._stored and swheel._ready_until <= dispatch
                if due:
                    self._schedule_wake(dispatch)
                    return
                budget -= 1
                n = sim.events_processed + 1
                sim.events_processed = n
                wake_label = self._wake_label
                sim._dispatch_label = wake_label
                sim._dispatch_ordinal = n
                sim._recent_labels.append(wake_label)
            if use_fifo:
                fifo.popleft()
            else:
                heappop(heap)
            run(task)
            if self.stopped:
                return
            inline = True

    def _bind_metrics(self, tracer) -> None:
        """(Re)bind cached metric handles to ``tracer``'s registry."""
        self._mh_tracer = tracer
        self._mh_task_counters = {}
        metrics = tracer.metrics
        self._mh_delay_hist = metrics.histogram(
            f"eventloop.queue_delay_ns.{self.name}", QUEUE_DELAY_BUCKETS_NS
        )
        self._mh_micro_counter = metrics.counter(f"eventloop.microtasks.{self.name}")

    def _run_task(self, task: Task) -> None:
        sim = self.sim
        dispatch_time = sim._time
        busy = self.busy_until
        start = dispatch_time if dispatch_time > busy else busy
        if task.ready_time > start:
            start = task.ready_time
        cost = self.task_dispatch_cost + task.cost
        if cost < 0:
            raise SimulationError(f"negative cost: {cost}")
        frame = ExecutionFrame(start, self.name)
        frame.elapsed = cost
        frames = sim._frames
        frames.append(frame)
        self._in_task = True
        try:
            task.callback(*task.args)
            if self._microtasks:
                self._drain_microtasks(frame)
        finally:
            self._in_task = False
            frames.pop()
        end = frame.start + frame.elapsed
        if end > self.busy_until:
            self.busy_until = end
        self.tasks_run += 1
        if self.record_trace:
            self.trace.append(TaskRecord(task.id, task.label, task.source, start, end))
        tracer = sim.tracer
        if tracer.enabled:
            queue_delay = start - task.ready_time
            if queue_delay < 0:
                queue_delay = 0
            source = task.source
            if tracer.buffering:
                tracer.complete(
                    sim.trace_pid,
                    self.name,
                    task.label,
                    start,
                    end,
                    cat="task",
                    args={"source": source.value, "queue_delay_ns": queue_delay},
                )
            if tracer is not self._mh_tracer:
                self._bind_metrics(tracer)
            counter = self._mh_task_counters.get(source)
            if counter is None:
                counter = self._mh_task_counters[source] = tracer.metrics.counter(
                    f"eventloop.tasks.{source.value}"
                )
            counter.inc()
            self._mh_delay_hist.record(queue_delay)
        observers = self.task_observers
        if observers:
            for observer in list(observers):
                observer(task, start, end)

    def _drain_microtasks(self, frame: ExecutionFrame) -> None:
        """Run the microtask checkpoint (bounded to catch runaway chains)."""
        budget = 100_000
        drained = 0
        micros = self._microtasks
        popleft = micros.popleft
        consume = frame.consume
        while micros:
            micro = popleft()
            consume(micro.cost)
            micro.callback(*micro.args)
            drained += 1
            budget -= 1
            if budget <= 0:
                raise SimulationError(
                    f"microtask checkpoint on {self.name!r} exceeded 100000 "
                    "microtasks (runaway promise chain?)"
                )
        if drained:
            tracer = self.sim.tracer
            if tracer.enabled:
                if tracer.buffering:
                    tracer.instant(
                        self.sim.trace_pid,
                        self.name,
                        "microtask-checkpoint",
                        frame.local_now,
                        cat="task",
                        args={"count": drained},
                    )
                if tracer is not self._mh_tracer:
                    self._bind_metrics(tracer)
                self._mh_micro_counter.inc(drained)
