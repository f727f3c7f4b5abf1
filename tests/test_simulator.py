"""Unit tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import DeadlockError, SimulationError
from repro.runtime.simulator import ExecutionFrame, Simulator


def test_events_dispatch_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(300, lambda: order.append("c"))
    sim.schedule(100, lambda: order.append("a"))
    sim.schedule(200, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_equal_times_dispatch_fifo():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(50, lambda n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c"]


def test_cancelled_events_do_not_run():
    sim = Simulator()
    ran = []
    call = sim.schedule(10, lambda: ran.append(1))
    call.cancel()
    sim.run()
    assert ran == []
    assert sim.pending_events == 0


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.schedule(100, lambda: None)
    sim.run()
    assert sim.dispatch_time == 100
    with pytest.raises(SimulationError):
        sim.schedule(50, lambda: None)


def test_run_until_time_stops_before_later_events():
    sim = Simulator()
    ran = []
    sim.schedule(100, lambda: ran.append("early"))
    sim.schedule(10_000, lambda: ran.append("late"))
    sim.run(until=1_000)
    assert ran == ["early"]
    assert sim.now == 1_000
    sim.run()
    assert ran == ["early", "late"]


def test_run_until_predicate():
    sim = Simulator()
    box = {}
    sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: box.__setitem__("done", True))
    sim.schedule(30, lambda: box.__setitem__("extra", True))
    sim.run_until(lambda: "done" in box)
    assert "done" in box
    assert "extra" not in box


def test_run_until_raises_on_drained_queue():
    sim = Simulator()
    sim.schedule(10, lambda: None)
    with pytest.raises(DeadlockError):
        sim.run_until(lambda: False)


def test_runaway_backstop():
    sim = Simulator()

    def respawn():
        sim.schedule(sim.now + 1, respawn)

    sim.schedule(0, respawn)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def _respawning_sim(label="spin"):
    sim = Simulator()

    def respawn():
        sim.schedule(sim.now + 1, respawn, label=label)

    sim.schedule(0, respawn, label=label)
    return sim


def test_backstop_error_includes_recent_labels():
    sim = _respawning_sim(label="hot-loop")
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=50)
    assert "hot-loop" in str(info.value)
    assert "last dispatched" in str(info.value)


def test_backstop_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "25")
    sim = _respawning_sim()
    with pytest.raises(SimulationError) as info:
        sim.run()
    assert "25 events" in str(info.value)


def test_backstop_env_applies_to_run_until(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "25")
    sim = _respawning_sim()
    with pytest.raises(SimulationError):
        sim.run_until(lambda: False)


def test_backstop_env_invalid_values(monkeypatch):
    sim = _respawning_sim()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "not-a-number")
    with pytest.raises(SimulationError):
        sim.run()
    monkeypatch.setenv("REPRO_MAX_EVENTS", "0")
    with pytest.raises(SimulationError):
        sim.run()


def test_backstop_parameter_beats_env(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_EVENTS", "1000000")
    sim = _respawning_sim()
    with pytest.raises(SimulationError) as info:
        sim.run(max_events=10)
    assert "10 events" in str(info.value)


def test_frames_report_local_time():
    sim = Simulator()
    seen = {}

    def task():
        frame = ExecutionFrame(sim.dispatch_time, "t")
        sim.push_frame(frame)
        frame.consume(500)
        seen["mid"] = sim.now
        frame.consume(500)
        seen["end"] = sim.now
        sim.pop_frame()

    sim.schedule(1_000, task)
    sim.run()
    assert seen == {"mid": 1_500, "end": 2_000}


def test_consume_outside_frame_is_noop():
    sim = Simulator()
    sim.consume(1_000_000)
    assert sim.now == 0


def test_negative_cost_rejected():
    frame = ExecutionFrame(0, "t")
    with pytest.raises(SimulationError):
        frame.consume(-1)


def test_pop_without_frame_raises():
    with pytest.raises(SimulationError):
        Simulator().pop_frame()


def test_schedule_after_uses_local_time():
    sim = Simulator()
    fired_at = {}

    def task():
        frame = ExecutionFrame(sim.dispatch_time, "t")
        sim.push_frame(frame)
        frame.consume(700)
        sim.schedule_after(300, lambda: fired_at.__setitem__("t", sim.now))
        sim.pop_frame()

    sim.schedule(1_000, task)
    sim.run()
    assert fired_at["t"] == 2_000  # 1000 start + 700 local + 300 delay


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.schedule(i, lambda: None)
    sim.run()
    assert sim.events_processed == 5


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_dispatch_order_is_sorted(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule(t, lambda t=t: seen.append(t))
    sim.run()
    assert seen == sorted(times)


# ----------------------------------------------------------------------
# step(), run_until() and run() share one per-event bookkeeping
# ----------------------------------------------------------------------
def _mixed_scenario(plan):
    """Timers scheduled out of order (wheel entries), some cancelled, each
    posting a task that fans out into zero-cost same-time follow-ups
    (which run() may dispatch inline) and one delayed task."""
    from repro.runtime.eventloop import EventLoop

    sim = Simulator()
    loop = EventLoop(sim, "main", task_dispatch_cost=0, record_trace=True)
    log = []

    def note(tag):
        log.append((tag, sim._dispatch_label, sim._dispatch_ordinal, sim.events_processed, sim.now))

    def task(i, followups):
        note(f"task{i}")
        for j in range(followups):
            loop.post(note, f"follow{i}.{j}", label=f"follow{i}")
        loop.post(note, f"late{i}", delay=1_500, cost=300, label=f"late{i}")

    for i, (at, followups, cancel) in enumerate(plan):
        call = sim.schedule(
            at, lambda i=i, f=followups: loop.post(task, i, f, label=f"t{i}"), f"timer{i}"
        )
        if cancel:
            call.cancel()
    return sim, loop, log


def _drive(plan, how):
    sim, loop, log = _mixed_scenario(plan)
    if how == "step":
        while sim.step():
            pass
    elif how == "run_until":
        sim.run_until(lambda: sim.pending_events == 0)
    else:
        sim.run()
    return {
        "events_processed": sim.events_processed,
        "dispatch": (sim._dispatch_label, sim._dispatch_ordinal),
        "recent_labels": list(sim._recent_labels),
        "records": [(r.label, r.source, r.start, r.end) for r in loop.trace],
        "log": log,
    }


_plans = st.lists(
    st.tuples(
        st.sampled_from([0, 1_000, 1_000, 2_500, 40_000, 3_000_000, 700_000_000]),
        st.integers(min_value=0, max_value=4),
        st.booleans(),
    ),
    min_size=1,
    max_size=12,
)


@given(_plans)
def test_step_run_until_and_run_share_per_event_bookkeeping(plan):
    expected = _drive(plan, "step")
    assert _drive(plan, "run_until") == expected
    assert _drive(plan, "run") == expected


def test_mixed_scenario_exercises_inline_batching_and_the_wheel():
    plan = [(3_000_000, 3, False), (1_000, 4, False), (1_000, 0, True), (2_500, 2, False)]
    ran, _loop, _log = _mixed_scenario(plan)
    assert ran._wheel._stored  # out-of-order timers sit on the wheel
    ran.run()
    stepped, _loop, _log = _mixed_scenario(plan)
    while stepped.step():
        pass
    # run() dispatched same-time follow-ups inline (fewer wakes were
    # scheduled), yet counted every one
    assert ran._seq < stepped._seq
    assert ran.events_processed == stepped.events_processed == 3 + 3 * 2 + (3 + 4 + 2)
