"""Tests of the benchmark's own logic: percentiles, host speed, self time, wrappers."""

import gc
import os
import time

import pytest

import hostspeed
import perf_layers
import perf_workloads
import run as bench
from perf_layers import UNATTRIBUTED, Recorder, Target, self_times

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self):
        self.now = 1_000

    def __call__(self):
        return self.now

    def advance(self, ns):
        self.now += ns


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_p90_is_omitted_below_100_units():
    assert "unit_wall_ms.p90" not in bench.latency_metrics(range(1, 100))
    metrics = bench.latency_metrics([n * 1_000_000 for n in range(100, 0, -1)])
    # nearest rank: the 90th of 100 sorted samples, ten lie beyond it
    assert metrics["unit_wall_ms.p90"] == 90.0
    assert metrics["unit_wall_ms.p50"] == 50.5


def test_hook_time_is_excluded_from_units_and_busy_time():
    class Sleepy:
        def run_pass(self, on_unit):
            for _ in range(3):
                time.sleep(0.01)
                on_unit(True, None)
            return {}

    loop = bench.Loop(Sleepy(), on_unit=lambda: time.sleep(0.05))
    loop.one_pass()
    assert len(loop.samples) == 3
    assert all(0.009e9 < sample < 0.045e9 for sample in loop.samples)
    assert 0.029e9 < loop.busy_ns < 0.1e9


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
def test_reference_slices_run_between_units_and_cost_them_nothing(monkeypatch):
    class Sleepy:
        def run_pass(self, on_unit):
            for _ in range(3):
                time.sleep(0.01)
                on_unit(True, None)
            return {}

    # a 40 ms slice after every unit
    monkeypatch.setattr(
        hostspeed, "reference_slice", lambda: (time.sleep(0.04), hostspeed.SLICE_RESULT)[1]
    )
    speed = hostspeed.HostSpeed(every_ns=1)
    speed.sample()
    loop = bench.Loop(Sleepy(), speed=speed)
    loop.one_pass()
    assert list(loop.intervals) == [1, 2, 3]
    assert len(speed.slices) == 4 and speed.busy[0] == 0
    assert all(0.009e9 < sample < 0.035e9 for sample in loop.samples)
    assert 0.029e9 < loop.busy_ns < 0.1e9


def test_host_speed_factor_weights_intervals_by_workload_time():
    speed = hostspeed.HostSpeed()
    nominal = hostspeed.NOMINAL_NS
    speed.slices.extend([nominal, 2 * nominal, 4 * nominal])
    speed.busy.extend([0, 100, 300])
    assert speed.interval_factor(1) == 1.5
    assert speed.interval_factor(2) == 3.0
    assert speed.factor() == (100 * 1.5 + 300 * 3.0) / 400
    # with no workload time (around a set-up probe): the plain mean
    probe = hostspeed.HostSpeed()
    probe.slices.extend([nominal, 3 * nominal])
    probe.busy.extend([0, 0])
    assert probe.factor() == 2.0


def test_reference_slice_is_fixed_and_leaves_the_collector_as_it_was():
    assert hostspeed.reference_slice() == hostspeed.SLICE_RESULT
    speed = hostspeed.HostSpeed()
    speed.sample(3)
    assert gc.isenabled() and len(speed.slices) == 1 and speed.slices[0] > 0
    gc.disable()
    try:
        speed.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def _target(layer, path, kind="time", **extra):
    return Target(layer, "repro.fake", path, kind, **extra)


def test_self_time_subtracts_nested_spans():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def inner():
        clock.advance(3)

    wrapped_inner = perf_layers._wrap(rec, _target("runtime.dom", "inner"), inner)

    def outer():
        clock.advance(2)
        wrapped_inner()
        clock.advance(4)
        wrapped_inner()

    wrapped_outer = perf_layers._wrap(rec, _target("workloads", "outer"), outer)
    rec.start()
    clock.advance(1)
    wrapped_outer()
    clock.advance(5)
    rec.stop()

    assert rec.wall_ns == 1 + 12 + 5
    assert rec.self_ns["workloads"] == 6
    assert rec.self_ns["runtime.dom"] == 6
    assert rec.self_ns[UNATTRIBUTED] == 6
    assert sum(rec.self_ns.values()) == rec.wall_ns
    offline = self_times(rec.spans.rows(), rec.wall_ns)
    assert offline == {UNATTRIBUTED: 6, "workloads": 6, "runtime.dom": 6}


def test_recursive_calls_open_no_second_span():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    box = {}

    def walk(depth):
        clock.advance(1)
        if depth:
            box["fn"](depth - 1)

    box["fn"] = perf_layers._wrap(rec, _target("runtime.simulator", "walk"), walk)
    rec.start()
    box["fn"](3)
    rec.stop()
    assert len(rec.spans) == 1
    assert rec.self_ns["runtime.simulator"] == 4
    assert rec.calls["repro.fake.walk"] == 4


def test_generator_spans_charge_only_their_resumptions():
    clock = FakeClock()
    rec = Recorder(clock=clock)

    def children(node):
        for child in node:
            clock.advance(2)
            yield child
            # a recursive walk is part of the outer walk
            yield from box["walk"](child)

    box = {}
    box["walk"] = perf_layers._wrap(
        rec,
        _target("runtime.dom", "walk", "gen", count="runtime.dom.walks",
                per_item="runtime.dom.nodes_walked"),
        children,
    )

    def frame():
        for _node in box["walk"]([[], [[]]]):
            clock.advance(5)  # the consumer's own work

    wrapped_frame = perf_layers._wrap(rec, _target("runtime.render", "frame"), frame)
    rec.start()
    wrapped_frame()
    rec.stop()

    # three nodes yielded: 3 x 2 ns of walking, 3 x 5 ns of consuming
    assert rec.counts["runtime.dom.walks"] == 1
    assert rec.counts["runtime.dom.nodes_walked"] == 3
    assert rec.self_ns["runtime.dom"] == 6
    assert rec.self_ns["runtime.render"] == 15
    assert rec.self_ns[UNATTRIBUTED] == 0
    offline = self_times(rec.spans.rows(), rec.wall_ns)
    assert offline == {UNATTRIBUTED: 0, "runtime.render": 15, "runtime.dom": 6}


def test_layer_self_times_are_per_unit_and_sum_to_the_traced_wall():
    clock = FakeClock()
    rec = Recorder(clock=clock)
    step = perf_layers._wrap(rec, _target("runtime.dom", "step"), lambda: clock.advance(30))
    rec.start()
    for _ in range(4):
        clock.advance(10)
        step()
    rec.stop()
    metrics = perf_layers.layer_metrics(rec, units=4, untraced_unit_s=20e-9)
    assert metrics["runtime.dom.self_s"] == (30e-9, "s/unit")
    assert metrics["unattributed.self_s"] == (10e-9, "s/unit")
    assert metrics["traced_wall_s"] == (40e-9, "s/unit")
    assert metrics["trace_overhead_x"] == (2.0, "x")
    self_s = sum(value for name, (value, _unit) in metrics.items() if name.endswith(".self_s"))
    assert self_s == pytest.approx(metrics["traced_wall_s"][0])


# ----------------------------------------------------------------------
# installing and removing wrappers
# ----------------------------------------------------------------------
def test_install_reaches_names_imported_elsewhere_and_is_fully_removed():
    from repro.analysis import races
    from repro.attacks.base import Attack, CveAttack, TimingAttack
    from repro.explore import oracles

    original = races.analyze_races
    overrides = {cls: cls.__dict__["run"] for cls in (Attack, TimingAttack, CveAttack)}
    assert oracles.analyze_races is original
    rec = Recorder()
    installed = perf_layers.install(rec)
    try:
        assert races.analyze_races is not original
        # bound at import time in another module: wrapped there too
        assert oracles.analyze_races is races.analyze_races
        # subclass overrides of a wrapped method are wrapped as well
        for cls in overrides:
            assert hasattr(cls.__dict__["run"], perf_layers.MARK)
        assert perf_layers.leftover_wrappers()
    finally:
        installed.remove()
    assert perf_layers.leftover_wrappers() == []
    assert races.analyze_races is original and oracles.analyze_races is original
    for cls, run in overrides.items():
        assert cls.__dict__["run"] is run


@pytest.fixture
def small_inputs(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(perf_workloads.PageLoad, "SESSIONS", 4)
    monkeypatch.setattr(perf_workloads.Fuzz, "BUDGET", 6)
    monkeypatch.setattr(perf_workloads.PopModel, "SESSIONS", 20)


def test_every_wrapper_fires_and_untraced_runs_pay_nothing(small_inputs):
    """One traced pass of each workload calls every wrapped function.

    A wrapper that never fires is a wrapper some caller bypasses (for
    instance by binding the function before the wrappers went in),
    unless it is listed, with its reason, as not exercised.
    """
    fired = set()
    digests = {}
    for name, cls in perf_workloads.WORKLOADS.items():
        workload = cls(0)
        workload.warm_up()
        untraced = workload.run_pass(lambda ok, error: None)
        rec = Recorder()
        installed = perf_layers.install(rec)
        try:
            rec.start()
            traced = workload.run_pass(lambda ok, error: None)
            rec.stop()
        finally:
            installed.remove()
        digests[name] = perf_workloads.digest(untraced)
        assert perf_workloads.digest(traced) == digests[name]
        assert sum(rec.self_ns.values()) == rec.wall_ns
        fired.update(key for key, calls in rec.calls.items() if calls)
        # wrappers are gone: another pass records nothing
        before = dict(rec.calls)
        workload.run_pass(lambda ok, error: None)
        assert rec.calls == before
    assert perf_layers.leftover_wrappers() == []
    missing = sorted(t.name for t in perf_layers.TARGETS if t.name not in fired)
    assert missing == sorted(perf_layers.NOT_EXERCISED)
