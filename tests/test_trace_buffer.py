"""The compact trace buffer must not change a single exported byte.

The tracer stores events as uniform tuples and materialises the
Chrome-trace dicts lazily (see ``repro.trace.tracer``).  These tests pin
that refactor three ways:

* golden digests: three seeded scenarios captured with the pre-fast-path
  (seed) pipeline — ``tests/golden/trace_digests.json`` — must still
  hash identically;
* a full golden export: the small scenario's Chrome trace is compared
  byte for byte against the committed file;
* buffer mechanics: lazy materialisation is incremental and stable.

Regenerating the goldens is an intentional schema change: re-run the
capture recipe in the digests file's ``_comment`` and update both files
in the same commit.
"""

import hashlib
import json
import os

from repro.attacks import create
from repro.harness import run_table1
from repro.runtime.eventloop import EventLoop
from repro.runtime.simulator import Simulator
from repro.runtime.task import Microtask
from repro.runtime.timers import TimerRegistry
from repro.trace import Tracer, capture
from repro.trace.export import dump_chrome_trace, format_timeline

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def _digests():
    with open(os.path.join(GOLDEN_DIR, "trace_digests.json"), encoding="utf-8") as f:
        return json.load(f)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_small_scenario_exports_byte_identical():
    golden = _digests()["small"]
    tracer = Tracer()
    with capture(tracer):
        create("cache-attack").run("jskernel")
    assert len(tracer) == golden["events"]
    chrome = dump_chrome_trace(tracer)
    assert _sha256(chrome) == golden["chrome_sha256"]
    assert _sha256(format_timeline(tracer)) == golden["timeline_sha256"]
    # and byte-for-byte against the committed export, so a digest-era
    # mismatch is debuggable with a plain diff
    with open(
        os.path.join(GOLDEN_DIR, "trace_cache_attack_jskernel.json"), encoding="utf-8"
    ) as f:
        assert chrome == f.read().rstrip("\n")


def test_matrix_scenario_exports_byte_identical():
    golden = _digests()["matrix"]
    tracer = Tracer()
    with capture(tracer):
        run_table1(
            attacks=["cache-attack", "cve-2018-5092"],
            defenses=["legacy-chrome", "jskernel"],
            cache=None,
        )
    assert len(tracer) == golden["events"]
    assert _sha256(dump_chrome_trace(tracer)) == golden["chrome_sha256"]
    assert _sha256(format_timeline(tracer)) == golden["timeline_sha256"]


def test_timer_chain_exports_byte_identical():
    """A plain setTimeout chain on a bare loop: each link burns 2 us,
    posts two 400 ns microtasks and re-arms itself 1 ms later."""
    golden = _digests()["chain"]
    tracer = Tracer()
    with capture(tracer):
        sim = Simulator()
        loop = EventLoop(sim, "main")
        timers = TimerRegistry(loop)

        def link(index):
            sim.consume(2_000)
            for _ in range(2):
                loop.post_microtask(Microtask(lambda: None, (), 400))
            if index + 1 < 40:
                timers.set_timeout(link, 1, index + 1)

        timers.set_timeout(link, 1, 0)
        sim.run()
    assert len(tracer) == golden["events"]
    assert _sha256(dump_chrome_trace(tracer)) == golden["chrome_sha256"]
    assert _sha256(format_timeline(tracer)) == golden["timeline_sha256"]


# ----------------------------------------------------------------------
# buffer mechanics
# ----------------------------------------------------------------------

def test_events_materialise_lazily_and_incrementally():
    tracer = Tracer()
    pid = tracer.register_run()
    tracer.instant(pid, "main", "a", 10, cat="x")
    tracer.complete(pid, "main", "b", 20, 30, cat="x", args={"k": 1})
    first = tracer.events
    assert [e["name"] for e in first] == ["a", "b"]
    # the property returns the same list object and extends it in place
    tracer.counter(pid, "main", "c", 40, {"v": 2})
    tracer.async_event("b", pid, "main", "d", tracer.next_span_id(), 50)
    again = tracer.events
    assert again is first
    assert [e["name"] for e in again] == ["a", "b", "c", "d"]
    assert len(tracer) == 4


def test_materialised_dicts_keep_seed_shape():
    tracer = Tracer()
    pid = tracer.register_run()
    tracer.complete(pid, "t", "span", 5, 3, cat="c")  # end < start clamps dur
    tracer.instant(pid, "t", "point", 7)
    tracer.async_event("e", pid, "t", "legs", 9, 8)
    complete, instant, async_leg = tracer.events
    assert complete == {
        "ph": "X", "pid": pid, "thread": "t", "name": "span",
        "cat": "c", "ts": 5, "dur": 0, "args": {},
    }
    assert instant["s"] == "t" and "dur" not in instant
    assert async_leg["id"] == 9 and async_leg["ph"] == "e"


def test_counter_values_copied_at_emission():
    tracer = Tracer()
    pid = tracer.register_run()
    values = {"depth": 1}
    tracer.counter(pid, "t", "gauge", 0, values)
    values["depth"] = 99
    assert tracer.events[0]["args"] == {"depth": 1}
