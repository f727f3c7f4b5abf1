"""Unit tests for the promoted CI validators (tools/ci_checks.py)."""

import json
import os
import sys

import pytest

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")
)

import ci_checks  # noqa: E402
from ci_checks import (  # noqa: E402
    SHAREDMEM_EXPECTED,
    CheckFailure,
    check_analyze,
    check_cube,
    check_fuzz,
    check_sharedmem,
    check_trace,
)


def write(path, payload):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    return str(path)


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
GOOD_TRACE = {
    "traceEvents": [
        {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1},
        {"ph": "X", "name": "task", "ts": 1, "pid": 1, "tid": 1},
    ]
}


def test_check_trace_accepts_a_valid_trace(tmp_path):
    path = write(tmp_path / "trace.json", GOOD_TRACE)
    assert check_trace(path) == "ok: 1 events, 1 thread rows"


@pytest.mark.parametrize(
    "trace, fragment",
    [
        ({"traceEvents": []}, "no events"),
        ({"traceEvents": [{"ph": "M", "name": "thread_name"}]}, "only metadata"),
        (
            {"traceEvents": [{"ph": "X", "name": "bad"}]},
            "malformed event",
        ),
        (
            {"traceEvents": [{"ph": "X", "ts": 1, "pid": 1, "tid": 1}]},
            "no thread rows",
        ),
    ],
)
def test_check_trace_rejects_bad_traces(tmp_path, trace, fragment):
    path = write(tmp_path / "trace.json", trace)
    with pytest.raises(CheckFailure, match=fragment):
        check_trace(path)


def test_check_trace_reports_unreadable_files(tmp_path):
    with pytest.raises(CheckFailure, match="cannot load"):
        check_trace(str(tmp_path / "missing.json"))


# ----------------------------------------------------------------------
# analyze
# ----------------------------------------------------------------------
def analyze_reports(tmp_path, **overrides):
    reports = {
        "races-baseline.json": {
            "race_count": 2,
            "runs": [{"races": [{"pattern": "use-after-free"}]}],
        },
        "races-jskernel.json": {"race_count": 0, "runs": []},
        "determinism-jskernel.json": {
            "deterministic": True,
            "divergence": 0,
            "schedule_length": 42,
        },
        "determinism-baseline.json": {"divergence": 3},
    }
    reports.update(overrides)
    for name, payload in reports.items():
        write(tmp_path / name, payload)
    return str(tmp_path)


def test_check_analyze_accepts_the_expected_shape(tmp_path):
    summary = check_analyze(analyze_reports(tmp_path))
    assert summary.startswith("ok: baseline races 2")


@pytest.mark.parametrize(
    "overrides, fragment",
    [
        (
            {"races-baseline.json": {"race_count": 0, "runs": []}},
            "baseline found no races",
        ),
        (
            {
                "races-baseline.json": {
                    "race_count": 1,
                    "runs": [{"races": [{"pattern": "write-write"}]}],
                }
            },
            "no use-after-free",
        ),
        ({"races-jskernel.json": {"race_count": 1, "runs": []}}, "expected 0"),
        (
            {
                "determinism-jskernel.json": {
                    "deterministic": False,
                    "divergence": 1,
                    "schedule_length": 10,
                }
            },
            "not deterministic",
        ),
        (
            {"determinism-baseline.json": {"divergence": 0}},
            "unexpectedly seed-independent",
        ),
    ],
)
def test_check_analyze_rejects_drift(tmp_path, overrides, fragment):
    with pytest.raises(CheckFailure, match=fragment):
        check_analyze(analyze_reports(tmp_path, **overrides))


# ----------------------------------------------------------------------
# fuzz (failure paths; the happy path replays a real witness in CI)
# ----------------------------------------------------------------------
def test_check_fuzz_rejects_an_empty_directory(tmp_path):
    with pytest.raises(CheckFailure, match="no witness files"):
        check_fuzz(str(tmp_path))


def test_check_fuzz_rejects_an_unminimised_witness(tmp_path):
    write(tmp_path / "w.json", {"signature": ["leak"]})
    with pytest.raises(CheckFailure, match="not minimised"):
        check_fuzz(str(tmp_path))


def test_check_fuzz_rejects_a_signatureless_witness(tmp_path):
    write(tmp_path / "w.json", {"signature": []})
    with pytest.raises(CheckFailure, match="no failure signature"):
        check_fuzz(str(tmp_path))


# ----------------------------------------------------------------------
# cube
# ----------------------------------------------------------------------
def cube_payload():
    delay = {"count": 3, "mean_ns": 10.0, "cdf": [{"le_ns": None, "fraction": 1.0}]}
    return {
        "attacks": ["cve-2018-5092"],
        "defenses": ["jskernel", "detbrowser"],
        "pair": ["jskernel", "detbrowser"],
        "seed": 0,
        "verdicts": {"cve-2018-5092": {"jskernel": True, "detbrowser": False}},
        "details": {"cve-2018-5092": {"jskernel": "held", "detbrowser": "leak"}},
        "overhead": {
            "cve-2018-5092": {
                "jskernel": {"queue_delay": delay},
                "detbrowser": {"queue_delay": delay},
            }
        },
        "divergent": [
            {
                "attack": "cve-2018-5092",
                "kind": "verdict",
                "jskernel": True,
                "detbrowser": False,
            }
        ],
        "errors": [],
    }


def cube_fixture():
    cube = cube_payload()
    return {
        key: cube[key]
        for key in ("attacks", "defenses", "pair", "seed", "verdicts", "divergent")
    }


def test_check_cube_accepts_a_matching_dump(tmp_path):
    cube = write(tmp_path / "cube.json", cube_payload())
    expected = write(tmp_path / "expected.json", cube_fixture())
    summary = check_cube(cube, expected)
    assert summary.startswith("ok: 2 cells")
    assert "1 verdict-divergent" in summary


def test_check_cube_writes_the_cdf_artifact(tmp_path):
    cube = write(tmp_path / "cube.json", cube_payload())
    expected = write(tmp_path / "expected.json", cube_fixture())
    out = str(tmp_path / "cdfs.json")
    check_cube(cube, expected, cdf_out=out)
    with open(out, "r", encoding="utf-8") as handle:
        cdfs = json.load(handle)
    assert cdfs["cve-2018-5092"]["jskernel"]["queue_delay"]["cdf"]


def test_check_cube_rejects_verdict_drift(tmp_path):
    drifted = cube_payload()
    drifted["verdicts"]["cve-2018-5092"]["detbrowser"] = True
    cube = write(tmp_path / "cube.json", drifted)
    expected = write(tmp_path / "expected.json", cube_fixture())
    with pytest.raises(CheckFailure, match="verdict drift"):
        check_cube(cube, expected)


def test_check_cube_rejects_divergence_drift(tmp_path):
    drifted = cube_payload()
    drifted["divergent"] = []
    cube = write(tmp_path / "cube.json", drifted)
    expected = write(tmp_path / "expected.json", cube_fixture())
    with pytest.raises(CheckFailure, match="divergent cells drifted"):
        check_cube(cube, expected)


def test_check_cube_rejects_cell_errors(tmp_path):
    poisoned = cube_payload()
    poisoned["errors"] = ["cve-2018-5092 vs jskernel: boom"]
    cube = write(tmp_path / "cube.json", poisoned)
    expected = write(tmp_path / "expected.json", cube_fixture())
    with pytest.raises(CheckFailure, match="cell errors"):
        check_cube(cube, expected)


def test_check_cube_rejects_a_missing_cdf(tmp_path):
    bare = cube_payload()
    bare["overhead"]["cve-2018-5092"]["detbrowser"] = {}
    cube = write(tmp_path / "cube.json", bare)
    expected = write(tmp_path / "expected.json", cube_fixture())
    with pytest.raises(CheckFailure, match="missing a queue-delay CDF"):
        check_cube(cube, expected)


def test_check_cube_requires_the_fixture_to_pin_divergence(tmp_path):
    agreeing = cube_payload()
    agreeing["verdicts"]["cve-2018-5092"]["detbrowser"] = True
    agreeing["divergent"] = []
    fixture = {
        key: agreeing[key]
        for key in ("attacks", "defenses", "pair", "seed", "verdicts", "divergent")
    }
    cube = write(tmp_path / "cube.json", agreeing)
    expected = write(tmp_path / "expected.json", fixture)
    with pytest.raises(CheckFailure, match="pins no verdict-divergent"):
        check_cube(cube, expected)


# ----------------------------------------------------------------------
# sharedmem (the sharedmem-smoke job's validator)
# ----------------------------------------------------------------------
def sharedmem_cube_payload():
    delay = {"count": 3, "mean_ns": 10.0, "cdf": [{"le_ns": None, "fraction": 1.0}]}
    details = {
        attack: {defense: "held" for defense in row}
        for attack, row in SHAREDMEM_EXPECTED.items()
    }
    details["lock-order-deadlock"]["legacy-chrome"] = (
        "deadlock: lock:a#1 <- lock:b#2 cycle"
    )
    details["lock-order-deadlock"]["jskernel"] = (
        "blocked: kernel lock-order policy vetoed out-of-order acquire"
    )
    return {
        "attacks": list(SHAREDMEM_EXPECTED),
        "defenses": ["legacy-chrome", "fuzzyfox", "jskernel", "detbrowser"],
        "seed": 0,
        "verdicts": {
            attack: dict(row) for attack, row in SHAREDMEM_EXPECTED.items()
        },
        "details": details,
        "overhead": {
            attack: {defense: {"queue_delay": delay} for defense in row}
            for attack, row in SHAREDMEM_EXPECTED.items()
        },
        "divergent": [],
        "errors": [],
    }


def deadlock_witness_payload():
    """A genuine replayable witness: the nominal lock-order-deadlock
    schedule deadlocks, so replaying an unperturbed trial reproduces the
    ``['deadlock']`` signature."""
    return {
        "attack": "lock-order-deadlock",
        "defense": "legacy-chrome",
        "seed": 0,
        "trial": 0,
        "strategy": "none",
        "perturb": {"strategy": "none"},
        "faults": {},
        "signature": ["deadlock"],
        "minimized": {"atoms_before": 0, "atoms_after": 0, "tests_run": 1},
    }


def test_check_sharedmem_accepts_pinned_cube_and_replayable_witness(tmp_path):
    cube = write(tmp_path / "cube.json", sharedmem_cube_payload())
    witnesses = tmp_path / "witnesses"
    witnesses.mkdir()
    write(witnesses / "witness-000.json", deadlock_witness_payload())
    summary = check_sharedmem(cube, str(witnesses))
    assert summary.startswith("ok: 20 sharedmem cells pinned")
    assert "deadlock" in summary


def test_check_sharedmem_rejects_a_missing_scenario_row(tmp_path):
    payload = sharedmem_cube_payload()
    del payload["verdicts"]["gc-vs-mutator"]
    cube = write(tmp_path / "cube.json", payload)
    with pytest.raises(CheckFailure, match="missing the 'gc-vs-mutator' row"):
        check_sharedmem(cube, str(tmp_path))


def test_check_sharedmem_rejects_verdict_drift(tmp_path):
    # the pinned expected-failure flipping (fuzzyfox suddenly "defending"
    # the counter-thread clock) must fail the gate, not silently pass
    payload = sharedmem_cube_payload()
    payload["verdicts"]["counter-thread-clock"]["fuzzyfox"] = True
    cube = write(tmp_path / "cube.json", payload)
    with pytest.raises(CheckFailure, match="verdict drift"):
        check_sharedmem(cube, str(tmp_path))


def test_check_sharedmem_rejects_an_unnamed_deadlock_cycle(tmp_path):
    payload = sharedmem_cube_payload()
    payload["details"]["lock-order-deadlock"]["legacy-chrome"] = "crash"
    cube = write(tmp_path / "cube.json", payload)
    with pytest.raises(CheckFailure, match="does not name the cycle"):
        check_sharedmem(cube, str(tmp_path))


def test_check_sharedmem_rejects_a_missing_overhead_cdf(tmp_path):
    payload = sharedmem_cube_payload()
    payload["overhead"]["shm-toctou"]["jskernel"] = {"queue_delay": {"cdf": []}}
    cube = write(tmp_path / "cube.json", payload)
    with pytest.raises(CheckFailure, match="missing a queue-delay CDF"):
        check_sharedmem(cube, str(tmp_path))


def test_check_sharedmem_rejects_an_empty_witness_dir(tmp_path):
    cube = write(tmp_path / "cube.json", sharedmem_cube_payload())
    witnesses = tmp_path / "witnesses"
    witnesses.mkdir()
    with pytest.raises(CheckFailure, match="no witnesses"):
        check_sharedmem(cube, str(witnesses))


def test_check_sharedmem_rejects_an_unminimised_witness(tmp_path):
    cube = write(tmp_path / "cube.json", sharedmem_cube_payload())
    witnesses = tmp_path / "witnesses"
    witnesses.mkdir()
    payload = deadlock_witness_payload()
    del payload["minimized"]
    write(witnesses / "witness-000.json", payload)
    with pytest.raises(CheckFailure, match="not minimised"):
        check_sharedmem(cube, str(witnesses))


def test_check_sharedmem_rejects_a_wrong_signature(tmp_path):
    cube = write(tmp_path / "cube.json", sharedmem_cube_payload())
    witnesses = tmp_path / "witnesses"
    witnesses.mkdir()
    payload = deadlock_witness_payload()
    payload["signature"] = ["oom"]
    write(witnesses / "witness-000.json", payload)
    with pytest.raises(CheckFailure, match="lacks 'deadlock'"):
        check_sharedmem(cube, str(witnesses))


# ----------------------------------------------------------------------
# runlog / telemetry (the telemetry-smoke job's validators)
# ----------------------------------------------------------------------
def runlog_lines():
    """A minimal healthy run log: begin, one spanned cell, end."""
    return [
        {"ev": "run_begin", "ts": 1.0, "pid": 7, "command": "cube"},
        {"ev": "span_begin", "ts": 1.1, "pid": 7, "span": 1, "name": "engine.shard"},
        {"ev": "point", "ts": 1.2, "pid": 7, "name": "engine.cell", "attrs": {"ok": True}},
        {"ev": "span_end", "ts": 1.3, "pid": 7, "span": 1, "name": "engine.shard", "dur_s": 0.2},
        {"ev": "run_end", "ts": 1.4, "pid": 7, "cells": 1},
    ]


def write_runlog(path, records):
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")
    return str(path)


def test_check_runlog_accepts_a_balanced_log(tmp_path):
    path = write_runlog(tmp_path / "run.jsonl", runlog_lines())
    assert (
        ci_checks.check_runlog(path)
        == "ok: 5 records, 1 spans balanced, 1 cell outcomes across 1 processes"
    )


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda lines: lines[:-1], "no run_end"),
        (lambda lines: [l for l in lines if l["ev"] != "run_begin"], "no run_begin"),
        (lambda lines: [l for l in lines if l["ev"] != "span_end"], "unclosed spans"),
        (lambda lines: [l for l in lines if l["ev"] != "point"], "no engine.cell"),
        (lambda lines: [dict(l, span=9) if l["ev"] == "span_end" else l for l in lines],
         "span_end without begin"),
        (lambda lines: [{k: v for k, v in l.items() if k != "dur_s"} for l in lines],
         "without dur_s"),
        (lambda lines: [{k: v for k, v in l.items() if k != "pid"} for l in lines],
         "missing 'pid'"),
        (lambda lines: [], "empty"),
    ],
)
def test_check_runlog_rejects_malformed_logs(tmp_path, mutate, fragment):
    path = write_runlog(tmp_path / "run.jsonl", mutate(runlog_lines()))
    with pytest.raises(CheckFailure, match=fragment):
        ci_checks.check_runlog(path)


def test_check_runlog_rejects_non_json_lines(tmp_path):
    path = tmp_path / "run.jsonl"
    path.write_text("this is not json\n")
    with pytest.raises(CheckFailure, match="not JSON"):
        ci_checks.check_runlog(str(path))


def telemetry_report():
    return {
        "version": 1,
        "command": "cube",
        "engine": {"runs": 1, "cells": 3, "computed": 2, "cached": 1, "errors": 0},
        "cache": {"hits": 1, "misses": 2, "stores": 2},
        "metrics": {
            "counters": {"eventloop.tasks.script": 5},
            "gauges": {},
            "histograms": {
                "h": {
                    "bounds": [10, 100],
                    "counts": [1, 2, 0],
                    "sum": 60,
                    "count": 3,
                    "min": 5,
                    "max": 60,
                }
            },
            "sketches": {
                "s": {
                    "accuracy": 0.005,
                    "max_centroids": 4096,
                    "count": 3,
                    "sum": 30,
                    "min": 0,
                    "max": 20,
                    "zero": 1,
                    "neg": [],
                    "pos": [[231, 1, 10], [300, 1, 20]],
                }
            },
        },
        "run": {"duration_s": 0.5, "cells_per_s": 6.0},
    }


def test_check_telemetry_accepts_a_valid_report(tmp_path):
    path = write(tmp_path / "telemetry.json", telemetry_report())
    assert ci_checks.check_telemetry(path) == (
        "ok: 3 cells (2 computed, 1 cached), 1 histograms, 1 sketches"
    )


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: {k: v for k, v in r.items() if k != "run"}, "missing section 'run'"),
        (lambda r: dict(r, engine=dict(r["engine"], cells=9)), "does not balance"),
        (
            lambda r: dict(
                r, metrics={k: v for k, v in r["metrics"].items() if k != "counters"}
            ),
            "missing 'counters'",
        ),
        (
            lambda r: dict(
                r,
                metrics={
                    **r["metrics"],
                    "histograms": {"h": dict(r["metrics"]["histograms"]["h"], counts=[1])},
                },
            ),
            "length mismatch",
        ),
        (
            lambda r: dict(
                r,
                metrics={
                    **r["metrics"],
                    "sketches": {"s": dict(r["metrics"]["sketches"]["s"], zero=5)},
                },
            ),
            "do not sum to count",
        ),
    ],
)
def test_check_telemetry_rejects_schema_drift(tmp_path, mutate, fragment):
    path = write(tmp_path / "telemetry.json", mutate(telemetry_report()))
    with pytest.raises(CheckFailure, match=fragment):
        ci_checks.check_telemetry(path)


def test_check_telemetry_validates_the_prometheus_sibling(tmp_path):
    json_path = write(tmp_path / "telemetry.json", telemetry_report())
    prom = tmp_path / "telemetry.prom"
    prom.write_text(
        "# HELP repro_engine_cells cells\n"
        "# TYPE repro_engine_cells counter\n"
        "repro_engine_cells 3\n"
        'repro_h_bucket{le="10.0"} 1\n'
    )
    assert ci_checks.check_telemetry(json_path, str(prom)).endswith(
        "; 2 Prometheus samples"
    )

    prom.write_text("repro_engine_cells 3\nthis line === is not exposition\n")
    with pytest.raises(CheckFailure, match="bad exposition line"):
        ci_checks.check_telemetry(json_path, str(prom))

    prom.write_text("repro_other 1\n")
    with pytest.raises(CheckFailure, match="repro_engine_cells series missing"):
        ci_checks.check_telemetry(json_path, str(prom))

    prom.write_text("# only comments\n")
    with pytest.raises(CheckFailure, match="no samples"):
        ci_checks.check_telemetry(json_path, str(prom))


def test_committed_fixture_satisfies_the_gate_requirements():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "tests", "golden", "cube_expected.json")
    with open(path, "r", encoding="utf-8") as handle:
        fixture = json.load(handle)
    assert [c for c in fixture["divergent"] if c["kind"] == "verdict"]
    assert fixture["pair"] == ["jskernel", "detbrowser"]


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def serve_frames():
    telemetry = {
        "errors": 0, "cached": 0, "computed": 2,
        "quantiles": {"p50": 10.0, "p90": 12.0, "p95": 12.0, "p99": 12.0},
    }
    report = {
        "pages": 4, "cached": 0, "errors": [], "error_overflow": 0,
        "computed": 4, "cache_hits": 0, "configs": {}, "archetypes": {},
    }
    return [
        {"type": "accepted", "job": "job-1", "kind": "population", "ts": 1.0},
        {"type": "result", "job": "job-1", "seq": 0, "ok": True, "ts": 1.1},
        {"type": "telemetry", "job": "job-1", "done": 2, "ts": 1.2, **telemetry},
        {"type": "result", "job": "job-1", "seq": 2, "ok": True, "ts": 1.3},
        {"type": "telemetry", "job": "job-1", "done": 4, "ts": 1.4, **telemetry},
        {"type": "done", "job": "job-1", "report": report, "ts": 1.5},
    ]


def test_check_serve_accepts_a_well_formed_stream(tmp_path):
    path = write_runlog(tmp_path / "frames.jsonl", serve_frames())
    assert ci_checks.check_serve(path) == (
        "ok: 6 frames for job-1 (2 results, 2 telemetry snapshots, final done=4)"
    )


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda frames: [], "no frames"),
        (lambda frames: frames[1:], "does not open with an accepted"),
        (lambda frames: frames[:-1], "does not end with a done"),
        (lambda frames: [dict(f, job="job-2") if f["type"] == "done" else f
                         for f in frames], "wrong job"),
        (lambda frames: [dict(f, seq=0) for f in frames], "seq not monotonically"),
        (lambda frames: [f for f in frames if f["type"] != "telemetry"],
         "no telemetry frames"),
        (lambda frames: [{k: v for k, v in f.items() if k != "computed"}
                         for f in frames], "missing 'computed'"),
        (lambda frames: [dict(f, done=1) if f.get("done") == 4 and f["type"] == "telemetry"
                         else f for f in frames], "done went backwards"),
        (lambda frames: [{k: v for k, v in f.items() if k != "ts"} for f in frames],
         "missing 'ts'"),
        (lambda frames: [dict(f, report=None) if f["type"] == "done" else f
                         for f in frames], "no report"),
        (lambda frames: [dict(f, report=dict(f["report"], pages=3))
                         if f["type"] == "done" else f for f in frames],
         "does not balance"),
    ],
)
def test_check_serve_rejects_malformed_streams(tmp_path, mutate, fragment):
    path = write_runlog(tmp_path / "frames.jsonl", mutate(serve_frames()))
    with pytest.raises(CheckFailure, match=fragment):
        ci_checks.check_serve(path)


def test_check_serve_rejects_non_json_lines(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("not json\n")
    with pytest.raises(CheckFailure, match="not JSON"):
        ci_checks.check_serve(str(path))


def test_check_serve_validates_a_real_captured_stream(tmp_path):
    from repro.serve import ExperimentServer, submit_and_stream

    server = ExperimentServer(str(tmp_path / "ci.sock"))
    server.start()
    try:
        job = {"kind": "population", "size": 40, "seed": 0,
               "telemetry_every": 10, "result_every": 10}
        path = write_runlog(
            tmp_path / "frames.jsonl",
            list(submit_and_stream(server.socket_path, job, timeout=60.0)),
        )
    finally:
        server.shutdown()
    assert ci_checks.check_serve(path).startswith("ok: ")
    assert ci_checks.main(["serve", path]) == 0


# ----------------------------------------------------------------------
# bench
# ----------------------------------------------------------------------
def good_bench_report(**overrides):
    report = {
        "schema": 3,
        "scale": 1.0,
        "benchmarks": {
            "wheel": {
                "events": 1000,
                "repeats": 3,
                "events_per_sec": 2_000_000.0,
                "median_ns_per_event": 500.0,
                "max_ns_per_event": 600.0,
            },
            "wheel-reference": {
                "events": 1000,
                "repeats": 3,
                "events_per_sec": 1_000_000.0,
                "median_ns_per_event": 1000.0,
                "max_ns_per_event": 1100.0,
            },
        },
        "speedups_vs_seed_reference": {"wheel": 2.0},
        "traced_overhead": {
            "untraced_events_per_sec": 400_000.0,
            "traced_events_per_sec": 200_000.0,
            "overhead_ratio": 2.0,
        },
    }
    report.update(overrides)
    return report


def test_check_bench_accepts_a_valid_report(tmp_path):
    path = write(tmp_path / "bench.json", good_bench_report())
    summary = ci_checks.check_bench(path, require=["wheel"])
    assert summary == "ok: 2 benchmarks at scale 1.0, 1 seed-reference speedups"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda r: r.update(schema=1), "schema 1"),
        (lambda r: r.update(scale=0), "scale"),
        (lambda r: r.update(benchmarks={}), "no benchmarks"),
        (lambda r: r["benchmarks"]["wheel"].pop("events_per_sec"), "numeric"),
        (lambda r: r["benchmarks"]["wheel"].update(events=0), "non-positive"),
        (
            lambda r: r["benchmarks"]["wheel"].update(max_ns_per_event=1.0),
            "max < median",
        ),
        (lambda r: r["benchmarks"].pop("wheel"), "no live counterpart"),
        (
            lambda r: r["benchmarks"]["wheel-reference"].update(events=999),
            "different event counts",
        ),
        (lambda r: r.pop("speedups_vs_seed_reference"), "missing speedups"),
        (
            lambda r: r["speedups_vs_seed_reference"].update(wheel=3.0),
            "recomputes to",
        ),
        (
            lambda r: r["speedups_vs_seed_reference"].update(ghost=1.0),
            "lacks its benchmark pair",
        ),
        (
            lambda r: r["traced_overhead"].pop("overhead_ratio"),
            "traced_overhead",
        ),
    ],
)
def test_check_bench_rejects_schema_drift(tmp_path, mutate, fragment):
    report = good_bench_report()
    mutate(report)
    path = write(tmp_path / "bench.json", report)
    with pytest.raises(CheckFailure, match=fragment):
        ci_checks.check_bench(path)


def test_check_bench_enforces_required_cases(tmp_path):
    path = write(tmp_path / "bench.json", good_bench_report())
    with pytest.raises(CheckFailure, match="required benchmarks missing: timer-storm"):
        ci_checks.check_bench(path, require=["wheel", "timer-storm"])


def test_check_bench_accepts_a_real_quick_report(tmp_path):
    """End to end: a real --only wheel run satisfies the CI gate."""
    from repro.harness.bench_core import run_bench_core

    report = run_bench_core(scale=0.01, repeats=1, only=["wheel"])
    path = write(tmp_path / "bench.json", report)
    summary = ci_checks.check_bench(path, require=["wheel"])
    assert summary.startswith("ok: 2 benchmarks")
    assert ci_checks.main(["bench", path, "--require", "wheel"]) == 0


def test_committed_baseline_satisfies_the_bench_gate():
    baseline = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks",
        "baselines",
        "bench_core_baseline.json",
    )
    summary = ci_checks.check_bench(baseline, require=["wheel"])
    assert summary.startswith("ok:")


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def test_main_returns_zero_on_success(tmp_path, capsys):
    path = write(tmp_path / "trace.json", GOOD_TRACE)
    assert ci_checks.main(["trace", path]) == 0
    assert capsys.readouterr().out.startswith("ok:")


def test_main_returns_one_on_failure(tmp_path, capsys):
    path = write(tmp_path / "trace.json", {"traceEvents": []})
    assert ci_checks.main(["trace", path]) == 1
    assert "check failed" in capsys.readouterr().err
