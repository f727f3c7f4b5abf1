"""Smoke tests for the core microbenchmark suite and its regression gate.

The suite itself runs in CI at full scale; here it runs at a tiny scale
to pin the report schema, the determinism of the workloads, and the
``check_regression`` comparison logic (which CI trusts to fail the
build).
"""

import copy

import pytest

from repro.harness.bench_core import (
    DEFAULT_EVENTS,
    REFERENCE_WORKLOADS,
    WORKLOADS,
    check_regression,
    format_report,
    run_bench_core,
)


@pytest.fixture(scope="module")
def tiny_report():
    return run_bench_core(scale=0.01, repeats=2)


def test_report_schema(tiny_report):
    assert tiny_report["schema"] == 3
    benchmarks = tiny_report["benchmarks"]
    for name in WORKLOADS:
        assert name in benchmarks, name
        stats = benchmarks[name]
        assert stats["events"] > 0
        assert stats["events_per_sec"] > 0
        assert 0 < stats["median_ns_per_event"] <= stats["max_ns_per_event"]
        assert "alloc_blocks_per_event" not in stats
    for name in REFERENCE_WORKLOADS:
        assert f"{name}-reference" in benchmarks
        assert name in tiny_report["speedups_vs_seed_reference"]
    traced = tiny_report["traced_overhead"]
    assert traced["overhead_ratio"] > 0
    assert set(traced) == {
        "untraced_events_per_sec", "traced_events_per_sec", "overhead_ratio",
    }


def test_workloads_are_deterministic():
    """Same seed, same schedule: event counts must match across runs."""
    a = run_bench_core(scale=0.01, repeats=1, only=["timer-storm"])
    b = run_bench_core(scale=0.01, repeats=1, only=["timer-storm"])
    assert (
        a["benchmarks"]["timer-storm"]["events"]
        == b["benchmarks"]["timer-storm"]["events"]
    )


def test_only_filter_and_unknown_name():
    report = run_bench_core(scale=0.01, repeats=1, only=["raw-dispatch"])
    assert set(report["benchmarks"]) == {"raw-dispatch", "raw-dispatch-reference"}
    with pytest.raises(ValueError, match="unknown benchmarks"):
        run_bench_core(scale=0.01, repeats=1, only=["no-such-bench"])


def test_timed_lane_cases_run_against_the_seed_reference():
    """The wheel storm on the timed lane measures against the frozen
    seed heap."""
    report = run_bench_core(scale=0.01, repeats=1, only=["wheel"])
    benchmarks = report["benchmarks"]
    assert set(benchmarks) == {"wheel", "wheel-reference"}
    assert benchmarks["wheel"]["events"] == benchmarks["wheel-reference"]["events"]
    assert report["speedups_vs_seed_reference"]["wheel"] > 0


def test_median_and_max_are_over_the_per_repeat_means(monkeypatch):
    """Five repeats of 1000 events at 10/30/20/50/40 us: the median mean
    is 30 ns/event and the max 50, whatever order the repeats ran in."""
    import repro.harness.bench_core as bench_core

    elapsed = iter([10_000, 30_000, 20_000, 50_000, 40_000])
    clock = [0]

    def fake_clock():
        clock[0] += 1
        return 0 if clock[0] % 2 else next(elapsed)

    monkeypatch.setattr(bench_core.time, "perf_counter_ns", fake_clock)
    stats = bench_core._measure(lambda: (lambda: 1000), repeats=5)
    assert stats["median_ns_per_event"] == 30.0
    assert stats["max_ns_per_event"] == 50.0
    assert stats["events_per_sec"] == 100_000_000.0


def test_format_report_renders(tiny_report):
    text = format_report(tiny_report)
    assert "raw-dispatch" in text
    assert "speedup vs seed reference" in text


def test_default_events_cover_all_workloads():
    assert set(WORKLOADS) | {"traced-overhead"} == set(DEFAULT_EVENTS)


# ----------------------------------------------------------------------
# regression gate logic
# ----------------------------------------------------------------------

def _synthetic(live, ref):
    return {
        "benchmarks": {
            "raw-dispatch": {"events_per_sec": live},
            "raw-dispatch-reference": {"events_per_sec": ref},
        }
    }


def test_check_regression_passes_on_equal_normalised():
    baseline = _synthetic(3_000_000, 1_000_000)
    # twice as fast a machine, same 3x normalised ratio: no failure
    report = _synthetic(6_000_000, 2_000_000)
    assert check_regression(report, baseline) == []


def test_check_regression_fails_past_tolerance():
    baseline = _synthetic(3_000_000, 1_000_000)
    # normalised throughput halved (3x -> 1.5x): well past 20%
    report = _synthetic(1_500_000, 1_000_000)
    failures = check_regression(report, baseline)
    assert len(failures) == 1
    assert "raw-dispatch" in failures[0]
    assert "refresh" in failures[0]


def test_check_regression_within_tolerance_passes():
    baseline = _synthetic(3_000_000, 1_000_000)
    report = _synthetic(2_600_000, 1_000_000)  # ~13% down: inside 20%
    assert check_regression(report, baseline) == []


def test_check_regression_falls_back_to_raw_ratio():
    baseline = {"benchmarks": {"dispatch-chain": {"events_per_sec": 1_000_000}}}
    report = {"benchmarks": {"dispatch-chain": {"events_per_sec": 700_000}}}
    failures = check_regression(report, baseline)
    assert len(failures) == 1 and "raw" in failures[0]


def test_check_regression_ignores_missing_benchmarks(tiny_report):
    baseline = copy.deepcopy(tiny_report)
    baseline["benchmarks"]["retired-bench"] = {"events_per_sec": 1.0}
    assert check_regression(tiny_report, baseline) == []


# ----------------------------------------------------------------------
# CLI argument errors
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "flag, value, fragment",
    [
        ("--repeats", "0", "--repeats must be at least 1"),
        ("--repeats", "-3", "--repeats must be at least 1"),
        ("--scale", "0", "--scale must be positive"),
        ("--scale", "-5", "--scale must be positive"),
    ],
)
def test_bench_core_rejects_bad_numbers(tmp_path, capsys, flag, value, fragment):
    from repro.__main__ import main

    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as err:
        main(["bench", "core", "--only", "raw-dispatch", "--out", str(out), flag, value])
    assert err.value.code == 2
    assert fragment in capsys.readouterr().err
    assert not out.exists()
    keyword = {"--repeats": "repeats", "--scale": "scale"}[flag]
    with pytest.raises(ValueError, match=keyword):
        run_bench_core(only=["raw-dispatch"], **{keyword: float(value)})


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["bench", "core", "--out"], "--out"),
        (["cube", "--attacks"], "--attacks"),
    ],
)
def test_flag_without_value_names_the_flag(capsys, argv, flag):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert f"error: {flag} needs a value" in captured.err
    assert "repro trace" not in captured.out
