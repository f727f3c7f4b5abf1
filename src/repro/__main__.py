"""Command-line entry point: ``python -m repro <command>``.

Commands:

* ``matrix [--full]``      — regenerate (a slice of) Table I
* ``table2``               — SVG filtering + loopscan measurements
* ``figure2``              — script-parsing size sweep
* ``bench``                — serial-vs-parallel matrix baseline::

      python -m repro bench [--full] [--parallel N] [--out FILE]

  Times the same Table I cells serially and sharded over N workers,
  asserts the results are identical, exercises the warm-cache path, and
  writes a ``BENCH_matrix.json`` wall-clock baseline artifact.
* ``bench core``           — discrete-event hot-path microbenchmarks::

      python -m repro bench core [--out FILE] [--scale F | --quick]
                                 [--repeats N] [--only NAME,NAME,...]
                                 [--check BASELINE] [--tolerance F]

  Seeded events/sec microbenchmarks (raw dispatch, timer storms, the
  timer-wheel out-of-order storm, worker ping-pong, kernel scheduling,
  traced-vs-untraced overhead)
  written to ``BENCH_core.json``.  ``--check`` compares against a
  committed baseline and exits non-zero on a >20% normalised
  events/sec drop (``--tolerance`` overrides the 0.20; see
  ``benchmarks/baselines/``).
* ``dromaeo``              — JSKernel Dromaeo overhead report
* ``compat``               — API-compat counts + DOM similarity (small)
* ``attacks``              — list every attack row
* ``defenses``             — list every registered defense
* ``trace``                — capture a Chrome trace of a scenario::

      python -m repro trace <matrix|table2|dromaeo|attack NAME>
                            [--out FILE] [--timeline] [--defense NAME]

* ``analyze``              — causal analysis of one scenario's trace::

      python -m repro analyze <races|determinism|critpath> <attack>
                              [--defense NAME] [--seed N] [--seeds N,N,...]
                              [--json] [--out FILE]

* ``fuzz``                 — schedule-space exploration of one scenario::

      python -m repro fuzz [--attack NAME] [--defense NAME] [--seed N]
                           [--budget N] [--strategy mixed|jitter|priority|targeted]
                           [--out DIR] [--max-witnesses N] [--no-minimize]
                           [--max-events N] [--check-determinism]
                           [--vs DEFENSE] [--replay FILE]

  Perturbs the schedule and injects faults for ``--budget`` trials,
  checks the oracle batteries (races, crashes, leakage, determinism,
  kernel dispatch-order invariant), minimizes the failing trials with
  delta debugging, and writes replayable JSON witnesses into ``--out``.
  ``--replay FILE`` re-runs one witness twice and verifies the verdict.
  ``--vs DEFENSE`` switches to *differential* mode: every trial runs
  under both ``--defense`` and ``--vs`` with byte-identical perturbation
  and fault specs, and a witness is any schedule where one defense holds
  while the other leaks (the DetBrowser divergence hunt).

* ``population``           — streamed internet-scale load-time sweep::

      python -m repro population [--size N] [--seed N] [--mode model|sim]
                                 [--visits N] [--sessions N] [--window N]
                                 [--parallel N] [--json] [--out FILE]

  Sweeps a seeded population of ``--size`` pages (site archetypes whose
  mix shifts with popularity rank; see ``repro.workloads.population``)
  through the engine's bounded-window streaming path and prints
  per-config / per-archetype load-time quantiles from mergeable
  sketches — resident memory is independent of ``--size``.
  ``--sessions N`` switches from a uniform rank scan to a seeded user-
  session arrival process (Zipf page picks, per-session browser from
  the traffic mix).  ``--mode model`` (default) evaluates the closed-
  form load-time model; ``--mode sim`` drives the full simulated
  browser (Figure-3 path, ~1000x slower).

* ``serve``                — long-running experiment service::

      python -m repro serve --socket PATH              # server (foreground)
      python -m repro serve --socket PATH --submit JOB [--out FILE]
      python -m repro serve --socket PATH --ping | --status |
                            --cancel JOB_ID | --shutdown

  Accepts experiment jobs as JSON lines over a local unix socket and
  streams incremental results plus telemetry snapshots back on the
  same connection (see ``repro.serve`` for the frame schema).  ``JOB``
  is an inline JSON job spec, ``@FILE`` or ``-`` for stdin, e.g.
  ``'{"kind": "population", "size": 5000}'``.  Jobs can be cancelled
  mid-flight; a disconnecting client cancels its own job; ``--shutdown``
  stops the server gracefully.

* ``cube``                 — the defense × attack cube::

      python -m repro cube [--full] [--attacks A,B,...] [--defenses X,Y,...]
                           [--seed N] [--json] [--out FILE]

  Every cell runs under a private metrics-only capture, so alongside
  the Table I style verdict each cell carries an overhead profile
  (event-loop queue-delay CDF, kernel stage latencies, task counts).  Cells where the
  JSKernel/DetBrowser pair disagree — by verdict or by overhead shape —
  are reported as first-class divergent cells.  ``--out FILE`` writes the
  JSON cube (the CI artifact), ``--json`` prints it.

Any command also accepts ``--metrics``: the run is captured under a
metrics-only tracer (no trace events are buffered) and a metrics summary
(task counts, queueing-delay and kernel latency histograms) is printed
afterwards.

Any command also accepts ``--profile``: the run executes under
``cProfile``, a ``PROFILE_<command>.pstats`` dump is written for
offline digging, and the top 20 functions by cumulative time are
printed.

The experiment commands (``matrix``, ``table2``, ``figure2``, ``bench``,
``fuzz``, ``cube``) additionally accept the parallel-engine flags:

* ``--parallel N``   — shard cells over N worker processes (results are
  byte-identical to the serial run; see ``repro.harness.parallel``)
* ``--no-cache``     — disable the content-addressed result cache
* ``--cache-dir D``  — cache root (default ``$REPRO_CACHE_DIR`` or
  ``~/.cache/repro-jskernel``)

and the telemetry flags (see ``repro.telemetry``):

* ``--live``             — repaint a stderr progress line while the run
  executes: cells/sec, cache hit-rate, shard progress, sketch-derived
  running p50/p95 queue delay, ETA
* ``--telemetry-out F``  — write the final merged telemetry snapshot as
  JSON to ``F`` plus a Prometheus text exposition next to it (``.prom``)
* ``--runlog F``         — structured JSONL run log path (span begin/end,
  per-cell outcomes, cache hits, shard lifecycle); any telemetry flag
  implies a run log, defaulting to ``RUN_<command>.jsonl``

Telemetry runs record quantile sketches alongside the exact histograms
(``cube`` cells gain sketch-derived percentiles in their overhead
profiles; the sketch mode is part of the cell parameters, so telemetry
and exact-mode results cache separately and golden fixtures stay
pinned).
"""

from __future__ import annotations

import json
import sys

from .analysis.tables import render_series, render_table
from .attacks import all_attack_names, attack_names, create as create_attack
from .attacks.registry import EXTENSION_ATTACKS
from .defenses import available
from .harness import (
    api_compat_counts,
    dom_similarity_survey,
    dromaeo_overhead,
    figure2_script_parsing,
    run_table1,
    table2_svg_loopscan,
)
from .trace import Tracer, capture, format_timeline, write_chrome_trace


def _engine_flags(args):
    """Pop the parallel-engine flags shared by the experiment commands.

    Returns ``(parallel, cache)``: a worker count (or ``None`` for
    serial) and a cache argument for :func:`repro.harness.as_cache` —
    caching is on by default, ``--no-cache`` turns it off.
    """
    parallel_arg = _flag_value(args, "--parallel", None)
    cache_dir = _flag_value(args, "--cache-dir", "")
    no_cache = "--no-cache" in args
    if no_cache:
        args.remove("--no-cache")
    try:
        parallel = int(parallel_arg) if parallel_arg is not None else None
    except ValueError:
        _die(f"--parallel takes an integer worker count, got {parallel_arg!r}")
    cache = None if no_cache else (cache_dir or True)
    return parallel, cache


def _cmd_matrix(args) -> None:
    args = list(args)
    parallel, cache = _engine_flags(args)
    if "--full" in args:
        result = run_table1(parallel=parallel, cache=cache)
    else:
        result = run_table1(
            attacks=["cache-attack", "clock-edge", "loopscan", "cve-2018-5092"],
            defenses=["legacy-chrome", "fuzzyfox", "deterfox", "tor", "chromezero", "jskernel"],
            parallel=parallel,
            cache=cache,
        )
    print(result.render())
    print(f"\nagreement with the paper: {result.agreement():.2%}")
    print(f"cells: {result.computed_cells} computed, {result.cached_cells} cached")
    for line in result.errors:
        print(f"cell error: {line}", file=sys.stderr)


def _cmd_table2(args) -> None:
    args = list(args)
    parallel, cache = _engine_flags(args)
    table = table2_svg_loopscan(runs=3, parallel=parallel, cache=cache)
    rows = [
        [d, v["svg_low_ms"], v["svg_high_ms"], v["loopscan_google_ms"], v["loopscan_youtube_ms"]]
        for d, v in table.items()
    ]
    print(render_table(
        ["defense", "svg low", "svg high", "loops google", "loops youtube"], rows,
        title="Table II (ms)",
    ))


def _cmd_figure2(args) -> None:
    args = list(args)
    parallel, cache = _engine_flags(args)
    series = figure2_script_parsing(
        sizes=[2 * 1024 * 1024, 6 * 1024 * 1024, 10 * 1024 * 1024],
        parallel=parallel,
        cache=cache,
    )
    print(render_series(series, title="Figure 2: reported time (ms) per size (MB)"))


#: The matrix slice ``bench`` times by default (--full uses all cells).
BENCH_ATTACKS = ["cache-attack", "clock-edge", "loopscan", "svg-filtering", "cve-2018-5092"]
BENCH_DEFENSES = ["legacy-chrome", "fuzzyfox", "deterfox", "tor", "chromezero", "jskernel"]


BENCH_CORE_USAGE = (
    "usage: python -m repro bench core [--out FILE] [--scale F | --quick] "
    "[--repeats N] [--only NAME,NAME,...] [--check BASELINE] [--tolerance F]"
)


def _cmd_bench_core(args) -> None:
    """Hot-path microbenchmarks; writes BENCH_core.json."""
    from .harness.bench_core import (
        DEFAULT_REPEATS,
        REGRESSION_TOLERANCE,
        check_regression,
        format_report,
        run_bench_core,
    )

    out = _flag_value(args, "--out", "BENCH_core.json")
    scale_arg = _flag_value(args, "--scale", "1.0")
    repeats_arg = _flag_value(args, "--repeats", str(DEFAULT_REPEATS))
    only_arg = _flag_value(args, "--only", "")
    baseline_path = _flag_value(args, "--check", "")
    tolerance_arg = _flag_value(args, "--tolerance", str(REGRESSION_TOLERANCE))
    quick = "--quick" in args
    if quick:
        args.remove("--quick")
    if args:
        print(BENCH_CORE_USAGE)
        raise SystemExit(2)
    try:
        scale = 0.1 if quick else float(scale_arg)
        repeats = int(repeats_arg)
        tolerance = float(tolerance_arg)
    except ValueError:
        _die(
            "--scale/--repeats/--tolerance take numbers, got "
            f"{scale_arg!r} / {repeats_arg!r} / {tolerance_arg!r}"
        )
    if not 0 < tolerance < 1:
        _die(f"--tolerance is a fraction in (0, 1), got {tolerance}")
    if repeats < 1:
        _die(f"--repeats must be at least 1, got {repeats}")
    if not scale > 0:
        _die(f"--scale must be positive, got {scale}")
    only = [name for name in only_arg.split(",") if name] or None

    try:
        report = run_bench_core(scale=scale, repeats=repeats, only=only)
    except ValueError as exc:
        _die(str(exc))
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(format_report(report))
    print(f"\nwrote {out}")

    if baseline_path:
        try:
            with open(baseline_path, "r", encoding="utf-8") as handle:
                baseline = json.load(handle)
        except (OSError, ValueError) as exc:
            _die(f"cannot load baseline {baseline_path!r}: {exc}")
        failures = check_regression(report, baseline, tolerance=tolerance)
        if failures:
            for line in failures:
                print(f"regression: {line}", file=sys.stderr)
            raise SystemExit(1)
        print(f"no regression vs {baseline_path} (tolerance {tolerance:.0%})")


def _cmd_bench(args) -> None:
    """Serial vs parallel Table I baseline; writes BENCH_matrix.json."""
    import tempfile
    import time

    from .harness import ResultCache

    args = list(args)
    if args and args[0] == "core":
        _cmd_bench_core(args[1:])
        return
    out = _flag_value(args, "--out", "BENCH_matrix.json")
    workers_arg = _flag_value(args, "--parallel", "2")
    try:
        workers = int(workers_arg)
    except ValueError:
        _die(f"--parallel takes an integer worker count, got {workers_arg!r}")
    if workers < 2:
        _die("bench compares serial against a sharded run; --parallel must be >= 2")
    full = "--full" in args
    attacks = None if full else BENCH_ATTACKS
    defenses = None if full else BENCH_DEFENSES

    start = time.perf_counter()
    serial = run_table1(attacks=attacks, defenses=defenses)
    serial_s = time.perf_counter() - start

    start = time.perf_counter()
    sharded = run_table1(attacks=attacks, defenses=defenses, parallel=workers)
    parallel_s = time.perf_counter() - start

    identical = serial.matrix == sharded.matrix and serial.details == sharded.details

    with tempfile.TemporaryDirectory() as tmp:
        run_table1(attacks=attacks, defenses=defenses, parallel=workers, cache=ResultCache(tmp))
        warm = run_table1(attacks=attacks, defenses=defenses, parallel=workers,
                          cache=ResultCache(tmp))
        warm_identical = (
            warm.matrix == serial.matrix and warm.details == serial.details
        )

    cells = sum(len(row) for row in serial.matrix.values())
    report = {
        "cells": cells,
        "workers": workers,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(parallel_s, 3),
        "speedup": round(serial_s / parallel_s, 2) if parallel_s else None,
        "identical": identical,
        "warm_cache_computed": warm.computed_cells,
        "warm_cache_hits": warm.cached_cells,
        "warm_identical": warm_identical,
        "errors": serial.errors + sharded.errors,
    }
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{cells} cells: serial {serial_s:.2f}s, parallel({workers}) {parallel_s:.2f}s "
        f"({report['speedup']}x), warm cache recomputed {warm.computed_cells} "
        f"(wrote {out})"
    )
    if not identical:
        _die("parallel matrix differs from the serial run")
    if not warm_identical:
        _die("warm-cache matrix differs from the serial run")
    if warm.computed_cells:
        _die(f"warm cache recomputed {warm.computed_cells} cells (expected 0)")


def _cmd_dromaeo(_args) -> None:
    report = dromaeo_overhead()
    rows = [[name, f"{pct:+.2f}%"] for name, pct in report["per_test"].items()]
    print(render_table(["test", "overhead"], rows, title="Dromaeo overhead (JSKernel)"))
    print(f"average {report['average_pct']:+.2f}%  median {report['median_pct']:+.2f}%")


def _cmd_compat(_args) -> None:
    counts = api_compat_counts()
    for config, count in counts.items():
        print(f"{config:10s}: {count:2d}/20 apps with observable differences")
    survey = dom_similarity_survey(site_count=15)
    print(f"DOM similarity >= 99%: {survey['fraction_above']:.0%} of sites")


def _cmd_attacks(_args) -> None:
    for name in attack_names():
        print(name)
    for cls in EXTENSION_ATTACKS:
        print(f"{cls.name}  (extension)")


def _cmd_defenses(_args) -> None:
    for name in available():
        print(name)


TRACE_USAGE = (
    "usage: python -m repro trace <matrix|table2|dromaeo|attack NAME> "
    "[--out FILE] [--timeline] [--defense NAME]"
)

ANALYZE_USAGE = (
    "usage: python -m repro analyze <races|determinism|critpath> <attack> "
    "[--defense NAME] [--seed N] [--seeds N,N,...] [--json] [--out FILE]"
)


def _die(message: str) -> None:
    """Print a clear error to stderr and exit non-zero."""
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _check_attack(name: str) -> str:
    if name not in all_attack_names():
        _die(
            f"unknown attack {name!r}; "
            f"run 'python -m repro attacks' for the list"
        )
    return name


def _check_defense(name: str) -> str:
    if name not in available():
        _die(
            f"unknown defense {name!r}; "
            f"run 'python -m repro defenses' for the list"
        )
    return name


def _flag_value(args, flag, default):
    """Pop ``--flag VALUE`` from ``args`` (in place)."""
    if flag not in args:
        return default
    index = args.index(flag)
    if index + 1 >= len(args):
        _die(f"{flag} needs a value")
    value = args[index + 1]
    del args[index : index + 2]
    return value


def _cmd_trace(args) -> None:
    """Capture one scenario under a tracer and export Chrome trace JSON."""
    args = list(args)
    out = _flag_value(args, "--out", "trace.json")
    defense = _flag_value(args, "--defense", "jskernel")
    timeline = "--timeline" in args
    if timeline:
        args.remove("--timeline")
    show_metrics = "--metrics" in args
    if show_metrics:
        args.remove("--metrics")
    if not args:
        print(TRACE_USAGE)
        raise SystemExit(2)
    target = args[0]

    tracer = Tracer()
    with capture(tracer):
        if target == "matrix":
            # a narrow Table I slice: tracing the full matrix would
            # collect events from hundreds of browser runs
            run_table1(
                attacks=["cache-attack", "cve-2018-5092"],
                defenses=["legacy-chrome", "jskernel"],
            )
        elif target == "table2":
            table2_svg_loopscan(runs=1)
        elif target == "dromaeo":
            dromaeo_overhead()
        elif target == "attack":
            if len(args) < 2:
                print(TRACE_USAGE)
                raise SystemExit(2)
            create_attack(_check_attack(args[1])).run(_check_defense(defense))
        else:
            print(TRACE_USAGE)
            raise SystemExit(2)

    write_chrome_trace(tracer, out)
    threads = len(tracer.thread_table())
    print(
        f"wrote {out}: {len(tracer.events)} events across "
        f"{len(tracer.runs)} runs / {threads} threads "
        "(load in https://ui.perfetto.dev or chrome://tracing)"
    )
    if timeline:
        print(format_timeline(tracer))
    if show_metrics:
        print(tracer.metrics.format())


def _cmd_analyze(args) -> None:
    """Causal analysis: races, determinism audit, critical-path profile."""
    args = list(args)
    out = _flag_value(args, "--out", "")
    defense = _check_defense(_flag_value(args, "--defense", "jskernel"))
    seed_arg = _flag_value(args, "--seed", "0")
    seeds_arg = _flag_value(args, "--seeds", "0,1,2")
    as_json = "--json" in args
    if as_json:
        args.remove("--json")
    if len(args) < 2:
        print(ANALYZE_USAGE)
        raise SystemExit(2)
    mode, attack = args[0], _check_attack(args[1])
    try:
        seed = int(seed_arg)
        seeds = tuple(int(s) for s in seeds_arg.split(",") if s != "")
    except ValueError:
        _die(f"--seed/--seeds take integers, got {seed_arg!r} / {seeds_arg!r}")

    # imported lazily: the analysers pull in the whole attack registry
    from .analysis.critpath import format_critpath, profile_scenario
    from .analysis.determinism import audit_scenario, format_audit
    from .analysis.races import analyze_scenario, format_races

    if mode == "races":
        report = analyze_scenario(attack, defense, seed=seed)
        rendered = format_races(report)
    elif mode == "determinism":
        if len(seeds) < 2:
            _die(f"determinism audit needs at least two seeds, got {seeds_arg!r}")
        report = audit_scenario(attack, defense, seeds=seeds)
        rendered = format_audit(report)
    elif mode == "critpath":
        report = profile_scenario(attack, defense, seed=seed)
        rendered = format_critpath(report)
    else:
        _die(f"unknown analyze mode {mode!r}; expected races, determinism or critpath")

    payload = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {out}")
    if as_json:
        print(payload)
    else:
        print(rendered)


CUBE_USAGE = (
    "usage: python -m repro cube [--full] [--attacks A,B,...] "
    "[--defenses X,Y,...] [--seed N] [--json] [--out FILE] [--parallel N]"
)

#: The cube slice run by default (--full covers every Table I row).
CUBE_ATTACKS = ["cache-attack", "clock-edge", "loopscan", "sab-timer", "cve-2018-5092"]


def _cmd_cube(args) -> None:
    """Defense × attack cube: verdicts + per-cell overhead CDFs."""
    from .defenses import CUBE_DEFENSES
    from .harness import run_cube

    args = list(args)
    parallel, cache = _engine_flags(args)
    attacks_arg = _flag_value(args, "--attacks", "")
    defenses_arg = _flag_value(args, "--defenses", "")
    seed_arg = _flag_value(args, "--seed", "0")
    out = _flag_value(args, "--out", "")
    as_json = "--json" in args
    if as_json:
        args.remove("--json")
    full = "--full" in args
    if full:
        args.remove("--full")
    if args:
        print(CUBE_USAGE)
        raise SystemExit(2)
    try:
        seed = int(seed_arg)
    except ValueError:
        _die(f"--seed takes an integer, got {seed_arg!r}")

    if attacks_arg:
        attacks = [_check_attack(a) for a in attacks_arg.split(",") if a]
    else:
        attacks = None if full else CUBE_ATTACKS
    if defenses_arg:
        defenses = [_check_defense(d) for d in defenses_arg.split(",") if d]
    else:
        defenses = CUBE_DEFENSES

    from .telemetry import current_run

    result = run_cube(
        attacks=attacks,
        defenses=defenses,
        seed=seed,
        parallel=parallel,
        cache=cache,
        # telemetry runs carry sketch-derived percentiles per cell; the
        # flag is a cell parameter, so the two modes cache separately
        sketches=current_run() is not None,
    )
    payload = json.dumps(result.to_json(), indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {out}")
    if as_json:
        print(payload)
    else:
        print(result.render())
        print(
            f"\ncells: {result.computed_cells} computed, "
            f"{result.cached_cells} cached"
        )
    for line in result.errors:
        print(f"cell error: {line}", file=sys.stderr)


FUZZ_USAGE = (
    "usage: python -m repro fuzz [--attack NAME] [--defense NAME] [--seed N] "
    "[--budget N] [--strategy mixed|jitter|priority|targeted] [--parallel N] "
    "[--out DIR] [--max-witnesses N] [--no-minimize] [--max-events N] "
    "[--check-determinism] [--vs DEFENSE] [--replay FILE]"
)

#: Event backstop for fuzz trials: perturbed schedules can loop where
#: the nominal one terminates, so fail fast (still ~1000x a normal run).
FUZZ_MAX_EVENTS = 2_000_000


def _cmd_fuzz(args) -> None:
    """Schedule-space fuzzing: campaign, minimization, witness replay."""
    import os

    from .explore.campaign import DEFAULT_ATTACK, DEFAULT_DEFENSE, STRATEGIES, run_campaign
    from .explore.minimize import (
        load_witness,
        minimize_witness,
        replay_witness,
        save_witness,
    )
    from .explore.oracles import signature

    args = list(args)
    parallel, cache = _engine_flags(args)
    replay_path = _flag_value(args, "--replay", "")
    attack = _flag_value(args, "--attack", DEFAULT_ATTACK)
    defense = _flag_value(args, "--defense", DEFAULT_DEFENSE)
    vs = _flag_value(args, "--vs", "")
    seed_arg = _flag_value(args, "--seed", "0")
    budget_arg = _flag_value(args, "--budget", "200")
    strategy = _flag_value(args, "--strategy", "mixed")
    out_dir = _flag_value(args, "--out", "witnesses")
    max_witnesses_arg = _flag_value(args, "--max-witnesses", "5")
    max_events_arg = _flag_value(args, "--max-events", "")
    no_minimize = "--no-minimize" in args
    if no_minimize:
        args.remove("--no-minimize")
    check_determinism = None
    if "--check-determinism" in args:
        args.remove("--check-determinism")
        check_determinism = True
    if args:
        print(FUZZ_USAGE)
        raise SystemExit(2)
    def _int_flag(flag: str, value: str) -> int:
        try:
            return int(value)
        except ValueError:
            _die(f"{flag} takes an integer, got {value!r}")

    seed = _int_flag("--seed", seed_arg)
    budget = _int_flag("--budget", budget_arg)
    max_witnesses = _int_flag("--max-witnesses", max_witnesses_arg)
    max_events = (
        _int_flag("--max-events", max_events_arg) if max_events_arg else FUZZ_MAX_EVENTS
    )
    if strategy != "mixed" and strategy not in STRATEGIES:
        _die(f"unknown strategy {strategy!r}; expected 'mixed' or one of {STRATEGIES}")

    # the env var (not a parameter) so pool workers inherit the budget
    os.environ["REPRO_MAX_EVENTS"] = str(max_events)

    if replay_path:
        try:
            witness = load_witness(replay_path)
        except (OSError, ValueError) as exc:
            _die(f"cannot load witness {replay_path!r}: {exc}")
        if not isinstance(witness, dict) or "verdict" not in witness:
            _die(f"{replay_path!r} is not a witness file (no verdict)")
        expected = witness.get("signature") or signature(witness["verdict"])
        verdicts = [replay_witness(witness) for _ in range(2)]
        for i, verdict in enumerate(verdicts, start=1):
            print(f"replay {i}: outcome {verdict['outcome']!r}, "
                  f"failures {verdict['failures']}")
        if any(signature(v) != expected for v in verdicts):
            _die(
                f"witness did not replay: expected signature {expected}, got "
                f"{[signature(v) for v in verdicts]}"
            )
        print(f"witness replays: signature {expected} reproduced twice")
        return

    _check_attack(attack)
    _check_defense(defense)

    if vs:
        from .explore.campaign import run_diff_campaign

        _check_defense(vs)
        report = run_diff_campaign(
            attack=attack,
            defense=defense,
            vs=vs,
            seed=seed,
            budget=budget,
            strategy=strategy,
            parallel=parallel,
            cache=cache,
            max_witnesses=max_witnesses,
        )
        print(
            f"{report['trials']} differential trials of {attack}: "
            f"{defense} vs {vs} (seed {seed}, strategy {strategy}): "
            f"{report['divergent']} divergent schedules"
        )
        if report["failed_shards"]:
            print(
                f"  attempted {report['attempted_trials']} trials; "
                f"{report['failed_shards']} shards failed",
                file=sys.stderr,
            )
        for sig, n in sorted(report["signatures"].items()):
            print(f"  divergence {n:4d}x  [{sig}]")
        print(
            f"  shards: {report['computed_shards']} computed, "
            f"{report['cached_shards']} cached"
        )
        for line in report["errors"]:
            print(f"shard error: {line}", file=sys.stderr)
        if not report["witnesses"]:
            print("no divergent schedules found")
            return
        os.makedirs(out_dir, exist_ok=True)
        for witness in report["witnesses"][:max_witnesses]:
            path = os.path.join(
                out_dir, f"diff-{attack}-{defense}-vs-{vs}-{witness['trial']}.json"
            )
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(witness, handle, indent=2, sort_keys=True)
                handle.write("\n")
            inner = witness["report"]
            print(
                f"wrote {path}  "
                f"[{'+'.join(inner['a']['failures']) or 'held'} / "
                f"{'+'.join(inner['b']['failures']) or 'held'}]"
            )
        return

    report = run_campaign(
        attack=attack,
        defense=defense,
        seed=seed,
        budget=budget,
        strategy=strategy,
        parallel=parallel,
        cache=cache,
        check_determinism=check_determinism,
        max_witnesses=max_witnesses,
    )

    witnesses_found = len(report["witnesses"]) + report["witness_overflow"]
    print(
        f"{report['trials']} trials of {attack} vs {defense} (seed {seed}, "
        f"strategy {strategy}): {witnesses_found} witnesses, "
        f"{report['order_violations']} kernel order violations"
    )
    if report["failed_shards"]:
        print(
            f"  attempted {report['attempted_trials']} trials; "
            f"{report['failed_shards']} shards failed "
            f"({report['attempted_trials'] - report['trials']} trials lost)",
            file=sys.stderr,
        )
    if report["witness_overflow"]:
        print(f"  witness list capped: {report['witness_overflow']} more not kept")
    for outcome, n in sorted(report["outcomes"].items()):
        print(f"  outcome {n:4d}x  {outcome}")
    for sig, n in sorted(report["signatures"].items()):
        print(f"  witness {n:4d}x  [{sig}]")
    print(
        f"  shards: {report['computed_shards']} computed, "
        f"{report['cached_shards']} cached"
    )
    for line in report["errors"]:
        print(f"shard error: {line}", file=sys.stderr)

    if not report["witnesses"]:
        print("no witnesses found (nothing to minimize)")
        return

    os.makedirs(out_dir, exist_ok=True)
    written = []
    for witness in report["witnesses"][:max_witnesses]:
        if no_minimize:
            final = dict(witness, signature=signature(witness["verdict"]))
        else:
            final = minimize_witness(witness)
        path = os.path.join(out_dir, f"witness-{attack}-{witness['trial']}.json")
        save_witness(final, path)
        written.append((path, final))
    for path, final in written:
        stats = final.get("minimized")
        detail = (
            f"minimized {stats['atoms_before']}->{stats['atoms_after']} atoms "
            f"in {stats['tests_run']} tests"
            if stats
            else "unminimized"
        )
        print(f"wrote {path}  [{'+'.join(final['signature'])}]  ({detail})")
    first = written[0][0]
    print(f"replay with: python -m repro fuzz --replay {first}")


POPULATION_USAGE = (
    "usage: python -m repro population [--size N] [--seed N] [--mode model|sim] "
    "[--visits N] [--sessions N] [--window N] [--parallel N] [--json] [--out FILE]"
)


def _cmd_population(args) -> None:
    """Streamed population sweep: per-config/archetype load-time quantiles."""
    from .workloads.population import population_sweep

    args = list(args)
    parallel, cache = _engine_flags(args)
    size_arg = _flag_value(args, "--size", "2000")
    seed_arg = _flag_value(args, "--seed", "0")
    mode = _flag_value(args, "--mode", "model")
    visits_arg = _flag_value(args, "--visits", "1")
    sessions_arg = _flag_value(args, "--sessions", "")
    window_arg = _flag_value(args, "--window", "")
    out = _flag_value(args, "--out", "")
    as_json = "--json" in args
    if as_json:
        args.remove("--json")
    if args:
        print(POPULATION_USAGE)
        raise SystemExit(2)
    try:
        size = int(size_arg)
        seed = int(seed_arg)
        visits = int(visits_arg)
        sessions = int(sessions_arg) if sessions_arg else None
        window = int(window_arg) if window_arg else None
    except ValueError:
        _die("--size/--seed/--visits/--sessions/--window take integers")
    if mode not in ("model", "sim"):
        _die(f"--mode takes 'model' or 'sim', got {mode!r}")

    report = population_sweep(
        size, seed=seed, mode=mode, visits=visits, sessions=sessions,
        parallel=parallel, cache=cache, window=window,
    )
    payload = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(payload + "\n")
        print(f"wrote {out}")
    if as_json:
        print(payload)
    else:
        rows = [
            [name, stats["count"], stats["mean_ms"], stats["p50"], stats["p95"], stats["p99"]]
            for name, stats in report["configs"].items()
        ]
        print(render_table(
            ["config", "pages", "mean", "p50", "p95", "p99"], rows,
            title=f"Population sweep: {report['pages']} pages, mode {mode} (ms)",
        ))
        rows = [
            [name, stats["count"], stats["mean_ms"], stats["p50"]]
            for name, stats in report["archetypes"].items()
        ]
        print(render_table(["archetype", "pages", "mean", "p50"], rows))
    for line in report["errors"]:
        print(f"cell error: {line}", file=sys.stderr)
    if report["error_overflow"]:
        print(f"... and {report['error_overflow']} more errors", file=sys.stderr)


SERVE_USAGE = (
    "usage: python -m repro serve --socket PATH "
    "[--submit JSON|@FILE|-] [--out FILE] [--ping] [--status] "
    "[--cancel JOB_ID] [--shutdown]"
)


def _cmd_serve(args) -> None:
    """Experiment service over a unix socket — server and client modes."""
    import signal

    from . import serve as serve_mod

    args = list(args)
    socket_path = _flag_value(args, "--socket", "repro-serve.sock")
    submit = _flag_value(args, "--submit", "")
    out = _flag_value(args, "--out", "")
    cancel_id = _flag_value(args, "--cancel", "")
    ping = "--ping" in args
    if ping:
        args.remove("--ping")
    status = "--status" in args
    if status:
        args.remove("--status")
    shutdown = "--shutdown" in args
    if shutdown:
        args.remove("--shutdown")
    if args:
        print(SERVE_USAGE)
        raise SystemExit(2)

    # client modes: one control op, or submit-and-stream
    if ping or status or shutdown or cancel_id:
        op = {"op": "ping"} if ping else \
            {"op": "status"} if status else \
            {"op": "shutdown"} if shutdown else \
            {"op": "cancel", "job_id": cancel_id}
        try:
            print(json.dumps(serve_mod.request(socket_path, op), sort_keys=True))
        except (OSError, ConnectionError) as exc:
            _die(f"cannot reach server at {socket_path!r}: {exc}")
        return
    if submit:
        if submit == "-":
            submit = sys.stdin.read()
        elif submit.startswith("@"):
            with open(submit[1:], "r", encoding="utf-8") as handle:
                submit = handle.read()
        try:
            job = json.loads(submit)
        except ValueError as exc:
            _die(f"--submit takes a JSON job spec: {exc}")
        sink = open(out, "w", encoding="utf-8") if out else None
        final = None
        try:
            for frame in serve_mod.submit_and_stream(socket_path, job):
                line = json.dumps(frame, sort_keys=True)
                print(line)
                if sink is not None:
                    sink.write(line + "\n")
                final = frame
        except (OSError, ConnectionError) as exc:
            _die(f"cannot reach server at {socket_path!r}: {exc}")
        finally:
            if sink is not None:
                sink.close()
                print(f"wrote {out}", file=sys.stderr)
        if final is None or final.get("type") != "done":
            raise SystemExit(1)
        return

    # server mode: run in the foreground until told to stop
    server = serve_mod.ExperimentServer(socket_path)
    server.start()
    print(
        f"serving on {socket_path}  "
        f"(ctrl-c or: python -m repro serve --socket {socket_path} --shutdown)",
        file=sys.stderr,
    )
    signal.signal(signal.SIGTERM, lambda _sig, _frm: server.shutdown())
    try:
        server.wait()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()


COMMANDS = {
    "matrix": _cmd_matrix,
    "table2": _cmd_table2,
    "figure2": _cmd_figure2,
    "bench": _cmd_bench,
    "dromaeo": _cmd_dromaeo,
    "compat": _cmd_compat,
    "attacks": _cmd_attacks,
    "defenses": _cmd_defenses,
    "trace": _cmd_trace,
    "analyze": _cmd_analyze,
    "fuzz": _cmd_fuzz,
    "cube": _cmd_cube,
    "population": _cmd_population,
    "serve": _cmd_serve,
}


def _run_profiled(command: str, fn, rest) -> None:
    """Run one subcommand under cProfile: pstats dump + top-20 table."""
    import cProfile
    import pstats

    dump = f"PROFILE_{command}.pstats"
    profiler = cProfile.Profile()
    try:
        profiler.runcall(fn, rest)
    finally:
        profiler.dump_stats(dump)
        print(f"\nwrote {dump} (inspect with: python -m pstats {dump})")
        stats = pstats.Stats(profiler, stream=sys.stdout)
        stats.sort_stats("cumulative").print_stats(20)


#: Commands the telemetry flags (--live/--telemetry-out/--runlog) apply to.
TELEMETRY_COMMANDS = ("matrix", "table2", "figure2", "bench", "fuzz", "cube", "population")


def main(argv=None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    if not args or args[0] in ("-h", "--help") or args[0] not in COMMANDS:
        print(__doc__)
        return 0 if args and args[0] in ("-h", "--help") else 1
    command, rest = args[0], args[1:]
    profile = "--profile" in rest
    if profile:
        rest.remove("--profile")
    live = "--live" in rest
    if live:
        rest.remove("--live")
    telemetry_out = _flag_value(rest, "--telemetry-out", "")
    runlog = _flag_value(rest, "--runlog", "")
    telemetry_on = live or bool(telemetry_out) or bool(runlog)
    if telemetry_on and command not in TELEMETRY_COMMANDS:
        _die(
            "--live/--telemetry-out/--runlog apply to the experiment commands "
            f"({', '.join(TELEMETRY_COMMANDS)}), not {command!r}"
        )
    run = COMMANDS[command]

    def execute() -> None:
        if command != "trace" and "--metrics" in rest:
            rest.remove("--metrics")
            tracer = Tracer(events=False)
            if profile:
                with capture(tracer):
                    _run_profiled(command, run, rest)
            else:
                with capture(tracer):
                    run(rest)
            print()
            print(tracer.metrics.format())
        elif profile:
            _run_profiled(command, run, rest)
        else:
            run(rest)

    if not telemetry_on:
        execute()
        return 0

    from .telemetry import render_summary, telemetry_session, write_telemetry

    runlog_path = runlog or f"RUN_{command}.jsonl"
    with telemetry_session(command, live=live, runlog=runlog_path) as telem:
        execute()
    report = telem.report()
    print(render_summary(report), file=sys.stderr)
    print(f"wrote {runlog_path}", file=sys.stderr)
    if telemetry_out:
        json_path, prom_path = write_telemetry(report, telemetry_out)
        print(f"wrote {json_path} and {prom_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
