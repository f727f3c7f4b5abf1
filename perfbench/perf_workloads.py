"""The benchmark's four workloads.

Each workload turns ``--seed`` into a fixed input set (a *pass*), runs
it through real ``repro`` entry points one unit at a time, and returns
the pass's virtual-time result for digesting.  A run repeats passes
back to back (closed loop: one client, the next unit starts when the
previous one returns), so every pass after the first must reproduce the
first pass's digest exactly.

The ``repro`` entry points are always looked up as module attributes at
call time (``population.population_sweep(...)``, never a name imported
into this file), so the traced run's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
from typing import Callable, Dict, List, Optional

from repro.explore import campaign
from repro.harness import cube, parallel
from repro.workloads import population

#: Callback after every unit: ``on_unit(ok, error)``.
OnUnit = Callable[[bool, Optional[str]], None]

#: Population size the page and session inputs are drawn from.
POPULATION = population.DEFAULT_POPULATION


def digest(payload) -> str:
    """Stable digest of a JSON-shaped virtual-time result."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


class Workload:
    """One workload: inputs from a seed, one discarded warm-up unit, passes."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed

    def warm_up(self) -> None:
        raise NotImplementedError

    def run_pass(self, on_unit: OnUnit) -> dict:
        """Run every unit of the input set once; return the virtual result."""
        raise NotImplementedError

    def check(self, result: dict) -> List[str]:
        """Output checks on one pass result; returns the failures."""
        return []

    def details(self, result: dict) -> dict:
        """Extra figures reported next to the metrics (not scored)."""
        return {}


# ----------------------------------------------------------------------
# pageload: Figure 3 path, simulator-mode population page visits
# ----------------------------------------------------------------------
class PageLoad(Workload):
    """Population page visits, each under legacy-chrome and jskernel.

    The pass's visits are the page views of the first ``SESSIONS``
    sessions of the population's seeded arrival process
    (:func:`~repro.workloads.population.session_cells`): ranks follow its
    Zipf draw, so each band gets its real share of the traffic, and
    archetypes follow their band odds.  500 sessions cover all eight
    archetypes and the head/torso/tail bands, and are enough that the
    cost per view varies little with the seed's draw.  Each page view is
    run once per configuration, in place of the session's own browser,
    through the serial engine.
    """

    name = "pageload"
    CONFIGS = ("legacy-chrome", "jskernel")
    SESSIONS = 500

    def __init__(self, seed: int):
        super().__init__(seed)
        model = population.PopulationModel(size=POPULATION, seed=seed)
        self.views = [
            cell.params for cell in population.session_cells(model, self.SESSIONS, mode="sim")
        ]

    def _cells(self, views):
        for params in views:
            for config in self.CONFIGS:
                yield parallel.Cell("population", dict(params, config=config))

    def _visit(self, views, on_unit: Optional[OnUnit]) -> dict:
        engine = parallel.ExperimentEngine()
        aggregate = population.PopulationAggregate()
        loads: Dict[tuple, Dict[str, float]] = {}
        for result in engine.stream(self._cells(views)):
            aggregate.add(result)
            if result.ok:
                params = result.cell.params
                view = loads.setdefault((params["rank"], params["visit"]), {})
                view[params["config"]] = result.payload["load_ms"]
            if on_unit is not None:
                on_unit(result.ok, result.error)
        return {"report": aggregate.report(), "loads": loads}

    def traffic_shares(self) -> Dict[str, Dict[str, float]]:
        """Share of the pass's page views per band and per archetype."""
        counts: Dict[str, Dict[str, int]] = {"band": {}, "archetype": {}}
        for params in self.views:
            rank = params["rank"]
            for kind, key in (
                ("band", population.band_for_rank(rank, POPULATION)),
                ("archetype", population.archetype_for_rank(rank, self.seed, POPULATION)),
            ):
                counts[kind][key] = counts[kind].get(key, 0) + 1
        return {
            kind: {key: round(n / len(self.views), 4) for key, n in sorted(found.items())}
            for kind, found in counts.items()
        }

    def warm_up(self) -> None:
        self._visit(self.views[:1], None)

    def run_pass(self, on_unit: OnUnit) -> dict:
        visited = self._visit(self.views, on_unit)
        overheads = [
            (pair["jskernel"] - pair["legacy-chrome"]) / pair["legacy-chrome"] * 100.0
            for pair in visited["loads"].values()
            if len(pair) == 2 and pair["legacy-chrome"] > 0
        ]
        report = visited["report"]
        return {
            "report": report,
            "virtual_overhead_pct": statistics.median(overheads) if overheads else None,
        }

    def check(self, result: dict) -> List[str]:
        report = result["report"]
        failures = []
        if report["pages"] != len(self.views) * len(self.CONFIGS):
            failures.append(f"pageload: {report['pages']} visits aggregated")
        if sorted(report["archetypes"]) != sorted(population.ARCHETYPES):
            failures.append("pageload: not every archetype visited")
        if sorted(self.traffic_shares()["band"]) != ["head", "tail", "torso"]:
            failures.append("pageload: not every band visited")
        if report["errors"]:
            failures.append(f"pageload: errors {report['errors'][:3]}")
        return failures

    def details(self, result: dict) -> dict:
        return {
            "virtual_overhead_pct": result["virtual_overhead_pct"],
            "page_views": len(self.views),
            "traffic_shares": self.traffic_shares(),
        }


# ----------------------------------------------------------------------
# cube: the CLI's default defense x attack slice
# ----------------------------------------------------------------------
def _cli_cube_attacks() -> List[str]:
    """The CLI's default cube rows (``python -m repro cube``)."""
    from repro import __main__ as cli

    return list(cli.CUBE_ATTACKS)


#: Golden cube fixture; its verdicts are checked read-only.
GOLDEN_CUBE = os.path.join("tests", "golden", "cube_expected.json")


class Cube(Workload):
    """Every cell of the default cube slice, one ``run_cube`` call per cell.

    Each cell builds a fresh browser and defense and runs under a
    private, fully enabled tracer, so this loads messaging (loopscan),
    trace/metrics, defense installs and the kernel columns.
    """

    name = "cube"

    def __init__(self, seed: int):
        super().__init__(seed)
        from repro.defenses import CUBE_DEFENSES

        self.cells = [(a, d) for a in _cli_cube_attacks() for d in CUBE_DEFENSES]
        with open(GOLDEN_CUBE, encoding="utf-8") as handle:
            self.golden = json.load(handle)["verdicts"]

    def _cell(self, attack: str, defense: str):
        return cube.run_cube(attacks=[attack], defenses=[defense], seed=self.seed)

    def warm_up(self) -> None:
        self._cell(*self.cells[0])

    def run_pass(self, on_unit: OnUnit) -> dict:
        out: Dict[str, Dict[str, dict]] = {}
        errors = []
        for attack, defense in self.cells:
            try:
                result = self._cell(attack, defense)
            except Exception as exc:  # a raised cell is a failed unit, not a crash
                error = f"{attack} vs {defense}: {type(exc).__name__}: {exc}"
                errors.append(error)
                on_unit(False, error)
                continue
            if result.errors:
                errors.extend(result.errors)
            out.setdefault(attack, {})[defense] = {
                "defended": result.verdicts[attack][defense],
                "detail": result.details[attack][defense],
                "overhead": result.overhead[attack][defense],
            }
            on_unit(not result.errors, "; ".join(result.errors) or None)
        return {"cells": out, "errors": errors}

    def check(self, result: dict) -> List[str]:
        failures = list(result["errors"])
        cells = result["cells"]
        for attack, row in self.golden.items():
            for defense, expected in row.items():
                got = cells.get(attack, {}).get(defense, {}).get("defended")
                if got != expected:
                    failures.append(
                        f"cube: {attack} vs {defense} defended={got}, golden {expected}"
                    )
        return failures


# ----------------------------------------------------------------------
# fuzz: fixed-seed schedule-fuzz campaign, loopscan x jskernel
# ----------------------------------------------------------------------
class Fuzz(Workload):
    """A ``BUDGET``-trial campaign of loopscan under jskernel.

    jskernel promises determinism, so every trial runs twice and diffs
    the replay; each run also builds happens-before graphs and runs race
    detection on the materialised trace.  Shards of one trial make the
    engine's per-shard callback a per-trial clock.
    """

    name = "fuzz"
    ATTACK = "loopscan"
    DEFENSE = "jskernel"
    BUDGET = 120

    def _campaign(self, budget: int, on_result=None) -> dict:
        return campaign.run_campaign(
            attack=self.ATTACK, defense=self.DEFENSE, seed=self.seed,
            budget=budget, shard_size=1, on_result=on_result,
        )

    def warm_up(self) -> None:
        # also fills the per-process interesting_labels memo
        self._campaign(1)

    def run_pass(self, on_unit: OnUnit) -> dict:
        seen = {"failed": 0}

        def on_result(_attempted: int, partial: dict) -> None:
            failed = partial["failed_shards"] > seen["failed"]
            seen["failed"] = partial["failed_shards"]
            on_unit(not failed, partial["errors"][-1] if failed else None)

        report = self._campaign(self.BUDGET, on_result)
        return {
            key: report[key]
            for key in ("trials", "attempted_trials", "failed_shards", "outcomes",
                        "signatures", "order_violations", "witness_overflow")
        } | {"witnesses": len(report["witnesses"])}

    def check(self, result: dict) -> List[str]:
        failures = []
        if result["trials"] != self.BUDGET or result["failed_shards"]:
            failures.append(
                f"fuzz: {result['trials']}/{self.BUDGET} trials, "
                f"{result['failed_shards']} failed shards"
            )
        if result["witnesses"] or result["witness_overflow"]:
            failures.append(f"fuzz: {result['witnesses']} witnesses under {self.DEFENSE}")
        if result["order_violations"]:
            failures.append(f"fuzz: {result['order_violations']} kernel order violations")
        return failures


# ----------------------------------------------------------------------
# popmodel: closed-form population sweep over the session process
# ----------------------------------------------------------------------
class _TimedStream:
    """Engine stand-in that reports every streamed cell to ``on_unit``.

    ``population_sweep`` takes an ``engine``; this one forwards to a real
    :class:`~repro.harness.parallel.ExperimentEngine` and calls back as
    each result is handed to the sweep's aggregate.
    """

    def __init__(self, on_unit: Optional[OnUnit]):
        self._engine = parallel.ExperimentEngine()
        self._on_unit = on_unit

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def stream(self, cells, window=None):
        on_unit = self._on_unit
        for result in self._engine.stream(cells, window=window):
            yield result
            if on_unit is not None:
                on_unit(result.ok, result.error)


class PopModel(Workload):
    """``population_sweep(mode="model", sessions=SESSIONS)`` per pass.

    The closed-form load model: no simulator, DOM or kernel work; the
    time goes to site stats, seeded hashing, the engine's per-cell path
    and the aggregate's quantile sketches.
    """

    name = "popmodel"
    SESSIONS = 2000

    def _sweep(self, sessions: int, on_unit: Optional[OnUnit]) -> dict:
        return population.population_sweep(
            POPULATION, seed=self.seed, mode="model", sessions=sessions,
            engine=_TimedStream(on_unit),
        )

    def warm_up(self) -> None:
        self._sweep(1, None)

    def run_pass(self, on_unit: OnUnit) -> dict:
        return self._sweep(self.SESSIONS, on_unit)

    def check(self, result: dict) -> List[str]:
        failures = []
        if result["errors"] or result["error_overflow"]:
            failures.append(f"popmodel: errors {result['errors'][:3]}")
        if result["computed"] != result["pages"]:
            failures.append(f"popmodel: {result['computed']} computed, {result['pages']} pages")
        return failures


WORKLOADS = {cls.name: cls for cls in (PageLoad, Cube, Fuzz, PopModel)}
