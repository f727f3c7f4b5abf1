"""The defense × attack cube: security verdicts AND overhead, per cell.

Table I answers "does the defense stop the attack?"; the cube adds the
axis the paper never reports — what each defense *costs* while doing it,
and where two defenses that both claim the threat model disagree.  Every
``(attack, defense)`` cell runs under a private metrics-only capture
(``Tracer(events=False)``: metrics recorded, no trace event buffered), so
the metrics registry yields a per-cell **overhead profile**: the merged
event-loop queue-delay CDF, kernel stage latencies when a kernel is
installed, and task counts.

The headline comparison is JSKernel vs the DetBrowser backend
(:data:`CUBE_PAIR`): both defend the timing rows, only JSKernel closes
the CVE rows, and their overhead CDFs differ in shape — divergent cells
are first-class results (:meth:`CubeResult.divergent_cells`) and are
pinned by the committed fixture ``tests/golden/cube_expected.json``,
which the ``cube-smoke`` CI job gates on.

Cells run on the PR-3 sharded engine, so ``parallel=N`` and the
content-addressed result cache work exactly as they do for Table I.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from ..attacks import attack_names
from ..defenses import CUBE_DEFENSES
from ..telemetry.spans import span
from ..trace import Tracer, capture, current_tracer
from .parallel import Cell, ExperimentEngine

#: The head-to-head pair whose disagreements are the headline result.
CUBE_PAIR: Tuple[str, str] = ("jskernel", "detbrowser")

#: Overhead histogram families merged into per-cell CDFs, keyed by the
#: metrics-registry name prefix they aggregate.
OVERHEAD_FAMILIES: Tuple[Tuple[str, str], ...] = (
    ("eventloop.queue_delay_ns.", "queue_delay"),
    ("kernel.confirm_latency_ns.", "kernel_confirm"),
    ("kernel.dispatch_latency_ns.", "kernel_dispatch"),
)

#: Two defended cells whose mean queue delays differ by at least this
#: factor count as an *overhead-profile* divergence.
OVERHEAD_DIVERGENCE_RATIO = 2.0


def overhead_profile(snapshot: dict) -> dict:
    """Distil a metrics snapshot into the cell's overhead profile.

    Histograms of each family share bucket bounds (the registry
    defaults), so merging is bucket-wise addition; each family becomes a
    CDF over the bucket edges plus count/mean summaries.

    When the snapshot carries quantile sketches (a telemetry run — see
    :func:`run_cube_cell`'s ``sketches`` flag), each family additionally
    gets sketch-derived ``p50_ns``/``p95_ns``/``p99_ns`` and the
    serialized sketch itself, so campaign-level percentiles can be
    merged from cell payloads without any raw sample list.  In the
    default exact mode the output is unchanged — the committed golden
    cube fixtures stay pinned.
    """
    from ..telemetry.sketch import QuantileSketch

    profile: dict = {}
    histograms = snapshot.get("histograms", {})
    sketches = snapshot.get("sketches", {})
    for prefix, key in OVERHEAD_FAMILIES:
        merged: Optional[dict] = None
        for name in sorted(histograms):
            if not name.startswith(prefix):
                continue
            data = histograms[name]
            if merged is None:
                merged = {
                    "bounds": list(data["bounds"]),
                    "counts": list(data["counts"]),
                    "sum": data["sum"],
                    "count": data["count"],
                }
            else:
                merged["counts"] = [
                    have + more for have, more in zip(merged["counts"], data["counts"])
                ]
                merged["sum"] += data["sum"]
                merged["count"] += data["count"]
        if merged is None or merged["count"] == 0:
            continue
        cumulative = 0
        cdf = []
        for edge, count in zip([*merged["bounds"], None], merged["counts"]):
            cumulative += count
            cdf.append(
                {"le_ns": edge, "fraction": cumulative / merged["count"]}
            )
        profile[key] = {
            "count": merged["count"],
            "mean_ns": merged["sum"] / merged["count"],
            "cdf": cdf,
        }
        family_sketch: Optional[QuantileSketch] = None
        for name in sorted(sketches):
            if not name.startswith(prefix):
                continue
            data = sketches[name]
            if data["count"] == 0:
                continue
            if family_sketch is None:
                family_sketch = QuantileSketch(
                    accuracy=data["accuracy"], max_centroids=data["max_centroids"]
                )
            family_sketch.merge(data)
        if family_sketch is not None:
            profile[key]["p50_ns"] = family_sketch.quantile(0.5)
            profile[key]["p95_ns"] = family_sketch.quantile(0.95)
            profile[key]["p99_ns"] = family_sketch.quantile(0.99)
            profile[key]["sketch"] = family_sketch.to_dict()
    counters = snapshot.get("counters", {})
    profile["tasks"] = sum(
        value for name, value in counters.items() if name.startswith("eventloop.tasks.")
    )
    profile["kernel_api_calls"] = sum(
        value
        for name, value in counters.items()
        if name.startswith("kernel.api_calls.")
    )
    return profile


def run_cube_cell(attack: str, defense: str, seed: int = 0, sketches: bool = False) -> dict:
    """One cube cell: verdict + overhead profile from a metrics-only capture.

    The cell reads only the capture's metrics snapshot, so it runs under
    ``Tracer(events=False)``: the overhead histograms are recorded but no
    trace event is buffered (a ``postMessage``-heavy cell would otherwise
    fill hundreds of thousands of rows nobody reads).

    ``sketches`` turns on quantile-sketch recording for the cell's
    histograms (telemetry mode).  It is an explicit parameter — never
    inferred from ambient state — so the payload stays a pure function
    of the cell parameters and the result cache can key on it; the
    default (exact mode) payload is byte-identical to pre-telemetry
    runs, keeping golden fixtures and warm caches valid.

    The cell's private metrics snapshot is folded into the ambient
    tracer afterwards, so engine-level captures (``--metrics``,
    telemetry runs) see the event-loop and kernel metrics the cell
    produced.
    """
    from ..attacks import create as create_attack

    tracer = Tracer(events=False)
    tracer.metrics.sketch_observations = bool(sketches)
    with capture(tracer):
        result = create_attack(attack).run(defense, seed=seed)
    snapshot = tracer.metrics.snapshot()
    ambient = current_tracer()
    if ambient.enabled:
        ambient.metrics.merge_snapshot(snapshot)
    return {
        "defended": result.defended,
        "detail": result.detail,
        "overhead": overhead_profile(snapshot),
    }


class CubeResult:
    """Outcome of a cube run."""

    def __init__(
        self,
        attacks: Sequence[str],
        defenses: Sequence[str],
        seed: int,
        pair: Tuple[str, str] = CUBE_PAIR,
    ):
        self.attacks = list(attacks)
        self.defenses = list(defenses)
        self.seed = seed
        self.pair = pair
        #: attack -> defense -> defended?
        self.verdicts: Dict[str, Dict[str, bool]] = {}
        #: attack -> defense -> detail string
        self.details: Dict[str, Dict[str, str]] = {}
        #: attack -> defense -> overhead profile dict
        self.overhead: Dict[str, Dict[str, dict]] = {}
        #: "attack vs defense: error" strings for poisoned cells.
        self.errors: List[str] = []
        self.computed_cells = 0
        self.cached_cells = 0
        #: Campaign-wide queue-delay sketch (dict form), telemetry runs
        #: only — merged from per-cell sketches, never raw samples.
        self.queue_delay_sketch: Optional[dict] = None

    # ------------------------------------------------------------------
    def divergent_cells(
        self, pair: Optional[Tuple[str, str]] = None
    ) -> List[dict]:
        """Cells where the pair disagrees, by verdict or overhead shape.

        Verdict divergences (one defends, the other leaks) come first;
        overhead divergences (both defend, but mean queue delay differs
        by ≥ :data:`OVERHEAD_DIVERGENCE_RATIO`×) follow.
        """
        left, right = pair or self.pair
        found: List[dict] = []
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            if left not in row or right not in row:
                continue
            if row[left] != row[right]:
                found.append(
                    {
                        "attack": attack,
                        "kind": "verdict",
                        left: row[left],
                        right: row[right],
                    }
                )
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            if not (row.get(left) and row.get(right)):
                continue
            means = {}
            for defense in (left, right):
                family = self.overhead.get(attack, {}).get(defense, {})
                delay = family.get("queue_delay")
                if delay and delay["mean_ns"] > 0:
                    means[defense] = delay["mean_ns"]
            if len(means) == 2:
                ratio = max(means[left], means[right]) / min(
                    means[left], means[right]
                )
                if ratio >= OVERHEAD_DIVERGENCE_RATIO:
                    found.append(
                        {
                            "attack": attack,
                            "kind": "overhead",
                            left: round(means[left], 1),
                            right: round(means[right], 1),
                            "ratio": round(ratio, 2),
                        }
                    )
        return found

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Text cube: verdict grid plus the pair's divergent cells."""
        width = max((len(a) for a in self.attacks), default=10) + 2
        cols = [d[:12] for d in self.defenses]
        lines = [
            "".ljust(width) + " ".join(c.center(12) for c in cols),
        ]
        for attack in self.attacks:
            row = self.verdicts.get(attack, {})
            marks = []
            for defense in self.defenses:
                if defense not in row:
                    marks.append("?".center(12))
                    continue
                mark = "defended" if row[defense] else "VULNERABLE"
                marks.append(mark.center(12))
            lines.append(attack.ljust(width) + " ".join(marks))
        divergent = self.divergent_cells()
        left, right = self.pair
        lines.append("")
        lines.append(f"divergent cells ({left} vs {right}):")
        if not divergent:
            lines.append("  (none)")
        for cell in divergent:
            if cell["kind"] == "verdict":
                lines.append(
                    f"  {cell['attack']}: {left}="
                    f"{'defended' if cell[left] else 'VULNERABLE'} "
                    f"{right}={'defended' if cell[right] else 'VULNERABLE'}"
                )
            else:
                lines.append(
                    f"  {cell['attack']}: mean queue delay {left}="
                    f"{cell[left]:.0f}ns {right}={cell[right]:.0f}ns "
                    f"(x{cell['ratio']})"
                )
        if self.errors:
            lines.append("")
            lines.append("errors:")
            lines.extend(f"  {err}" for err in self.errors)
        return "\n".join(lines)

    def to_json(self) -> dict:
        """JSON-ready dump (the ``--json`` payload and CI artifact).

        The ``queue_delay`` campaign summary appears only on telemetry
        (``sketches=True``) runs, so default payloads — and the golden
        fixture built from them — are unchanged.
        """
        payload = {
            "attacks": self.attacks,
            "defenses": self.defenses,
            "seed": self.seed,
            "pair": list(self.pair),
            "verdicts": self.verdicts,
            "details": self.details,
            "overhead": self.overhead,
            "divergent": self.divergent_cells(),
            "errors": self.errors,
            "computed_cells": self.computed_cells,
            "cached_cells": self.cached_cells,
        }
        if self.queue_delay_sketch is not None:
            from ..telemetry.sketch import QuantileSketch

            sketch = QuantileSketch.from_dict(self.queue_delay_sketch)
            payload["queue_delay"] = {
                "quantiles_ns": sketch.quantiles(),
                "count": sketch.count,
                "sketch": self.queue_delay_sketch,
            }
        return payload


def run_cube(
    attacks: Optional[Sequence[str]] = None,
    defenses: Optional[Sequence[str]] = None,
    seed: int = 0,
    parallel: Optional[int] = None,
    cache=None,
    pair: Tuple[str, str] = CUBE_PAIR,
    sketches: bool = False,
) -> CubeResult:
    """Evaluate the defense × attack cube.

    Defaults to every Table I attack × :data:`~repro.defenses.CUBE_DEFENSES`
    (the four prior defenses plus the JSKernel/DetBrowser head-to-head).
    Each cell is a pure function of ``(attack, defense, seed)`` and runs
    on the sharded engine, so ``parallel``/``cache`` behave exactly as
    they do for :func:`~repro.harness.matrix.run_table1`.

    ``sketches=True`` (telemetry mode) records per-cell quantile
    sketches and aggregates a campaign-wide queue-delay sketch; the flag
    becomes part of each cell's parameters **only when set**, so default
    cells keep their pre-telemetry cache keys and golden payloads.
    """
    attacks = list(attacks or attack_names())
    defenses = list(defenses or CUBE_DEFENSES)
    extra = {"sketches": True} if sketches else {}
    cells = [
        Cell("cube", {"attack": attack, "defense": defense, "seed": seed, **extra})
        for attack in attacks
        for defense in defenses
    ]
    engine = ExperimentEngine(workers=parallel, cache=cache)
    with span("cube.run", cells=len(cells), seed=seed):
        results = engine.run(cells)

    outcome = CubeResult(attacks, defenses, seed, pair=pair)
    for attack in attacks:
        outcome.verdicts[attack] = {}
        outcome.details[attack] = {}
        outcome.overhead[attack] = {}
    for result in results:
        attack = result.cell.params["attack"]
        defense = result.cell.params["defense"]
        if result.ok:
            outcome.verdicts[attack][defense] = result.payload["defended"]
            outcome.details[attack][defense] = result.payload["detail"]
            outcome.overhead[attack][defense] = result.payload["overhead"]
        else:
            # poisoned cells count as undefended, like the Table I harness
            outcome.verdicts[attack][defense] = False
            outcome.details[attack][defense] = f"error: {result.error}"
            outcome.overhead[attack][defense] = {}
            outcome.errors.append(f"{attack} vs {defense}: {result.error}")
    outcome.computed_cells = engine.computed
    outcome.cached_cells = engine.cache_hits

    if sketches:
        from ..telemetry.sketch import QuantileSketch

        campaign: Optional[QuantileSketch] = None
        for result in results:
            if not result.ok:
                continue
            data = result.payload["overhead"].get("queue_delay", {}).get("sketch")
            if not data or data["count"] == 0:
                continue
            if campaign is None:
                campaign = QuantileSketch(
                    accuracy=data["accuracy"], max_centroids=data["max_centroids"]
                )
            campaign.merge(data)
        if campaign is not None:
            outcome.queue_delay_sketch = campaign.to_dict()

    tracer = current_tracer()
    if tracer.enabled:
        tracer.metrics.counter("cube.cells").inc(len(cells))
    return outcome


__all__ = [
    "CUBE_PAIR",
    "CubeResult",
    "overhead_profile",
    "run_cube",
    "run_cube_cell",
]
