"""A seeded, internet-scale population of pages, sessions and browsers.

The Figure-3 workload (:mod:`repro.workloads.alexa`) models a lab of 500
sites; the ROADMAP's campaign service needs an *internet* — millions of
pages with realistic structure, visited by a stream of user sessions
arriving over time, split across a browser traffic mix.  Everything here
is a **pure function of (rank/index, seed)** in the style of
:func:`~repro.workloads.alexa.site_for_rank`: a worker process
regenerates exactly the page it needs from two integers instead of the
parent shipping page descriptions across the process boundary, which is
what lets :meth:`~repro.harness.parallel.ExperimentEngine.stream`
generate-and-retire a 100k-page sweep in flat memory.

The model has three axes:

* **Site archetypes** — pages belong to archetypes (search, social,
  news, video, shop, webapp, docs, blog) whose mix shifts with
  popularity: the head of the rank distribution is search/social/video
  heavy, the long tail is blogs and docs.  An archetype maps onto one of
  the :func:`~repro.workloads.sites.generate_site` weight classes plus
  archetype-specific spreads.
* **User sessions** — a renewal arrival process (seeded exponential
  inter-arrivals) emits sessions; each session picks a browser from the
  traffic mix and visits a geometric number of pages drawn Zipf-style
  from the rank distribution.  :func:`session_stream` is a generator
  with O(1) resident state.
* **Per-browser traffic mix** — page visits split across browser
  configurations (defense registry names) by a seeded weighted choice,
  so a sweep reports per-config load-time quantiles the way Figure 3
  reports per-config CDFs.

Two measurement modes: ``"sim"`` drives the full simulated browser
(:func:`~repro.workloads.alexa.measure_load_time_ms` — the Figure-3
path), ``"model"`` evaluates a closed-form load-time estimate from the
site description (network + parse + DOM + script-task terms with a
seeded ±5% jitter).  The model mode is ~1000x cheaper per page and is
what makes million-page population statistics practical; the bounded-RSS
acceptance test (``tests/test_population.py``) runs it at 50k pages.

Aggregation is sketch-only: :class:`PopulationAggregate` folds each
result into per-config and per-archetype
:class:`~repro.telemetry.sketch.QuantileSketch` instances (load times
observed as integer microseconds, so merged sweeps stay byte-identical
under re-partitioning) and never retains a per-page sample list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..runtime.rng import hash_seed
from ..telemetry.sketch import QuantileSketch
from .sites import SiteDescription, generate_site, site_stats

__all__ = [
    "ARCHETYPES",
    "BAND_MIX",
    "DEFAULT_BROWSER_MIX",
    "DEFAULT_POPULATION",
    "MODES",
    "PopulationAggregate",
    "PopulationModel",
    "Session",
    "archetype_for_rank",
    "band_for_rank",
    "config_for_rank",
    "estimate_load_ms",
    "page_for",
    "population_cells",
    "population_sweep",
    "run_population_page",
    "session_cells",
    "session_stream",
    "zipf_rank",
]

#: Population size assumed when none is given: "the internet".
DEFAULT_POPULATION = 1_000_000

#: How a page visit is measured: the closed-form load model or the simulator.
MODES: Tuple[str, ...] = ("model", "sim")

#: Site archetypes: the weight class the site generator uses plus a
#: load-model scale factor (how much heavier a page of this archetype
#: renders than its weight class's baseline).
ARCHETYPES: Dict[str, dict] = {
    "search": {"weight": "light", "scale": 0.8},
    "social": {"weight": "heavy", "scale": 1.1},
    "news": {"weight": "heavy", "scale": 1.2},
    "video": {"weight": "medium", "scale": 1.3},
    "shop": {"weight": "medium", "scale": 1.0},
    "webapp": {"weight": "medium", "scale": 0.9},
    "docs": {"weight": "light", "scale": 0.7},
    "blog": {"weight": "light", "scale": 0.9},
}

#: Archetype mix per popularity band, as integer odds (not normalised).
#: The head of the rank distribution is search/social/video heavy; the
#: long tail is blogs and docs.
BAND_MIX: Dict[str, Tuple[Tuple[str, int], ...]] = {
    "head": (
        ("search", 3), ("social", 3), ("video", 2),
        ("news", 2), ("shop", 1), ("webapp", 1),
    ),
    "torso": (
        ("news", 3), ("shop", 3), ("webapp", 2),
        ("video", 1), ("docs", 1), ("blog", 2),
    ),
    "tail": (
        ("blog", 4), ("docs", 2), ("shop", 1),
        ("news", 1), ("webapp", 1), ("social", 1),
    ),
}

#: Default browser traffic mix (defense registry names -> share).
DEFAULT_BROWSER_MIX: Tuple[Tuple[str, float], ...] = (
    ("legacy-chrome", 0.55),
    ("jskernel", 0.25),
    ("legacy-firefox", 0.10),
    ("jskernel-firefox", 0.05),
    ("tor", 0.05),
)

#: Load-model overhead factor per browser configuration, relative to
#: legacy Chrome (mirrors the Figure-3 CDF separation: JSKernel costs a
#: few percent, fuzzing clocks cost more, Tor the most).
MODEL_CONFIG_OVERHEAD: Dict[str, float] = {
    "legacy-chrome": 1.00,
    "legacy-firefox": 1.02,
    "jskernel": 1.066,
    "jskernel-firefox": 1.087,
    "chromezero": 1.03,
    "detbrowser": 1.045,
    "deterfox": 1.24,
    "fuzzyfox": 1.17,
    "tor": 1.52,
}


_MASK64 = (1 << 64) - 1


def _uniform(seed: int, label: str) -> float:
    """One pure uniform draw in ``[0, 1)`` keyed by ``(seed, label)``.

    A murmur3-style finalizer over the label hash, scaled to the unit
    interval.  The finalizer matters: raw FNV-1a bits are visibly
    structured across sequential labels (``pop:arch:0``, ``pop:arch:1``,
    ...), and constructing a ``random.Random`` per draw — the usual fix
    — would cost more than the whole load model at three or four draws
    per page across 100k+ pages.
    """
    acc = hash_seed(seed, label)
    acc ^= acc >> 33
    acc = (acc * 0xFF51AFD7ED558CCD) & _MASK64
    acc ^= acc >> 33
    acc = (acc * 0xC4CEB9FE1A85EC53) & _MASK64
    acc ^= acc >> 33
    return (acc >> 11) / float(1 << 53)


def _weighted(seed: int, label: str, choices: Sequence[Tuple[str, float]]) -> str:
    """Seeded weighted pick — pure per ``(seed, label)``."""
    total = sum(share for _name, share in choices)
    point = _uniform(seed, label) * total
    acc = 0.0
    for name, share in choices:
        acc += share
        if point < acc:
            return name
    return choices[-1][0]


# ----------------------------------------------------------------------
# pages
# ----------------------------------------------------------------------
def band_for_rank(rank: int, size: int) -> str:
    """Popularity band: top 1% head, next 19% torso, the rest tail."""
    if not 0 <= rank < size:
        raise ValueError(f"rank {rank} outside population of {size}")
    if rank < max(1, size // 100):
        return "head"
    if rank < size // 5:
        return "torso"
    return "tail"


def archetype_for_rank(rank: int, seed: int, size: int = DEFAULT_POPULATION) -> str:
    """The archetype of the page at ``rank`` — pure in ``(rank, seed)``."""
    mix = BAND_MIX[band_for_rank(rank, size)]
    return _weighted(seed, f"pop:arch:{rank}", mix)


def config_for_rank(
    rank: int,
    seed: int,
    mix: Sequence[Tuple[str, float]] = DEFAULT_BROWSER_MIX,
) -> str:
    """The browser configuration a visit to ``rank`` uses (traffic mix)."""
    return _weighted(seed, f"pop:browser:{rank}", mix)


def page_for(rank: int, seed: int, size: int = DEFAULT_POPULATION) -> SiteDescription:
    """The population member at ``rank`` — regenerable anywhere.

    Pure function of ``(rank, seed, size)``: a pool worker (or a serve
    job on another machine) reconstructs the exact page from integers
    instead of receiving the description over a socket.  The archetype
    decides the weight class; the host name carries both for debugging.
    """
    archetype = archetype_for_rank(rank, seed, size)
    weight = ARCHETYPES[archetype]["weight"]
    host = f"{archetype}{rank:07d}.example"
    return generate_site(host, _site_seed(rank, seed), weight)


def _site_seed(rank: int, seed: int) -> int:
    """The generator seed of the page at ``rank``."""
    return hash_seed(seed, f"pop:site:{rank}")


def zipf_rank(u: float, size: int) -> int:
    """Map a uniform draw to a Zipf-ish popularity rank.

    Log-uniform over ``[1, size]`` (``rank = size**u - 1``): the head of
    the distribution is visited exponentially more often than the tail,
    the classic web-traffic shape, with every rank still reachable.
    """
    if size < 1:
        raise ValueError(f"population size must be >= 1, got {size}")
    rank = int(size ** u) - 1
    return min(max(rank, 0), size - 1)


# ----------------------------------------------------------------------
# sessions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Session:
    """One user session: arrival instant, browser, pages visited."""

    index: int
    arrival_s: float
    config: str
    pages: Tuple[int, ...]


@dataclass(frozen=True)
class PopulationModel:
    """The knobs of the population: size, mixes, arrival process."""

    size: int = DEFAULT_POPULATION
    seed: int = 0
    browser_mix: Tuple[Tuple[str, float], ...] = DEFAULT_BROWSER_MIX
    #: Mean session arrival rate (sessions per second of modelled time).
    session_rate_hz: float = 50.0
    #: Mean pages per session (geometric, at least one page).
    mean_pages: float = 4.0


def session_stream(model: PopulationModel, count: Optional[int] = None) -> Iterator[Session]:
    """Yield sessions in arrival order with O(1) resident state.

    Inter-arrival gaps are exponential draws keyed by the session index
    (a seeded renewal process), so the stream is reproducible and each
    session's *gap* is pure per index; arrival instants are the running
    prefix sum, produced lazily.  ``count`` bounds the stream (``None``
    streams forever — callers slice).
    """
    arrival = 0.0
    index = 0
    while count is None or index < count:
        rng = random.Random(hash_seed(model.seed, f"pop:session:{index}"))
        arrival += rng.expovariate(model.session_rate_hz)
        config = _weighted(model.seed, f"pop:sbrowser:{index}", model.browser_mix)
        # geometric page count with mean `mean_pages` (>= 1 page)
        pages = max(1, int(rng.expovariate(1.0 / max(model.mean_pages - 1, 1e-9))) + 1) \
            if model.mean_pages > 1 else 1
        ranks = tuple(zipf_rank(rng.random(), model.size) for _ in range(pages))
        yield Session(index=index, arrival_s=arrival, config=config, pages=ranks)
        index += 1


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------
#: Modelled effective bandwidth (bytes of subresource per virtual ms).
MODEL_BYTES_PER_MS = 6_000
#: Modelled script parse cost (ms per 100 kB of script).
MODEL_PARSE_MS_PER_100KB = 1.8
#: Modelled DOM construction cost (ms per 100 nodes).
MODEL_DOM_MS_PER_100_NODES = 0.35


def _estimate(
    total_bytes: int,
    script_bytes: int,
    dom_nodes: int,
    task_ms: float,
    config: str,
    seed: int,
    host: str,
    archetype: Optional[str],
) -> float:
    """The model core over raw site stats (see :func:`estimate_load_ms`)."""
    network_ms = total_bytes / MODEL_BYTES_PER_MS
    parse_ms = script_bytes / 102_400 * MODEL_PARSE_MS_PER_100KB
    dom_ms = dom_nodes / 100 * MODEL_DOM_MS_PER_100_NODES
    base = network_ms + parse_ms + dom_ms + task_ms
    overhead = MODEL_CONFIG_OVERHEAD.get(config, 1.05)
    scale = ARCHETYPES[archetype]["scale"] if archetype else 1.0
    jitter = 0.95 + 0.1 * _uniform(seed, f"pop:jitter:{host}:{config}")
    return base * overhead * scale * jitter


def estimate_load_ms(
    site: SiteDescription,
    config: str,
    seed: int,
    archetype: Optional[str] = None,
) -> float:
    """Closed-form load-time estimate for one visit (no simulator).

    Network, parse, DOM and script-task terms from the site description,
    scaled by the configuration's overhead factor and the archetype's
    render scale, with a seeded ±5% visit jitter.  Roughly three orders
    of magnitude cheaper than a simulated visit — the difference between
    a 500-site lab run and million-page population statistics.
    """
    script_bytes = sum(r.size_bytes for r in site.resources if r.kind == "script")
    task_ms = sum(cost for _delay, cost in site.task_pattern)
    return _estimate(
        site.total_bytes(), script_bytes, site.dom_nodes, task_ms,
        config, seed, site.host, archetype,
    )


def run_population_page(
    rank: int,
    seed: int,
    size: int = DEFAULT_POPULATION,
    mode: str = "model",
    config: str = "",
    visit: int = 0,
) -> dict:
    """One population cell: regenerate the page, measure one visit.

    This is the worker-side body of the ``"population"`` cell kind:
    everything is rebuilt from ``(rank, seed)``, nothing is shipped.
    ``config`` overrides the traffic-mix pick (session-driven visits
    carry their session's browser).
    """
    archetype = archetype_for_rank(rank, seed, size)
    weight = ARCHETYPES[archetype]["weight"]
    host = f"{archetype}{rank:07d}.example"
    chosen = config or config_for_rank(rank, seed)
    visit_seed = hash_seed(seed, f"pop:visit:{rank}:{chosen}:{visit}")
    if mode == "model":
        # the stats path replays generate_site's draw sequence without
        # building the description, so this equals
        # estimate_load_ms(page_for(rank, seed, size), ...) exactly
        total_bytes, script_bytes, dom_nodes, task_ms = site_stats(
            host, _site_seed(rank, seed), weight
        )
        load_ms = _estimate(
            total_bytes, script_bytes, dom_nodes, task_ms,
            chosen, visit_seed, host, archetype,
        )
    elif mode == "sim":
        from .alexa import measure_load_time_ms

        site = generate_site(host, _site_seed(rank, seed), weight)
        load_ms = measure_load_time_ms(chosen, site, seed=visit_seed)
    else:
        raise ValueError(f"unknown population mode {mode!r}; expected 'model' or 'sim'")
    return {
        "rank": rank,
        "archetype": archetype,
        "config": chosen,
        "load_ms": round(load_ms, 3),
    }


# ----------------------------------------------------------------------
# cells + bounded-memory aggregation
# ----------------------------------------------------------------------
def population_cells(
    size: int,
    seed: int = 0,
    mode: str = "model",
    visits: int = 1,
    browser_mix: Optional[Sequence[Tuple[str, float]]] = None,
):
    """Lazily generate one ``"population"`` cell per (rank, visit).

    A generator, deliberately: feeding it to
    :meth:`~repro.harness.parallel.ExperimentEngine.stream` keeps the
    resident cell count bounded by the stream window no matter how
    large ``size`` is.
    """
    from ..harness.parallel import Cell

    for rank in range(size):
        config = ""
        if browser_mix is not None:
            config = config_for_rank(rank, seed, tuple(browser_mix))
        for visit in range(visits):
            yield Cell(
                "population",
                {
                    "rank": rank,
                    "seed": seed,
                    "size": size,
                    "mode": mode,
                    "config": config,
                    "visit": visit,
                },
            )


def session_cells(
    model: PopulationModel,
    sessions: int,
    mode: str = "model",
):
    """One ``"population"`` cell per page visit of ``sessions`` sessions.

    The arrival process decides *which* pages get visited (Zipf over the
    rank distribution) and *with which browser* (the session's pick), so
    the sweep measures what users experience rather than a uniform rank
    scan.
    """
    from ..harness.parallel import Cell

    for session in session_stream(model, count=sessions):
        for visit, rank in enumerate(session.pages):
            yield Cell(
                "population",
                {
                    "rank": rank,
                    "seed": model.seed,
                    "size": model.size,
                    "mode": mode,
                    "config": session.config,
                    "visit": session.index * 131 + visit,
                },
            )


class PopulationAggregate:
    """Bounded-memory aggregation of a population sweep.

    Per-config and per-archetype load-time sketches (observed as integer
    microseconds, so merges are byte-identical under re-partitioning),
    page/error counters, and an error list capped at ``max_errors`` with
    an explicit overflow counter — never a per-page sample list.
    """

    def __init__(self, max_errors: int = 20):
        self.pages = 0
        self.cached = 0
        self.max_errors = max_errors
        self.errors: List[str] = []
        self.error_overflow = 0
        self.by_config: Dict[str, QuantileSketch] = {}
        self.by_archetype: Dict[str, QuantileSketch] = {}

    def add(self, result) -> None:
        """Fold one :class:`~repro.harness.parallel.CellResult` in."""
        if not result.ok:
            if len(self.errors) < self.max_errors:
                self.errors.append(f"{result.cell.label()}: {result.error}")
            else:
                self.error_overflow += 1
            return
        self.pages += 1
        if result.cached:
            self.cached += 1
        payload = result.payload
        micros = int(round(payload["load_ms"] * 1000.0))
        for keyed, key in (
            (self.by_config, payload["config"]),
            (self.by_archetype, payload["archetype"]),
        ):
            sketch = keyed.get(key)
            if sketch is None:
                sketch = keyed[key] = QuantileSketch()
            sketch.add(micros)

    @staticmethod
    def _summary(sketch: QuantileSketch) -> dict:
        quantiles = {
            label: (None if value is None else round(value / 1000.0, 3))
            for label, value in sketch.quantiles().items()
        }
        return {
            "count": sketch.count,
            "mean_ms": round(sketch.mean / 1000.0, 3) if sketch.count else None,
            **quantiles,
        }

    def report(self) -> dict:
        """The deterministic sweep summary (quantiles in ms)."""
        return {
            "pages": self.pages,
            "cached": self.cached,
            "errors": self.errors,
            "error_overflow": self.error_overflow,
            "configs": {
                name: self._summary(self.by_config[name])
                for name in sorted(self.by_config)
            },
            "archetypes": {
                name: self._summary(self.by_archetype[name])
                for name in sorted(self.by_archetype)
            },
        }


def population_sweep(
    size: int,
    seed: int = 0,
    mode: str = "model",
    visits: int = 1,
    sessions: Optional[int] = None,
    browser_mix: Optional[Sequence[Tuple[str, float]]] = None,
    parallel: Optional[int] = None,
    cache=None,
    window: Optional[int] = None,
    engine=None,
) -> dict:
    """Stream a population sweep and return its bounded-memory summary.

    ``sessions`` switches from a uniform rank scan to the session
    arrival process (``sessions`` sessions' worth of page visits).  The
    cell stream and the result stream are both generators; resident
    state is the engine's in-flight window plus the aggregate's
    sketches, independent of ``size``.
    """
    from ..harness.parallel import ExperimentEngine

    if engine is None:
        engine = ExperimentEngine(workers=parallel, cache=cache)
    if sessions is not None:
        model = PopulationModel(
            size=size, seed=seed,
            browser_mix=tuple(browser_mix or DEFAULT_BROWSER_MIX),
        )
        cells = session_cells(model, sessions, mode=mode)
    else:
        cells = population_cells(
            size, seed=seed, mode=mode, visits=visits, browser_mix=browser_mix
        )
    aggregate = PopulationAggregate()
    for result in engine.stream(cells, window=window):
        aggregate.add(result)
    report = aggregate.report()
    report.update(
        {
            "size": size,
            "seed": seed,
            "mode": mode,
            "sessions": sessions,
            "computed": engine.computed,
            "cache_hits": engine.cache_hits,
        }
    )
    return report
