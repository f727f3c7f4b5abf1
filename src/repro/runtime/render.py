"""Vsync renderer and ``requestAnimationFrame``.

The renderer posts a RENDER task on the main-thread event loop at each
vsync boundary while there is work (rAF callbacks, dirty DOM, running
animations).  Because the frame task queues behind whatever else occupies
the thread, and because style/layout/paint *consume cost proportional to
the page and to pending paint effects* (SVG filters…), rAF callback
timestamps expose main-thread and paint timing — the channel behind the
second block of Table I attacks.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from .dom import Document
from .eventloop import EventLoop
from .simtime import FRAME_INTERVAL, us
from .task import TaskSource

#: Cost of a requestAnimationFrame registration.
RAF_CALL_COST = 400


class RenderCosts:
    """Per-frame cost parameters (browser-profile dependent)."""

    __slots__ = ("base_paint", "style_per_node", "layout_per_node", "visited_style_extra")

    def __init__(
        self,
        base_paint: int = us(300),
        style_per_node: int = 900,
        layout_per_node: int = 1_100,
        visited_style_extra: int = 24_000,
    ):
        self.base_paint = base_paint
        self.style_per_node = style_per_node
        self.layout_per_node = layout_per_node
        self.visited_style_extra = visited_style_extra


class Renderer:
    """The compositor/main-frame scheduler for one page."""

    def __init__(
        self,
        loop: EventLoop,
        document: Document,
        costs: Optional[RenderCosts] = None,
        frame_interval: int = FRAME_INTERVAL,
        timestamp_fn: Optional[Callable[[], float]] = None,
        visited_fn: Optional[Callable[[str], bool]] = None,
    ):
        self.loop = loop
        self.document = document
        self.costs = costs or RenderCosts()
        self.frame_interval = frame_interval
        #: Returns the rAF timestamp (routed through the clock policy).
        self.timestamp_fn = timestamp_fn or (lambda: loop.sim.now / 1e6)
        #: Consulted during style recalc for <a href> visited state.
        self.visited_fn = visited_fn or (lambda href: False)
        self._raf_ids = itertools.count(1)
        self._raf_callbacks: Dict[int, Callable[[float], None]] = {}
        self._tick_armed_for: Optional[int] = None
        #: Extra per-frame drivers (CSS animations); frame keeps scheduling
        #: while any returns True.
        self.animation_drivers: List[Callable[[], bool]] = []
        self.frames_rendered = 0
        #: (frame_start, frame_end) true virtual times, for analysis/tests.
        self.frame_log: List[Tuple[int, int]] = []

    # ------------------------------------------------------------------
    # public API (what the scope exposes)
    # ------------------------------------------------------------------
    def request_animation_frame(self, callback: Callable[[float], None]) -> int:
        """``requestAnimationFrame(cb)`` → id."""
        self.loop.sim.consume(RAF_CALL_COST)
        raf_id = next(self._raf_ids)
        self._raf_callbacks[raf_id] = callback
        self._ensure_scheduled()
        return raf_id

    def cancel_animation_frame(self, raf_id: int) -> None:
        """``cancelAnimationFrame(id)``."""
        self.loop.sim.consume(RAF_CALL_COST)
        self._raf_callbacks.pop(raf_id, None)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def needs_frame(self) -> bool:
        """True when a frame should be produced at the next vsync."""
        if self._raf_callbacks or self.document.dirty:
            return True
        return any(driver() for driver in self.animation_drivers)

    def _next_vsync(self) -> int:
        now = self.loop.sim.now
        return ((now // self.frame_interval) + 1) * self.frame_interval

    def _ensure_scheduled(self) -> None:
        target = self._next_vsync()
        if self._tick_armed_for is not None and self._tick_armed_for <= target:
            return
        self._tick_armed_for = target
        self.loop.post(
            self._on_frame,
            delay=target - self.loop.sim.now,
            source=TaskSource.RENDER,
            label="vsync-frame",
        )

    def _missed_vsync(self) -> bool:
        """True when this tick ran long after its vsync (main-thread jank).

        Real compositors SKIP such frames and re-align to the next vsync:
        the frame task is re-issued rather than run late.  This matters
        for security fidelity — queued cross-thread messages drain before
        the re-aligned frame, which is exactly what count-based implicit
        clocks measure.
        """
        armed = self._tick_armed_for
        if armed is None:
            return False
        return self.loop.sim.dispatch_time > armed + self.frame_interval // 8

    def pump(self) -> None:
        """Arm the vsync loop if there is renderable work (page calls this)."""
        if self.needs_frame():
            self._ensure_scheduled()

    # ------------------------------------------------------------------
    # the frame
    # ------------------------------------------------------------------
    def _on_frame(self) -> None:
        if self._missed_vsync():
            # jank: skip this frame and re-align to the next vsync
            self._tick_armed_for = None
            self._ensure_scheduled()
            return
        self._tick_armed_for = None
        if not self.needs_frame() and not self._raf_callbacks:
            return
        sim = self.loop.sim
        frame_start = sim.now

        # 1. run animation-frame callbacks with a policy-filtered timestamp
        callbacks = list(self._raf_callbacks.items())
        self._raf_callbacks.clear()
        timestamp = self.timestamp_fn()
        for _raf_id, callback in callbacks:
            callback(timestamp)

        # 2. style / layout / paint
        sim.consume(self._frame_cost())
        self.document.dirty = False

        self.frames_rendered += 1
        self.frame_log.append((frame_start, sim.now))

        # 3. keep the loop alive while there is more work
        if self.needs_frame():
            self._ensure_scheduled()

    def _frame_cost(self) -> int:
        document = self.document
        cost = self.costs.base_paint
        if document.dirty:
            costs = self.costs
            cost += document.node_count() * (costs.style_per_node + costs.layout_per_node)
            # visited-link style resolution (history sniffing channel);
            # href is read now, not at attach time: attacks write it directly
            for element in document.anchors():
                attributes = element.attributes
                if "href" in attributes and self.visited_fn(attributes["href"]):
                    element.matched_visited = True
                    cost += costs.visited_style_extra
        # pending paint effects (SVG filters, expensive canvases, ...)
        return cost + document.take_pending_paint()
