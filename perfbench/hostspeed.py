"""The host's speed, sampled by a fixed reference task.

A shared host runs the same Python code up to two or three times slower for
seconds to minutes at a time (other tenants on the same cores), for
every process alike, and raw host times then spread by 20% and more
between identical runs.  The benchmark runs :func:`reference_slice`, a
frozen pure-Python task that does what the program does most (small
objects with ``__slots__``, method calls, dict and heap updates, a
recursive generator walk, seeded hashing and float arithmetic),
interleaved with the workload's units, and rescales the workload's host
times to the speed at which the slice takes :data:`NOMINAL_NS`.  The
slice imports nothing from the program, so a faster program does not
make the reference faster.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from array import array

#: Nodes built per slice; about 2.5 ms of host time.
SLICE_NODES = 800
#: What a slice returns; any other value means the slice is broken.
SLICE_RESULT = 4_016
#: Host time of one slice at nominal speed: about the median slice time
#: on the 2-core machine the baseline was recorded on, in a fast phase.
NOMINAL_NS = 2_600_000
#: Workload time between two slices (slices then cost about 10% extra).
EVERY_NS = 25_000_000
#: Most slices in one batch.
MAX_BATCH = 200

_MASK64 = (1 << 64) - 1


class _Node:
    __slots__ = ("key", "label", "children")

    def __init__(self, key: int, label: str):
        self.key = key
        self.label = label
        self.children = []

    def add(self, child: "_Node") -> "_Node":
        self.children.append(child)
        return child


def _walk(node: _Node):
    yield node
    for child in node.children:
        yield from _walk(child)


def _draw(seed: int, label: str) -> float:
    """A seeded uniform draw: FNV-1a over the label, a murmur3 finalizer."""
    acc = 0xCBF29CE484222325 ^ seed
    for char in label:
        acc = ((acc ^ ord(char)) * 0x100000001B3) & _MASK64
    acc ^= acc >> 33
    acc = (acc * 0xFF51AFD7ED558CCD) & _MASK64
    acc ^= acc >> 33
    return acc / 2.0**64


def reference_slice() -> int:
    """The reference task; deterministic, allocation-balanced.

    Half object graph (build, heap, dict, generator walk), half seeded
    hashing and float arithmetic (like the population model's draws).
    """
    nodes = SLICE_NODES
    root = parent = _Node(0, "root")
    queue: list = []
    seen: dict = {}
    for i in range(1, nodes):
        node = parent.add(_Node(i, f"n{i % 97}"))
        if i % 7 == 0:
            parent = node if i % 210 else root
        heapq.heappush(queue, ((i * 7919) % 1009, i))
        if len(queue) > 64:
            heapq.heappop(queue)
        seen[node.label] = seen.get(node.label, 0) + node.key % 3
    ranks = 0
    for i in range(nodes):
        ranks += int(1000 ** _draw(i % 13, f"page:{i}:visit")) % 7
    return (sum(1 for _ in _walk(root)) + len(queue) + len(seen)
            + sum(seen.values()) % 1000 + ranks)


class HostSpeed:
    """Reference slices taken between units, and the factors they give.

    A factor is a slice time over :data:`NOMINAL_NS`: above 1 the host
    ran slow, and a host time divided by it is the time at nominal
    speed.  A batch of slices ``k`` closes *interval* ``k``, the
    workload time since batch ``k - 1``; the batch holds one slice per
    ``every_ns`` of that time, so long units are sampled as densely as
    short ones, and the interval's factor is the mean of the two
    batches around it.  Slices run with the cyclic collector paused
    (they free everything they build by reference counting), so they
    neither trigger nor postpone a collection in the workload.
    """

    def __init__(self, every_ns: int = EVERY_NS):
        self.every_ns = every_ns
        #: mean slice time of each batch
        self.slices = array("q")
        #: workload time in each interval; ``busy[0]`` precedes every slice
        self.busy = array("q")
        self._since = 0

    def sample(self, count: int = 1) -> None:
        """Take a batch of ``count`` slices, closing the current interval."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter_ns()
            results = {reference_slice() for _ in range(count)}
            self.slices.append((time.perf_counter_ns() - start) // count)
        finally:
            if enabled:
                gc.enable()
        if results != {SLICE_RESULT}:
            raise RuntimeError(f"reference slice returned {results}, not {SLICE_RESULT}")
        self.busy.append(self._since)
        self._since = 0

    def after_unit(self, busy_ns: int) -> int:
        """Add a unit of ``busy_ns`` to the open interval; returns its index.

        Closes the interval with a slice once it holds ``every_ns``.
        """
        interval = len(self.slices)
        self._since += busy_ns
        if self._since >= self.every_ns:
            self.sample(min(self._since // self.every_ns, MAX_BATCH))
        return interval

    def interval_factor(self, k: int) -> float:
        return (self.slices[k - 1] + self.slices[k]) / (2 * NOMINAL_NS)

    def factor(self) -> float:
        """Factor over the whole workload time, each interval by its time."""
        weights = self.busy[1:]
        total = sum(weights)
        if not total:
            return statistics.fmean(self.slices) / NOMINAL_NS
        return sum(w * self.interval_factor(k)
                   for k, w in enumerate(weights, start=1)) / total
