"""User-visible clocks and clock-degradation policies.

``performance.now()`` and ``Date.now()`` read the simulator's virtual time
through a :class:`ClockPolicy`.  Policies are where three of the evaluated
defenses live:

* legacy browsers quantise to their shipped resolution (5 µs in Chrome,
  1 ms in Firefox/Edge at the paper's time);
* Tor Browser quantises to 100 ms;
* Fuzzyfox reports a *fuzzy* clock whose update instants are randomised, so
  an attacker cannot learn anything from tick edges;
* Chrome Zero quantises coarsely and adds noise.

JSKernel does not use a policy at all — it replaces the clock object with a
kernel logical clock (see :mod:`repro.kernel.kclock`).
"""

from __future__ import annotations

import random
from typing import Optional

from .simtime import MS, quantize, to_ms
from .simulator import Simulator

#: CPU cost of one clock API call (closure dispatch + time read).
CLOCK_CALL_COST = 80


class ClockPolicy:
    """Transforms true virtual nanoseconds into reported nanoseconds."""

    name = "exact"

    def report(self, true_ns: int) -> int:
        """Return the value (in ns) the page is allowed to observe."""
        return true_ns


class QuantizedClockPolicy(ClockPolicy):
    """Floor the clock onto a fixed grid (legacy/Tor behaviour).

    The grid edges are exact, which is precisely why clock-edge attacks
    (paper §IV-A4) still work against coarse deterministic grids: an
    attacker counts cheap operations between two edges.
    """

    def __init__(self, resolution_ns: int, name: str = "quantized"):
        self.resolution_ns = resolution_ns
        self.name = name

    def report(self, true_ns: int) -> int:
        return quantize(true_ns, self.resolution_ns)


class FuzzyClockPolicy(ClockPolicy):
    """Fuzzyfox-style clock: edges occur at memoryless random instants.

    The reported value is frozen between *fuzzy update events* and jumps
    by one resolution step at each of them.  Two properties matter:

    * update instants form a Poisson process (exponential gaps), so the
      time from the end of a secret operation to the next visible edge is
      memoryless — edge *phase* carries zero information, even averaged
      over many runs (this is what defeats the clock-edge attack);
    * the reported value advances by the resolution per update rather
      than re-quantising true time — re-quantising would anchor the
      visible edges back onto the exact grid and resurrect the phase
      channel.  The price is a random-walk error against true time,
      which is precisely the "fuzziness" Fuzzyfox accepts.
    """

    name = "fuzzy"

    def __init__(self, resolution_ns: int, rng: random.Random):
        self.resolution_ns = resolution_ns
        self.rng = rng
        self._last_reported = 0
        self._next_update = 0

    def report(self, true_ns: int) -> int:
        while true_ns >= self._next_update:
            if self._next_update > 0:
                self._last_reported += self.resolution_ns
            step = int(self.rng.expovariate(1.0 / self.resolution_ns))
            self._next_update += max(step, 1)
        return self._last_reported


class DeterministicClockPolicy(ClockPolicy):
    """Deterministic Browser (Cao et al.) clock: time *is* the read count.

    The reported value ignores true virtual time entirely and advances by
    a fixed quantum per observation, so the clock of each scope (= each
    thread, since every scope gets a fresh policy instance from the
    factory) is a pure function of how often that scope has looked at it.
    Two runs that execute the same reads see the same readings, whatever
    the hardware did in between — the defining property of the
    deterministic-clock defense, and the reason no timing difference
    survives it.  The cost: reported time is unrelated to real duration,
    which is exactly the compatibility trade the DetBrowser paper accepts.
    """

    name = "deterministic"

    def __init__(self, quantum_ns: int = 10_000):
        self.quantum_ns = quantum_ns
        self.reads = 0

    def report(self, true_ns: int) -> int:
        self.reads += 1
        return self.reads * self.quantum_ns


class NoisyQuantizedClockPolicy(ClockPolicy):
    """Chrome-Zero-style clock: coarse grid plus additive random noise."""

    name = "noisy"

    def __init__(self, resolution_ns: int, noise_ns: int, rng: random.Random):
        self.resolution_ns = resolution_ns
        self.noise_ns = noise_ns
        self.rng = rng

    def report(self, true_ns: int) -> int:
        noise = self.rng.randint(0, self.noise_ns) if self.noise_ns > 0 else 0
        return quantize(true_ns + noise, self.resolution_ns)


class PerformanceClock:
    """The object behind ``performance`` in a scope.

    ``now()`` charges a small call cost to the running task (so spinning on
    the clock consumes virtual time, as clock-edge attacks require) and
    reports policy-transformed milliseconds since the time origin.
    """

    def __init__(self, sim: Simulator, policy: Optional[ClockPolicy] = None, origin: int = 0):
        self.sim = sim
        self.policy = policy or ClockPolicy()
        self.origin = origin

    def now(self) -> float:
        """``performance.now()``: float milliseconds since the time origin."""
        sim = self.sim
        sim.consume(CLOCK_CALL_COST)
        # to_ms, inlined: loopscan reads the clock once per message
        return self.policy.report(sim.now - self.origin) / MS

    def now_ns(self) -> int:
        """Policy-transformed time in ns (internal consumers, no rounding)."""
        self.sim.consume(CLOCK_CALL_COST)
        return self.policy.report(self.sim.now - self.origin)

    @property
    def time_origin(self) -> float:
        """``performance.timeOrigin`` in milliseconds."""
        return to_ms(self.origin)


class DateClock:
    """The object behind ``Date.now()``: millisecond integer wall time."""

    #: Arbitrary fixed epoch offset so Date.now() looks like wall time.
    EPOCH_MS = 1_577_836_800_000  # 2020-01-01T00:00:00Z

    def __init__(self, sim: Simulator, policy: Optional[ClockPolicy] = None):
        self.sim = sim
        self.policy = policy or QuantizedClockPolicy(MS, name="date-ms")

    def now(self) -> int:
        """``Date.now()``: integer milliseconds since the Unix epoch."""
        self.sim.consume(CLOCK_CALL_COST)
        return self.EPOCH_MS + int(to_ms(self.policy.report(self.sim.now)))
