"""Attack framework: Table I rows as runnable experiments.

Two attack families:

* :class:`TimingAttack` — measures something per trial for each of two
  secrets; succeeds when the measurements distinguish the secrets
  (:mod:`repro.analysis.distinguish`).
* :class:`CveAttack` — drives a vulnerability's triggering sequence;
  succeeds when the vulnerable code path is reached (a
  :class:`~repro.errors.BrowserCrash` fires or cross-origin data leaks).

Each trial runs in a **fresh browser** built through the defense registry
with the vulnerable legacy profile underneath, mirroring the paper's
setup (vulnerable build + layered defense).
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..analysis.distinguish import best_threshold_accuracy, distinguishable
from ..defenses import make_browser
from ..errors import BrowserCrash, ReproError, SecurityError
from ..runtime.browser import Browser
from ..runtime.page import Page
from ..runtime.rng import hash_seed
from ..runtime.simtime import ms


class MeasurementTimeout(ReproError):
    """The attack script did not produce a measurement in time."""


class AttackResult:
    """Outcome of one (attack, defense) cell."""

    def __init__(
        self,
        attack: str,
        defense: str,
        success: bool,
        mode: str,
        detail: str = "",
        accuracy: Optional[float] = None,
        samples: Optional[Dict[str, List[float]]] = None,
    ):
        self.attack = attack
        self.defense = defense
        self.success = success
        self.mode = mode
        self.detail = detail
        self.accuracy = accuracy
        self.samples = samples or {}

    @property
    def defended(self) -> bool:
        """True when the defense prevented the attack."""
        return not self.success

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        verdict = "VULNERABLE" if self.success else "defended"
        return f"<AttackResult {self.attack} vs {self.defense}: {verdict}>"


def run_until_key(browser: Browser, box: dict, key: str, timeout_ms: float = 3_000) -> Any:
    """Advance the simulation until ``box[key]`` appears (or time out)."""
    sim = browser.sim
    step = sim.step
    deadline = sim.dispatch_time + ms(timeout_ms)
    # one event per step(): ``key in box`` is checked between every two
    # dispatches (loopscan's measurement lands mid-storm)
    while key not in box:
        if sim.dispatch_time >= deadline:
            raise MeasurementTimeout(
                f"no {key!r} within {timeout_ms} ms of virtual time"
            )
        if not step():
            if key in box:
                break
            raise MeasurementTimeout(f"simulation drained without {key!r}")
    return box[key]


class Attack:
    """Base attack: a named Table I row."""

    #: Registry name (kebab-case).
    name = "attack"
    #: Human-readable Table I row label.
    row = ""
    #: Table I section: "setTimeout", "raf", or "cve".
    group = ""

    def run(self, defense_name: str, seed: int = 0) -> AttackResult:
        """Evaluate this attack against a defense."""
        raise NotImplementedError


class TimingAttack(Attack):
    """Distinguish two secrets from repeated timing measurements."""

    #: Labels for the two secrets being distinguished.
    secret_a = "a"
    secret_b = "b"
    #: Trials per secret.
    trials = 8
    #: Virtual-time budget per trial.
    timeout_ms = 3_000
    #: Page the attacker controls.
    page_url = "https://attacker.example/"

    def setup(self, browser: Browser, page: Page, secret: str) -> None:
        """Host resources / prime state for one trial (optional)."""

    def measure(self, browser: Browser, page: Page, secret: str) -> float:
        """Run one trial and return the attacker's measurement."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run_trial(self, defense_name: str, secret: str, seed: int) -> float:
        """One isolated measurement in a fresh browser."""
        browser = make_browser(defense_name, seed=seed)
        page = browser.open_page(self.page_url)
        self.setup(browser, page, secret)
        return self.measure(browser, page, secret)

    def run(self, defense_name: str, seed: int = 0) -> AttackResult:
        """The Table I cell: distinguishability over paired trials.

        ``measure`` may return a float or a dict of named measurement
        components (an attacker uses every channel available); the attack
        succeeds if ANY component distinguishes the secrets.
        """
        per_component: Dict[str, Dict[str, List[float]]] = {}
        for trial in range(self.trials):
            for secret in (self.secret_a, self.secret_b):
                trial_seed = hash_seed(seed, f"{self.name}:{defense_name}:{secret}:{trial}")
                measurement = self.run_trial(defense_name, secret, trial_seed)
                if not isinstance(measurement, dict):
                    measurement = {"value": float(measurement)}
                for component, value in measurement.items():
                    bucket = per_component.setdefault(
                        component, {self.secret_a: [], self.secret_b: []}
                    )
                    bucket[secret].append(float(value))

        success = False
        accuracy = 0.5
        winning = ""
        for component, samples in per_component.items():
            comp_success = distinguishable(samples[self.secret_a], samples[self.secret_b])
            comp_accuracy = best_threshold_accuracy(
                samples[self.secret_a], samples[self.secret_b]
            )
            if comp_accuracy > accuracy:
                accuracy = comp_accuracy
            if comp_success and not success:
                success = True
                winning = component
        flat_samples = per_component.get("value") or next(iter(per_component.values()))
        detail = f"accuracy={accuracy:.2f}"
        if winning and winning != "value":
            detail += f" via {winning}"
        return AttackResult(
            self.name,
            defense_name,
            success,
            mode="timing",
            detail=detail,
            accuracy=accuracy,
            samples=flat_samples,
        )


class CveAttack(Attack):
    """Trigger a concrete vulnerability's invocation sequence."""

    group = "cve"
    #: The CVE identifier this scenario targets.
    cve = ""
    #: Virtual-time budget for the scenario.
    timeout_ms = 3_000
    page_url = "https://attacker.example/"

    def setup(self, browser: Browser, page: Page) -> None:
        """Host resources for the scenario (optional)."""

    def attempt(self, browser: Browser, page: Page) -> bool:
        """Drive the trigger; return True if the secret/leak was obtained.

        Memory-safety triggers may instead raise a
        :class:`~repro.errors.BrowserCrash`, which also counts as success.
        """
        raise NotImplementedError

    def run(self, defense_name: str, seed: int = 0) -> AttackResult:
        """The Table I cell: did the vulnerability trigger?"""
        browser = make_browser(defense_name, seed=hash_seed(seed, self.name))
        page = browser.open_page(self.page_url)
        self.setup(browser, page)
        try:
            triggered = self.attempt(browser, page)
            detail = "leak obtained" if triggered else "no trigger"
        except BrowserCrash as crash:
            triggered = True
            detail = f"crash: {crash} ({crash.cve or self.cve})"
        except SecurityError as blocked:
            triggered = False
            detail = f"blocked: {blocked}"
        except MeasurementTimeout as timeout:
            triggered = False
            detail = f"timeout: {timeout}"
        return AttackResult(self.name, defense_name, triggered, mode="cve", detail=detail)
