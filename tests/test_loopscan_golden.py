"""Pin the loopscan cube row's virtual result.

Loopscan is the ``postMessage`` storm of the cube: under DetBrowser's
deterministic clock one cell posts ~144,000 self-messages, so any change
to the message round trip (``scope.postMessage`` -> ``MessageEndpoint``
-> ``EventLoop`` -> ``Simulator``) shows up here first.  For every
:data:`~repro.defenses.CUBE_DEFENSES` column the test re-runs the cell
exactly as :func:`repro.harness.cube.run_cube_cell` does (a metrics-only
capture) and compares sha256 digests of the attack's raw
``AttackResult.samples`` and of the cell's ``overhead_profile()``
against ``tests/golden/loopscan_row.json``.

Regenerating the golden is an intentional change of virtual behaviour:
run ``PYTHONPATH=src python tests/test_loopscan_golden.py`` and commit
its output as the golden file.
"""

import hashlib
import json
import os

import pytest

from repro.attacks import create
from repro.defenses import CUBE_DEFENSES
from repro.harness.cube import overhead_profile
from repro.trace import Tracer, capture

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "loopscan_row.json")
SEED = 0


def _sha256(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cell(defense: str) -> dict:
    tracer = Tracer(events=False)
    with capture(tracer):
        result = create("loopscan").run(defense, seed=SEED)
    return {
        "defended": result.defended,
        "samples_sha256": _sha256(result.samples),
        "overhead_sha256": _sha256(overhead_profile(tracer.metrics.snapshot())),
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as f:
        return json.load(f)


def test_golden_covers_every_cube_defense():
    assert sorted(_golden()["cells"]) == sorted(CUBE_DEFENSES)


@pytest.mark.parametrize("defense", CUBE_DEFENSES)
def test_loopscan_cell_matches_golden(defense):
    assert _cell(defense) == _golden()["cells"][defense]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "_comment": (
                    "loopscan x CUBE_DEFENSES on seed 0: sha256 of each cell's "
                    "AttackResult.samples and overhead_profile() under a "
                    "metrics-only capture (see tests/test_loopscan_golden.py)"
                ),
                "seed": SEED,
                "cells": {defense: _cell(defense) for defense in CUBE_DEFENSES},
            },
            indent=2,
        )
    )
