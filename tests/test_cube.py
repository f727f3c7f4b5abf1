"""The defense × attack cube: overhead profiles, divergence, fixture."""

import json
import os

import pytest

from repro.harness.cube import (
    CUBE_PAIR,
    CubeResult,
    overhead_profile,
    run_cube,
    run_cube_cell,
)

FIXTURE = os.path.join(os.path.dirname(__file__), "golden", "cube_expected.json")


def load_fixture() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# overhead profiles
# ----------------------------------------------------------------------
def test_overhead_profile_merges_histograms_into_a_cdf():
    snapshot = {
        "histograms": {
            "eventloop.queue_delay_ns.main": {
                "bounds": [1000, 10_000],
                "counts": [2, 1, 1],
                "sum": 30_000,
                "count": 4,
            },
            "eventloop.queue_delay_ns.worker-1": {
                "bounds": [1000, 10_000],
                "counts": [2, 0, 0],
                "sum": 400,
                "count": 2,
            },
        },
        "counters": {
            "eventloop.tasks.timer": 5,
            "eventloop.tasks.message": 2,
            "kernel.api_calls.setTimeout": 3,
            "unrelated.counter": 99,
        },
    }
    profile = overhead_profile(snapshot)
    delay = profile["queue_delay"]
    assert delay["count"] == 6
    assert delay["mean_ns"] == pytest.approx(30_400 / 6)
    assert delay["cdf"] == [
        {"le_ns": 1000, "fraction": pytest.approx(4 / 6)},
        {"le_ns": 10_000, "fraction": pytest.approx(5 / 6)},
        {"le_ns": None, "fraction": pytest.approx(1.0)},
    ]
    assert profile["tasks"] == 7
    assert profile["kernel_api_calls"] == 3
    assert "kernel_confirm" not in profile  # no kernel histograms present


def test_run_cube_cell_carries_verdict_and_overhead():
    cell = run_cube_cell("clock-edge", "jskernel", seed=0)
    assert cell["defended"] is True
    assert cell["overhead"]["queue_delay"]["count"] > 0
    assert cell["overhead"]["tasks"] > 0


def _default_slice():
    from repro.__main__ import CUBE_ATTACKS
    from repro.defenses import CUBE_DEFENSES

    return [(a, d) for a in CUBE_ATTACKS for d in CUBE_DEFENSES]


@pytest.mark.parametrize("attack, defense", _default_slice())
def test_metrics_only_cell_matches_a_fully_traced_run(attack, defense, monkeypatch):
    """run_cube_cell's metrics-only capture loses nothing the cube reads."""
    import repro.harness.cube as cube_module
    from repro.attacks import create as create_attack
    from repro.trace import Tracer, capture

    made = []

    class SpyTracer(Tracer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(cube_module, "Tracer", SpyTracer)
    cell = run_cube_cell(attack, defense, seed=0)
    assert len(made) == 1
    assert made[0].enabled and not made[0].buffering
    assert len(made[0]) == 0

    full = Tracer()
    with capture(full):
        result = create_attack(attack).run(defense, seed=0)
    assert len(full) > 0
    assert cell == {
        "defended": result.defended,
        "detail": result.detail,
        "overhead": overhead_profile(full.metrics.snapshot()),
    }


# ----------------------------------------------------------------------
# divergence logic (synthetic)
# ----------------------------------------------------------------------
def synthetic_result() -> CubeResult:
    result = CubeResult(
        attacks=["a1", "a2", "a3"],
        defenses=["jskernel", "detbrowser"],
        seed=0,
    )
    result.verdicts = {
        "a1": {"jskernel": True, "detbrowser": False},  # verdict divergence
        "a2": {"jskernel": True, "detbrowser": True},  # overhead divergence
        "a3": {"jskernel": True, "detbrowser": True},  # agreement
    }
    delay = lambda mean: {"queue_delay": {"count": 1, "mean_ns": mean, "cdf": []}}
    result.overhead = {
        "a1": {"jskernel": delay(100.0), "detbrowser": delay(100.0)},
        "a2": {"jskernel": delay(1000.0), "detbrowser": delay(100.0)},
        "a3": {"jskernel": delay(150.0), "detbrowser": delay(100.0)},
    }
    return result


def test_divergent_cells_orders_verdicts_before_overhead():
    divergent = synthetic_result().divergent_cells()
    assert [cell["kind"] for cell in divergent] == ["verdict", "overhead"]
    assert divergent[0] == {
        "attack": "a1",
        "kind": "verdict",
        "jskernel": True,
        "detbrowser": False,
    }
    assert divergent[1]["attack"] == "a2"
    assert divergent[1]["ratio"] == 10.0


def test_divergence_requires_both_defended_for_overhead():
    result = synthetic_result()
    result.verdicts["a2"]["detbrowser"] = False
    kinds = [(cell["attack"], cell["kind"]) for cell in result.divergent_cells()]
    assert ("a2", "overhead") not in kinds
    assert ("a2", "verdict") in kinds


def test_render_mentions_divergent_cells():
    text = synthetic_result().render()
    assert "divergent cells (jskernel vs detbrowser):" in text
    assert "VULNERABLE" in text
    assert "x10.0" in text


# ----------------------------------------------------------------------
# the real cube vs the committed fixture
# ----------------------------------------------------------------------
def test_fixture_pins_a_verdict_divergent_cell():
    fixture = load_fixture()
    assert fixture["pair"] == list(CUBE_PAIR)
    divergent = [c for c in fixture["divergent"] if c["kind"] == "verdict"]
    assert divergent, "fixture must pin at least one jskernel/detbrowser divergence"
    assert any(c["attack"] == "cve-2018-5092" for c in divergent)


def test_cube_reproduces_the_fixture_divergence():
    fixture = load_fixture()
    result = run_cube(
        attacks=["cve-2018-5092"],
        defenses=["jskernel", "detbrowser"],
        seed=fixture["seed"],
        cache=None,
    )
    assert result.errors == []
    row = result.verdicts["cve-2018-5092"]
    expected_row = fixture["verdicts"]["cve-2018-5092"]
    assert row["jskernel"] == expected_row["jskernel"] is True
    assert row["detbrowser"] == expected_row["detbrowser"] is False
    divergent = result.divergent_cells()
    assert {"attack": "cve-2018-5092", "kind": "verdict",
            "jskernel": True, "detbrowser": False} in divergent
    # every cell carries an overhead CDF
    for defense in ("jskernel", "detbrowser"):
        assert result.overhead["cve-2018-5092"][defense]["queue_delay"]["cdf"]


def test_cube_json_round_trips():
    result = run_cube(attacks=["clock-edge"], defenses=["jskernel"], cache=None)
    payload = result.to_json()
    assert json.loads(json.dumps(payload)) == payload
    assert payload["verdicts"] == {"clock-edge": {"jskernel": True}}


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def test_cli_rejects_unknown_defense():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(["cube", "--defenses", "analyze", "--no-cache"])
    assert err.value.code == 2


def test_cli_rejects_unknown_attack():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as err:
        main(["cube", "--attacks", "bogus-attack", "--no-cache"])
    assert err.value.code == 2


def test_cli_json_output(capsys):
    from repro.__main__ import main

    code = main(
        ["cube", "--attacks", "clock-edge", "--defenses", "legacy-chrome",
         "--json", "--no-cache"]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdicts"] == {"clock-edge": {"legacy-chrome": False}}


def test_cli_accepts_extension_attacks():
    from repro.__main__ import main

    code = main(
        ["cube", "--attacks", "sab-timer", "--defenses", "detbrowser",
         "--json", "--no-cache"]
    )
    assert code == 0
