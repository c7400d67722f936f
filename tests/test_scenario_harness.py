"""The one scenario harness: golden corpus, determinism, fixed arming order.

``tests/golden/scenarios.json`` pins ``sha256(canonical_json)`` of the six
scripted scenario cases twice: once with the waiting-time fields masked (those
digests were generated at the commit *before* the harness existed and again
after it, and are equal — the data plane did not move), once exact (so the
next refactor has no mask to hide behind). Regenerate with::

    PYTHONPATH=src python -m tests.test_scenario_harness [OUT.json]
"""

from __future__ import annotations

import json
import sys
from hashlib import sha256
from pathlib import Path

import pytest

from repro.api import run_experiment
from repro.config import SoakConfig
from repro.report import canonical_json
from repro.scenarios import SoakRunner

GOLDEN = Path(__file__).parent / "golden" / "scenarios.json"
SEED = 7
CASES = {
    "chaos-inject": ("chaos", {"inject": True}),
    "chaos-baseline": ("chaos", {"inject": False}),
    "overload-block": ("overload", {"policy": "block"}),
    "overload-shed": ("overload", {"policy": "shed"}),
    "overload-degrade": ("overload", {"policy": "degrade"}),
    "serve": ("serve", {}),
}
#: Fields that measure how long the harness waited, not what the pipeline
#: did: the accounting window (``virtual_seconds``), and everything metered
#: per second of it (audit ticks, VM cost, idle-tail checkpoints and syncs).
MASK = (
    "virtual_seconds",
    "result.audit.checks",
    "result.cost.vm_seconds",
    "result.cost.vm_usd",
    "result.cost.total_usd",
    "result.cost.usd_per_1k_records",
    "result.cost.usd_per_window",
    "result.cost.per_region",
    "result.checkpoints",
    "result.checkpoint_bytes",
    "result.standby_syncs",
)


def _canonical(name: str) -> dict:
    scenario, config = CASES[name]
    return run_experiment(scenario, config, seed=SEED).canonical_dict()


def _masked(canonical: dict) -> dict:
    out = json.loads(canonical_json(canonical))
    for path in MASK:
        *parents, leaf = path.split(".")
        node = out
        for key in parents:
            node = node.get(key, {})
        node.pop(leaf, None)
    return out


def _sha(value) -> str:
    return sha256(canonical_json(value).encode()).hexdigest()


def _case_table() -> dict:
    return {
        name: {"scenario": scenario, "config": config, "seed": SEED}
        for name, (scenario, config) in CASES.items()
    }


def _generate() -> dict:
    canon = {name: _canonical(name) for name in CASES}
    return {
        "mask": list(MASK),
        "cases": _case_table(),
        "masked_sha256": {n: _sha(_masked(c)) for n, c in canon.items()},
        "sha256": {n: _sha(c) for n, c in canon.items()},
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_file_describes_these_cases(golden):
    assert golden["mask"] == list(MASK)
    assert golden["cases"] == _case_table()


@pytest.mark.parametrize("name", list(CASES))
def test_scripted_scenario_matches_its_golden_digest_twice(name, golden):
    first, second = _canonical(name), _canonical(name)
    # Arming order is fixed (checkpointing -> plane -> auditor -> injector ->
    # timed actions -> runtime.start): same-instant events fire in the order
    # they were scheduled, so any reordering shows up here, byte for byte.
    assert canonical_json(first) == canonical_json(second)
    assert _sha(_masked(first)) == golden["masked_sha256"][name]
    assert _sha(first) == golden["sha256"][name]


@pytest.mark.soak
@pytest.mark.parametrize(
    ("config", "digest"),
    [
        (SoakConfig(seed=7, hours=0.5), "b7d6f42d560c7978"),
        (
            SoakConfig(seed=7, hours=2.0, failovers=3),
            "31f44c553ad37dbe60ced85ddf45b6471a25e2c7fc1bef8cf64b3a95df2048f0",
        ),
    ],
    ids=["half-hour", "two-hours-three-failovers"],
)
def test_soak_runner_reproduces_the_recorded_digests(config, digest):
    # The soak's own lifecycle was the template for the harness; running it
    # through the harness must not move a byte.
    res = SoakRunner(config).run().details
    assert res.digest.startswith(digest)
    assert res.accounted and res.drained and res.slo_violations == 0


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
