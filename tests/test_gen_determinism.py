"""Generator determinism, in-process and across interpreter boundaries.

A generated scenario IS its seed: the same ``(seed, profile, hours)``
must expand to the same deployment, the same rendered schedules, and the
same fault plan — in this process, in a fresh interpreter, forever.
"""

import json
import subprocess
import sys

from repro.config import GenConfig, SoakConfig
from repro.gen import GEN_PROFILES, ScenarioGenerator
from repro.report import canonical_json
from repro.scenarios import run_soak


def vm_ids(scenario):
    """Deterministic stand-in for the deployed VM ids."""
    return {
        region: [
            f"vm-{i:04d}-{region.lower()}"
            for i in range(scenario.deployment[region])
        ]
        for region in scenario.site_regions
    }


def expand(seed, profile="adversarial", hours=6.0):
    gen = ScenarioGenerator(seed, profile=profile)
    scn = gen.generate(hours)
    plan = gen.adversity(scn, vm_ids(scn))
    return scn, plan


def test_same_seed_same_scenario():
    a, plan_a = expand(42)
    b, plan_b = expand(42)
    assert canonical_json(a.summary()) == canonical_json(b.summary())
    assert a.traffic == b.traffic  # full schedules, not just the summary
    assert plan_a.events == plan_b.events


def test_distinct_seeds_distinct_scenarios():
    a, _ = expand(42)
    b, _ = expand(43)
    assert canonical_json(a.summary()) != canonical_json(b.summary())


def test_distinct_profiles_distinct_scenarios():
    a, _ = expand(42, "calm")
    b, _ = expand(42, "hostile")
    assert canonical_json(a.summary()) != canonical_json(b.summary())


def test_calm_profile_generates_no_adversity():
    _, plan = expand(42, "calm")
    assert len(plan) == 0


def test_profiles_cover_all_soak_choices():
    from repro.config import SOAK_PROFILES

    assert set(SOAK_PROFILES) <= set(GEN_PROFILES)
    for cfg in GEN_PROFILES.values():
        assert isinstance(cfg, GenConfig)


def test_soak_digest_reproducible_in_process():
    a = run_soak(SoakConfig(seed=7, hours=0.1, profile="diurnal"))
    b = run_soak(SoakConfig(seed=7, hours=0.1, profile="diurnal"))
    assert a.digest == b.digest
    assert a.canonical_json() == b.canonical_json()
    c = run_soak(SoakConfig(seed=8, hours=0.1, profile="diurnal"))
    assert c.digest != a.digest


_CHILD = """
import json, sys
from repro.config import SoakConfig
from repro.gen import ScenarioGenerator
from repro.report import canonical_json
from repro.scenarios import run_soak

seed = int(sys.argv[1])
gen = ScenarioGenerator(seed, profile="adversarial")
scn = gen.generate(6.0)
ids = {
    r: [f"vm-{i:04d}-{r.lower()}" for i in range(scn.deployment[r])]
    for r in scn.site_regions
}
plan = gen.adversity(scn, ids)
report = run_soak(SoakConfig(seed=seed, hours=0.1, profile="diurnal"))
print(json.dumps({
    "summary": canonical_json(scn.summary()),
    "plan": repr(plan.events),
    "digest": report.digest,
}))
"""


def test_generation_stable_across_process_boundary():
    """A fresh interpreter expands the same seed to the same bytes.

    Mirrors the ``derive_seed`` cross-process test: nothing would save
    us if the generator leaned on salted ``hash()`` or interpreter
    state anywhere in its sampling path.
    """
    scn, plan = expand(7)
    report = run_soak(SoakConfig(seed=7, hours=0.1, profile="diurnal"))
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, "7"],
        capture_output=True,
        text=True,
        check=True,
    )
    child = json.loads(out.stdout)
    assert child["summary"] == canonical_json(scn.summary())
    assert child["plan"] == repr(plan.events)
    assert child["digest"] == report.digest
