"""What the per-record plane produced, frozen: ``golden/record_plane.json``.

Until PR 16 the streaming layer ran twice — a per-record plane kept as the
oracle for the batch-at-a-time one — and ``test_columnar_equivalence.py`` ran
every case below under both and compared. The per-record plane is deleted;
before it went, every case was run **on it** at commit ``2b2426a`` and what
it produced was written to ``tests/golden/record_plane.json`` (result rows as
sha256, every counter and loss-identity term by value). The one plane left has
to reproduce that file byte for byte. The per-case tests keep their
pre-deletion ids in ``test_columnar_equivalence.py``; this module owns the
case table, the recorder, and the checks on the file itself.

Regenerate (only ever legitimate together with a stated, deliberate re-pin)::

    PYTHONPATH=src python -m tests.test_record_plane_golden [OUT.json]
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from functools import partial
from hashlib import sha256
from pathlib import Path

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.config import ChaosConfig, OverloadConfig, SoakConfig
from repro.core.engine import SageEngine
from repro.faults import FaultInjector, FaultPlan
from repro.flow import FlowConfig
from repro.report import canonical_json
from repro.scenarios import run_chaos, run_overload, run_soak
from repro.streaming import (
    GeoStreamRuntime,
    PerRecordAdapter,
    PoissonSource,
    Record,
    ReliableShipping,
    SageShipping,
)
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.operators import MapOperator, builtin_aggregate
from repro.streaming.sources import BurstSource
from repro.streaming.windows import TumblingWindows

GOLDEN = Path(__file__).parent / "golden" / "record_plane.json"
REPO = Path(__file__).parent.parent
AGGREGATES = ("mean", "count", "sum", "min", "max")
POLICIES = ("block", "shed", "degrade")


# ----------------------------------------------------------------------
# The 60 s two-site job every non-scenario case is a variation of
# ----------------------------------------------------------------------
def run_job(
    operators=None,
    sources=None,
    aggregate="mean",
    *,
    ship_raw=False,
    flow=None,
    shipping=None,
    per_vm_records_per_s=5000.0,
    before_start=None,
) -> GeoStreamRuntime:
    env = CloudEnvironment(seed=7)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "WEU": 2, "NUS": 2})
    engine.start()
    job = StreamJob(
        name="equiv",
        sites=[
            SiteSpec(
                region=region,
                sources=sources(region) if sources else [
                    PoissonSource(
                        name=f"p-{region.lower()}",
                        rate=500.0,
                        keys=["a", "b", "c"],
                    )
                ],
                operators=list(operators or []),
            )
            for region in ("NEU", "WEU")
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate(aggregate),
        ship_raw_records=ship_raw,
        flow=flow,
    )
    runtime = GeoStreamRuntime(
        engine,
        job,
        shipping or SageShipping.factory(n_nodes=2),
        per_vm_records_per_s=per_vm_records_per_s,
    )
    if before_start is not None:
        before_start(engine, runtime)
    runtime.run_for(60.0)
    return runtime


def rows_sha256(rows) -> str:
    return sha256(repr(rows).encode()).hexdigest()


def result_rows(runtime) -> list[tuple]:
    """Window results incl. ``emitted_at``, in canonical order."""
    return sorted(
        (
            r.window.start,
            r.window.end,
            r.key,
            float(r.value),
            int(r.record_count),
            r.emitted_at,
        )
        for r in runtime.results
    )


def _observables(runtime) -> dict:
    rows = [
        (r.window.start, r.window.end, r.key, r.value, r.record_count)
        for r in runtime.results
    ]
    return {
        "results": len(rows),
        "results_sha256": rows_sha256(rows),
        "latency": dataclasses.asdict(runtime.latency_stats()),
        "wan_bytes": runtime.wan_bytes(),
        "emitted": sum(
            src.records_emitted
            for site in runtime.sites.values()
            for src in site.spec.sources
        ),
        "processed": sum(s.records_processed for s in runtime.sites.values()),
    }


def _raw_observables(runtime) -> dict:
    sites = list(runtime.sites.values())
    raw = runtime.aggregator.checkpoint()["raw"]
    rows = result_rows(runtime)
    return {
        "results": len(rows),
        "results_sha256": rows_sha256(rows),
        "wan_bytes": runtime.wan_bytes(),
        "batches_cut": [site.batcher.batches_cut for site in sites],
        "duplicates_dropped": runtime.aggregator.duplicates_dropped,
        "loss": {
            "ingested": runtime.records_ingested(),
            "counted": runtime.records_in_results(),
            "late": raw["late_dropped"],
            "open": sum(slot[4] for slot in raw["slots"]),
            "shed": runtime.records_shed(),
            "abandoned": sum(
                getattr(site.shipping, "records_abandoned", 0) for site in sites
            ),
            # run_for stops the site ticks with the sources, so the last
            # second's records stay in the backlog / batcher buffer.
            "buffered": sum(
                site.backlog + site.batcher.buffered_count for site in sites
            ),
        },
    }


def _scenario_observables(report) -> dict:
    d = report.details
    return {
        "result_sha256": sha256(
            canonical_json(report.canonical_dict()["result"]).encode()
        ).hexdigest(),
        "virtual_seconds": report.virtual_seconds,
        "results": d.results,
        "wan_bytes": d.wan_bytes,
        "duplicates_dropped": d.duplicates_dropped,
        "loss": {
            "ingested": d.ingested,
            "counted": d.counted,
            "shed": d.shed,
            "late_dropped": d.late_dropped,
            "late_partial_records": d.late_partial_records,
            "abandoned_records": d.abandoned_records,
            "accounted": d.accounted,
        },
    }


# ----------------------------------------------------------------------
# Operators and arming hooks the cases use
# ----------------------------------------------------------------------
def _rekeyed(r: Record) -> Record:
    return Record(r.event_time, "all", r.value, r.origin, r.size_bytes)


def rekey_scalar() -> MapOperator:
    """No ``batch_fn``: every batch is materialized through ``fn``."""
    return MapOperator(_rekeyed)


def rekey_vectorized() -> MapOperator:
    return MapOperator(_rekeyed, batch_fn=lambda b: b.with_key("all"))


class PerRecordDoubler:
    """An operator written against the one-record-at-a-time protocol."""

    def process(self, record):
        return [
            Record(
                record.event_time,
                record.key,
                record.value * 2.0,
                record.origin,
                record.size_bytes,
            )
        ]


def _burst_sources(region):
    return [
        BurstSource(
            f"b-{region.lower()}",
            base_rate=150.0,
            burst_rate=1500.0,
            burst_start=15.0,
            burst_end=35.0,
            keys=["k1", "k2"],
        )
    ]


def _arm_crash_restore(engine, runtime) -> None:
    runtime.enable_checkpointing(interval=10.0)
    #: Payload types the sites held for replay at the moment of restart.
    kinds = runtime.retained_kinds_at_restart = set()

    def restart():
        for site in runtime.sites.values():
            kinds.update(type(b.records) for b in site._retained.values())
        runtime.restart_aggregator()

    engine.sim.schedule(25.0, runtime.crash_aggregator)
    engine.sim.schedule(31.2, restart)


def _arm_batch_drop(engine, runtime) -> None:
    FaultInjector(
        engine, FaultPlan().drop_batches(20.0, 8.0, origin="NEU")
    ).arm()


def _overload(policy: str):
    # 90 s compressed replica of the overload scenario: burst, link
    # brownout, shed/degrade pressure, and an aggregator crash at t=40
    # restored from a checkpoint cut mid-batch at t=30.
    return run_overload(
        OverloadConfig(
            policy=policy,
            duration=90.0,
            burst_window=(20.0, 45.0),
            brownout=(25.0, 20.0, 0.1),
            crash_at=40.0,
            restart_after=10.0,
            checkpoint_interval=10.0,
            max_backlog=800,
            base_rate=120.0,
        )
    )


#: name -> (build the subject, project it to JSON-able observables).
CASES = {
    **{
        f"poisson-{agg}": (partial(run_job, aggregate=agg), _observables)
        for agg in AGGREGATES
    },
    "map-rekey": (
        partial(run_job, operators=[rekey_scalar()]), _observables
    ),
    "adapter-doubler": (
        lambda: run_job(operators=[PerRecordAdapter(PerRecordDoubler())]),
        _observables,
    ),
    **{
        f"overload-{policy}": (partial(_overload, policy), _scenario_observables)
        for policy in POLICIES
    },
    "chaos-inject": (
        lambda: run_chaos(ChaosConfig(duration=90.0, inject=True)),
        _scenario_observables,
    ),
    "soak-seed11-adversarial": (
        lambda: run_soak(SoakConfig(seed=11, hours=0.1, profile="adversarial")),
        lambda report: {"digest": report.digest},
    ),
    "raw-plain": (partial(run_job, ship_raw=True), _raw_observables),
    "raw-shed-burst": (
        partial(
            run_job,
            ship_raw=True,
            sources=_burst_sources,
            flow=FlowConfig(policy="shed", max_backlog=800),
            per_vm_records_per_s=200.0,
        ),
        _raw_observables,
    ),
    "raw-crash-restore": (
        partial(run_job, ship_raw=True, before_start=_arm_crash_restore),
        _raw_observables,
    ),
    "raw-reliable-drop-window": (
        lambda: run_job(
            ship_raw=True,
            shipping=ReliableShipping.factory(
                SageShipping.factory(n_nodes=2), delivery_timeout=6.0
            ),
            before_start=_arm_batch_drop,
        ),
        _raw_observables,
    ),
}


def observe(name: str, build=None) -> tuple[dict, object]:
    """Run a case (or ``build``, a variant of it that must give the same
    observables); return them as they read after a JSON round trip, and the
    runtime / report they were read from."""
    case_build, view = CASES[name]
    subject = (build or case_build)()
    return json.loads(json.dumps(view(subject))), subject


def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_matches_golden(name: str, build=None):
    """The subject of the run, once its observables equal the recording."""
    observed, subject = observe(name, build)
    assert observed == golden()[name]
    return observed, subject


# ----------------------------------------------------------------------
# Checks on the file itself
# ----------------------------------------------------------------------
def test_golden_file_pins_exactly_the_case_table():
    recorded = golden()
    assert sorted(recorded) == sorted(CASES)
    for name, pinned in recorded.items():
        assert pinned.get("results", 1) > 0, f"{name} pins a vacuous run"


#: One record-plane case and one scripted scenario, each printed as the
#: digest a golden file pins.
_DIGEST_SNIPPETS = {
    "record_plane.json:raw-shed-burst": (
        "import json; from tests.test_record_plane_golden import observe; "
        "print(json.dumps(observe('raw-shed-burst')[0], sort_keys=True))"
    ),
    "scenarios.json:overload-shed": (
        "from tests.test_scenario_harness import _canonical, _sha; "
        "print(_sha(_canonical('overload-shed')))"
    ),
}


@pytest.mark.parametrize("snippet", list(_DIGEST_SNIPPETS))
def test_digests_do_not_depend_on_the_hash_seed(snippet):
    # The goldens are the only system-level reference now, so str hash
    # order (set / dict-of-str iteration) must provably not reach them.
    outputs = []
    for hash_seed in ("0", "1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            PYTHONPATH=os.pathsep.join([str(REPO / "src"), str(REPO)]),
        )
        done = subprocess.run(
            [sys.executable, "-c", _DIGEST_SNIPPETS[snippet]],
            env=env, cwd=REPO, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    file, case = snippet.split(":")
    pinned = json.loads((GOLDEN.parent / file).read_text())
    if file == "scenarios.json":
        assert outputs[0].strip() == pinned["sha256"][case]
    else:
        assert json.loads(outputs[0]) == pinned[case]


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.parent.mkdir(parents=True, exist_ok=True)
    recording = {name: observe(name)[0] for name in CASES}
    out.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
