"""The batch plane ≡ the per-record plane it replaced, pinned end to end.

Every test here used to run one seeded workload twice — once per plane —
and demand identical observable output. The per-record plane is gone;
its side of each comparison was recorded from it at the last commit that
had it and is replayed from ``tests/golden/record_plane.json`` (case
table and recorder: ``tests/test_record_plane_golden.py``). The tests keep
the names they had while there were two planes: "identical across planes"
now reads "identical to what the per-record plane produced" — window
results, latency statistics, loss accounting, scenario payloads and soak
digests, including runs with bursts, shedding, link brownouts, and a
mid-run aggregator crash restored from a checkpoint cut mid-batch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.streaming import (
    AdaptiveBatchPolicy,
    GeoStreamRuntime,
    PerRecordAdapter,
    Record,
    RecordBatch,
    SageShipping,
)
from repro.streaming.operators import MapOperator
from repro.workloads.clickstream import clickstream_job
from repro.workloads.synthetic import fresh_engine
from tests.test_record_plane_golden import (
    PerRecordDoubler,
    assert_matches_golden,
    rekey_vectorized,
    result_rows,
    rows_sha256,
    run_job,
)


def test_poisson_job_identical_across_planes():
    assert_matches_golden("poisson-mean")


@pytest.mark.parametrize("aggregate", ["count", "sum", "min", "max"])
def test_builtin_aggregates_identical_across_planes(aggregate):
    assert_matches_golden(f"poisson-{aggregate}")


def test_per_record_adapter_preserves_results():
    # The adapter is the explicit bridge, and silent: no warning, and a
    # native operator doing the same thing column-wise gives the same run.
    assert_matches_golden("adapter-doubler")
    native = MapOperator(
        lambda r: PerRecordDoubler().process(r)[0],
        batch_fn=lambda b: RecordBatch(
            b.t, b.key_idx, b.value * 2.0, b.size, b.keys, b.origin
        ),
    )
    assert_matches_golden(
        "adapter-doubler", lambda: run_job(operators=[native])
    )


def test_site_refuses_an_operator_without_process_batch():
    with pytest.raises(TypeError, match="PerRecordAdapter"):
        run_job(operators=[PerRecordDoubler()])
    assert isinstance(PerRecordAdapter(PerRecordDoubler()).inner, PerRecordDoubler)


def test_native_batch_operator_matches_per_record_fallback():
    # Recorded with the scalar-only operator; ``batch_fn`` must not show.
    assert_matches_golden("map-rekey")
    assert_matches_golden(
        "map-rekey", lambda: run_job(operators=[rekey_vectorized()])
    )


def test_record_batch_round_trips_records():
    records = [
        Record(1.0, "a", 0.5, "NEU", 200.0),
        Record(1.5, "b", -2.0, "NEU", 100.0),
        Record(2.0, "a", 7, "NEU", 50.0),  # an int value becomes float64
    ]
    batch = RecordBatch.from_records(records)
    assert len(batch) == 3
    assert batch.value.dtype == np.float64 and batch[2].value == 7.0
    assert batch.to_records() == records
    assert [r for r in batch.iter_records()] == records
    view = batch[1:]
    assert view.to_records() == records[1:]
    merged = batch[:1] + batch[1:]
    assert merged.to_records() == records


@pytest.mark.parametrize("policy", ["block", "shed", "degrade"])
def test_overload_scenario_identical_across_planes(policy):
    observed, _ = assert_matches_golden(f"overload-{policy}")
    assert observed["loss"]["accounted"]


def test_chaos_scenario_identical_across_planes():
    observed, _ = assert_matches_golden("chaos-inject")
    assert observed["loss"]["accounted"]


def test_soak_digest_identical_across_planes():
    assert_matches_golden("soak-seed11-adversarial")


# ----------------------------------------------------------------------
# Raw-record shipping (``ship_raw_records``): batches cross the WAN as
# column blocks; everything the simulated cloud saw when they crossed as
# record lists must be reproduced, and two small jobs are pinned by value
# as well.
# ----------------------------------------------------------------------
def _assert_raw_matches_golden(name):
    observed, run = assert_matches_golden(name)
    loss = observed["loss"]
    assert loss["ingested"] == sum(
        loss[k]
        for k in ("counted", "late", "open", "shed", "abandoned", "buffered")
    )
    return observed, run


#: Recorded at the commit before raw batches went columnar (PR 11).
GOLDEN_RAW_SEED7 = "b15f621d8082e0bd91f5d61b622d965146b871debdbe3396cc114ffc7ec5cd03"
GOLDEN_RAW_CLICKSTREAM_ADAPTIVE = "8f211dc265da459e2f34715f146dfe5ed72c7492e4b3668de28f67a07813ba64"


def test_raw_shipping_identical_across_planes_and_pinned():
    observed, _ = _assert_raw_matches_golden("raw-plain")
    assert sum(observed["batches_cut"]) > 50
    assert observed["results_sha256"] == GOLDEN_RAW_SEED7


def test_raw_clickstream_adaptive_batching_pinned():
    # The E9b arrangement: bursty clickstream, raw shipping, link-aware
    # batch threshold read from the live monitor.
    engine = fresh_engine(
        seed=7, spec={"NEU": 2, "WEU": 2, "NUS": 2}, learning_phase=120.0
    )
    job = clickstream_job(
        site_regions=["NEU", "WEU"],
        aggregation_region="NUS",
        batch_policy_factory=lambda: AdaptiveBatchPolicy(
            lambda: engine.monitor.estimated_throughput("NEU", "NUS"),
            target_occupancy=0.05,
            max_delay=1.0,
        ),
        ship_raw_records=True,
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(40.0)
    rows = result_rows(runtime)
    assert len(rows) > 100
    assert rows_sha256(rows) == GOLDEN_RAW_CLICKSTREAM_ADAPTIVE


def test_raw_shipping_shed_overload_identical_across_planes():
    observed, _ = _assert_raw_matches_golden("raw-shed-burst")
    assert observed["loss"]["shed"] > 0


def test_raw_shipping_crash_restore_replays_retained_batches():
    observed, run = _assert_raw_matches_golden("raw-crash-restore")
    assert run.aggregator_crashes == 1
    assert run.batches_dropped_while_down > 0
    # Batches in flight at the restart land after their replayed copies.
    assert observed["duplicates_dropped"] > 0
    # Retention holds the column blocks themselves, never re-objectified.
    assert run.retained_kinds_at_restart == {RecordBatch}


def test_raw_shipping_reliable_batch_drop_window_identical_across_planes():
    _, run = _assert_raw_matches_golden("raw-reliable-drop-window")
    assert run.sites["NEU"].shipping.retries > 0
    assert run.engine.faults.batches_dropped > 0
