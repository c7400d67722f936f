"""Causal trace context and per-window lineage."""

import math

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.obs import BatchTrace, Observer, SiteLeg, WindowLineage, trace_id
from repro.obs.lineage import HOP_NAMES, Hop
from repro.streaming.batching import Batcher, SizeBatchPolicy
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Record
from repro.streaming.operators import builtin_aggregate
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import SageShipping
from repro.streaming.sources import PoissonSource
from repro.streaming.windows import TumblingWindows


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------
def test_trace_id_is_origin_slash_seq():
    assert trace_id("NEU", 3) == "NEU/3"
    assert trace_id("WEU", 0) == "WEU/0"


def test_hop_lifecycle_and_roundtrip():
    hop = Hop(link="NEU->NUS", backend="sage", sent_at=10.0)
    assert not hop.delivered
    assert math.isnan(hop.transit_s)
    hop.arrived_at = 12.5
    assert hop.delivered
    assert hop.transit_s == 2.5
    again = Hop.from_dict(hop.to_dict())
    assert again == hop
    # A never-delivered hop round-trips too (arrived_at stays NaN).
    lost = Hop.from_dict({"link": "a->b", "backend": "udp", "sent_at": 1.0})
    assert not lost.delivered


def test_batch_trace_stamp_and_hops():
    trace = BatchTrace.stamp("NEU", 7, created_at=5.0)
    assert trace.trace_id == "NEU/7"
    assert trace.attempts == 0
    assert math.isnan(trace.first_sent_at)
    assert not trace.delivered
    h1 = trace.begin_hop("NEU->NUS", "sage", 6.0)
    h2 = trace.begin_hop("NEU->NUS", "sage", 9.0)  # a retry
    assert trace.attempts == 2
    assert trace.first_sent_at == 6.0
    h2.arrived_at = 10.0
    assert trace.delivered
    # delivered_at reads the latest *attempt* that landed (append order).
    assert trace.delivered_at == 10.0
    h1.arrived_at = 11.0  # the late first copy lands after the retry
    assert trace.delivered_at == 10.0
    payload = trace.to_dict()
    assert payload["trace_id"] == "NEU/7"
    assert len(payload["hops"]) == 2
    assert set(payload) == {"trace_id", "origin", "seq", "created_at", "hops"}


# ----------------------------------------------------------------------
# SiteLeg folding
# ----------------------------------------------------------------------
def test_site_leg_absorbs_and_dedups_traces():
    leg = SiteLeg(site="NEU")
    trace = BatchTrace.stamp("NEU", 1, created_at=10.0)
    trace.begin_hop("NEU->NUS", "sage", 11.0).arrived_at = 13.0
    # A batch carrying two partials for the same window absorbs twice
    # with the same trace: partials/records accumulate, the batch and
    # its attempts count once.
    leg.absorb(trace, records=3, nbytes=200.0, now=13.0)
    leg.absorb(trace, records=2, nbytes=150.0, now=13.0)
    assert leg.partials == 2
    assert leg.records == 5
    assert leg.bytes == 350.0
    assert leg.batches == 1
    assert leg.attempts == 1
    assert leg.created_at == 10.0
    assert leg.first_sent_at == 11.0
    assert leg.arrived_at == 13.0
    assert leg.complete


def test_site_leg_tracks_extremes_across_batches():
    leg = SiteLeg(site="NEU")
    early = BatchTrace.stamp("NEU", 1, created_at=10.0)
    early.begin_hop("l", "b", 11.0)
    late = BatchTrace.stamp("NEU", 2, created_at=20.0)
    late.begin_hop("l", "b", 21.0)
    leg.absorb(late, 1, 100.0, now=23.0)
    leg.absorb(early, 1, 100.0, now=14.0)
    assert leg.batches == 2
    assert leg.created_at == 10.0  # earliest cut
    assert leg.first_sent_at == 11.0  # earliest send
    assert leg.arrived_at == 23.0  # latest arrival


def test_site_leg_without_trace_stays_incomplete():
    leg = SiteLeg(site="NEU")
    leg.absorb(None, records=4, nbytes=100.0, now=9.0)
    assert leg.partials == 1 and leg.records == 4
    assert leg.batches == 0
    assert not leg.complete  # no cut/send timestamps without a trace


def test_site_leg_roundtrip():
    leg = SiteLeg(site="WEU")
    trace = BatchTrace.stamp("WEU", 5, created_at=2.0)
    trace.begin_hop("WEU->NUS", "direct", 3.0)
    leg.absorb(trace, 7, 640.0, now=6.0)
    again = SiteLeg.from_dict(leg.to_dict())
    assert again.site == "WEU"
    assert again.records == 7 and again.batches == 1 and again.attempts == 1
    assert again.created_at == 2.0
    assert again.first_sent_at == 3.0
    assert again.arrived_at == 6.0
    assert again.complete
    # Legacy payloads (no timestamps) restore without provenance.
    bare = SiteLeg.from_dict({"site": "WEU"})
    assert not bare.complete and bare.records == 0


# ----------------------------------------------------------------------
# WindowLineage
# ----------------------------------------------------------------------
def _complete_leg(site="NEU", created=12.0, sent=13.0, arrived=16.0):
    leg = SiteLeg(site=site)
    trace = BatchTrace.stamp(site, 0, created_at=created)
    trace.begin_hop(f"{site}->NUS", "sage", sent)
    leg.absorb(trace, 3, 200.0, now=arrived)
    return leg


def test_window_lineage_breakdown_covers_all_hops():
    lineage = WindowLineage(
        window_start=0.0,
        window_end=10.0,
        key="k",
        emitted_at=21.0,
        legs=(_complete_leg(),),
    )
    assert lineage.complete
    assert lineage.e2e_latency == 11.0
    assert lineage.sites == ("NEU",)
    assert lineage.egress_bytes == 200.0
    parts = lineage.breakdown()["NEU"]
    assert set(parts) == set(HOP_NAMES)
    assert parts["site_close"] == 2.0  # window end 10 -> cut 12
    assert parts["queue"] == 1.0  # cut 12 -> sent 13
    assert parts["transit"] == 3.0  # sent 13 -> arrived 16
    assert parts["merge"] == 5.0  # arrived 16 -> emitted 21
    # The hops tile the end-to-end latency exactly.
    assert math.isclose(sum(parts.values()), lineage.e2e_latency)


def test_window_lineage_incomplete_without_legs():
    empty = WindowLineage(0.0, 10.0, "k", 15.0, legs=())
    assert not empty.complete
    payload = WindowLineage(
        0.0, 10.0, "k", 15.0, legs=(_complete_leg(),)
    ).to_dict()
    assert payload["legs"][0]["site"] == "NEU"
    assert payload["emitted_at"] == 15.0


# ----------------------------------------------------------------------
# Stamping at the batcher
# ----------------------------------------------------------------------
def test_batcher_stamps_unique_traces():
    batcher = Batcher(SizeBatchPolicy(max_bytes=100.0), origin="NEU")
    ids = []
    for i in range(3):
        batch = batcher.offer(
            Record(float(i), "k", 1, size_bytes=150.0), now=float(i)
        )
        assert batch is not None
        assert batch.trace is not None
        assert batch.trace.trace_id == trace_id("NEU", batch.seq)
        assert batch.trace.created_at == float(i)
        ids.append(batch.trace.trace_id)
    assert len(set(ids)) == 3


# ----------------------------------------------------------------------
# End-to-end: every emitted window carries complete lineage
# ----------------------------------------------------------------------
def test_runtime_results_carry_complete_lineage():
    obs = Observer()
    env = CloudEnvironment(seed=13, variability_sigma=0.0, glitches=False)
    engine = SageEngine(
        env, deployment_spec={"NEU": 3, "WEU": 3, "NUS": 3}, observer=obs
    )
    engine.start(learning_phase=120.0)
    job = StreamJob(
        name="lin",
        sites=[
            SiteSpec(r, [PoissonSource(f"src-{r}", rate=200.0, keys=["k1"])])
            for r in ("NEU", "WEU")
        ],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )
    runtime = GeoStreamRuntime(engine, job, SageShipping.factory(n_nodes=2))
    runtime.run_for(100.0)
    stats = runtime.lineage_stats()
    assert stats["results"] > 0
    assert stats["with_lineage"] == stats["results"]
    assert stats["complete"] == stats["results"]
    for result in runtime.results:
        lineage = result.lineage
        assert lineage.key == result.key
        assert lineage.emitted_at == result.emitted_at
        assert math.isclose(lineage.e2e_latency, result.latency)
        # Each leg decomposes into finite hop latencies.
        for site, parts in lineage.breakdown().items():
            assert all(math.isfinite(v) for v in parts.values()), (site, parts)
    # The per-site E2E histograms and per-hop histograms populated.
    for site in ("NEU", "WEU"):
        hist = obs.histogram("stream_e2e_latency_seconds", site=site)
        assert hist.count > 0
        assert math.isfinite(hist.percentile(99))
        for hop in HOP_NAMES:
            assert obs.histogram(
                "lineage_hop_seconds", hop=hop, site=site
            ).count > 0
