"""Tests for the shipping backends."""

import gc
import weakref

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.core.engine import SageEngine
from repro.obs.lineage import BatchTrace
from repro.simulation.units import KB, MB
from repro.streaming.dataflow import SiteSpec, StreamJob
from repro.streaming.events import Batch, Record
from repro.streaming.records import RecordBatch
from repro.streaming.runtime import GeoStreamRuntime
from repro.streaming.shipping import (
    BlobShipping,
    DirectShipping,
    ReliableShipping,
    SageShipping,
    UdpShipping,
)
from repro.streaming.sources import PoissonSource


@pytest.fixture
def engine():
    env = CloudEnvironment(seed=61, variability_sigma=0.0, glitches=False)
    eng = SageEngine(env, deployment_spec={"NEU": 3, "WEU": 3, "NUS": 3})
    eng.start(learning_phase=120.0)
    return eng


def batch(region="NEU", size=512 * KB, now=0.0):
    return Batch(
        [Record(now, "k", 1.0, origin=region, size_bytes=size)],
        region,
        created_at=now,
    )


def ship_and_wait(engine, backend, b, timeout=600.0):
    done = []
    backend.ship(b, lambda bb: done.append(engine.sim.now))
    deadline = engine.sim.now + timeout
    while not done and engine.sim.now < deadline:
        engine.run_until(min(engine.sim.now + 5, deadline))
    assert done, "batch was not delivered"
    return done[0]


def test_direct_shipping_delivers(engine):
    src = engine.deployment.vms("NEU")[0]
    dst = engine.deployment.vms("NUS")[0]
    backend = DirectShipping(engine, [src], dst, streams=2)
    ship_and_wait(engine, backend, batch())
    assert backend.batches_shipped == 1
    assert backend.bytes_shipped == 512 * KB


def test_sage_shipping_reuses_plan_until_ttl(engine):
    backend = SageShipping(engine, "NEU", "NUS", n_nodes=2, plan_ttl=300.0)
    ship_and_wait(engine, backend, batch())
    ship_and_wait(engine, backend, batch())
    assert backend.plans_built == 1  # second batch rode the cached plan
    engine.run_until(engine.sim.now + 301.0)
    ship_and_wait(engine, backend, batch())
    assert backend.plans_built == 2  # TTL expired → fresh plan


def test_sage_shipping_coordination_latency(engine):
    topology = engine.env.topology
    backend = SageShipping(engine, "NEU", "NUS", n_nodes=1)
    # Two control round-trips plus the Decision Manager's 0.1 s share.
    assert backend.coordination_latency == 2.0 * topology.rtt("NEU", "NUS") + 0.1
    t0 = engine.sim.now
    elapsed = ship_and_wait(engine, backend, batch(size=64 * KB)) - t0
    assert elapsed > backend.coordination_latency
    backend.retarget(engine.deployment.vms("WEU")[0])
    assert backend.coordination_latency == 2.0 * topology.rtt("NEU", "WEU") + 0.1
    # Into the site's own region: local handover, no WAN round-trips.
    backend.retarget(engine.deployment.vms("NEU")[0])
    assert backend.coordination_latency == 0.1


def test_sage_shipping_same_region_is_local(engine):
    backend = SageShipping(engine, "NEU", "NEU")
    t0 = engine.sim.now
    elapsed = ship_and_wait(engine, backend, batch(size=1 * MB)) - t0
    assert elapsed < 1.0  # intra-DC: NIC speed, no WAN planning


def test_blob_shipping_stages_through_store(engine):
    src = engine.deployment.vms("NEU")[0]
    dst = engine.deployment.vms("NUS")[0]
    backend = BlobShipping(engine, src, dst)
    before_puts = backend.store.puts
    ship_and_wait(engine, backend, batch(size=2 * MB))
    assert backend.store.puts == before_puts + 1
    assert backend.store.gets >= 1


def test_blob_shipping_slower_than_direct(engine):
    src = engine.deployment.vms("NEU")[0]
    dst = engine.deployment.vms("NUS")[0]
    t0 = engine.sim.now
    direct_t = ship_and_wait(
        engine, DirectShipping(engine, [src], dst, streams=2), batch(size=8 * MB)
    ) - t0
    t1 = engine.sim.now
    blob_t = ship_and_wait(
        engine, BlobShipping(engine, src, dst), batch(size=8 * MB)
    ) - t1
    assert blob_t > direct_t  # two passes + HTTP latency


def test_factories_build_from_vms(engine):
    src_vms = engine.deployment.vms("NEU")
    dst_vm = engine.deployment.vms("NUS")[0]
    for factory in (
        DirectShipping.factory(streams=2),
        SageShipping.factory(n_nodes=2),
        BlobShipping.factory(),
    ):
        backend = factory(engine, src_vms, dst_vm)
        ship_and_wait(engine, backend, batch(size=128 * KB))


@pytest.mark.parametrize(
    "factory",
    [
        DirectShipping.factory(),
        SageShipping.factory(n_nodes=2),
        UdpShipping.factory(base_loss=0.0, weather_loss=0.0),
        BlobShipping.factory(),
        ReliableShipping.factory(BlobShipping.factory()),
    ],
    ids=["direct", "sage", "udp", "blob", "reliable-blob"],
)
def test_failover_retarget_moves_every_backend(factory):
    # A promoted leader in WUS must receive the site's next batch: no
    # backend may keep shipping to the dead leader's region.
    env = CloudEnvironment(seed=61, variability_sigma=0.0, glitches=False)
    engine = SageEngine(env, deployment_spec={"NEU": 2, "NUS": 2, "WUS": 2})
    engine.start(learning_phase=60.0)
    job = StreamJob(
        name="failover",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=1.0)])],
        aggregation_region="NUS",
    )
    runtime = GeoStreamRuntime(engine, job, factory)
    runtime.retarget_aggregation("WUS")
    b = batch()
    b.trace = BatchTrace.stamp("NEU", 0, engine.sim.now)
    ship_and_wait(engine, runtime.sites["NEU"].shipping, b)
    assert [hop.link for hop in b.trace.hops] == ["NEU->WUS"]


@pytest.mark.parametrize("backend_kind", ["sage", "direct", "reliable"])
def test_delivered_batch_is_collectable(engine, backend_kind, monkeypatch):
    # Once delivered, neither the shipped payload nor the transfer session
    # that carried it may stay reachable: the transfer service keeps no
    # list of past sessions.
    if backend_kind == "direct":
        backend = DirectShipping(
            engine, engine.deployment.vms("NEU"), engine.deployment.vms("NUS")[0]
        )
    else:
        backend = SageShipping(engine, "NEU", "NUS", n_nodes=2)
        if backend_kind == "reliable":
            backend = ReliableShipping(engine, backend)
    session_refs = []
    execute = engine.transfers.execute

    def recording_execute(*args, **kwargs):
        session = execute(*args, **kwargs)
        session_refs.append(weakref.ref(session))
        return session

    monkeypatch.setattr(engine.transfers, "execute", recording_execute)
    records = [
        Record(float(i), "k", 1.0, origin="NEU", size_bytes=4 * KB)
        for i in range(64)
    ]
    shipped = Batch(RecordBatch.from_records(records), "NEU", created_at=0.0)
    batch_ref = weakref.ref(shipped)
    column_ref = weakref.ref(shipped.records.t)
    ship_and_wait(engine, backend, shipped)
    # ReliableShipping's cancelled timeout timer stays in the event heap
    # (lazy deletion) until its time passes; step over it.
    engine.run_until(engine.sim.now + 30.0)
    assert session_refs  # the batch rode at least one transfer session
    del shipped, records
    gc.collect()
    assert batch_ref() is None
    assert column_ref() is None
    assert [ref() for ref in session_refs] == [None] * len(session_refs)
