"""The system under test: the only perfbench module that imports ``repro``.

Three parts, in this order:

* the five workloads. Each is ``setup(seed) -> state``, ``run(state)`` (the
  timed region) and ``finish(state) -> outcome``; they drive the system only
  through ``repro.SageSession`` (``attach_stream``, ``engine.decisions``,
  ``env.run_until``), ``repro.run_soak``/``SoakConfig``, the ``repro.streaming``
  constructors and ``sensor_fusion_job``;
* the traced run's wrapper table (:func:`install`) and the per-layer metrics
  read from it (:func:`layer_metrics`). A boundary that no longer exists is
  listed in ``tracer.missing`` and its layer's numbers go missing; the
  end-to-end runs never touch this part;
* the isolated micro-benches (:data:`MICRO`), which call straight into each
  layer's public functions.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import platform
import random
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from repro import ControlConfig, SageSession, SoakConfig, run_soak
from repro.streaming import (
    PoissonSource,
    SiteSpec,
    StreamJob,
    TumblingWindows,
    builtin_aggregate,
)
from repro.workloads.sensors import sensor_fusion_job

MB = 1024.0**2
GB = 1024.0**3

#: The E9 deployment: three producing sites and the aggregation site.
E9_SPEC = {"NEU": 3, "WEU": 3, "EUS": 3, "NUS": 3}
E9_SITES = ("NEU", "WEU", "EUS")
#: The standard six-site deployment of the transfer experiments.
STANDARD_SPEC = {"NEU": 8, "WEU": 6, "NUS": 8, "SUS": 6, "EUS": 6, "WUS": 6}

#: Fixed simulated sizes. ISSUE 11 sized them at 4 h / 1800 s / 300 s / 3 h /
#: 50 waves (7–10 s of wall each); they are shortened in proportion so that
#: three repetitions of a workload fit one 15 s measurement and no single
#: run is shorter than 5 s of wall on the 2-core sandbox.
PARAMS: dict[str, dict[str, Any]] = {
    "stream_hot": {
        "deployment": E9_SPEC, "sites": list(E9_SITES), "sensors_per_site": 2000,
        "window_s": 30.0, "duration_s": 10800.0, "learning_s": 120.0,
    },
    "stream_keys": {
        "deployment": E9_SPEC, "sites": list(E9_SITES), "rate_per_site": 1000.0,
        "keys_per_site": 64, "window_s": 10.0, "duration_s": 1200.0,
        "checkpoint_interval_s": 15.0, "learning_s": 120.0,
    },
    "stream_raw": {
        "deployment": E9_SPEC, "sites": list(E9_SITES), "rate_per_site": 1000.0,
        "window_s": 10.0, "duration_s": 240.0, "ship_raw_records": True,
        "learning_s": 120.0,
    },
    "soak_adversarial": {
        "hours": 2.0, "profile": "adversarial", "scenario_seed": 7,
        "failovers": 3, "jitter_step_s": 2.0, "jitter_steps": 31,
    },
    "transfer_mix": {
        "deployment": STANDARD_SPEC, "waves": 26, "per_wave": 12,
        "sizes_mb": [64, 256, 1024, 4096], "budget_usd_per_gb": 0.25,
        "budget_usd_fixed": 0.05,
        "deadline_s": 600.0, "timeout_s": 86400.0,
    },
}


def versions() -> dict[str, str]:
    """What the pinned digests depend on besides the code."""
    return {"python": platform.python_version(), "numpy": np.__version__}


def config_digest(name: str) -> str:
    """sha256 of a workload's fixed parameters (canonical JSON)."""
    blob = json.dumps(PARAMS[name], sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _digest(rows) -> str:
    h = hashlib.sha256()
    for row in rows:
        h.update(repr(row).encode())
        h.update(b"\n")
    return h.hexdigest()


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=np.float64)
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "p99": float(np.percentile(arr, 99)),
    }


@dataclass(frozen=True)
class Workload:
    kind: str  # "stream" | "soak" | "transfer": which metrics apply
    setup: Callable[[int], Any]
    run: Callable[[Any], None]
    finish: Callable[[Any], dict]


# ----------------------------------------------------------------------
# stream_hot / stream_keys / stream_raw
# ----------------------------------------------------------------------
def _poisson_job(name: str, keys_per_site: int, ship_raw: bool) -> StreamJob:
    p = PARAMS[name]
    sites = []
    for region in E9_SITES:
        keys = (
            [region]
            if keys_per_site == 1
            else [f"{region}-k{i:02d}" for i in range(keys_per_site)]
        )
        sites.append(
            SiteSpec(
                region,
                [
                    PoissonSource(
                        f"s-{region}", rate=p["rate_per_site"], keys=keys,
                        record_bytes=200.0,
                    )
                ],
            )
        )
    return StreamJob(
        name=name,
        sites=sites,
        aggregation_region="NUS",
        windows=TumblingWindows(p["window_s"]),
        aggregate=builtin_aggregate("mean"),
        ship_raw_records=ship_raw,
    )


def _stream_job(name: str) -> StreamJob:
    if name == "stream_hot":
        p = PARAMS[name]
        return sensor_fusion_job(
            site_regions=list(E9_SITES),
            aggregation_region="NUS",
            sensors_per_site=p["sensors_per_site"],
            window=p["window_s"],
        )
    if name == "stream_keys":
        return _poisson_job(name, PARAMS[name]["keys_per_site"], False)
    return _poisson_job(name, 1, True)


def _stream_setup(name: str):
    p = PARAMS[name]

    def setup(seed: int):
        session = SageSession(
            dict(p["deployment"]), seed=seed, learning_phase=p["learning_s"]
        )
        # Default shipping: SageShipping over two relay nodes.
        runtime = session.attach_stream(_stream_job(name))
        if "checkpoint_interval_s" in p:
            runtime.enable_checkpointing(interval=p["checkpoint_interval_s"])
        return session, runtime

    return setup


def _stream_run(name: str):
    duration = PARAMS[name]["duration_s"]

    def run(state) -> None:
        session, runtime = state
        env = session.env
        job = runtime.job
        runtime.start()
        env.run_until(env.now + duration)
        # Quiet the sources but keep the site ticks alive: the watermark
        # passes the last window, every site window closes, the batchers
        # flush, and the loss identity can be checked over an empty pipe.
        for site in runtime.sites.values():
            site.stop_sources()
        env.run_until(env.now + job.windows.length + job.watermark_lag + 2.0)
        drain_cap = env.now + 600.0
        while runtime.in_pipe() and env.now < drain_cap:
            env.run_until(env.now + 5.0)
        runtime.stop()
        env.run_until(env.now + job.finalize_grace + 30.0)
        session.close()  # bills VM time, so the ledger is complete

    return run


def _expected_windows(name: str) -> int:
    p = PARAMS[name]
    per_key = int(p["duration_s"] / p["window_s"])
    if name == "stream_hot":
        return len(E9_SITES) * per_key
    if name == "stream_keys":
        return len(E9_SITES) * p["keys_per_site"] * per_key
    # Raw-record jobs window at the aggregation site, which advances its
    # watermark only when a batch arrives: the last window of each key
    # stays open after the sources stop. It is counted as open in the loss
    # identity below, not as a failed operation.
    return len(E9_SITES) * (per_key - 1)


def _stream_finish(name: str):
    def finish(state) -> dict:
        session, runtime = state
        results = runtime.results
        ingested = runtime.records_ingested()
        counted = runtime.records_in_results()
        sites = list(runtime.sites.values())
        agg = runtime.aggregator
        # Window state still open at quiescence, read through the public
        # snapshot calls (commits nothing new: the run is over).
        snap = agg.checkpoint()
        still_open = sum(slot[4] for slot in snap["raw"]["slots"])
        still_open += sum(row[4] for row in snap["pending"])
        for site in sites:
            still_open += sum(
                slot[4] for slot in site.snapshot()["aggregator"]["slots"]
            )
        explained = (
            sum(site.aggregator.late_dropped for site in sites)
            + agg.late_partial_records
            + runtime.records_shed()
            + runtime.records_admission_rejected()
            + still_open
        )
        lineage = runtime.lineage_stats()
        # Raw-record results are windowed at the aggregation site and have
        # no site legs by construction; they must still carry a lineage.
        lineage_key = "with_lineage" if name == "stream_raw" else "complete"
        ledger = session.engine.ledger
        cost = ledger.summary(windows=len(results), records=ingested)
        expected = _expected_windows(name)
        checks = {
            "loss_identity": counted + explained == ingested,
            "windows_expected": len(results) == expected,
            "lineage": lineage[lineage_key] == lineage["results"] > 0,
            "ledger_reconciles": bool(ledger.reconcile()),
            "pipe_drained": runtime.in_pipe() == 0,
        }
        latency = _percentiles([r.latency for r in results])
        wan = runtime.wan_bytes()
        digest = _digest(
            sorted(
                (r.window.start, r.window.end, r.key, r.value, r.record_count,
                 r.emitted_at)
                for r in results
            )
        )
        return {
            "work": ingested,
            "operations": expected,
            "checks": checks,
            "digest": digest,
            "latency": latency,
            "sim": {
                "usd_per_1k_work": cost.usd_per_1k_records,
                "wan_bytes_per_work": wan / ingested,
            },
            "facts": {
                "windows_out": len(results),
                "duplicates_dropped": agg.duplicates_dropped,
                "shed": runtime.records_shed(),
                "blocked_ticks": sum(site.blocked_ticks for site in sites),
                "backlog_peak": max(site.max_backlog for site in sites),
                "retries": sum(
                    getattr(site.shipping, "retries", 0) for site in sites
                ),
            },
            "results": results,
        }

    return finish


# ----------------------------------------------------------------------
# soak_adversarial
# ----------------------------------------------------------------------
def _soak_setup(seed: int):
    p = PARAMS["soak_adversarial"]
    # run_soak expands one seed into the whole scenario (regions, sources,
    # rates, faults): two seeds differ by 2x in records, which no bound on
    # a host metric survives. The scenario seed is therefore fixed and the
    # benchmark seed only moves the horizon by up to a minute, which
    # re-draws the traffic noise of the same scenario. Even seconds only:
    # a horizon that ends 1 s into a 30 s window (7201 s, 7231 s) loses
    # that second's records unexplained, a defect of the system and not
    # an input a benchmark may use ("no operation fails").
    jitter_s = p["jitter_step_s"] * (seed % p["jitter_steps"])
    hours = p["hours"] + jitter_s / 3600.0
    return SoakConfig(
        hours=hours, profile=p["profile"], seed=p["scenario_seed"],
        failovers=p["failovers"],
    )


def _soak_run(state) -> None:
    # run_soak builds the engine, learns the links and expands the scenario
    # itself, so for this workload those are part of run_wall_s, not of
    # setup_s.
    state["report"] = run_soak(state["config"])


def _soak_finish(state) -> dict:
    r = state["report"].details
    mttr_bound = ControlConfig().mttr_bound
    lineage = r.lineage
    checks = {
        "loss_identity": bool(r.accounted),
        "drained": bool(r.drained),
        "slo_violations_zero": r.slo_violations == 0,
        "failovers": r.failovers == PARAMS["soak_adversarial"]["failovers"],
        "mttr_within_bound": r.failover_mttr_max <= mttr_bound,
        "lineage": lineage.get("complete") == lineage.get("results") == r.results,
    }
    lat = r.latency
    return {
        "work": r.ingested,
        "operations": r.results,
        "checks": checks,
        "digest": r.digest,
        "latency": {
            "n": lat.count, "mean": lat.mean, "p50": lat.p50, "p95": lat.p95,
            "p99": lat.p99,
        },
        "sim": {
            "usd_per_1k_work": r.usd_per_1k,
            "wan_bytes_per_work": r.wan_bytes / r.ingested,
        },
        "facts": {
            "windows_out": r.results,
            "duplicates_dropped": r.duplicates_dropped,
            "shed": r.shed,
            "retries": r.retries,
            "backlog_peak": max(r.backlog_peaks.values(), default=0),
            "failovers": r.failovers,
            "mttr_max_s": r.failover_mttr_max,
            "faults_applied": r.faults_applied,
            "audit_checks": r.audit.get("checks", 0),
            "audit_violations": r.slo_violations,
        },
    }


# ----------------------------------------------------------------------
# transfer_mix
# ----------------------------------------------------------------------
def _transfer_plan(seed: int) -> list[list[tuple]]:
    """Waves of (src, dst, bytes, constraint kwargs), made from the seed.

    Stratified, so that seeds differ in arrangement and not in volume or
    contention: in every wave each size occurs three times, each constraint
    four times, and each region sends two transfers and receives two.
    """
    p = PARAMS["transfer_mix"]
    rng = random.Random(seed)
    senders = sorted(STANDARD_SPEC) * 2
    plan = []
    for _ in range(p["waves"]):
        sizes = [mb * MB for mb in p["sizes_mb"]] * 3
        kinds = ["budget", "deadline", "free"] * 4
        receivers = list(senders)
        rng.shuffle(sizes)
        rng.shuffle(kinds)
        rng.shuffle(receivers)
        while any(src == dst for src, dst in zip(senders, receivers)):
            rng.shuffle(receivers)
        wave = []
        for src, dst, size, kind in zip(senders, receivers, sizes, kinds):
            if kind == "budget":
                constraint = {
                    "budget_usd":
                        p["budget_usd_per_gb"] * size / GB + p["budget_usd_fixed"]
                }
            elif kind == "deadline":
                constraint = {"deadline_s": p["deadline_s"]}
            else:
                constraint = {}
            wave.append((src, dst, size, constraint))
        plan.append(wave)
    return plan


def _transfer_setup(seed: int):
    session = SageSession(dict(STANDARD_SPEC), seed=seed)
    return {"session": session, "plan": _transfer_plan(seed), "done": [],
            "wave_usd": []}


def _transfer_run(state) -> None:
    session = state["session"]
    env = session.env
    transfer = session.engine.decisions.transfer
    timeout = PARAMS["transfer_mix"]["timeout_s"]
    for wave in state["plan"]:
        before = session.costs()
        handles = [
            transfer(src, dst, size, **constraint)
            for src, dst, size, constraint in wave
        ]
        deadline = env.now + timeout
        while env.now < deadline and not all(h.done for h in handles):
            env.run_until(env.now + 60.0)
        state["done"].extend(handles)
        state["wave_usd"].append((session.costs() - before).egress_usd)
    session.close()


def _transfer_finish(state) -> dict:
    session = state["session"]
    handles = state["done"]
    finished = [h for h in handles if h.done]
    elapsed = [h.elapsed for h in finished]
    errors = [
        abs(h.prediction - h.elapsed) / h.elapsed
        for h in finished
        if h.prediction is not None
    ]
    spent = session.costs()
    total_bytes = sum(h.size for h in handles)
    ledger = session.engine.ledger
    attempted = sum(len(wave) for wave in state["plan"])
    checks = {
        "all_done": len(finished) == attempted == len(handles),
        "ledger_reconciles": bool(ledger.reconcile()),
        "predictions_made": len(errors) == len(finished),
    }
    digest = _digest(
        [
            (h.elapsed, h.replans, " | ".join(h.schema_history))
            for h in handles
        ]
        + [("wave_usd", usd) for usd in state["wave_usd"]]
    )
    latency = _percentiles(elapsed)
    # Egress is what a transfer is billed for; VM time is the deployment's
    # standing cost and is left out of the per-transfer figure.
    return {
        "work": len(finished),
        "operations": attempted,
        "checks": checks,
        "digest": digest,
        "latency": latency,
        "sim": {
            "usd_per_1k_work": spent.egress_usd / len(finished) * 1000.0,
            "wan_bytes_per_work": spent.egress_bytes / len(finished),
            "transfer_usd_per_gb": spent.egress_usd / (total_bytes / GB),
            "predict_err_p50": float(np.median(errors)),
        },
        "facts": {"replans": sum(h.replans for h in handles)},
    }


WORKLOADS: dict[str, Workload] = {
    **{
        name: Workload(
            "stream", _stream_setup(name), _stream_run(name), _stream_finish(name)
        )
        for name in ("stream_hot", "stream_keys", "stream_raw")
    },
    "soak_adversarial": Workload(
        "soak", lambda seed: {"config": _soak_setup(seed)}, _soak_run, _soak_finish
    ),
    "transfer_mix": Workload(
        "transfer", _transfer_setup, _transfer_run, _transfer_finish
    ),
}


# ----------------------------------------------------------------------
# Traced run: wrapper table
# ----------------------------------------------------------------------
#: Layer that owns a callback, by the module that defines it (first match).
_MODULE_LAYERS = (
    ("repro.simulation", None),  # the kernel's own re-arming callbacks
    ("repro.cloud.network", "cloud.network"),
    ("repro.monitor", "monitor"),
    ("repro.core.decision", "core.decision"),
    ("repro.core.paths", "core.paths"),
    ("repro.transfer", "transfer"),
    ("repro.streaming.sources", "streaming.sources"),
    ("repro.streaming.operators", "streaming.operators"),
    ("repro.streaming.batching", "streaming.batching"),
    ("repro.streaming.shipping", "streaming.shipping"),
    ("repro.streaming.runtime", "streaming.runtime.site"),
    ("repro.flow.checkpoint", "flow.checkpoint"),
    ("repro.flow.breaker", "streaming.shipping"),
    ("repro.flow", "flow.policy"),
    ("repro.control", "control"),
    ("repro.faults", "faults"),
    ("repro.gen", "gen"),
    ("repro.obs.audit", "obs.audit"),
    ("repro.", "other"),
)


def layer_of(module: str, qualname: str) -> str | None:
    """The layer a callback belongs to; ``None`` means give it no span."""
    if qualname.startswith("GlobalAggregator."):
        return "streaming.runtime.merge"
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return None  # the benchmark's own callbacks


class Capture:
    """Objects and peaks seen by the wrappers' hooks during a traced run."""

    def __init__(self) -> None:
        self.events_at_first_sight: dict[int, tuple[Any, int]] = {}
        self.sites: dict[int, Any] = {}
        self.recomputes_at_first_sight: dict[int, tuple[Any, int]] = {}
        self.flows_peak = 0
        self.checkpoint_bytes_last = 0
        #: Set by :func:`install` for the workload whose results are
        #: recomputed from the batches entering ``SiteRuntime.ingest``.
        self.reference: ReferenceFold | None = None
        #: Layers with a boundary the system no longer has.
        self.missing_layers: set[str] = set()

    def reset(self) -> None:
        self.events_at_first_sight.clear()
        self.recomputes_at_first_sight.clear()
        self.flows_peak = 0
        self.checkpoint_bytes_last = 0


def _resolve(module: str, path: str):
    """``(owner, attribute name, current value)`` or ``None`` if gone."""
    try:
        owner = importlib.import_module(module)
        *parents, leaf = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        return owner, leaf, owner.__dict__[leaf]
    except (ImportError, AttributeError, KeyError):
        return None


def install(tracer, reference: bool = False) -> Capture:
    """Wrap every layer boundary in a span. Call before ``setup``.

    Classes are patched in place, so instances the system builds later
    pick the wrappers up through ordinary attribute lookup. Nothing under
    ``src/`` is edited and nothing is restored: a traced run has its own
    interpreter.
    """
    cap = Capture()
    if reference:
        cap.reference = ReferenceFold()
    count = tracer.count

    def boundary(layer, module, path, **options) -> None:
        found = _resolve(module, path)
        if found is None:
            tracer.missing.append(f"{module}:{path}")
            cap.missing_layers.add(layer)
            return
        owner, leaf, fn = found
        setattr(owner, leaf, tracer.wrap(fn, f"{layer}:{path}", **options))

    # -- hooks: counts taken at the wrappers ----------------------------
    def see_simulator(args, kwargs):
        sim = args[0]
        if id(sim) not in cap.events_at_first_sight:
            cap.events_at_first_sight[id(sim)] = (sim, sim.events_processed)

    def count_ingest(args, accepted):
        site, records = args[0], args[1]
        cap.sites[id(site)] = site
        count("streaming.sources.records_out", len(records))
        if cap.reference is not None:
            cap.reference.add(records, accepted)

    def count_operator(args, out):
        count("streaming.operators.records_in", len(args[1]))
        count("streaming.operators.records_out", len(out))

    def count_groups(args, _out):
        aggregator, batch = args[0], args[1]
        length = getattr(aggregator.windows, "length", None)
        if len(batch) and length:
            slots = np.floor_divide(batch.t, length).astype(np.int64)
            slots = slots * len(batch.keys) + batch.key_idx
            count("streaming.windows.groups", len(np.unique(slots)))

    def count_partials(_args, out):
        count("streaming.windows.partials_out", len(out))

    def count_flush(_args, batch):
        if batch is not None:
            count("streaming.batching.batches_out")

    def count_ship(backend):
        def hook(args, _out):
            count(f"ship.{backend}.batches")
            count(f"ship.{backend}.bytes", args[1].size_bytes)
        return hook

    def count_save(_args, size):
        cap.checkpoint_bytes_last = size

    def see_flows(args, _out):
        network = args[0]
        if id(network) not in cap.recomputes_at_first_sight:
            # First seen after the start_flow that just recomputed once.
            cap.recomputes_at_first_sight[id(network)] = (
                network, network.recomputes - 1
            )
        cap.flows_peak = max(cap.flows_peak, len(network.flows))

    def trace_flow_completion(args, kwargs):
        flow = args[1]
        flow.on_complete = tracer.callback(flow.on_complete)

    def trace_keyword(name):
        def hook(args, kwargs):
            if kwargs.get(name) is not None:
                kwargs = dict(kwargs, **{name: tracer.callback(kwargs[name])})
                return args, kwargs
        return hook

    def trace_delivery(args, kwargs):
        if len(args) >= 3:
            return (args[0], args[1], tracer.callback(args[2]), *args[3:]), kwargs
        return trace_keyword("on_delivered")(args, kwargs)

    # -- the table ------------------------------------------------------
    eng = "repro.simulation.engine"
    boundary("simulation", eng, "Simulator.run_until", pre=see_simulator)

    rt = "repro.streaming.runtime"
    boundary("streaming.runtime.site", rt, "SiteRuntime.ingest", post=count_ingest)
    boundary("streaming.runtime.merge", rt, "GlobalAggregator.deliver")
    boundary("flow.checkpoint", rt, "GlobalAggregator.checkpoint")
    boundary("flow.checkpoint", rt, "GlobalAggregator.restore")

    ops = "repro.streaming.operators"
    for cls in ("MapOperator", "FilterOperator", "PerRecordAdapter"):
        boundary("streaming.operators", ops, f"{cls}.process_batch",
                 post=count_operator)
    boundary("streaming.windows", ops, "WindowedAggregator.process_batch",
             post=count_groups)
    boundary("streaming.windows", ops, "WindowedAggregator.process", record=False)
    boundary("streaming.windows", ops, "WindowedAggregator.advance_watermark",
             post=count_partials)

    bat = "repro.streaming.batching"
    boundary("streaming.batching", bat, "Batcher.offer", record=False)
    boundary("streaming.batching", bat, "Batcher.offer_many")
    boundary("streaming.batching", bat, "Batcher.maybe_flush", record=False)
    boundary("streaming.batching", bat, "Batcher.flush", post=count_flush)

    ship = "repro.streaming.shipping"
    for cls in ("SageShipping", "ReliableShipping", "DirectShipping"):
        boundary("streaming.shipping", ship, f"{cls}.ship",
                 pre=trace_delivery, post=count_ship(cls))

    ckpt = "repro.flow.checkpoint"
    boundary("flow.checkpoint", ckpt, "Checkpointer.run_once", durations=True)
    boundary("flow.checkpoint", ckpt, "CheckpointStore.save", post=count_save)
    boundary("flow.checkpoint", ckpt, "CheckpointStore.load")

    pol = "repro.flow.policy"
    for cls in ("OverloadPolicy", "BlockPolicy", "ShedPolicy", "DegradePolicy"):
        for method in ("admit", "drain_budget"):
            found = _resolve(pol, cls)
            if found is None:
                tracer.missing.append(f"{pol}:{cls}")
                cap.missing_layers.add("flow.policy")
            elif method in found[2].__dict__:  # only where the class overrides
                boundary("flow.policy", pol, f"{cls}.{method}")

    net = "repro.cloud.network"
    boundary("cloud.network", net, "FluidNetwork.start_flow",
             pre=trace_flow_completion, post=see_flows)
    boundary("cloud.network", net, "FluidNetwork.cancel_flow")
    boundary("cloud.network", net, "FluidNetwork.notify_change")

    mon = "repro.monitor.agent"
    boundary("monitor", mon, "MonitoringAgent.estimated_throughput")
    boundary("monitor", mon, "MonitoringAgent.node_health")
    boundary("monitor", mon, "MonitoringAgent.ingest")

    dec = "repro.core.decision"
    boundary("core.decision", dec, "DecisionManager.transfer",
             pre=trace_keyword("on_complete"))
    boundary("core.decision", dec, "DecisionManager.choose_option")
    boundary("core.decision", dec, "DecisionManager.build_plan")
    boundary("core.paths", "repro.core.paths", "MultiPathSelector.select")
    boundary("core.paths", "repro.core.paths", "widest_path")

    boundary("transfer", "repro.transfer.session", "TransferSession.start")
    boundary("transfer", "repro.transfer.session", "TransferSession.cancel")
    boundary("transfer", "repro.transfer.service", "TransferService.execute",
             pre=trace_keyword("on_complete"))

    boundary("control", "repro.control.plane", "ControlPlane.kill_leader")
    boundary("control", "repro.control.plane", "ControlPlane.apply")
    boundary("control", "repro.control.plane", "ControlPlane.summary")
    boundary("faults", "repro.faults.injector", "FaultInjector.arm")
    boundary("faults", "repro.faults.injector", "FaultInjector.report")
    boundary("gen", "repro.gen.scenario", "ScenarioGenerator.generate")
    boundary("gen", "repro.gen.scenario", "ScenarioGenerator.adversity")
    # The soak harness itself (engine build, report assembly) is the rest
    # of the gen layer; gen.expand_s counts only the two calls above.
    boundary("gen", "repro.gen.soak", "SoakRunner.run")
    boundary("obs.audit", "repro.obs.audit", "SLOAuditor.check_now")
    boundary("obs.audit", "repro.obs.audit", "SLOAuditor.finish")

    _install_scheduling(tracer)
    return cap


def _install_scheduling(tracer) -> None:
    """Give every callback handed to the event kernel its owner's span.

    The kernel's four public scheduling calls are the boundary every layer
    crosses to get its code run later, so wrapping the callbacks there
    attributes each event to the layer (module) that scheduled it, with no
    list of private callback names. The calls themselves get no span.
    """
    run = tracer.run
    span_of = tracer.callback_span
    eng = "repro.simulation.engine"

    for name in ("schedule", "schedule_at", "add_periodic"):
        found = _resolve(eng, f"Simulator.{name}")
        if found is None:
            tracer.missing.append(f"{eng}:Simulator.{name}")
            continue
        owner, leaf, original = found

        def scheduling(sim, when, callback, *args, _original=original, **kwargs):
            span = span_of(callback)
            if span is None:
                return _original(sim, when, callback, *args, **kwargs)
            return _original(
                sim, when, run, span[0], span[1], callback, *args, **kwargs
            )

        setattr(owner, leaf, scheduling)

    found = _resolve(eng, "PeriodicGroup.add")
    if found is None:
        tracer.missing.append(f"{eng}:PeriodicGroup.add")
        return
    owner, leaf, original_add = found

    def add(group, callback):
        return original_add(group, tracer.callback(callback))

    setattr(owner, leaf, add)


# ----------------------------------------------------------------------
# Traced run: reference computation
# ----------------------------------------------------------------------
class ReferenceFold:
    """Per-(window, key) count and mean recomputed with plain numpy.

    Fed every batch that enters ``SiteRuntime.ingest``; shares no code with
    the system's sort-and-fold path (one ``bincount`` per batch).
    """

    def __init__(self) -> None:
        self.length = PARAMS["stream_keys"]["window_s"]
        self.keys: dict[str, tuple] = {}
        self.counts: dict[str, np.ndarray] = {}
        self.sums: dict[str, np.ndarray] = {}
        self.partial_accepts = 0

    def add(self, batch, accepted) -> None:
        n = len(batch)
        if accepted is not None and accepted != n:
            self.partial_accepts += 1  # would need the admitted slice
            return
        if not n:
            return
        origin, keys = batch.origin, batch.keys
        if self.keys.setdefault(origin, keys) != keys:
            raise RuntimeError(f"key table of {origin} changed mid-run")
        slots = np.floor_divide(batch.t, self.length).astype(np.int64)
        slots = slots * len(keys) + batch.key_idx
        size = int(slots.max()) + 1
        counts = self.counts.get(origin)
        if counts is None or counts.size < size:
            grown = max(size, 2 * (0 if counts is None else counts.size))
            for table in (self.counts, self.sums):
                old = table.get(origin)
                table[origin] = np.zeros(grown)
                if old is not None:
                    table[origin][: old.size] = old
            counts = self.counts[origin]
        counts += np.bincount(slots, minlength=counts.size)
        self.sums[origin] += np.bincount(
            slots, weights=batch.value, minlength=counts.size
        )

    def check(self, results, explained: int) -> bool:
        """Emitted results equal the reference: counts exactly, means to
        1e-9 relative; records missing from results are the explained ones."""
        if self.partial_accepts:
            return False
        reference = {}
        for origin, counts in self.counts.items():
            keys = self.keys[origin]
            for slot in np.flatnonzero(counts):
                window, key = divmod(int(slot), len(keys))
                reference[(window * self.length, keys[key])] = (
                    int(counts[slot]),
                    self.sums[origin][slot] / counts[slot],
                )
        missing = sum(count for count, _ in reference.values())
        for r in results:
            ref = reference.get((r.window.start, r.key))
            if ref is None or r.record_count > ref[0]:
                return False
            missing -= r.record_count
            if r.record_count == ref[0] and not math.isclose(
                r.value, ref[1], rel_tol=1e-9, abs_tol=1e-12
            ):
                return False
        return missing == explained


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------
#: Layers with a row in the table; every other span's self-time is `other`.
_TABLE_LAYERS = (
    "simulation", "streaming.sources", "streaming.operators",
    "streaming.windows", "streaming.batching", "streaming.shipping",
    "streaming.runtime.site", "streaming.runtime.merge", "flow.checkpoint",
    "flow.policy", "cloud.network", "monitor", "core.decision", "core.paths",
    "transfer", "control", "faults", "gen", "obs.audit",
)


def layer_metrics(tracer, cap: Capture, outcome: dict, run_wall_s: float) -> dict:
    """Every traced per-layer metric of one run, by its BENCHMARK.json name.

    ``trace.overhead_ratio`` needs an untraced wall and is added by the
    caller. The seconds of a layer that lost a boundary are ``None``.
    """
    self_s = tracer.layer_self_seconds()
    counts = tracer.counts
    facts = outcome["facts"]

    def seconds(layer: str):
        return None if layer in cap.missing_layers else self_s.get(layer, 0.0)

    def calls(name: str) -> int:
        return tracer.stats.get(name, (0,))[0]

    events = sum(
        sim.events_processed - first
        for sim, first in cap.events_at_first_sight.values()
    )
    sim_self = self_s.get("simulation", 0.0)
    saves = tracer.durations.get("flow.checkpoint:Checkpointer.run_once", [])
    decile = max(1, len(saves) // 10)
    # ReliableShipping wraps an inner backend whose ship() runs once per
    # attempt; batches and bytes are counted at the outermost backend.
    backends = ("ReliableShipping",) if counts.get(
        "ship.ReliableShipping.batches"
    ) else ("SageShipping", "DirectShipping")
    sites = list(cap.sites.values())
    return {
        "simulation.events": events,
        "simulation.self_s": sim_self,
        "simulation.us_per_event": sim_self / events * 1e6 if events else 0.0,
        "streaming.sources.records_out":
            counts.get("streaming.sources.records_out", 0),
        "streaming.sources.self_s": seconds("streaming.sources"),
        "streaming.operators.records_in":
            counts.get("streaming.operators.records_in", 0),
        "streaming.operators.records_out":
            counts.get("streaming.operators.records_out", 0),
        "streaming.operators.self_s": seconds("streaming.operators"),
        "streaming.windows.fold_self_s": seconds("streaming.windows"),
        "streaming.windows.groups": counts.get("streaming.windows.groups", 0),
        "streaming.windows.partials_out":
            counts.get("streaming.windows.partials_out", 0),
        "streaming.batching.items_in": calls("streaming.batching:Batcher.offer"),
        "streaming.batching.batches_out":
            counts.get("streaming.batching.batches_out", 0),
        "streaming.batching.self_s": seconds("streaming.batching"),
        "streaming.shipping.batches":
            sum(counts.get(f"ship.{b}.batches", 0) for b in backends),
        "streaming.shipping.bytes":
            sum(counts.get(f"ship.{b}.bytes", 0) for b in backends),
        "streaming.shipping.retries": facts.get("retries", 0),
        "streaming.shipping.self_s": seconds("streaming.shipping"),
        "streaming.runtime.site_tick_self_s": seconds("streaming.runtime.site"),
        "streaming.runtime.backlog_peak": facts.get(
            "backlog_peak", max((s.max_backlog for s in sites), default=0)
        ),
        "streaming.runtime.merge_self_s": seconds("streaming.runtime.merge"),
        "streaming.runtime.windows_out": facts.get("windows_out", 0),
        "streaming.runtime.duplicates_dropped":
            facts.get("duplicates_dropped", 0),
        "flow.checkpoint.saves": calls("flow.checkpoint:CheckpointStore.save"),
        "flow.checkpoint.bytes_last": cap.checkpoint_bytes_last,
        "flow.checkpoint.self_s": seconds("flow.checkpoint"),
        "flow.checkpoint.self_s_first_decile":
            sum(saves[:decile]) / decile if saves else 0.0,
        "flow.checkpoint.self_s_last_decile":
            sum(saves[-decile:]) / decile if saves else 0.0,
        "flow.policy.shed": facts.get("shed", 0),
        "flow.policy.blocked_ticks": facts.get(
            "blocked_ticks", sum(s.blocked_ticks for s in sites)
        ),
        "flow.policy.self_s": seconds("flow.policy"),
        "cloud.network.recomputes": sum(
            network.recomputes - first
            for network, first in cap.recomputes_at_first_sight.values()
        ),
        "cloud.network.flows_peak": cap.flows_peak,
        "cloud.network.self_s": seconds("cloud.network"),
        "monitor.estimates":
            calls("monitor:MonitoringAgent.estimated_throughput")
            + calls("monitor:MonitoringAgent.node_health"),
        "monitor.self_s": seconds("monitor"),
        "core.decision.plans": calls("core.decision:DecisionManager.build_plan"),
        "core.decision.replans": facts.get("replans", 0),
        "core.decision.self_s": seconds("core.decision"),
        "core.paths.selects": calls("core.paths:MultiPathSelector.select"),
        "core.paths.self_s": seconds("core.paths"),
        "transfer.sessions": calls("transfer:TransferSession.start"),
        "transfer.self_s": seconds("transfer"),
        "control.failovers": facts.get("failovers", 0),
        "control.mttr_max_s": facts.get("mttr_max_s", 0.0),
        "control.self_s": seconds("control"),
        "faults.applied": facts.get("faults_applied", 0),
        "faults.self_s": seconds("faults"),
        "gen.expand_s": sum(
            stat[1] for name, stat in tracer.stats.items()
            if name.startswith("gen:ScenarioGenerator.")
        ),
        "gen.self_s": seconds("gen"),
        "obs.audit.checks": facts.get("audit_checks", 0),
        "obs.audit.violations": facts.get("audit_violations", 0),
        "obs.audit.self_s": seconds("obs.audit"),
        "other.self_s": sum(
            v for k, v in self_s.items()
            if k not in _TABLE_LAYERS and k != "trace"
        ),
        # Time in no span at all; the counting hooks' own time is in the
        # "trace" bucket and shows up in trace.overhead_ratio instead.
        "trace.unattributed_share":
            max(0.0, 1.0 - sum(self_s.values()) / run_wall_s),
        "trace.hooks_s": self_s.get("trace", 0.0),
        "trace.missing_boundaries": len(tracer.missing),
    }


# ----------------------------------------------------------------------
# Isolated micro-benches
# ----------------------------------------------------------------------
# Each factory builds its inputs once from the seed and returns ``op``;
# ``op()`` does one batch of work and returns how many units it did. The
# unit says how the harness reports it: "1/s" = units per second, "us" and
# "ms" = time per unit. They import the layers directly: a micro-bench is
# allowed to know the module it times.
def _bare_sim(seed: int):
    from repro.simulation.engine import Simulator

    return Simulator(seed)


def _micro_noop_events(seed: int):
    sim = _bare_sim(seed)
    n = 20_000

    def noop() -> None:
        pass

    def op() -> int:
        for i in range(n):
            sim.schedule(i * 1e-3, noop)
        sim.run_until(sim.now + n * 1e-3)
        return n

    return op


def _micro_group_callbacks(seed: int):
    from repro.simulation.engine import PeriodicGroup

    sim = _bare_sim(seed)
    group = PeriodicGroup(sim, 1.0)

    def noop() -> None:
        pass

    for _ in range(8):
        group.add(noop)
    ticks = 5_000

    def op() -> int:
        sim.run_until(sim.now + ticks)
        return 8 * ticks

    return op


def _micro_network_churn(standing: int):
    def factory(seed: int):
        from repro.cloud.network import Flow

        session = SageSession(dict(STANDARD_SPEC), seed=seed, learning_phase=0.0)
        session.engine.stop()  # no probes: only the churned flows recompute
        network = session.env.network
        deployment = session.engine.deployment
        regions = sorted(STANDARD_SPEC)
        rng = random.Random(seed)

        def new_flow() -> Flow:
            src, dst = rng.sample(regions, 2)
            return Flow(
                [rng.choice(deployment.vms(src)), rng.choice(deployment.vms(dst))],
                size=1e15,
            )

        live = [network.start_flow(new_flow()) for _ in range(standing)]
        churn = 200

        def op() -> int:
            for i in range(churn):
                slot = i % standing
                network.cancel_flow(live[slot])
                live[slot] = network.start_flow(new_flow())
            return 2 * churn

        return op

    return factory


def _micro_source(make_source):
    def factory(seed: int):
        sim = _bare_sim(seed)
        source = make_source()
        source.attach(sim, "NEU", lambda batch: len(batch), batch_default=True)
        source.start()
        ticks = 200

        def op() -> int:
            before = source.records_emitted
            sim.run_until(sim.now + ticks * source.tick)
            return source.records_emitted - before

        return op

    return factory


def _poisson_batch(seed: int, n: int, keys: int, t0: float = 0.0):
    from repro.streaming import RecordBatch

    rng = np.random.default_rng(seed)
    return RecordBatch(
        np.sort(rng.uniform(t0, t0 + 1.0, n)),
        rng.integers(0, keys, n),
        rng.normal(size=n),
        np.full(n, 200.0),
        tuple(f"k{i:02d}" for i in range(keys)),
        "NEU",
    )


def _micro_map_with_key(seed: int):
    from repro.streaming import MapOperator

    batch = _poisson_batch(seed, 1000, 64)
    op_ = MapOperator(lambda r: r, batch_fn=lambda b: b.with_key("NEU"))

    def op() -> int:
        for _ in range(100):
            op_.process_batch(batch)
        return 100 * len(batch)

    return op


def _micro_fold(keys: int):
    def factory(seed: int):
        from repro.streaming import RecordBatch, WindowedAggregator

        aggregator = WindowedAggregator(
            TumblingWindows(10.0), builtin_aggregate("mean")
        )
        base = _poisson_batch(seed, 1000, keys)
        state = {"t": 0.0}

        def op() -> int:
            # One site tick per call: a second of records, then the
            # watermark, so closed windows leave and state stays bounded.
            for _ in range(50):
                t = state["t"]
                aggregator.process_batch(
                    RecordBatch(base.t + t, base.key_idx, base.value, base.size,
                                base.keys, base.origin)
                )
                aggregator.advance_watermark(t - 2.0)
                state["t"] = t + 1.0
            return 50 * len(base)

        return op

    return factory


def _micro_assign_starts(seed: int):
    windows = TumblingWindows(10.0)
    times = _poisson_batch(seed, 1000, 1, t0=12345.0).t

    def op() -> int:
        for _ in range(200):
            windows.assign_starts(times)
        return 200 * len(times)

    return op


def _micro_offer_many(seed: int):
    from repro.streaming import Batcher, HybridBatchPolicy

    records = list(_poisson_batch(seed, 1000, 64).iter_records())
    batcher = Batcher(HybridBatchPolicy(256 * 1024.0, 2.0), origin="NEU")

    def op() -> int:
        batcher.offer_many(records, 0.0)
        batcher.flush(0.0)
        return len(records)

    return op


def _micro_deliver(raw: bool):
    def factory(seed: int):
        from repro.streaming import Batch, Record, Window
        from repro.streaming.runtime import GlobalAggregator
        from repro.streaming.operators import PartialAggregate

        session = SageSession(dict(E9_SPEC), seed=seed, learning_phase=0.0)
        session.engine.stop()
        job = _poisson_job("stream_keys", 64, raw)
        aggregator = GlobalAggregator(session.engine, job)
        env = session.env
        keys = [f"NEU-k{i:02d}" for i in range(64)]
        rng = np.random.default_rng(seed)
        state = {"seq": 0}

        def op() -> int:
            seq = state["seq"] = state["seq"] + 1
            start = env.now - env.now % 10.0
            if raw:
                records = [
                    Record(start + rng.uniform(0.0, 10.0), keys[i % 64],
                           float(i), "NEU")
                    for i in range(640)
                ]
            else:
                window = Window(start, start + 10.0)
                records = [
                    Record(window.end, key,
                           PartialAggregate(window, key, (150, 0.5), 150),
                           "NEU", 120.0)
                    for key in keys
                ]
            aggregator.deliver(Batch(records, "NEU", env.now, seq=seq))
            # Let the finalize timers fire: emitting is part of the merge.
            env.run_until(env.now + 10.0)
            return len(records)

        return op

    return factory


def _aggregator_with_history(seed: int, windows: int):
    """A GlobalAggregator that has emitted ``windows`` (window, key) results."""
    from repro.flow.checkpoint import CheckpointStore
    from repro.streaming.runtime import GlobalAggregator

    session = SageSession(dict(E9_SPEC), seed=seed, learning_phase=0.0)
    session.engine.stop()
    job = _poisson_job("stream_keys", 64, False)
    aggregator = GlobalAggregator(session.engine, job)
    payload = aggregator.checkpoint()
    payload["emitted"] = [
        [10.0 * (i // 64), 10.0 * (i // 64) + 10.0, f"NEU-k{i % 64:02d}"]
        for i in range(windows)
    ]
    payload["seen"] = [["NEU", i] for i in range(windows // 64)]
    aggregator.restore(payload)
    return aggregator, CheckpointStore()


def _micro_checkpoint_save(windows: int):
    def factory(seed: int):
        aggregator, store = _aggregator_with_history(seed, windows)

        def op() -> int:
            store.save("aggregator", aggregator.checkpoint())
            return 1

        return op

    return factory


def _micro_checkpoint_restore(seed: int):
    aggregator, store = _aggregator_with_history(seed, 30_000)
    store.save("aggregator", aggregator.checkpoint())

    def op() -> int:
        aggregator.restore(store.load("aggregator"))
        return 1

    return op


def _micro_paths_select(seed: int):
    session = SageSession(dict(STANDARD_SPEC), seed=seed)
    decisions = session.engine.decisions
    throughputs = decisions.link_throughputs()
    pairs = [(a, b) for a in sorted(STANDARD_SPEC) for b in sorted(STANDARD_SPEC)
             if a != b]

    def op() -> int:
        for src, dst in pairs:
            decisions.selector.select(throughputs, src, dst, node_budget=5)
        return len(pairs)

    return op


def _micro_choose_option(seed: int):
    session = SageSession(dict(STANDARD_SPEC), seed=seed)
    decisions = session.engine.decisions
    throughput = session.estimated_throughput("NEU", "NUS")
    cases = [
        {"budget_usd": 0.25 * 4 + 0.05}, {"deadline_s": 600.0}, {},
    ]

    def op() -> int:
        for _ in range(20):
            for constraint in cases:
                decisions.choose_option(4 * GB, throughput, **constraint)
        return 20 * len(cases)

    return op


def _micro_audit_check(seed: int):
    from repro.obs.audit import SLOAuditor

    session = SageSession(dict(E9_SPEC), seed=seed, learning_phase=120.0)
    runtime = session.attach_stream(_poisson_job("stream_keys", 64, False))
    runtime.start()
    session.env.run_until(session.env.now + 120.0)
    auditor = SLOAuditor(session.engine, runtime, continuous_loss=True)

    def op() -> int:
        for _ in range(50):
            auditor.check_now()
        return 50

    return op


def _micro_admission(seed: int):
    from repro.control.admission import AdmissionGate

    gate = AdmissionGate(rate=1000.0)
    state = {"now": 0.0}

    def op() -> int:
        now = state["now"]
        for _ in range(10_000):
            now += 0.01
            gate.admit(10, now)
        state["now"] = now
        return 10_000

    return op


def _schedule_source():
    from repro.streaming.sources import ScheduleSource

    # A soak-like program: a few records per tick, rate moving slowly.
    return ScheduleSource(
        "sched", rate_fn=lambda t: 5.0 + 2.0 * math.sin(t / 600.0),
        keys=[f"k{i}" for i in range(8)],
    )


def _sensor_source():
    from repro.streaming import SensorGridSource

    return SensorGridSource("grid", n_sensors=2000, report_interval=10.0)


#: name -> (unit, factory(seed) -> op)
MICRO: dict[str, tuple[str, Callable[[int], Callable[[], int]]]] = {
    "micro.simulation.noop_events_per_s": ("1/s", _micro_noop_events),
    "micro.simulation.group8_callbacks_per_s": ("1/s", _micro_group_callbacks),
    "micro.cloud.network.churn_us_per_event_4flows":
        ("us", _micro_network_churn(4)),
    "micro.cloud.network.churn_us_per_event_32flows":
        ("us", _micro_network_churn(32)),
    "micro.streaming.sources.poisson_records_per_s": ("1/s", _micro_source(
        lambda: PoissonSource("p", rate=1000.0,
                              keys=[f"k{i:02d}" for i in range(64)]))),
    "micro.streaming.sources.sensorgrid_records_per_s":
        ("1/s", _micro_source(_sensor_source)),
    "micro.streaming.sources.schedule_records_per_s":
        ("1/s", _micro_source(_schedule_source)),
    "micro.streaming.operators.map_with_key_records_per_s":
        ("1/s", _micro_map_with_key),
    "micro.streaming.windows.fold_1key_records_per_s": ("1/s", _micro_fold(1)),
    "micro.streaming.windows.fold_64key_records_per_s": ("1/s", _micro_fold(64)),
    "micro.streaming.windows.assign_starts_records_per_s":
        ("1/s", _micro_assign_starts),
    "micro.streaming.batching.offer_many_items_per_s": ("1/s", _micro_offer_many),
    "micro.streaming.runtime.deliver_partials_per_s":
        ("1/s", _micro_deliver(raw=False)),
    "micro.streaming.runtime.deliver_raw_records_per_s":
        ("1/s", _micro_deliver(raw=True)),
    "micro.flow.checkpoint.save_ms_1k_windows":
        ("ms", _micro_checkpoint_save(1_000)),
    "micro.flow.checkpoint.save_ms_30k_windows":
        ("ms", _micro_checkpoint_save(30_000)),
    "micro.flow.checkpoint.restore_ms_30k_windows":
        ("ms", _micro_checkpoint_restore),
    "micro.core.paths.select_us": ("us", _micro_paths_select),
    "micro.core.decision.choose_option_us": ("us", _micro_choose_option),
    "micro.obs.audit.check_now_us": ("us", _micro_audit_check),
    "micro.control.admission.admit_us": ("us", _micro_admission),
}
