"""NET — cost of a fluid-network event on the captured E12 flow trace.

Every network event (flow start, cancel, completion, capacity refresh)
goes through ``FluidNetwork._recompute`` — settle, complete, mark the
rates stale — and the sharing system is solved once per simulated
instant by ``FluidNetwork._solve`` (end-of-instant event, or a reader
forcing it). Together they are the serial hot path of the transfer
experiments, so the bench times both and reports them per event.

Methodology: the *real* E12 overload scenario (burst + blackout + crash,
``policy="block"``, seed 24012, 240 s) is run once while recording every
``start_flow``/``cancel_flow``; the captured flow trace is then replayed,
with the clock advancing from event to event and through the drain,
against a standalone environment built exactly like the scenario's.
``_recompute`` and ``_solve`` are timed from outside (re-entrant calls
from completion callbacks are attributed to the outer call) and
bucketed by the number of concurrent flows.

Asserted shape:

* bit-identical ``(transferred, completed_at, cancelled)`` per flow
  between the production network and the eager reference oracle
  (``tests/_fluid_oracle.py``) replaying the same trace;
* never more solves than recomputes (the ratio is recorded: it is what
  the one-solve-per-instant design saves on this trace).

The µs-per-event column is a measurement, not a gate: the gated numbers
are ``perfbench``'s.
"""

from __future__ import annotations

import time

import pytest

from repro.analysis.experiments import ExperimentRecord
from repro.analysis.tables import render_table
from repro.cloud.deployment import CloudEnvironment
from repro.cloud.network import Flow, FluidNetwork
from repro.config import OverloadConfig
from repro.scenarios import run_overload
from tests._fluid_oracle import EagerReferenceNetwork

SEED = 24012
DURATION = 240.0
POLICY = "block"
REPS = 10
TRIALS = 3


def capture_trace():
    """Run the real E12 scenario once, recording every flow event.

    Returns ``(trace, vm_meta)`` where ``trace`` is a list of
    ``(virtual_time, kind, flow_key, payload)`` and ``vm_meta`` maps the
    VM ids appearing on flow paths to ``(region_code, size_name)`` so the
    replay can provision an identical fleet.
    """
    trace: list[tuple[float, str, int, dict | None]] = []
    vm_meta: dict[str, tuple[str, str]] = {}
    orig_start = FluidNetwork.start_flow
    orig_cancel = FluidNetwork.cancel_flow

    def cap_start(self, flow):
        for vm in flow.path:
            vm_meta[vm.vm_id] = (vm.region_code, vm.size.name)
        trace.append(
            (
                self.sim.now,
                "start",
                id(flow),
                dict(
                    path=[vm.vm_id for vm in flow.path],
                    size=flow.size,
                    streams=flow.streams,
                    intrusiveness=flow.intrusiveness,
                    rate_cap=flow.rate_cap,
                    transport=flow.transport,
                ),
            )
        )
        return orig_start(self, flow)

    def cap_cancel(self, flow):
        if flow in self.flows:
            trace.append((self.sim.now, "cancel", id(flow), None))
        return orig_cancel(self, flow)

    FluidNetwork.start_flow = cap_start
    FluidNetwork.cancel_flow = cap_cancel
    try:
        run_overload(
            OverloadConfig(policy=POLICY, seed=SEED, duration=DURATION)
        )
    finally:
        FluidNetwork.start_flow = orig_start
        FluidNetwork.cancel_flow = orig_cancel
    assert trace, "E12 produced no flows to replay"
    return trace, vm_meta


@pytest.fixture(scope="module")
def e12_trace():
    return capture_trace()


def replay(trace, vm_meta, network_cls=FluidNetwork, *, reps=1):
    """Replay the trace ``reps`` times; time ``_recompute`` and ``_solve``.

    Returns ``(buckets, counts, outcomes)``: ``buckets`` maps the
    concurrent-flow count when a recompute began to ``[seconds,
    recomputes]`` accumulated across all reps, ``counts`` is ``(recomputes, solves)``
    of the last rep, ``outcomes`` its per-flow end state in trace order.
    """
    buckets: dict[int, list] = {}
    depth = [0]
    bucket = [None]

    def timed(orig, is_event):
        def wrapper(self):
            if depth[0]:
                return orig(self)
            depth[0] += 1
            if is_event:
                # A solve is charged to the event that made it necessary.
                bucket[0] = buckets.setdefault(
                    len(self._sorted_flows), [0.0, 0]
                )
            t0 = time.perf_counter()
            try:
                return orig(self)
            finally:
                bucket[0][0] += time.perf_counter() - t0
                bucket[0][1] += is_event
                depth[0] -= 1

        return wrapper

    recompute, solve = network_cls._recompute, network_cls._solve
    outcomes: list[tuple[float, float | None, bool]] = []
    counts = (0, 0)
    for _ in range(reps):
        # The same environment the scenario itself builds (see
        # repro.flow.scenario): deterministic weather, no glitches.
        env = CloudEnvironment(seed=SEED, variability_sigma=0.0, glitches=False)
        net = network_cls(env.sim, env.topology)
        vms = {
            vm_id: env.provision(region, size)[0]
            for vm_id, (region, size) in sorted(vm_meta.items())
        }
        live: dict[int, Flow] = {}
        order: list[int] = []
        network_cls._recompute = timed(recompute, 1)
        network_cls._solve = timed(solve, 0)
        try:
            for t, kind, key, payload in trace:
                net.sim.run_until(t)
                if kind == "start":
                    f = Flow(
                        [vms[v] for v in payload["path"]],
                        payload["size"],
                        streams=payload["streams"],
                        intrusiveness=payload["intrusiveness"],
                        rate_cap=payload["rate_cap"],
                        transport=payload["transport"],
                    )
                    net.start_flow(f)
                    live[key] = f
                    order.append(key)
                else:
                    f = live.get(key)
                    if f is not None and f in net.flows:
                        net.cancel_flow(f)
            # Drain: let surviving flows run to completion.
            net.sim.run_until(trace[-1][0] + 600.0)
        finally:
            network_cls._recompute = recompute
            network_cls._solve = solve
        counts = (net.recomputes, net.solves)
        outcomes = [
            (live[k].transferred, live[k].completed_at, live[k].cancelled)
            for k in order
        ]
    return buckets, counts, outcomes


def test_replay_bit_identical_to_oracle(e12_trace):
    """The production network and the eager oracle agree bit-for-bit."""
    trace, vm_meta = e12_trace
    _, _, ref = replay(trace, vm_meta, EagerReferenceNetwork)
    _, _, fast = replay(trace, vm_meta)
    assert fast == ref


@pytest.mark.benchmark(group="net")
def test_network_event_cost(benchmark, report, e12_trace):
    trace, vm_meta = e12_trace
    _, _, ref_out = replay(trace, vm_meta, EagerReferenceNetwork)

    def run_bench():
        best = None
        for _ in range(TRIALS):
            result = replay(trace, vm_meta, reps=REPS)
            if best is None or total(result[0]) < total(best[0]):
                best = result
        return best

    def total(buckets):
        return sum(seconds for seconds, _ in buckets.values())

    buckets, (recomputes, solves), outcomes = benchmark.pedantic(
        run_bench, rounds=1, iterations=1
    )
    events = sum(n for _, n in buckets.values())
    rows = [
        [n, events_n // REPS, f"{seconds * 1e6 / events_n:.1f}"]
        for n, (seconds, events_n) in sorted(buckets.items())
    ]
    rows.append(
        ["full trace", events // REPS, f"{total(buckets) * 1e6 / events:.1f}"]
    )
    table = render_table(
        ["concurrent flows", "recomputes", "us per event (recompute + solve)"],
        rows,
        title="NET — fluid-network event cost replaying the E12 overload "
        f"trace (policy={POLICY}, seed {SEED}, {DURATION:.0f} s, "
        f"best of {TRIALS}x{REPS} reps)",
    )

    rec = ExperimentRecord(
        "NET",
        "Fluid-network cost per event, one solve per instant (E12 trace)",
        SEED,
        parameters={
            "policy": POLICY,
            "duration": f"{DURATION:.0f} s",
            "flow events": str(len(trace)),
            "reps": f"{TRIALS}x{REPS}",
        },
    )
    rec.check(
        "per-flow outcomes bit-identical to the eager reference oracle",
        outcomes == ref_out,
        f"{len(outcomes)} flows",
    )
    rec.check(
        "never more solves than recomputes",
        solves <= recomputes,
        f"{solves} solves / {recomputes} recomputes = "
        f"{solves / recomputes:.2f} per recompute, "
        f"{total(buckets) * 1e6 / events:.1f} us per event",
    )
    report("NET", table, rec.render())
    rec.assert_shape()
