"""The Decision Manager: plan, execute, observe, re-plan.

One manager coordinates each transfer (the architecture replicates it on
every node for availability; a single instance handles a given transfer).
Its control loop:

1. **Plan** — read the link performance map, pick the node count through
   the trade-off engine (budget / deadline / knee), choose datacenter
   paths with the multi-path selector, and materialise healthy VMs from
   the deployment into a weighted :class:`~repro.transfer.plan.TransferPlan`.
2. **Execute** — hand the plan to the transfer service.
3. **Observe** — every ``replan_interval`` compare achieved aggregate
   throughput against the model's prediction and re-read node health.
4. **Re-plan** — when a participating node degrades or the plan
   underperforms persistently, cancel what remains and re-plan *only the
   remaining bytes* with fresh estimates, avoiding the degraded nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from repro.cloud.deployment import CloudEnvironment
from repro.cloud.vm import VM
from repro.config import ConfigBase
from repro.core.cost import CostModel
from repro.core.paths import MultiPathSelector, TransferSchema
from repro.core.time_model import TransferTimeModel
from repro.core.tradeoff import TradeoffAnalyzer, TransferOption
from repro.monitor.agent import MonitoringAgent
from repro.obs import NULL_OBSERVER
from repro.transfer.plan import RouteAssignment, TransferPlan
from repro.transfer.service import TransferService
from repro.transfer.session import TransferSession

#: Expected delivered fraction of a relay route's width per extra WAN hop
#: (store-and-forward overhead × the Jensen gap of min(two weathers)).
_RELAY_DELIVERY_DISCOUNT = 0.8


@dataclass
class DecisionConfig(ConfigBase):
    """Tunables of the decision loop."""

    #: Seconds between observe/re-plan checks of an active transfer.
    replan_interval: float = 30.0
    #: Initial parallel-node efficiency (recalibrated online).
    gain: float = 0.65
    #: Hard ceiling on nodes per transfer.
    max_nodes: int = 32
    #: Default VM resource share a transfer may consume.
    intrusiveness: float = 1.0
    #: Parallel TCP streams per route.
    streams: int = 4
    #: Use intermediate-datacenter paths when beneficial.
    allow_multi_dc: bool = True
    #: Longest datacenter chain considered (source→…→destination).
    max_hops: int = 3
    #: Re-plan when measured node health drops below this.
    health_threshold: float = 0.7
    #: Re-plan when achieved/predicted throughput stays below this. Kept
    #: comfortably below 1: the gain parameter starts optimistic and is
    #: only calibrated after a few transfers, and WAN saturation is not a
    #: plan failure — re-planning should fire on genuine degradation.
    performance_threshold: float = 0.45
    #: Ignore performance checks during the first seconds of a session.
    warmup: float = 10.0
    #: Cap on consecutive re-plans per transfer (stability guard).
    max_replans: int = 8


class ManagedTransfer:
    """Handle for a decision-managed wide-area transfer."""

    _ids = itertools.count(1)

    def __init__(
        self,
        src_region: str,
        dst_region: str,
        size: float,
        on_complete: Callable[["ManagedTransfer"], None] | None = None,
    ) -> None:
        self.transfer_id = next(self._ids)
        self.src_region = src_region
        self.dst_region = dst_region
        self.size = size
        self.on_complete = on_complete
        self.sessions: list[TransferSession] = []
        self.replans = 0
        #: How the node count was chosen: ``"fixed-nodes"``, ``"budget"``,
        #: ``"deadline"`` or ``"knee"`` (set by the DM).
        self.strategy: str | None = None
        self.started_at: float | None = None
        self.completed_at: float | None = None
        self.bytes_confirmed = 0.0
        self.schema_history: list[str] = []
        #: Model-predicted completion time at launch (None if unmonitored).
        self.prediction: float | None = None

    @property
    def done(self) -> bool:
        return self.completed_at is not None

    @property
    def current_session(self) -> TransferSession | None:
        return self.sessions[-1] if self.sessions else None

    @property
    def elapsed(self) -> float | None:
        if self.started_at is None or self.completed_at is None:
            return None
        return self.completed_at - self.started_at

    def mean_throughput(self) -> float:
        el = self.elapsed
        return self.size / el if el else 0.0


@dataclass
class _ActiveRun:
    """One live (session, parameters) pair of a managed transfer —
    what a replan (periodic or detector-driven) needs to relaunch."""

    mt: ManagedTransfer
    session: TransferSession
    n_nodes: int
    intrusiveness: float | None
    adaptive: bool
    multi_dc: bool | None

    def finished(self) -> bool:
        return self.session.done or self.session.cancelled or self.mt.done


class DecisionManager:
    """The DM of the three-agent architecture."""

    def __init__(
        self,
        env: CloudEnvironment,
        monitor: MonitoringAgent,
        transfers: TransferService,
        config: DecisionConfig | None = None,
        observer=None,
    ) -> None:
        self.env = env
        self.monitor = monitor
        self.transfers = transfers
        self.config = config or DecisionConfig()
        self.observer = observer if observer is not None else NULL_OBSERVER
        obs = self.observer
        self._m_plans = obs.counter("decision_plans_total")
        self._m_replans = obs.counter("decision_replans_total")
        self._m_transfers = obs.counter("decision_transfers_total")
        #: Paired per-transfer samples: model prediction vs delivery.
        self._m_predicted = obs.histogram("decision_predicted_seconds")
        self._m_achieved = obs.histogram("decision_achieved_seconds")
        self._m_accuracy = obs.histogram("decision_achieved_over_predicted")
        self.time_model = TransferTimeModel(gain=self.config.gain)
        self.cost_model = CostModel(env.meter.prices)
        self.tradeoff = TradeoffAnalyzer(
            self.time_model, self.cost_model, max_nodes=self.config.max_nodes
        )
        self.selector = MultiPathSelector(
            gain=self.config.gain, max_hops=self.config.max_hops
        )
        self._busy_vms: set[str] = set()
        self._gain_observations: list[tuple[int, float]] = []
        #: Heartbeat failure detector (attached by the engine); suspected
        #: VMs are excluded from plans and trigger immediate re-planning.
        self.detector = None
        self._runs: list[_ActiveRun] = []

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def attach_detector(self, detector) -> None:
        """Wire a failure detector: suspected VMs force immediate replans."""
        self.detector = detector
        detector.on_suspect(self._on_vm_suspected)

    def _suspected_ids(self) -> set[str]:
        return set(self.detector.suspected) if self.detector is not None else set()

    def _on_vm_suspected(self, vm: VM) -> None:
        """A VM was declared dead: replan every transfer riding on it.

        Unlike the periodic health check, this fires the moment the
        detector's timeout expires, so in-flight sessions do not sit
        stalled until the next ``replan_interval`` boundary. Cancelling
        the session returns the unacknowledged bytes, which the relaunch
        re-sends over a plan that excludes every suspected VM.
        """
        for run in list(self._runs):
            if run.finished():
                continue
            on_plan = any(
                v.vm_id == vm.vm_id
                for route in run.session.plan.routes
                for v in route.path
            )
            if on_plan and run.mt.replans < self.config.max_replans:
                self._replan(run, self._suspected_ids(), reason="crash")

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def link_throughputs(self) -> dict[tuple[str, str], float]:
        """Current known link means as a fresh dict for the path solver."""
        return self.monitor.link_map.means()

    def choose_option(
        self,
        size: float,
        throughput: float,
        budget_usd: float | None = None,
        deadline_s: float | None = None,
        intrusiveness: float | None = None,
        wan_hops: int = 1,
    ) -> TransferOption:
        """Pick the node count honouring the user's constraint.

        With both budget and deadline, the budget is the hard constraint
        and the deadline is best-effort within it. With neither, the knee
        of the trade-off curve is used.
        """
        intr = intrusiveness if intrusiveness is not None else self.config.intrusiveness
        if budget_usd is not None:
            opt = self.tradeoff.nodes_within_budget(
                size, throughput, budget_usd, intr, wan_hops
            )
            if opt is None:
                raise ValueError(
                    f"budget ${budget_usd:.4f} cannot cover this transfer "
                    f"(cheapest option costs "
                    f"${self.tradeoff.options(size, throughput, intr, wan_hops)[0].usd:.4f})"
                )
            return opt
        if deadline_s is not None:
            opt = self.tradeoff.cheapest_within_deadline(
                size, throughput, deadline_s, intr, wan_hops
            )
            if opt is not None:
                return opt
            # Unreachable deadline: do the best we can (max nodes).
            return self.tradeoff.options(size, throughput, intr, wan_hops)[-1]
        return self.tradeoff.knee(
            self.tradeoff.options(size, throughput, intr, wan_hops)
        )

    def _healthy_vms(self, region: str, exclude: set[str]) -> list[VM]:
        cfg = self.config
        suspected = self._suspected_ids()
        vms = [
            vm
            for vm in self.env.deployment.vms(region)
            if vm.vm_id not in exclude
            and vm.vm_id not in self._busy_vms
            and vm.vm_id not in suspected
            and self.monitor.node_health(vm) >= cfg.health_threshold
        ]
        return vms

    def build_plan(
        self,
        src_region: str,
        dst_region: str,
        n_nodes: int,
        intrusiveness: float | None = None,
        exclude_vms: set[str] | None = None,
        label: str = "sage",
        allow_multi_dc: bool | None = None,
    ) -> TransferPlan:
        """Materialise a schema into VM routes.

        Node budget semantics follow the path selector: one VM per region
        of each route instance. Healthy VMs are drawn round-robin from the
        deployment pools; the source region must have at least one VM.
        """
        self._m_plans.inc()
        cfg = self.config
        intr = intrusiveness if intrusiveness is not None else cfg.intrusiveness
        exclude = set(exclude_vms or ())
        multi_dc = cfg.allow_multi_dc if allow_multi_dc is None else allow_multi_dc
        thr_map = self.link_throughputs()
        if multi_dc and thr_map:
            schema = self.selector.select(
                thr_map,
                src_region,
                dst_region,
                node_budget=max(n_nodes, 1),
                capacities=self.monitor.capacity_estimates,
            )
        else:
            schema = TransferSchema([])
        routes: list[RouteAssignment] = []
        if schema.allocations:
            routes = self._materialise(schema, intr, exclude)
        if not routes:
            # Degenerate fallback: direct path, parallel over helpers.
            routes = self._direct_routes(
                src_region, dst_region, n_nodes, intr, exclude
            )
        if not routes:
            raise RuntimeError(
                f"no usable VMs to transfer {src_region}->{dst_region}"
            )
        return TransferPlan(routes, label=label)

    def _region_pool(self, region: str, exclude: set[str]) -> list[VM]:
        """Usable VMs of a region, degrading gracefully under pressure:
        healthy-and-free first, then any live non-excluded VM (degraded
        or reserved beats nothing), then — every VM of the region down —
        anything not excluded (the plan will stall until a restart; the
        stall detector and detector-driven replans recover it)."""
        pool = self._healthy_vms(region, exclude)
        if not pool:
            pool = [
                vm
                for vm in self.env.deployment.vms(region)
                if vm.vm_id not in exclude and vm.alive
            ]
        if not pool:
            pool = [
                vm
                for vm in self.env.deployment.vms(region)
                if vm.vm_id not in exclude
            ]
        return pool

    def _pool_cycler(self, region: str, exclude: set[str]):
        pool = self._region_pool(region, exclude)
        return itertools.cycle(pool) if pool else None

    def _materialise(
        self,
        schema: TransferSchema,
        intrusiveness: float,
        exclude: set[str],
    ) -> list[RouteAssignment]:
        cfg = self.config
        cyclers: dict[str, object] = {}
        routes: list[RouteAssignment] = []
        for alloc in schema:
            for region in alloc.path:
                if region not in cyclers:
                    cyclers[region] = self._pool_cycler(region, exclude)
            if any(cyclers[r] is None for r in alloc.path):
                continue  # a region of this path has no usable VMs
            # Every instance of an allocation is one parallel route whose
            # achievable rate is roughly the path's bottleneck width, so
            # byte shares are weighted by width per *instance*. Relay
            # routes deliver below their width — per-hop forwarding
            # overhead plus the chance that *either* hop hits bad weather
            # — and overweighting them turns them into stragglers, so each
            # extra WAN hop discounts the weight.
            wan_hops = sum(
                1
                for a, b in zip(alloc.path[:-1], alloc.path[1:])
                if a != b
            )
            discount = _RELAY_DELIVERY_DISCOUNT ** max(0, wan_hops - 1)
            weight = max(alloc.base_throughput * discount, 1.0)
            for _ in range(alloc.instances):
                path_vms = [next(cyclers[r]) for r in alloc.path]
                routes.append(
                    RouteAssignment(
                        path_vms,
                        weight=weight,
                        streams=cfg.streams,
                        intrusiveness=intrusiveness,
                    )
                )
        return routes

    def _direct_routes(
        self,
        src_region: str,
        dst_region: str,
        n_nodes: int,
        intrusiveness: float,
        exclude: set[str],
    ) -> list[RouteAssignment]:
        cfg = self.config
        senders = self._region_pool(src_region, exclude)
        receivers = self._region_pool(dst_region, exclude)
        if not senders or not receivers:
            return []
        n = max(1, min(n_nodes, len(senders)))
        rcv = itertools.cycle(receivers)
        return [
            RouteAssignment(
                [sender, next(rcv)],
                weight=1.0,
                streams=cfg.streams,
                intrusiveness=intrusiveness,
            )
            for sender in senders[:n]
        ]

    # ------------------------------------------------------------------
    # Managed execution
    # ------------------------------------------------------------------
    def transfer(
        self,
        src_region: str,
        dst_region: str,
        size: float,
        budget_usd: float | None = None,
        deadline_s: float | None = None,
        n_nodes: int | None = None,
        intrusiveness: float | None = None,
        on_complete: Callable[[ManagedTransfer], None] | None = None,
        adaptive: bool = True,
    ) -> ManagedTransfer:
        """Start a managed wide-area transfer. Returns immediately; the
        handle completes in simulated time."""
        if size <= 0:
            raise ValueError("size must be positive")
        mt = ManagedTransfer(src_region, dst_region, size, on_complete)
        mt.started_at = self.env.sim.now
        mt.strategy = (
            "fixed-nodes" if n_nodes is not None
            else "budget" if budget_usd is not None
            else "deadline" if deadline_s is not None
            else "knee"
        )
        obs = self.observer
        self._m_transfers.inc()
        if obs.enabled:
            obs.counter("decision_strategy_total", strategy=mt.strategy).inc()
        thr = self.monitor.estimated_throughput(src_region, dst_region)
        if thr != thr or thr <= 0:
            # Unmonitored link: plan conservatively with one node.
            chosen_nodes = n_nodes or 1
            predicted = None
        else:
            if n_nodes is None:
                option = self.choose_option(
                    size, thr, budget_usd, deadline_s, intrusiveness
                )
                chosen_nodes = option.n_nodes
                predicted = option.predicted_time
                if budget_usd is not None:
                    chosen_nodes = self._fit_budget(
                        mt, size, thr, chosen_nodes, budget_usd, intrusiveness
                    )
                    predicted = self.time_model.estimate(size, thr, chosen_nodes)
            else:
                chosen_nodes = n_nodes
                predicted = self.time_model.estimate(size, thr, chosen_nodes)
        mt.prediction = predicted
        # Deadline guarantees are only offered on the direct schema: the
        # completion-time model predicts n parallel direct routes, so the
        # plan must match it. Budget and unconstrained transfers use the
        # full multi-datacenter schema.
        multi_dc = False if deadline_s is not None else None
        self._launch(
            mt, size, chosen_nodes, intrusiveness, set(), adaptive, multi_dc
        )
        return mt

    def _fit_budget(
        self,
        mt: ManagedTransfer,
        size: float,
        thr: float,
        n_nodes: int,
        budget_usd: float,
        intrusiveness: float | None,
    ) -> int:
        """Shrink the node count until the *materialised* plan fits.

        The option curve assumes a single datacenter boundary, but the
        multi-path selector may route part of the payload through relay
        datacenters, and every extra boundary bills egress again. The fix
        is a feasibility loop over real plans, not a fudge factor: build
        the plan, price its weighted hop count, and drop nodes until the
        budget holds.
        """
        intr = intrusiveness if intrusiveness is not None else self.config.intrusiveness
        best_n = 1
        best_throughput = -1.0
        for n in range(n_nodes, 0, -1):
            plan = self.build_plan(
                mt.src_region, mt.dst_region, n,
                intrusiveness=intrusiveness, label="budget-probe",
            )
            total_w = sum(r.weight for r in plan.routes)
            hops = (
                sum(r.weight * r.wan_hop_count() for r in plan.routes) / total_w
            )
            predicted = self.time_model.estimate(size, thr, n)
            cost = self.cost_model.estimate(
                size, predicted, n, intrusiveness=intr, wan_hops=max(1.0, hops)
            )
            if cost.total_usd > budget_usd:
                continue
            # Among affordable plans, prefer the highest *materialised*
            # throughput (sum of route widths), not the largest n — a
            # relay-heavy plan can be both costlier and slower than a
            # smaller all-direct one.
            if total_w > best_throughput:
                best_throughput = total_w
                best_n = n
        return best_n

    def _launch(
        self,
        mt: ManagedTransfer,
        remaining: float,
        n_nodes: int,
        intrusiveness: float | None,
        exclude: set[str],
        adaptive: bool,
        multi_dc: bool | None = None,
    ) -> None:
        plan = self.build_plan(
            mt.src_region,
            mt.dst_region,
            n_nodes,
            intrusiveness=intrusiveness,
            exclude_vms=exclude,
            label=f"managed:{mt.transfer_id}",
            allow_multi_dc=multi_dc,
        )
        mt.schema_history.append(plan.describe())
        self.reserve_plan(plan)

        def _done(session: TransferSession) -> None:
            self.release_plan(plan)
            mt.bytes_confirmed += session.size
            if mt.bytes_confirmed >= mt.size * 0.999:
                mt.completed_at = self.env.sim.now
                self._observe_gain(mt, n_nodes)
                self._observe_outcome(mt)
                if mt.on_complete is not None:
                    mt.on_complete(mt)

        session = self.transfers.execute(plan, remaining, on_complete=_done)
        mt.sessions.append(session)
        run = _ActiveRun(mt, session, n_nodes, intrusiveness, adaptive, multi_dc)
        self._runs.append(run)
        if adaptive:
            self.env.sim.schedule(
                self.config.replan_interval, self._check, run
            )

    # ------------------------------------------------------------------
    # Plan VM reservation (shared with the streaming shipping layer)
    # ------------------------------------------------------------------
    def reserve_plan(self, plan: TransferPlan) -> TransferPlan:
        """Mark a plan's VMs busy so concurrent plans route around them."""
        for route in plan.routes:
            for vm in route.path:
                self._busy_vms.add(vm.vm_id)
        return plan

    def release_plan(self, plan: TransferPlan | None) -> None:
        """Release a plan's VM reservations (safe on None / double call)."""
        if plan is None:
            return
        for route in plan.routes:
            for vm in route.path:
                self._busy_vms.discard(vm.vm_id)

    def _prune_runs(self) -> None:
        self._runs = [r for r in self._runs if not r.finished()]

    def _replan(self, run: _ActiveRun, exclude: set[str], reason: str) -> None:
        """Cancel the run's session and relaunch the remaining bytes on a
        fresh plan that avoids ``exclude`` — the shared recovery step of
        the periodic check and the detector's crash notifications."""
        mt = run.mt
        remaining = run.session.cancel()
        self.release_plan(run.session.plan)
        self._prune_runs()
        mt.replans += 1
        self._m_replans.inc()
        if self.observer.enabled:
            now = self.env.sim.now
            self.observer.record_span(
                "recovery.replan" if reason == "crash" else "decision.replan",
                now,
                now,
                transfer=mt.transfer_id,
                reason=reason,
                remaining_bytes=remaining,
            )
        mt.bytes_confirmed += max(0.0, run.session.size - remaining)
        if remaining <= 0:
            return
        self._launch(
            mt, remaining, run.n_nodes, run.intrusiveness, set(exclude),
            run.adaptive, run.multi_dc,
        )

    def _check(self, run: _ActiveRun) -> None:
        """Periodic observe/re-plan step for one active session."""
        mt, session = run.mt, run.session
        if run.finished():
            self._prune_runs()
            return
        cfg = self.config
        if session.elapsed < cfg.warmup or mt.replans >= cfg.max_replans:
            self.env.sim.schedule(cfg.replan_interval, self._check, run)
            return
        # Health check over participating VMs.
        suspected = self._suspected_ids()
        unhealthy = {
            vm.vm_id
            for route in session.plan.routes
            for vm in route.path
            if vm.vm_id in suspected
            or self.monitor.node_health(vm) < cfg.health_threshold
        }
        # Performance check against the model.
        thr_est = self.monitor.estimated_throughput(mt.src_region, mt.dst_region)
        underperforming = False
        if thr_est == thr_est and thr_est > 0:
            predicted_rate = self.time_model.effective_throughput(
                thr_est, run.n_nodes
            )
            achieved = session.mean_throughput()
            underperforming = achieved < cfg.performance_threshold * predicted_rate
        if unhealthy or underperforming:
            self._replan(
                run,
                unhealthy | suspected,
                reason="health" if unhealthy else "performance",
            )
        else:
            self.env.sim.schedule(cfg.replan_interval, self._check, run)

    def _observe_outcome(self, mt: ManagedTransfer) -> None:
        """Record predicted-vs-achieved pairs and the transfer's span."""
        elapsed = mt.elapsed
        if elapsed and mt.prediction is not None:
            self._m_predicted.observe(mt.prediction)
            self._m_achieved.observe(elapsed)
            if mt.prediction > 0:
                self._m_accuracy.observe(elapsed / mt.prediction)
        if self.observer.enabled:
            self.observer.record_span(
                "transfer.managed", mt.started_at, mt.completed_at,
                transfer=mt.transfer_id, src=mt.src_region,
                dst=mt.dst_region, bytes=mt.size, strategy=mt.strategy,
                replans=mt.replans, predicted_seconds=mt.prediction,
                achieved_seconds=elapsed,
            )

    # ------------------------------------------------------------------
    # Calibration feedback
    # ------------------------------------------------------------------
    def _observe_gain(self, mt: ManagedTransfer, n_nodes: int) -> None:
        if n_nodes < 2 or not mt.elapsed:
            return
        achieved = mt.size / mt.elapsed
        self._gain_observations.append((n_nodes, achieved))
        base = self.monitor.estimated_throughput(mt.src_region, mt.dst_region)
        if base == base and base > 0 and len(self._gain_observations) >= 3:
            self.time_model.calibrate(self._gain_observations[-50:], base)
            self.selector.gain = self.time_model.gain
