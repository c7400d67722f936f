"""The resident control plane: failover, reconfiguration, admission.

:class:`ControlPlane` turns a batch-oriented streaming session into a
long-lived service. It owns three concerns:

**Leader lease + standby promotion.** The global aggregator holds a
renewable :class:`~repro.control.lease.LeaderLease`; warm standbys in
other regions follow the leader via checkpoint shipping (every durable
:class:`~repro.flow.checkpoint.CheckpointStore` save fans out to the
standbys after a propagation delay). When the leader dies — a
``leader.kill`` adversity, or any crash that stops renewals — the lease
expires, the watcher promotes the highest-priority live standby, sites
re-target shipping to the new region, and the new aggregator restores
from the durable checkpoint and replays retained batches. The durable
store is the *source of truth* at promotion; standby sync state only
decides whether the promotion is warm (checkpoint already local) or
cold (pay ``cold_fetch_delay`` to pull it). That is what preserves
exactly-once across an epoch change: a stale standby never aggregates
from its stale snapshot.

**Live reconfiguration.** :meth:`apply` swaps the backlog bound and the
latency SLO on the running session without restart. Each apply bumps an
epoch-stamped config version that the aggregator stamps into every
subsequent :class:`~repro.streaming.runtime.WindowResult`, so lineage and
flight records attribute every window to the exact configuration that
produced it.

**Admission control.** When armed with an admission rate, every site
gets a token-bucket :class:`~repro.control.admission.AdmissionGate`
tied to the credit/backpressure layer — ingress shedding engages before
the pipeline sheds internally, and rejections are folded into the loss
identity.

MTTR accounting: every completed failover is recorded with its
measured time-to-recovery, which the SLO auditor checks against
``ControlConfig.mttr_bound`` (lease TTL + watch interval + promotion
delay + cold-fetch delay). The auditor also checks the split-brain
invariant — never two live replicas in the leader role at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.config import ControlConfig
from repro.control.admission import AdmissionGate
from repro.control.lease import LeaderLease
from repro.flow.policy import make_policy


#: Knobs :meth:`ControlPlane.apply` accepts (anything else is an error).
APPLY_KEYS = frozenset({"max_backlog", "slo_max_latency_s"})


@dataclass
class Replica:
    """One aggregator candidate the plane tracks."""

    name: str
    region: str
    vm: object
    priority: int
    #: ``"leader"`` | ``"standby"`` | ``"dead"``
    role: str = "standby"
    #: Highest durable checkpoint sequence this replica holds locally.
    synced_seq: int = 0
    synced_at: float = float("-inf")


@dataclass(frozen=True)
class FailoverEvent:
    """One completed leader failover (the MTTR record)."""

    epoch: int
    old_leader: str
    new_leader: str
    t_down: float
    t_promoted: float
    warm: bool

    @property
    def mttr(self) -> float:
        return self.t_promoted - self.t_down

    def to_dict(self) -> dict:
        return {
            "epoch": self.epoch,
            "old_leader": self.old_leader,
            "new_leader": self.new_leader,
            "t_down": self.t_down,
            "t_promoted": self.t_promoted,
            "mttr": self.mttr,
            "warm": self.warm,
        }


class ControlPlane:
    """Virtual-time control plane over a running GeoStreamRuntime."""

    def __init__(
        self,
        engine,
        runtime,
        config: ControlConfig | None = None,
        auditor=None,
    ) -> None:
        if runtime.checkpoint_store is None:
            raise ValueError(
                "control plane requires checkpointing: call "
                "runtime.enable_checkpointing() before building the plane"
            )
        self.engine = engine
        self.runtime = runtime
        self.config = config if config is not None else ControlConfig()
        self.auditor = auditor
        self.lease = LeaderLease(engine.sim, self.config.lease_ttl)
        self.replicas: dict[str, Replica] = {}
        #: The replica whose lease the renew loop maintains.
        self._lease_owner: Replica | None = None
        self._promoting = False
        self._down_since: float | None = None
        self._started = False
        self._tasks: list = []
        self.kills = 0
        self.respawns = 0
        self.standby_syncs = 0
        self.failovers: list[FailoverEvent] = []
        self.config_version = 0
        #: ``{"t", "version", "changes"}`` per :meth:`apply`, in order.
        self.config_log: list[dict] = []
        obs = engine.observer
        self._obs_on = obs.enabled
        self._m_failovers = obs.counter("control_failovers_total")
        self._m_syncs = obs.counter("control_standby_syncs_total")
        self._m_applies = obs.counter("control_config_applies_total")
        self._m_epoch = obs.gauge("control_epoch")
        self._m_mttr = obs.histogram("control_failover_mttr_seconds")

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def add_leader(self) -> Replica:
        """Register the runtime's current aggregator as the initial leader."""
        region = self.runtime.aggregation_region
        replica = Replica(
            name=f"agg@{region}",
            region=region,
            vm=self.runtime.agg_vm,
            priority=0,
            role="leader",
        )
        self.replicas[replica.name] = replica
        self._lease_owner = replica
        return replica

    def add_standby(self, region: str, priority: int | None = None) -> Replica:
        """Provision a warm standby in ``region``.

        The standby occupies the *last* VM of the region so that, in
        regions that also run a site pipeline, the standby does not
        contend with the first (site-facing) VMs.
        """
        vms = self.engine.deployment.vms(region)
        if not vms:
            raise ValueError(f"no VMs in standby region {region}")
        if priority is None:
            standbys = sum(1 for r in self.replicas.values()
                           if r.role != "leader")
            priority = standbys + 1
        replica = Replica(
            name=f"standby@{region}",
            region=region,
            vm=vms[-1],
            priority=priority,
        )
        self.replicas[replica.name] = replica
        return replica

    # ------------------------------------------------------------------
    def start(self) -> "ControlPlane":
        """Acquire the initial lease and arm the renew/watch loops."""
        if self._started:
            raise RuntimeError("control plane already started")
        if self._lease_owner is None:
            self.add_leader()
        self._started = True
        epoch = self.lease.try_acquire(self._lease_owner.name)
        self.runtime.aggregator.epoch = epoch
        if self._obs_on:
            self._m_epoch.set(epoch)
        self.engine.on_fault(self._on_fault)
        self.runtime.checkpoint_store.on_save(self._on_checkpoint_save)
        sim = self.engine.sim
        self._tasks.append(
            sim.add_periodic(self.config.renew_interval, self._renew)
        )
        self._tasks.append(
            sim.add_periodic(self.config.watch_interval, self._watch)
        )
        if self.config.admission_rate > 0:
            for site in self.runtime.sites.values():
                site.admission = AdmissionGate(
                    self.config.admission_rate, self.config.admission_burst_s
                )
        return self

    def stop(self) -> None:
        for task in self._tasks:
            task.stop()
        self._tasks = []

    # ------------------------------------------------------------------
    # Lease maintenance and failover
    # ------------------------------------------------------------------
    def _renew(self) -> None:
        owner = self._lease_owner
        if owner is None or owner.role == "dead" or not owner.vm.alive:
            return  # a dead leader stops renewing; the lease runs out
        self.lease.renew(owner.name)

    def kill_leader(self) -> None:
        """Unplanned leader death (the ``leader.kill`` adversity).

        Fails the leader VM, crashes the aggregator process, and leaves
        the lease to expire on its own — detection happens through the
        heartbeat failure detector (fast path) or lease expiry (bound).
        Never emits ``leader.kill`` itself: the plane *subscribes* to
        that kind, and re-emitting would loop.
        """
        leader = next(
            (r for r in self.replicas.values()
             if r.role == "leader" and r.vm.alive),
            None,
        )
        if leader is None:
            return
        now = self.engine.sim.now
        self.kills += 1
        self._down_since = now
        leader.role = "dead"
        leader.vm.fail()
        self.engine.env.network.notify_change()
        self.runtime.crash_aggregator()
        self.engine.sim.schedule(self.config.respawn_delay,
                                 self._respawn, leader)
        # Guarantee a wake-up right after the lease lapses even if the
        # periodic watcher would tick later.
        self.engine.sim.schedule(self.lease.remaining + 1e-3, self._watch)

    def _on_fault(self, kind: str, target: str) -> None:
        if kind == "leader.kill":
            self.kill_leader()
        elif kind == "vm.suspected":
            leader = self._lease_owner
            if (
                leader is not None
                and leader.role != "dead"
                and leader.vm.vm_id == target
                and not leader.vm.alive
            ):
                # Fast path: the failure detector suspected the leader VM
                # (killed by a generic vm.crash, not leader.kill). Treat
                # it as a leader death so promotion starts at lease
                # expiry rather than never.
                if self._down_since is None:
                    self._down_since = self.engine.sim.now
                leader.role = "dead"
                self.runtime.crash_aggregator()
                self.engine.sim.schedule(
                    self.lease.remaining + 1e-3, self._watch
                )

    def _watch(self) -> None:
        """Promote a standby when the lease is free and no leader lives."""
        if self._promoting or self.lease.holder() is not None:
            return
        if any(r.role == "leader" and r.vm.alive
               for r in self.replicas.values()):
            return  # live leader just hasn't renewed yet this tick
        candidates = sorted(
            (r for r in self.replicas.values()
             if r.role == "standby" and r.vm.alive),
            key=lambda r: (r.priority, r.name),
        )
        if not candidates:
            return
        best = candidates[0]
        epoch = self.lease.try_acquire(best.name)
        if epoch is None:
            return
        warm = best.synced_seq >= self.runtime.checkpoint_store.seq(
            "aggregator"
        )
        delay = self.config.promotion_delay
        if not warm:
            delay += self.config.cold_fetch_delay
        self._promoting = True
        self._lease_owner = best  # renewals cover the promotion window
        self.engine.sim.schedule(
            delay, self._complete_promotion, best, epoch, warm
        )

    def _complete_promotion(
        self, replica: Replica, epoch: int, warm: bool
    ) -> None:
        self._promoting = False
        if not replica.vm.alive:
            # Candidate died during promotion; let the lease lapse and
            # the watcher pick the next standby.
            return
        old_name = next(
            (r.name for r in self.replicas.values() if r.role == "dead"),
            "?",
        )
        replica.role = "leader"
        # Retarget FIRST so the restarted aggregator's replayed batches
        # and all new shipping go to the new region.
        self.runtime.retarget_aggregation(replica.region)
        self.runtime.restart_aggregator()
        self.runtime.aggregator.epoch = epoch
        self.runtime.aggregator.config_version = self.config_version
        now = self.engine.sim.now
        t_down = self._down_since if self._down_since is not None else now
        self._down_since = None
        event = FailoverEvent(
            epoch=epoch,
            old_leader=old_name,
            new_leader=replica.name,
            t_down=t_down,
            t_promoted=now,
            warm=warm,
        )
        self.failovers.append(event)
        if self._obs_on:
            self._m_failovers.inc()
            self._m_epoch.set(epoch)
            self._m_mttr.observe(event.mttr)
        self.engine.emit_fault("leader.promoted", replica.name)

    def _respawn(self, replica: Replica) -> None:
        """Bring a killed replica back as a *cold* standby."""
        if replica.role != "dead":
            return
        if not replica.vm.alive:
            replica.vm.restore()
            self.engine.env.network.notify_change()
            self.engine.emit_fault("vm.restart", replica.vm.vm_id)
        replica.role = "standby"
        replica.synced_seq = 0  # rejoins cold; syncs catch it up
        if replica.priority == 0:
            # The original leader rejoins at the back of the queue.
            replica.priority = 1 + max(
                (r.priority for r in self.replicas.values()), default=0
            )
        self.respawns += 1

    # ------------------------------------------------------------------
    # Standby checkpoint shipping
    # ------------------------------------------------------------------
    def _on_checkpoint_save(self, name: str, seq: int, t: float) -> None:
        if name != "aggregator":
            return
        for replica in self.replicas.values():
            if replica.role == "standby" and replica.vm.alive:
                self.engine.sim.schedule(
                    self.config.sync_delay, self._sync_standby, replica, seq
                )

    def _sync_standby(self, replica: Replica, seq: int) -> None:
        if replica.role != "standby" or not replica.vm.alive:
            return
        if seq > replica.synced_seq:
            replica.synced_seq = seq
            replica.synced_at = self.engine.sim.now
            self.standby_syncs += 1
            if self._obs_on:
                self._m_syncs.inc()

    # ------------------------------------------------------------------
    # Audit surface
    # ------------------------------------------------------------------
    def active_leaders(self) -> list[str]:
        """Names of replicas acting as leader on a live VM right now.

        The split-brain invariant the auditor checks: this list never
        holds more than one name at any virtual instant.
        """
        return [
            r.name for r in self.replicas.values()
            if r.role == "leader" and r.vm.alive
        ]

    def mttr_stats(self) -> dict:
        mttrs = [f.mttr for f in self.failovers]
        return {
            "failovers": len(mttrs),
            "mttr_max": max(mttrs) if mttrs else 0.0,
            "mttr_mean": sum(mttrs) / len(mttrs) if mttrs else 0.0,
            "mttr_bound": self.config.mttr_bound,
        }

    def summary(self) -> dict:
        return {
            "epoch": self.lease.epoch,
            "kills": self.kills,
            "respawns": self.respawns,
            "standby_syncs": self.standby_syncs,
            "config_version": self.config_version,
            "lease_renewals": self.lease.renewals,
            **self.mttr_stats(),
        }

    # ------------------------------------------------------------------
    # Live reconfiguration
    # ------------------------------------------------------------------
    def apply(self, changes: dict) -> int:
        """Apply a config change to the running session; returns the
        new config version (stamped into subsequent window results).

        Accepted keys: ``max_backlog`` (flow layer, swapped per site with
        credit capacity adjusted) and ``slo_max_latency_s`` (auditor
        threshold).
        """
        unknown = set(changes) - APPLY_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        if not changes:
            raise ValueError("empty config change")
        if "max_backlog" in changes:
            self._apply_flow(changes["max_backlog"])
        if "slo_max_latency_s" in changes and self.auditor is not None:
            self.auditor.max_latency_s = changes["slo_max_latency_s"]
        self.config_version += 1
        v = self.config_version
        self.runtime.aggregator.config_version = v
        self.config_log.append(
            {"t": self.engine.sim.now, "version": v, "changes": dict(changes)}
        )
        if self._obs_on:
            self._m_applies.inc()
        self.engine.emit_fault("control.apply", f"v{v}")
        return v

    def _apply_flow(self, max_backlog: int) -> None:
        base = self.runtime.flow
        if base is None:
            raise ValueError(
                "cannot apply flow knobs: runtime has no flow config"
            )
        new_flow = replace(base, max_backlog=max_backlog)
        self.runtime.flow = new_flow
        for site in self.runtime.sites.values():
            site.flow = new_flow
            site.policy = make_policy(new_flow)
            # Credit capacity tracks max_backlog; in-use credits are
            # released by the drain loop, so a cut self-corrects.
            site.credits.capacity = new_flow.max_backlog


__all__ = ["APPLY_KEYS", "ControlPlane", "FailoverEvent", "Replica"]
