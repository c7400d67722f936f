"""Shipping backends: how partial aggregates cross the wide area.

The streaming runtime is backend-agnostic; three backends implement the
comparison the evaluation keeps returning to:

* :class:`SageShipping` — the managed substrate: batches travel over a
  decision-manager plan (parallel helpers / multi-datacenter paths) that
  is refreshed as the environment drifts and invalidated the moment a
  fault event lands;
* :class:`DirectShipping` — one plain TCP flow per batch, round-robin
  over the site's sender VMs, no awareness;
* :class:`BlobShipping` — the cloud's out-of-the-box answer: stage the
  batch into the destination region's object store, then read it back.

:class:`ReliableShipping` wraps any of them with at-least-once delivery:
per-batch sequence tracking, a delivery timeout, exponential backoff with
jitter, and bounded retries. Duplicates it may create are removed by the
aggregator's ``(origin, seq)`` dedup.

An inner backend's ``ship`` may return a cancellable handle (anything
with ``cancel()``) so the reliability wrapper can abandon a stalled
attempt and free its network resources; backends without one return
``None``. Every backend can ``retarget`` to a new destination VM, which
is how leader failover moves the aggregation site.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Protocol

from repro.cloud.vm import VM
from repro.core.engine import SageEngine
from repro.streaming.events import Batch
from repro.transfer.plan import TransferPlan

DeliveryCallback = Callable[[Batch], None]

#: Retry backoff of :class:`ReliableShipping`: the first re-send waits
#: ``BACKOFF_BASE`` seconds (jittered), doubling up to ``BACKOFF_CAP``.
BACKOFF_BASE = 2.0
BACKOFF_CAP = 60.0

#: What a :class:`~repro.flow.FlowConfig` gives each link built by
#: :meth:`ReliableShipping.factory`: credit window, parked-queue bound
#: (lossy policies only), breaker failure threshold and reset seconds.
FLOW_MAX_INFLIGHT = 8
FLOW_MAX_PENDING = 64
BREAKER_FAILURES = 3
BREAKER_RESET_S = 20.0

#: Fault kinds that change what a good route looks like — a cached plan
#: must not outlive any of them. Batch-level faults (drop/duplicate) are
#: deliberately absent: they affect delivery, not routing.
_ROUTING_FAULTS = (
    "vm.crash",
    "vm.restart",
    "vm.suspected",
    "vm.recovered",
    "link.down",
    "link.up",
    "link.flap",
    "flow.stall",
)


class ShipHandle:
    """Cancellable handle for an in-flight shipped batch.

    Covers the window between ``ship()`` and transfer start (coordination
    latency) as well as the transfer itself.
    """

    __slots__ = ("session", "cancelled")

    def __init__(self) -> None:
        self.session = None
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True
        s = self.session
        if s is not None and not s.done and not s.cancelled:
            s.cancel()


class _ShipInstruments:
    """Shared observability plumbing for shipping backends.

    One span per batch covers ship → arrival; its duration is the
    wide-area delivery latency and ``bps`` the achieved link throughput.

    Independently of the observer, every attempt appends a lineage
    :class:`~repro.obs.lineage.Hop` to the batch's trace — causal
    metadata like ``seq``, always on (one small allocation per batch
    attempt, nothing per record).
    """

    __slots__ = ("_obs", "_on", "_sim", "_backend", "_link", "_m_bytes",
                 "_m_batches")

    def __init__(self, engine: SageEngine, backend: str, src: str, dst: str):
        obs = engine.observer
        self._obs = obs
        self._on = obs.enabled
        self._sim = engine.sim
        self._backend = backend
        self._link = f"{src}->{dst}"
        self._m_bytes = obs.counter(
            "ship_bytes_total", backend=backend, link=self._link
        )
        self._m_batches = obs.counter(
            "ship_batches_total", backend=backend, link=self._link
        )

    def wrap(
        self, batch: Batch, on_delivered: DeliveryCallback
    ) -> DeliveryCallback:
        """Count the batch; return a delivery callback recording its span."""
        sim = self._sim
        trace = batch.trace
        hop = (
            trace.begin_hop(self._link, self._backend, sim.now)
            if trace is not None
            else None
        )
        if not self._on:
            if hop is None:
                return on_delivered

            def _arrived(b: Batch) -> None:
                hop.arrived_at = sim.now
                on_delivered(b)

            return _arrived
        size, records = batch.size_bytes, batch.count
        self._m_bytes.inc(size)
        self._m_batches.inc()
        sent_at = sim.now

        def _delivered(b: Batch) -> None:
            now = sim.now
            if hop is not None:
                hop.arrived_at = now
            duration = now - sent_at
            bps = {"bps": size / duration} if duration > 0 else {}
            self._obs.record_span(
                "ship.batch", sent_at, now, backend=self._backend,
                link=self._link, bytes=size, records=records, **bps,
            )
            on_delivered(b)

        return _delivered


class ShippingBackend(Protocol):
    """Moves batches from one site to the aggregation site."""

    def ship(self, batch: Batch, on_delivered: DeliveryCallback) -> None:
        ...  # pragma: no cover - protocol

    @property
    def bytes_shipped(self) -> float:
        ...  # pragma: no cover - protocol

    def retarget(self, dst_vm: VM) -> None:
        """Send every later batch to ``dst_vm`` (leader failover)."""
        ...  # pragma: no cover - protocol


class DirectShipping:
    """One unmanaged flow per batch, round-robin over the sender VMs.

    Successive batches rotate through the site's senders so one busy or
    crashed NIC does not serialise the site's entire egress. Crashed
    senders are skipped while any live one remains.
    """

    def __init__(
        self,
        engine: SageEngine,
        src_vms: list[VM],
        dst_vm: VM,
        streams: int = 1,
    ):
        self.engine = engine
        self.src_vms = list(src_vms)
        if not self.src_vms:
            raise ValueError("DirectShipping needs at least one sender VM")
        self.streams = streams
        self.bytes_shipped = 0.0
        self.batches_shipped = 0
        self._rr = 0
        self.retarget(dst_vm)

    def _next_sender(self) -> VM:
        n = len(self.src_vms)
        for i in range(n):
            vm = self.src_vms[(self._rr + i) % n]
            if vm.alive:
                self._rr = (self._rr + i + 1) % n
                return vm
        # Every sender is down: keep rotating anyway — the transfer will
        # stall until a restore, and the reliability layer retries.
        vm = self.src_vms[self._rr % n]
        self._rr = (self._rr + 1) % n
        return vm

    def ship(self, batch: Batch, on_delivered: DeliveryCallback):
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1
        on_delivered = self._inst.wrap(batch, on_delivered)
        return self.engine.transfers.execute(
            TransferPlan.direct(self._next_sender(), self.dst_vm,
                                streams=self.streams, label="ship-direct"),
            batch.size_bytes,
            on_complete=lambda _s: on_delivered(batch),
        )

    def retarget(self, dst_vm: VM) -> None:
        """Point this backend at a new destination VM (leader failover)."""
        self.dst_vm = dst_vm
        self._inst = _ShipInstruments(
            self.engine, "direct",
            self.src_vms[0].region_code, dst_vm.region_code,
        )

    @classmethod
    def factory(cls, **kwargs):
        def build(engine: SageEngine, src_vms: list[VM], dst_vm: VM):
            return cls(engine, src_vms, dst_vm, **kwargs)

        return build


class SageShipping:
    """Batches ride a decision-managed plan, refreshed periodically.

    Building a full managed transfer per (small) batch would pay planning
    overhead per batch; instead the backend asks the Decision Manager for
    a plan once and re-asks every ``plan_ttl`` seconds so route choice
    follows the environment. The cached plan's VMs are *reserved* with
    the Decision Manager (concurrent plans route around them) and every
    superseded plan is released; fault events — crashes, suspicions,
    link outages, flow stalls — invalidate the cache immediately instead
    of letting a dead route survive to its TTL.
    """

    def __init__(
        self,
        engine: SageEngine,
        src_region: str,
        dst_region: str,
        n_nodes: int = 3,
        plan_ttl: float = 60.0,
    ) -> None:
        self.engine = engine
        self.src_region = src_region
        self.dst_region = dst_region
        self.n_nodes = n_nodes
        self.plan_ttl = plan_ttl
        # Each item is registered with the Decision Manager, matched to
        # routes and acknowledged: two control round-trips plus DM
        # processing. This fixed per-item cost is why blob staging is
        # competitive for tiny files (experiment E8) — the managed
        # machinery only pays off once transfer time dominates.
        rtt = engine.env.topology.rtt(src_region, dst_region)
        self.coordination_latency = 2.0 * rtt + 0.1
        self.bytes_shipped = 0.0
        self.batches_shipped = 0
        self.plans_built = 0
        self.plan_invalidations = 0
        self._plan: TransferPlan | None = None
        self._plan_reserved = False
        self._plan_expiry = -1.0
        self._inst = _ShipInstruments(engine, "sage", src_region, dst_region)
        engine.on_fault(self._on_fault)

    # ------------------------------------------------------------------
    def _on_fault(self, kind: str, target: str) -> None:
        if kind in _ROUTING_FAULTS:
            self.invalidate_plan()

    def invalidate_plan(self) -> None:
        """Drop the cached plan (and its VM reservations) immediately.

        The next batch re-plans against the post-fault environment
        instead of riding a route through a crashed VM or dead link
        until the TTL expires.
        """
        if self._plan is None and self._plan_expiry < 0:
            return
        self._drop_plan()
        self.plan_invalidations += 1

    def _drop_plan(self) -> None:
        if self._plan_reserved:
            self.engine.decisions.release_plan(self._plan)
            self._plan_reserved = False
        self._plan = None
        self._plan_expiry = -1.0

    def _current_plan(self) -> TransferPlan | None:
        """The active plan, or ``None`` for in-memory local handover."""
        now = self.engine.sim.now
        if self._plan is None or now >= self._plan_expiry:
            self._drop_plan()
            if self.src_region == self.dst_region:
                # Site-local delivery: one intra-datacenter hop, no WAN
                # planning needed. Prefer live VMs; with a single VM in
                # the region there is nothing to transfer across — the
                # batch is handed over in memory (plan None).
                vms = self.engine.deployment.vms(self.src_region)
                live = [vm for vm in vms if vm.alive] or vms
                if len(live) >= 2:
                    self._plan = TransferPlan.direct(
                        live[0], live[-1], label="ship-sage-local"
                    )
            else:
                self._plan = self.engine.decisions.reserve_plan(
                    self.engine.decisions.build_plan(
                        self.src_region,
                        self.dst_region,
                        self.n_nodes,
                        label=f"ship-sage:{self.src_region}->{self.dst_region}",
                    )
                )
                self._plan_reserved = True
            self._plan_expiry = now + self.plan_ttl
            self.plans_built += 1
        return self._plan

    def ship(self, batch: Batch, on_delivered: DeliveryCallback) -> ShipHandle:
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1
        on_delivered = self._inst.wrap(batch, on_delivered)
        handle = ShipHandle()

        def _start() -> None:
            if handle.cancelled:
                return
            plan = self._current_plan()
            if plan is None:
                # Single-VM site: producer and aggregator share the box.
                on_delivered(batch)
                return
            handle.session = self.engine.transfers.execute(
                plan,
                batch.size_bytes,
                on_complete=lambda _s: on_delivered(batch),
            )

        self.engine.sim.schedule(self.coordination_latency, _start)
        return handle

    def retarget(self, dst_vm: VM) -> None:
        """Point this backend at a new aggregation region (failover).

        Drops the cached plan (releasing its reservations) so the next
        batch plans a route to the new destination, and re-derives the
        coordination latency for the new region pair. A retarget into
        the site's own region downgrades to local handover — exactly the
        ``_current_plan`` same-region path.
        """
        dst_region = dst_vm.region_code
        self.invalidate_plan()
        if dst_region == self.dst_region:
            return
        self.dst_region = dst_region
        if self.src_region == dst_region:
            # Local handover: no WAN control round-trips, only the
            # Decision Manager's fixed processing share.
            self.coordination_latency = 0.1
        else:
            rtt = self.engine.env.topology.rtt(self.src_region, dst_region)
            self.coordination_latency = 2.0 * rtt + 0.1
        self._inst = _ShipInstruments(
            self.engine, "sage", self.src_region, dst_region
        )

    @classmethod
    def factory(cls, **kwargs):
        def build(engine: SageEngine, src_vms: list[VM], dst_vm: VM):
            return cls(
                engine, src_vms[0].region_code, dst_vm.region_code, **kwargs
            )

        return build


class RetryBudget:
    """Global cap on concurrently in-flight retry *attempts*.

    Shared by every link built from one :meth:`ReliableShipping.factory`
    closure: a correlated regional outage makes every link time out and
    back off together, and without a shared bound their synchronized
    retries amplify into a storm against whatever survived (typically
    the freshly promoted leader). A retry holds one budget unit from
    dispatch until its attempt resolves (ack, timeout, or cancel);
    retries that find the budget exhausted are *deferred* — never
    dropped — so at-least-once delivery is unaffected, only smeared out
    in time.
    """

    def __init__(self, max_concurrent: int) -> None:
        if max_concurrent <= 0:
            raise ValueError("max_concurrent must be positive")
        self.max_concurrent = max_concurrent
        self.active = 0
        #: Times a retry found no budget and had to defer.
        self.exhausted_total = 0

    def try_acquire(self) -> bool:
        if self.active >= self.max_concurrent:
            self.exhausted_total += 1
            return False
        self.active += 1
        return True

    def release(self) -> None:
        if self.active > 0:
            self.active -= 1


class _Delivery:
    """Tracking state of one batch inside :class:`ReliableShipping`."""

    __slots__ = ("batch", "on_delivered", "attempt", "acked", "abandoned",
                 "cancelled", "handle", "timer", "parked", "active",
                 "budgeted")

    def __init__(self, batch: Batch, on_delivered: DeliveryCallback) -> None:
        self.batch = batch
        self.on_delivered = on_delivered
        self.attempt = 0
        self.acked = False
        self.abandoned = False
        self.cancelled = False
        self.handle = None
        #: The pending timeout/retry timer event (cancellable).
        self.timer = None
        #: Waiting for an in-flight slot or a closed breaker.
        self.parked = False
        #: Currently occupying an in-flight slot.
        self.active = False
        #: Currently holding one unit of the shared retry budget.
        self.budgeted = False

    @property
    def finished(self) -> bool:
        return self.acked or self.abandoned or self.cancelled


class ReliableShipping:
    """At-least-once delivery over any inner shipping backend.

    Each batch is identified by its ``(origin, seq)`` pair (the batcher
    assigns sequence numbers per site). An attempt that has not been
    acknowledged within ``delivery_timeout`` is cancelled — freeing its
    network resources — and re-sent after exponential backoff with
    jitter, up to ``max_retries`` re-sends; then the batch is abandoned
    and counted. The wrapper consults the armed fault injector per
    attempt, so injected in-flight drops surface as lost acks (the
    retry path) and injected duplicates surface as double deliveries
    (the aggregator's dedup path). Retries re-enter the inner backend,
    so their wide-area bytes are billed like any other batch — the cost
    accounting of a faulty run stays honest.

    At-least-once means duplicates are possible by design (a late first
    copy can land after its retry was already sent); the global
    aggregator removes them by ``(origin, seq)``.

    Flow control (all optional, off by default; :meth:`factory` sets
    all three from a :class:`~repro.flow.FlowConfig`):

    * ``max_inflight`` bounds concurrently attempting deliveries — the
      credit window the receiver side grants this link. Excess batches
      *park* in FIFO order and dispatch as slots free up.
    * ``breaker`` (a :class:`repro.flow.CircuitBreaker`) gates attempts:
      while open, batches park instead of being queued into a link the
      failure detector or consecutive timeouts have declared dead, and a
      half-open probe re-opens the flow when the link heals.
    * ``max_pending`` bounds the parked queue; on overflow the *oldest*
      parked delivery is shed (counted, with its record count) so a dead
      link cannot grow memory without bound under the ``shed`` policy.
    """

    def __init__(
        self,
        engine: SageEngine,
        inner,
        delivery_timeout: float = 20.0,
        max_retries: int = 6,
        name: str | None = None,
        max_inflight: int | None = None,
        max_pending: int | None = None,
        breaker=None,
        retry_budget: RetryBudget | None = None,
    ) -> None:
        if delivery_timeout <= 0:
            raise ValueError("delivery_timeout must be positive")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if max_inflight is not None and max_inflight <= 0:
            raise ValueError("max_inflight must be positive (or None)")
        if max_pending is not None and max_pending <= 0:
            raise ValueError("max_pending must be positive (or None)")
        self.engine = engine
        self.inner = inner
        self.delivery_timeout = delivery_timeout
        self.max_retries = max_retries
        self.name = name or type(inner).__name__
        self._rng = engine.sim.rngs.get(f"reliable/{self.name}")
        self.retries = 0
        self.abandoned = 0
        self.acked = 0
        self.duplicates_delivered = 0
        # Flow control -------------------------------------------------
        from repro.flow.credits import CreditGate

        self.max_inflight = max_inflight
        self.max_pending = max_pending
        self.breaker = breaker
        #: Shared (cross-link) retry-storm guard; ``None`` = unlimited.
        self.retry_budget = retry_budget
        self.retry_budget_exhausted = 0
        self.batches_shed = 0
        self.records_shed = 0
        self.records_abandoned = 0
        obs = engine.observer
        self._credits = CreditGate(
            max_inflight,
            gauge=(
                obs.gauge("flow_credits_available", link=self.name)
                if obs.enabled and max_inflight is not None
                else None
            ),
        )
        #: All unfinished deliveries, keyed by ``(origin, seq)``.
        self._inflight: dict[tuple[str, int], _Delivery] = {}
        #: Deliveries waiting for a slot / closed breaker, FIFO.
        self._parked: deque[_Delivery] = deque()
        self._probe_scheduled = False
        self._m_retries = obs.counter("ship_retries_total")
        self._m_abandoned = obs.counter("ship_batches_abandoned_total")
        self._m_duplicates = obs.counter("ship_duplicates_delivered_total")
        self._m_parked = obs.counter("ship_batches_parked_total")
        self._m_shed = obs.counter("ship_batches_shed_total")
        self._m_budget_exhausted = obs.counter("retry_budget_exhausted_total")

    # Cost accounting stays the inner backend's: retries pass through it.
    @property
    def bytes_shipped(self) -> float:
        return self.inner.bytes_shipped

    @property
    def batches_shipped(self) -> int:
        return self.inner.batches_shipped

    @property
    def inflight(self) -> int:
        """Deliveries currently occupying an in-flight slot."""
        return self._credits.in_use

    @property
    def parked(self) -> int:
        return len(self._parked)

    @property
    def saturated(self) -> bool:
        """Upstream should stop producing: the credit window is full and
        batches are already queueing behind it (or an open breaker)."""
        return self._credits.exhausted and bool(self._parked)

    def ship(self, batch: Batch, on_delivered: DeliveryCallback) -> None:
        existing = self._inflight.get((batch.origin, batch.seq))
        if existing is not None and not existing.finished:
            # Idempotent re-ship (crash-recovery replay overlaps the
            # original delivery): the pending delivery already covers it.
            return
        d = _Delivery(batch, on_delivered)
        self._inflight[(batch.origin, batch.seq)] = d
        self._dispatch(d)

    # ------------------------------------------------------------------
    def _dispatch(self, d: _Delivery) -> None:
        """Attempt now if a slot is free and the breaker allows; else park."""
        if d.finished:
            return
        if self.breaker is not None and not self.breaker.allow():
            self._park(d)
            self._schedule_probe()
            return
        if self._credits.acquire(1) == 0:
            self._park(d)
            return
        d.active = True
        self._attempt(d)

    def _park(self, d: _Delivery) -> None:
        d.parked = True
        self._parked.append(d)
        self._m_parked.inc()
        if self.max_pending is not None:
            while len(self._parked) > self.max_pending:
                oldest = self._parked.popleft()
                oldest.parked = False
                if oldest.finished:
                    continue
                # Bounded shipping buffer: shed the oldest parked batch
                # (quantified loss) rather than grow without limit.
                oldest.cancelled = True
                self._finish(oldest)
                self.batches_shed += 1
                self.records_shed += _record_weight(oldest.batch)
                self._m_shed.inc()

    def _schedule_probe(self) -> None:
        """Wake the parked queue when the breaker's probe window opens.

        Only needed while the breaker is *open*: in half-open the probe
        attempt is already in flight, and its ack or timeout frees a slot
        and pumps the queue.
        """
        if self._probe_scheduled or self.breaker is None:
            return
        delay = self.breaker.probe_delay()
        if delay <= 0.0:
            return
        self._probe_scheduled = True

        def _probe() -> None:
            self._probe_scheduled = False
            self._pump()

        self.engine.sim.schedule(delay, _probe)

    def _pump(self) -> None:
        """Dispatch parked deliveries into freed slots."""
        while self._parked:
            if self.breaker is not None and not self.breaker.allow():
                self._schedule_probe()
                return
            if self._credits.exhausted:
                return
            d = self._parked.popleft()
            d.parked = False
            if d.finished:
                continue
            self._credits.acquire(1)
            d.active = True
            self._attempt(d)

    def _release_slot(self, d: _Delivery) -> None:
        if d.active:
            d.active = False
            self._credits.release(1)
            self._pump()

    def _release_budget(self, d: _Delivery) -> None:
        if d.budgeted:
            d.budgeted = False
            self.retry_budget.release()

    def _finish(self, d: _Delivery) -> None:
        """Delivery reached a terminal state: free its slot and map entry."""
        if d.timer is not None:
            d.timer.cancel()
            d.timer = None
        if d.handle is not None and hasattr(d.handle, "cancel"):
            d.handle.cancel()
        d.handle = None
        self._release_slot(d)
        self._release_budget(d)
        key = (d.batch.origin, d.batch.seq)
        if self._inflight.get(key) is d:
            del self._inflight[key]

    def _attempt(self, d: _Delivery) -> None:
        d.attempt += 1
        attempt_no = d.attempt
        verdict = "deliver"
        faults = getattr(self.engine, "faults", None)
        if faults is not None:
            verdict = faults.intercept_batch(d.batch.origin, d.batch.seq)

        def _arrived(batch: Batch) -> None:
            if d.cancelled:
                # Shed while a late copy was in flight: the copy still
                # physically lands, but the delivery no longer exists.
                return
            if d.acked:
                # A retry already delivered this batch; the late copy
                # still reaches the receiver — dedup removes it there.
                self.duplicates_delivered += 1
                self._m_duplicates.inc()
                d.on_delivered(batch)
                return
            if verdict == "drop":
                # Lost in flight: the receiver never saw it, the ack
                # never comes, and the timeout path re-sends.
                return
            d.acked = True
            self.acked += 1
            if self.breaker is not None:
                self.breaker.record_success()
            cb = d.on_delivered
            self._finish(d)
            cb(batch)
            if verdict == "duplicate":
                self.duplicates_delivered += 1
                self._m_duplicates.inc()
                cb(batch)

        d.handle = self.inner.ship(d.batch, _arrived)
        d.timer = self.engine.sim.schedule(
            self.delivery_timeout, self._on_timeout, d, attempt_no
        )

    def _on_timeout(self, d: _Delivery, attempt_no: int) -> None:
        if d.finished or d.attempt != attempt_no:
            return
        d.timer = None
        handle = d.handle
        if handle is not None and hasattr(handle, "cancel"):
            handle.cancel()
        d.handle = None
        # The attempt is over either way: free the slot (and the network)
        # before the backoff, so other batches can use the link meanwhile.
        self._release_slot(d)
        self._release_budget(d)
        if self.breaker is not None:
            self.breaker.record_failure()
        if d.attempt > self.max_retries:
            d.abandoned = True
            self.abandoned += 1
            self.records_abandoned += _record_weight(d.batch)
            self._m_abandoned.inc()
            self._finish(d)
            return
        self.retries += 1
        self._m_retries.inc()
        delay = min(BACKOFF_CAP, BACKOFF_BASE * 2.0 ** (d.attempt - 1))
        # Jitter in [0.5, 1.5): retries of batches lost together do not
        # re-collide on the recovering link.
        delay *= 0.5 + self._rng.random()
        d.timer = self.engine.sim.schedule(delay, self._retry, d)

    def _retry(self, d: _Delivery) -> None:
        if d.finished:
            return
        d.timer = None
        budget = self.retry_budget
        if budget is not None:
            if not budget.try_acquire():
                # Storm guard: too many retries already pounding the
                # network fleet-wide. Defer (jittered, so deferred
                # retries do not re-collide), never drop — delivery
                # stays at-least-once, just smeared out in time.
                self.retry_budget_exhausted += 1
                self._m_budget_exhausted.inc()
                d.timer = self.engine.sim.schedule(
                    BACKOFF_BASE * (0.5 + self._rng.random()),
                    self._retry,
                    d,
                )
                return
            d.budgeted = True
        self._dispatch(d)

    @classmethod
    def factory(cls, inner_factory, *, flow=None, retry_budget=None, **kwargs):
        """Wrap another backend factory with at-least-once delivery.

        ``flow`` (a :class:`repro.flow.FlowConfig`) gives every link a
        credit window, a circuit breaker wired to the engine's fault bus
        (:class:`repro.flow.CircuitBreaker`) and, unless the policy is the
        lossless ``block``, a bounded parked queue (the ``FLOW_*`` and
        ``BREAKER_*`` constants); without it, none of these. ``retry_budget``
        caps *concurrent retry attempts across every link this factory
        builds* (one shared :class:`RetryBudget`), so a correlated outage
        cannot amplify into a cross-site retry storm. Other keyword
        arguments go to the constructor.
        """
        if kwargs.keys() & {"max_inflight", "max_pending", "breaker"}:
            raise TypeError("a factory's links take flow control from flow=")
        shared_budget = (
            RetryBudget(retry_budget) if retry_budget is not None else None
        )

        def build(engine: SageEngine, src_vms: list[VM], dst_vm: VM):
            link = (src_vms[0].region_code, dst_vm.region_code)
            window = {}
            if flow is not None:
                from repro.flow.breaker import CircuitBreaker

                window = dict(
                    max_inflight=FLOW_MAX_INFLIGHT,
                    max_pending=None if flow.policy == "block" else FLOW_MAX_PENDING,
                    # Built before the inner backend: both subscribe to
                    # the fault bus, the breaker first.
                    breaker=CircuitBreaker(
                        engine,
                        link=link,
                        failure_threshold=BREAKER_FAILURES,
                        reset_timeout=BREAKER_RESET_S,
                    ),
                )
            return cls(
                engine,
                inner_factory(engine, src_vms, dst_vm),
                name=f"{link[0]}->{link[1]}",
                retry_budget=shared_budget,
                **window,
                **kwargs,
            )

        return build

    def retarget(self, dst_vm: VM) -> None:
        """Re-point the inner backend at a new destination (failover).

        In-flight attempts finish or time out under the old coordinates;
        their retries — and everything shipped afterwards — go to the
        new one. The wrapper's identity (name, RNG stream, counters)
        deliberately survives the move: it is the *site's* link, not the
        destination's.
        """
        self.inner.retarget(dst_vm)


def _record_weight(batch: Batch) -> int:
    """Raw-record count a batch carries (partials weigh their fold count)."""
    from repro.streaming.operators import PartialAggregate, PartialBlock

    payload = batch.records
    if isinstance(payload, PartialBlock):
        return int(payload.count.sum())
    if not isinstance(payload, list):
        return batch.count
    total = 0
    for record in payload:
        value = record.value
        total += value.count if isinstance(value, PartialAggregate) else 1
    return total


class UdpShipping:
    """Datagram shipping for latency-critical geographical streams.

    The protocol extension the system design reserves for streaming data:
    batches travel as UDP datagram trains — no congestion window (the
    flow runs at NIC/link-share rate even on long-RTT paths) and no
    acknowledgement round-trip, so delivery latency drops; in exchange,
    a batch crossing a link in bad weather can be *lost*. Lost batches
    are counted, never retried — staleness beats reliability for this
    class of data, and the windowed aggregation downstream tolerates
    gaps.
    """

    def __init__(
        self,
        engine: SageEngine,
        src_vm: VM,
        dst_vm: VM,
        base_loss: float = 0.005,
        weather_loss: float = 0.25,
    ) -> None:
        if not 0 <= base_loss < 1:
            raise ValueError("base_loss must be in [0, 1)")
        if not 0 <= weather_loss < 1:
            raise ValueError("weather_loss must be in [0, 1)")
        self.engine = engine
        self.src_vm = src_vm
        self.base_loss = base_loss
        self.weather_loss = weather_loss
        self.bytes_shipped = 0.0
        self.batches_shipped = 0
        self.batches_lost = 0
        self._rng = engine.sim.rngs.get(
            f"udp/{src_vm.region_code}->{dst_vm.region_code}"
        )
        self.retarget(dst_vm)

    def retarget(self, dst_vm: VM) -> None:
        """Point this backend at a new destination VM (leader failover).

        The loss RNG stream stays: the link belongs to the site.
        """
        self.dst_vm = dst_vm
        src, dst = self.src_vm.region_code, dst_vm.region_code
        self._inst = _ShipInstruments(self.engine, "udp", src, dst)
        self._m_lost = self.engine.observer.counter(
            "ship_batches_lost_total", backend="udp", link=f"{src}->{dst}"
        )

    def _loss_probability(self) -> float:
        """Loss grows as the link's weather worsens."""
        link_key = (self.src_vm.region_code, self.dst_vm.region_code)
        if self.src_vm.region_code == self.dst_vm.region_code:
            return self.base_loss
        link = self.engine.env.topology.link(*link_key)
        weather = min(1.0, link.process.factor(self.engine.sim.now))
        return min(0.9, self.base_loss + self.weather_loss * (1.0 - weather))

    def ship(self, batch: Batch, on_delivered: DeliveryCallback) -> None:
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1
        on_delivered = self._inst.wrap(batch, on_delivered)
        lost = self._rng.random() < self._loss_probability()

        def _done(_session) -> None:
            if lost:
                self.batches_lost += 1
                self._m_lost.inc()
            else:
                on_delivered(batch)

        from repro.transfer.session import TransferSession

        TransferSession(
            self.engine.env.network,
            TransferPlan.direct(self.src_vm, self.dst_vm, label="ship-udp"),
            batch.size_bytes,
            chunk_size=64 * 1024.0,
            meter=self.engine.env.meter,
            on_complete=_done,
            ack_overhead=False,  # no acknowledgement round-trip
            transport="udp",  # no congestion window on the wire
        ).start()

    @property
    def loss_rate(self) -> float:
        return self.batches_lost / self.batches_shipped if self.batches_shipped else 0.0

    @classmethod
    def factory(cls, **kwargs):
        def build(engine: SageEngine, src_vms: list[VM], dst_vm: VM):
            return cls(engine, src_vms[0], dst_vm, **kwargs)

        return build


class BlobShipping:
    """Stage through the destination region's blob store (the baseline)."""

    def __init__(self, engine: SageEngine, src_vm: VM, dst_vm: VM) -> None:
        self.engine = engine
        self.src_vm = src_vm
        self.bytes_shipped = 0.0
        self.batches_shipped = 0
        self._seq = 0
        self.retarget(dst_vm)

    def retarget(self, dst_vm: VM) -> None:
        """Stage later batches through ``dst_vm``'s regional blob store."""
        self.dst_vm = dst_vm
        self.store = self.engine.env.blob(dst_vm.region_code)
        self._inst = _ShipInstruments(
            self.engine, "blob", self.src_vm.region_code, dst_vm.region_code
        )

    def ship(self, batch: Batch, on_delivered: DeliveryCallback) -> None:
        self.bytes_shipped += batch.size_bytes
        self.batches_shipped += 1
        on_delivered = self._inst.wrap(batch, on_delivered)
        name = f"ship/{self.src_vm.region_code}/{self._seq}"
        self._seq += 1

        def _staged(obj) -> None:
            self.store.get(self.dst_vm, name, on_done=lambda _o: on_delivered(batch))

        self.store.put(self.src_vm, name, batch.size_bytes, on_done=_staged)

    @classmethod
    def factory(cls):
        def build(engine: SageEngine, src_vms: list[VM], dst_vm: VM):
            return cls(engine, src_vms[0], dst_vm)

        return build
