"""Overload policies: what a site does when ingest exceeds capacity.

Three answers, matching how production stream processors degrade:

* ``block`` — lossless backpressure. The ingest buffer is a hard bound;
  sources are granted exactly the remaining credits and must defer the
  rest (their pending buffer grows, their emission throttles). When the
  shipping layer saturates, the drain loop stalls too, so pressure
  propagates aggregator → shipping → site → source. Memory and loss stay
  bounded at zero; latency absorbs the overload.

* ``shed`` — bounded latency. Every arriving record is admitted, then the
  buffer is trimmed back to the bound by dropping the *oldest* records
  (or, in ``sample`` mode, by probabilistically refusing arrivals once
  the buffer is full). Shed records are counted per site so loss is
  always quantified, never silent.

* ``degrade`` — bounded memory at reduced fidelity/cost. The site enters
  a coarse mode when the buffer crosses the bound: the drain budget is
  multiplied by ``degrade_factor`` (modelling a cheaper coarse code
  path) and the batcher flushes ``degrade_factor``× less often, cutting
  fewer, larger batches. If even coarse mode cannot keep up, the buffer
  is trimmed like ``shed`` as a last resort, so memory stays bounded.

Policies are pluggable: :func:`make_policy` builds one from a
:class:`FlowConfig`, and anything implementing the same three hooks can
be passed to ``SiteRuntime`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.config import POLICIES, ConfigBase

if TYPE_CHECKING:
    from repro.streaming.records import RecordBatch


@dataclass(frozen=True)
class FlowConfig(ConfigBase):
    """End-to-end flow-control knobs for a streaming job."""

    #: Overload policy name: ``block`` | ``shed`` | ``degrade``.
    policy: str = "block"
    #: Hard bound on each site's ingest buffer (records).
    max_backlog: int = 50_000
    #: ``shed`` trimming mode: ``oldest`` (drop-oldest) or ``sample``
    #: (probabilistically refuse arrivals once full).
    shed_mode: str = "oldest"
    #: Coarse-mode gain for ``degrade``: drain budget multiplier and
    #: batcher flush-interval multiplier.
    degrade_factor: int = 4
    #: Hysteresis: coarse mode / source pause clears once the buffer
    #: falls below ``resume_ratio × max_backlog``.
    resume_ratio: float = 0.5

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown overload policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.max_backlog <= 0:
            raise ValueError("max_backlog must be positive")
        if self.shed_mode not in ("oldest", "sample"):
            raise ValueError("shed_mode must be 'oldest' or 'sample'")
        if self.degrade_factor < 2:
            raise ValueError("degrade_factor must be >= 2")
        if not 0.0 < self.resume_ratio <= 1.0:
            raise ValueError("resume_ratio must be in (0, 1]")


class OverloadPolicy:
    """Site-side overload hooks. Subclasses override the three methods.

    ``site`` is the :class:`~repro.streaming.runtime.SiteRuntime` the
    policy governs; policies reach into its backlog (a
    :class:`~repro.streaming.records.ChunkedBacklog`) and counters — they
    are the one component allowed to, by design.
    """

    name = "?"

    def __init__(self, config: FlowConfig) -> None:
        self.config = config

    # -- ingest --------------------------------------------------------
    def admit(self, site, records: RecordBatch) -> int:
        """Admit ``records`` into ``site``'s backlog.

        Returns how many of ``records`` were *accepted from the source's
        point of view* — anything less tells the source to defer the
        remainder (lossless); shedding policies accept everything and
        trim internally (lossy, counted).
        """
        raise NotImplementedError  # pragma: no cover - abstract

    # -- drain ---------------------------------------------------------
    def drain_budget(self, site, base_budget: int) -> int:
        """Per-tick processing budget (0 stalls the drain this tick)."""
        return base_budget

    def flush_allowed(self, site) -> bool:
        """Whether the batcher's periodic flush may run this tick."""
        return True

    # -- helpers -------------------------------------------------------
    def _trim_oldest(self, site, bound: int) -> int:
        """Drop-oldest until the backlog is back at ``bound``."""
        dropped = site._backlog.trim_to(bound)
        if dropped:
            site.count_shed(dropped)
        return dropped


class BlockPolicy(OverloadPolicy):
    """Lossless credit-based backpressure."""

    name = "block"

    def admit(self, site, records: RecordBatch) -> int:
        granted = site.credits.acquire(len(records))
        if granted:
            site._backlog.extend(records[:granted])
        return granted

    def drain_budget(self, site, base_budget: int) -> int:
        # Shipping saturation propagates upstream: stop producing
        # partials until the WAN window drains.
        if getattr(site.shipping, "saturated", False):
            site.count_blocked_tick()
            return 0
        return base_budget


class ShedPolicy(OverloadPolicy):
    """Bounded latency by counted record loss."""

    name = "shed"

    def admit(self, site, records: RecordBatch) -> int:
        cfg = self.config
        backlog = site._backlog
        if cfg.shed_mode == "sample" and len(backlog) >= cfg.max_backlog:
            # Probabilistic sampling: once full, each arrival is kept
            # with p=0.5, spreading the loss across the stream instead
            # of concentrating it on the oldest records.
            # One rng.random(n): the bit stream n scalar draws consume.
            kept = records.where(site.flow_rng.random(len(records)) < 0.5)
            shed = len(records) - len(kept)
            if shed:
                site.count_shed(shed)
            backlog.extend(kept)
        else:
            backlog.extend(records)
        self._trim_oldest(site, cfg.max_backlog)
        return len(records)


class DegradePolicy(OverloadPolicy):
    """Coarsen processing and batching under pressure."""

    name = "degrade"

    def __init__(self, config: FlowConfig) -> None:
        super().__init__(config)
        self.active = False
        self._tick_no = 0

    def admit(self, site, records: RecordBatch) -> int:
        site._backlog.extend(records)
        # Last resort: even the coarse path cannot keep up — trim so
        # memory stays bounded (counted as shed, never silent).
        self._trim_oldest(site, 2 * self.config.max_backlog)
        return len(records)

    def drain_budget(self, site, base_budget: int) -> int:
        cfg = self.config
        depth = len(site._backlog)
        if not self.active and depth > cfg.max_backlog:
            self.active = True
            site.count_degrade(True)
        elif self.active and depth < cfg.resume_ratio * cfg.max_backlog:
            self.active = False
            site.count_degrade(False)
        if self.active:
            site.count_degraded_tick()
            return base_budget * cfg.degrade_factor
        return base_budget

    def flush_allowed(self, site) -> bool:
        self._tick_no += 1
        if not self.active:
            return True
        # Coarse batches: hold partials degrade_factor× longer so each
        # WAN batch amortises its per-batch overhead over more records.
        return self._tick_no % self.config.degrade_factor == 0


_POLICY_CLASSES = {
    "block": BlockPolicy,
    "shed": ShedPolicy,
    "degrade": DegradePolicy,
}


def make_policy(config: FlowConfig) -> OverloadPolicy:
    """Build the policy object a :class:`FlowConfig` names."""
    return _POLICY_CLASSES[config.policy](config)
