"""Overload policies: what a site does when ingest exceeds capacity.

Three answers, matching how production stream processors degrade:

* ``block`` — lossless backpressure. The ingest buffer is a hard bound;
  sources are granted exactly the remaining credits and must defer the
  rest (their pending buffer grows, their emission throttles). When the
  shipping layer saturates, the drain loop stalls too, so pressure
  propagates aggregator → shipping → site → source. Memory and loss stay
  bounded at zero; latency absorbs the overload.

* ``shed`` — bounded latency. Every arriving record is admitted, then the
  buffer is trimmed back to the bound by dropping the *oldest* records.
  Shed records are counted per site so loss is always quantified, never
  silent.

* ``degrade`` — bounded memory at reduced fidelity/cost. The site enters
  a coarse mode when the buffer crosses the bound: the drain budget is
  multiplied by :data:`DEGRADE_FACTOR` (modelling a cheaper coarse code
  path) and the batcher flushes ``DEGRADE_FACTOR``× less often, cutting
  fewer, larger batches. Coarse mode clears once the buffer falls below
  :data:`RESUME_RATIO` × the bound. If even coarse mode cannot keep up,
  the buffer is trimmed like ``shed`` as a last resort, so memory stays
  bounded.

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

#: Coarse-mode gain for ``degrade``: drain budget multiplier and batcher
#: flush-interval multiplier.
DEGRADE_FACTOR = 4
#: Hysteresis: coarse mode clears once the buffer falls below
#: ``RESUME_RATIO × max_backlog``.
RESUME_RATIO = 0.5


@dataclass(frozen=True)
class FlowConfig(ConfigBase):
    """End-to-end flow-control knobs for a streaming job."""

    #: Overload policy name: ``block`` | ``shed`` | ``degrade``.
    policy: str = "block"
    #: Hard bound on each site's ingest buffer (records).
    max_backlog: int = 50_000

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown overload policy {self.policy!r}; "
                f"expected one of {POLICIES}"
            )
        if self.max_backlog <= 0:
            raise ValueError("max_backlog must be positive")


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
        n = len(records)
        granted = site.credits.acquire(n)
        if granted:
            site._backlog.extend(records if granted == n else records[:granted])
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
        site._backlog.extend(records)
        self._trim_oldest(site, self.config.max_backlog)
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
        elif self.active and depth < RESUME_RATIO * cfg.max_backlog:
            self.active = False
            site.count_degrade(False)
        if self.active:
            site.count_degraded_tick()
            return base_budget * DEGRADE_FACTOR
        return base_budget

    def flush_allowed(self, site) -> bool:
        self._tick_no += 1
        if not self.active:
            return True
        # Coarse batches: hold partials DEGRADE_FACTOR× longer so each
        # WAN batch amortises its per-batch overhead over more records.
        return self._tick_no % DEGRADE_FACTOR == 0


_POLICY_CLASSES = {
    "block": BlockPolicy,
    "shed": ShedPolicy,
    "degrade": DegradePolicy,
}


def make_policy(config: FlowConfig) -> OverloadPolicy:
    """Build the policy object a :class:`FlowConfig` names."""
    return _POLICY_CLASSES[config.policy](config)
