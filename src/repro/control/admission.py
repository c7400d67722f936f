"""Ingress admission control: a token bucket in front of each site.

The PR 3 flow layer sheds *inside* the pipeline — records are accepted
from the source, counted, and then dropped or deferred by the overload
policy. Admission control moves the first line of defence to the front
door: a per-site token bucket rejects records **at ingress**, before
they ever touch the backlog, so sustained overload is shed at the edge
where it is cheapest (no batching, no shipping, no WAN bytes).

The gate is tied into the credit/backpressure layer through the
``saturated`` flag: when the site's credit gate is fully exhausted (the
backlog is at ``max_backlog``) the gate rejects everything regardless of
tokens, so ingress shedding always engages *before* the internal policy
has to. Rejections are counted per site and folded into the loss
identity (``records_admission_rejected``) — admission-shed records are
explained loss, never silent loss.

Rejected records are always the **front** of the offered chunk. Sources
treat the ingest return value as a consumed prefix, so the gate must
consume (reject) a prefix and leave the policy a contiguous tail to
accept or defer.
"""

from __future__ import annotations


class AdmissionGate:
    """Token-bucket ingress gate (virtual-time driven, no timers).

    Tokens refill lazily on each :meth:`admit` call from the elapsed
    virtual time, so the gate costs nothing while idle and needs no
    periodic task. ``rate`` is records/second; the bucket holds up to
    ``rate * burst_s`` tokens, letting short bursts through while
    capping sustained throughput at ``rate``.
    """

    def __init__(self, rate: float, burst_s: float = 2.0) -> None:
        if rate <= 0:
            raise ValueError("admission rate must be positive")
        if burst_s <= 0:
            raise ValueError("admission burst_s must be positive")
        self.rate = float(rate)
        self.burst_s = float(burst_s)
        self.tokens = self.capacity
        self._last_refill = 0.0
        #: Records let through / rejected since construction.
        self.admitted = 0
        self.rejected = 0

    @property
    def capacity(self) -> float:
        return self.rate * self.burst_s

    # ------------------------------------------------------------------
    def admit(self, n: int, now: float, saturated: bool = False) -> int:
        """Return how many of ``n`` offered records to REJECT (a prefix).

        ``saturated`` is the credit-layer tie-in: when the site's backlog
        credits are exhausted, everything is rejected at ingress so the
        internal policy never sees load it would have to shed anyway.
        """
        if n <= 0:
            return 0
        if now > self._last_refill:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self._last_refill) * self.rate,
            )
        self._last_refill = max(self._last_refill, now)
        if saturated:
            self.rejected += n
            return n
        granted = min(n, int(self.tokens))
        self.tokens -= granted
        self.admitted += granted
        rejected = n - granted
        self.rejected += rejected
        return rejected


__all__ = ["AdmissionGate"]
