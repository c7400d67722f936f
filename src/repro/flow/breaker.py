"""Circuit breaker for WAN shipping links.

Classic three-state breaker on the virtual clock:

* **closed** — traffic flows; consecutive delivery failures are counted;
* **open** — after ``failure_threshold`` consecutive failures (or a
  fault-bus event naming the link) no new attempt enters the link for
  ``reset_timeout`` seconds, so a dead route stops consuming senders,
  retries, and queue space;
* **half-open** — one probe attempt is let through; success closes the
  breaker, failure re-opens it for another full timeout.

The breaker cooperates with the failure-detection plumbing of the
engine: a ``link.down`` event naming its link trips it immediately
(no need to burn ``failure_threshold`` timeouts against a
link the monitor already knows is dead) and ``link.up`` arms an
immediate half-open probe.
"""

from __future__ import annotations

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Failure-counting gate for one directed WAN link."""

    def __init__(
        self,
        engine,
        link: tuple[str, str] | None = None,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
        name: str | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ValueError("reset_timeout must be positive")
        self.engine = engine
        self.link = link
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.name = name or (f"{link[0]}->{link[1]}" if link else "breaker")
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opens = 0
        self.closes = 0
        self._reopen_at = -1.0
        obs = engine.observer
        self._obs_on = obs.enabled
        self._m_transitions = {
            state: obs.counter(
                "flow_breaker_transitions_total", breaker=self.name, to=state
            )
            for state in (CLOSED, OPEN, HALF_OPEN)
        }
        self._m_state = obs.gauge("flow_breaker_state", breaker=self.name)
        if link is not None:
            engine.on_fault(self._on_fault)

    # ------------------------------------------------------------------
    def _transition(self, state: str) -> None:
        if state == self.state:
            return
        self.state = state
        if state == OPEN:
            self.opens += 1
        elif state == CLOSED:
            self.closes += 1
        if self._obs_on:
            self._m_transitions[state].inc()
            self._m_state.set(
                {CLOSED: 0.0, HALF_OPEN: 1.0, OPEN: 2.0}[state]
            )

    def _on_fault(self, kind: str, target: str) -> None:
        if kind not in ("link.down", "link.up"):
            return
        if target != f"{self.link[0]}->{self.link[1]}":
            return
        if kind == "link.down":
            self.trip()
        elif self.state == OPEN:
            # The monitor says the link is back: probe right away
            # instead of waiting out the timeout.
            self._reopen_at = self.engine.sim.now

    # ------------------------------------------------------------------
    def trip(self) -> None:
        """Open immediately (fault-bus shortcut past the failure count)."""
        self.consecutive_failures = max(
            self.consecutive_failures, self.failure_threshold
        )
        self._reopen_at = self.engine.sim.now + self.reset_timeout
        self._transition(OPEN)

    def record_failure(self) -> None:
        """One delivery attempt timed out / failed."""
        self.consecutive_failures += 1
        if self.state == HALF_OPEN:
            # The probe failed: back to open for a full timeout.
            self._reopen_at = self.engine.sim.now + self.reset_timeout
            self._transition(OPEN)
        elif (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            self._reopen_at = self.engine.sim.now + self.reset_timeout
            self._transition(OPEN)

    def record_success(self) -> None:
        """One delivery attempt was acknowledged."""
        self.consecutive_failures = 0
        self._transition(CLOSED)

    def allow(self) -> bool:
        """May an attempt enter the link now?

        In the open state the first call past the reset timeout becomes
        the half-open probe; while the probe is outstanding every other
        caller keeps waiting.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN and self.engine.sim.now >= self._reopen_at:
            self._transition(HALF_OPEN)
            return True
        return False

    def probe_delay(self) -> float:
        """Seconds until the next half-open probe becomes possible."""
        if self.state != OPEN:
            return 0.0
        return max(0.0, self._reopen_at - self.engine.sim.now)
