"""Durable checkpoint/restore of streaming state.

:class:`CheckpointStore` is the simulation's stand-in for a durable
store (object storage, a replicated log): snapshots are serialized to
JSON on ``save`` — which *enforces* that every byte of checkpointed
state is actually serializable, the property crash-restart recovery
depends on — and deserialized on ``load``, so a restored component can
share no live object with its crashed predecessor.

A payload may declare grow-only row lists with a ``"since"`` cursor
(``{key: rows already durable}``); the store then keeps that name as an
append-only *chain* and a save costs the rows added since the previous
one, not the rows ever written (see :meth:`CheckpointStore.save`).

:class:`Checkpointer` drives periodic snapshots on the virtual clock:
components register ``(name, snapshot_fn)`` pairs; every interval each
function is called and its payload saved. A snapshot function may
return ``None`` to skip a round (e.g. the component is currently down).
Checkpoint size and age are exported through ``repro.obs``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Callable


def _dumps(value: Any) -> str:
    return json.dumps(value, separators=(",", ":"))


class CheckpointStore:
    """In-memory durable store with JSON-roundtrip semantics."""

    def __init__(self) -> None:
        #: Latest non-log state per name (the whole payload for a name
        #: that declares no logs).
        self._blobs: dict[str, str] = {}
        #: Per log key of a chained name (none for a plain one): the
        #: serialized row segments in save order, and the rows they hold.
        self._segments: dict[str, dict[str, list[str]]] = {}
        self._rows: dict[str, dict[str, int]] = {}
        self._saved_at: dict[str, float] = {}
        self._seq: dict[str, int] = {}
        self._on_save: list[Callable[[str, int, float], None]] = []
        self.saves = 0
        self.loads = 0

    def on_save(self, cb: Callable[[str, int, float], None]) -> None:
        """Subscribe ``cb(name, seq, now)`` to every successful save.

        The control plane uses this to ship fresh aggregator snapshots
        to warm standbys; anything else that wants write-through
        replication of the store can ride the same hook.
        """
        self._on_save.append(cb)

    def seq(self, name: str) -> int:
        """Monotonic save counter for ``name`` (0 if never saved)."""
        return self._seq.get(name, 0)

    def cursor(self, name: str) -> dict[str, int] | None:
        """Rows the chain of ``name`` holds per log key (``None``: no chain).

        This is the ``since`` a component must cut its next delta
        against for :meth:`save` to accept it.
        """
        rows = self._rows.get(name)
        return dict(rows) if rows else None

    def save(self, name: str, payload: dict[str, Any], now: float = 0.0) -> int:
        """Serialize and store ``payload``; returns the bytes this save wrote.

        Non-JSON-serializable state raises immediately — a checkpoint
        that cannot be written must fail at save time, not at the
        restore that was supposed to rescue the run.

        A payload carrying ``"since": {key: n, ...}`` declares each
        ``payload[key]`` as the rows of a grow-only list from row ``n``
        on. All-zero cursors (a complete snapshot) start a new chain,
        as a payload without a cursor replaces whatever the name held.
        Any other cursor must equal the row counts the chain holds — its
        rows are serialized once and appended, and the rest of the
        payload overwrites the previous non-log state. A delta cut
        against anything else would leave a gap or a repeat in the
        restored lists, so it raises ``ValueError`` and the chain stays
        as it was.
        """
        since = payload.get("since") or {}
        if any(since.values()):
            if since != self._rows.get(name):
                raise ValueError(
                    f"checkpoint {name!r}: delta cut at {since} does not "
                    f"extend the chain held ({self._rows.get(name)})"
                )
            segments = self._segments[name]
        else:
            segments = {key: [] for key in since}
        blob = _dumps(
            {k: v for k, v in payload.items() if k != "since" and k not in since}
        )
        tails = {key: _dumps(payload[key]) for key in since if payload[key]}
        # Everything serialized: from here on the save cannot fail.
        written = len(blob) + sum(len(tail) for tail in tails.values())
        for key, tail in tails.items():
            segments[key].append(tail)
        self._blobs[name] = blob
        self._segments[name] = segments
        self._rows[name] = {
            key: n + len(payload[key]) for key, n in since.items()
        }
        self._saved_at[name] = now
        self._seq[name] = self._seq.get(name, 0) + 1
        self.saves += 1
        for cb in self._on_save:
            cb(name, self._seq[name], now)
        return written

    def load(self, name: str) -> dict[str, Any] | None:
        """Deserialize the latest snapshot, or ``None`` if absent.

        A chain comes back as one ordinary complete payload: the latest
        non-log state, every log's segments joined in save order, and a
        zero ``since``.
        """
        blob = self._blobs.get(name)
        if blob is None:
            return None
        self.loads += 1
        payload = json.loads(blob)
        segments = self._segments[name]
        if segments:
            for key, parts in segments.items():
                payload[key] = [
                    row for part in parts for row in json.loads(part)
                ]
            payload["since"] = dict.fromkeys(segments, 0)
        return payload

    def size_bytes(self, name: str) -> int:
        """Durable bytes under ``name`` — what a restart would read."""
        return len(self._blobs.get(name, "")) + sum(
            len(part)
            for parts in self._segments.get(name, {}).values()
            for part in parts
        )

    def age(self, name: str, now: float) -> float:
        """Seconds since ``name`` was last saved (inf if never)."""
        saved = self._saved_at.get(name)
        return math.inf if saved is None else now - saved

    def names(self) -> list[str]:
        return sorted(self._blobs)

    def __contains__(self, name: str) -> bool:
        return name in self._blobs


class Checkpointer:
    """Periodic checkpoint driver on the simulation clock."""

    def __init__(self, engine, store: CheckpointStore, interval: float = 15.0):
        if interval <= 0:
            raise ValueError("checkpoint interval must be positive")
        self.engine = engine
        self.store = store
        self.interval = interval
        self._targets: list[tuple[str, Callable[[], dict | None]]] = []
        self._task = None
        self.rounds = 0
        obs = engine.observer
        self._obs_on = obs.enabled
        self._m_total = obs.counter("flow_checkpoints_total")
        self._m_skipped = obs.counter("flow_checkpoints_skipped_total")
        self._st_ckpt = obs.stage("flow.checkpoint")

    def register(self, name: str, snapshot_fn: Callable[[], dict | None]):
        """Add a snapshot target (idempotent per name: last wins)."""
        self._targets = [(n, f) for n, f in self._targets if n != name]
        self._targets.append((name, snapshot_fn))
        return self

    def start(self) -> "Checkpointer":
        if self._task is None:
            self._task = self.engine.sim.add_periodic(
                self.interval, self.run_once
            )
        return self

    def stop(self) -> None:
        if self._task is not None:
            self._task.stop()
            self._task = None

    def run_once(self) -> None:
        """Snapshot every registered target now (also the periodic body)."""
        now = self.engine.sim.now
        self.rounds += 1
        obs = self.engine.observer
        with self._st_ckpt:
            for name, fn in self._targets:
                age = self.store.age(name, now)
                payload = fn()
                if payload is None:
                    if self._obs_on:
                        self._m_skipped.inc()
                    continue
                size = self.store.save(name, payload, now)
                if self._obs_on:
                    self._m_total.inc()
                    obs.gauge("flow_checkpoint_bytes", target=name).set(size)
                    if math.isfinite(age):
                        # Age of the snapshot being *replaced*: the exposure
                        # window a crash at this instant would have lost.
                        obs.gauge(
                            "flow_checkpoint_age_seconds", target=name
                        ).set(age)
