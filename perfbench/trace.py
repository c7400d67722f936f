"""In-memory span recorder for the traced run.

Spans are recorded from outside the system: :mod:`perfbench._sut` asks this
module to wrap public functions at layer boundaries and the callbacks the
system hands to its event kernel. A span is ``(id, name, start, end, parent)``
with ``name`` = ``"<layer>:<qualified function>"``. Exclusive self-time uses
a pause-parent stack: entering a span stops its parent's clock, leaving it
restarts the parent's, so the self-times of all spans tile the traced wall
time without overlap. Everything stays in memory until :meth:`Tracer.write`.

Per-record boundaries are wrapped with ``record=False``: they keep exact
call counts and self-times but store no span, which bounds memory and keeps
the tracing overhead of a hot loop to two clock reads.
"""

from __future__ import annotations

import functools
import itertools
import json
import time
from typing import Any, Callable

#: Spans kept per traced run; later ones are counted in ``dropped`` (their
#: calls and self-times still accumulate, so the layer table stays exact).
SPAN_CAP = 200_000

#: Name under which time spent in the benchmark's own counting hooks is
#: kept, so it is charged to tracing overhead and not to a layer.
HOOKS = "trace:hooks"


class Tracer:
    """Span recorder with per-name call counts and exclusive self-times."""

    def __init__(
        self, run_id: str, layer_of: Callable[[str, str], str | None]
    ) -> None:
        self.run_id = run_id
        #: ``layer_of(module, qualname)`` names the layer that owns a
        #: callback, or ``None`` for one that must not get a span.
        self._layer_of = layer_of
        #: span name -> [calls, self seconds, inclusive seconds]
        self.stats: dict[str, list] = {}
        #: Counts taken by hooks at the wrappers (records, bytes, ...).
        self.counts: dict[str, float] = {}
        #: Inclusive duration of every call, for names wrapped with
        #: ``durations=True`` (growth over a run, e.g. checkpoint saves).
        self.durations: dict[str, list[float]] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        #: Boundaries the wrapper table named but the system no longer has.
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._ids = itertools.count()
        self._frozen = False
        self._callback_spans: dict[Any, tuple[list, str] | None] = {}
        #: ``run(stat, name, cb, *args)``: see :meth:`_make_runner`.
        self.run = self._make_runner()

    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1.0) -> None:
        if not self._frozen:
            self.counts[name] = self.counts.get(name, 0.0) + amount

    def _stat(self, name: str) -> list:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        record: bool = True,
        pre: Callable | None = None,
        post: Callable | None = None,
        durations: bool = False,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``pre(args, kwargs)`` may return replacement ``(args, kwargs)``
        (used to wrap callbacks passed across a boundary); ``post(args,
        result)`` takes counts. Both run with every layer's clock stopped.
        """
        stat = self._stat(name)
        hook_stat = self._stat(HOOKS)
        kept = self.durations.setdefault(name, []) if durations else None
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = clock()
            if stack:
                top = stack[-1]
                top[0][1] += start - top[1]
                parent = top[2]
            else:
                parent = -1
            if pre is not None:
                replaced = pre(args, kwargs)
                if replaced is not None:
                    args, kwargs = replaced
                resumed = clock()
                hook_stat[1] += resumed - start
                start = resumed
            sid = next(ids)
            frame = [stat, start, sid]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - frame[1]
                stat[2] += end - start
                if stack:
                    stack[-1][1] = end
                if kept is not None:
                    kept.append(end - start)
                if record:
                    if len(spans) < SPAN_CAP:
                        spans.append((sid, name, start, end, parent))
                    else:
                        tracer.dropped += 1
            if post is not None:
                post(args, result)
                resumed = clock()
                hook_stat[1] += resumed - end
                if stack:
                    stack[-1][1] = resumed
            return result

        traced.__perfbench_traced__ = True
        return traced

    # ------------------------------------------------------------------
    def _make_runner(self) -> Callable:
        """The shared span body for callbacks: ``run(stat, name, cb, *args)``.

        One function serves every scheduled callback, so putting a span
        around an event costs no closure per event: the scheduling
        wrappers pass ``run, stat, name, cb`` as the event's arguments.
        """
        stack = self._stack
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def run(stat, name, cb, *args):
            start = clock()
            if stack:
                top = stack[-1]
                top[0][1] += start - top[1]
                parent = top[2]
            else:
                parent = -1
            sid = next(ids)
            frame = [stat, start, sid]
            stack.append(frame)
            try:
                return cb(*args)
            finally:
                end = clock()
                stack.pop()
                stat[0] += 1
                stat[1] += end - frame[1]
                stat[2] += end - start
                if stack:
                    stack[-1][1] = end
                if len(spans) < SPAN_CAP:
                    spans.append((sid, name, start, end, parent))
                else:
                    tracer.dropped += 1

        return run

    def callback_span(self, cb: Callable) -> tuple[list, str] | None:
        """``(stat, name)`` of the span a callback gets, by its owner.

        ``None`` when it already is a traced boundary or belongs to no
        layer (the event kernel's own re-arming callbacks).
        """
        fn = cb
        while isinstance(fn, functools.partial):
            fn = fn.func
        fn = getattr(fn, "__func__", fn)
        key = getattr(fn, "__code__", None) or type(fn)
        try:
            return self._callback_spans[key]
        except KeyError:
            pass
        span = None
        if not getattr(fn, "__perfbench_traced__", False):
            module = getattr(fn, "__module__", None) or type(fn).__module__
            qualname = (
                getattr(fn, "__qualname__", None) or type(fn).__qualname__
            )
            layer = self._layer_of(module, qualname)
            if layer is not None:
                name = f"{layer}:{qualname}"
                span = (self._stat(name), name)
        self._callback_spans[key] = span
        return span

    def callback(self, cb: Callable | None) -> Callable | None:
        """``cb`` wrapped in its owner's span (``cb`` itself if it gets none)."""
        if cb is None:
            return None
        span = self.callback_span(cb)
        if span is None:
            return cb
        return functools.partial(self.run, span[0], span[1], cb)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not the run)."""
        if self._stack:
            raise RuntimeError("reset inside an open span")
        for stat in self.stats.values():
            stat[0], stat[1], stat[2] = 0, 0.0, 0.0
        for kept in self.durations.values():
            kept.clear()
        self.counts.clear()
        self.spans.clear()
        self.dropped = 0

    def freeze(self) -> None:
        """Stop recording: later calls through the wrappers change nothing
        that is read back (the result checks run after the timed region)."""
        if self._stack:
            raise RuntimeError("freeze inside an open span")
        self.stats = {name: list(stat) for name, stat in self.stats.items()}
        self.durations = {name: list(d) for name, d in self.durations.items()}
        self.spans = list(self.spans)
        self._frozen = True

    def layer_self_seconds(self) -> dict[str, float]:
        """Exclusive seconds per layer (the part of a name before ``:``)."""
        out: dict[str, float] = {}
        for name, (_calls, self_s, _total) in self.stats.items():
            layer = name.split(":", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write(self, path, header: dict) -> None:
        """Write the header, every kept span and the per-name totals."""
        with open(path, "w", encoding="utf-8") as out:
            head = dict(header, run=self.run_id, spans=len(self.spans),
                        dropped=self.dropped, missing=self.missing)
            out.write(json.dumps(head) + "\n")
            run = self.run_id
            for sid, name, start, end, parent in self.spans:
                out.write(
                    f'{{"id":{sid},"name":"{name}","start":{start!r},'
                    f'"end":{end!r},"parent":{parent},"run":"{run}"}}\n'
                )
            for name, (calls, self_s, total_s) in sorted(self.stats.items()):
                out.write(json.dumps({
                    "total": name, "calls": calls,
                    "self_s": self_s, "inclusive_s": total_s, "run": run,
                }) + "\n")
