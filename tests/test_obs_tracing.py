"""Tests for the event log: one span entry, two retention windows, JSONL."""

from repro.obs import NULL_LOG, EventLog, Observer, dump, read_jsonl
from repro.obs import log as log_module
from repro.obs.exporters import trace_summary


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


# ----------------------------------------------------------------------
# Span entries
# ----------------------------------------------------------------------
def test_detached_span_duration_uses_bound_clock():
    clock = FakeClock()
    log = EventLog(clock)
    clock.t = 4.5
    log.record_span("ship.batch", 0.0, clock.t, bytes=100, bps=22.2)
    (span,) = log.spans
    assert span["t"] == 4.5  # stamped when written, by the bound clock
    assert span["end"] - span["start"] == 4.5
    assert span["attrs"] == {"bytes": 100, "bps": 22.2}


def test_record_span_is_retroactive():
    log = EventLog()
    log.record_span("window", 10.0, 12.5, key="NEU")
    assert log.spans == [{
        "t": 0.0, "kind": "span", "name": "window", "start": 10.0,
        "end": 12.5, "attrs": {"key": "NEU"},
    }]


def test_span_is_one_entry_kept_for_two_windows(tmp_path, monkeypatch):
    monkeypatch.setattr(log_module, "RING_CAPACITY", 3)
    obs = Observer()
    for i in range(5):
        obs.log.record("event", seq=i)
        obs.record_span("ship.batch", float(i), i + 0.5, payload=object())
    # The same dict in both places: a span is written once.
    assert obs.log.ring[-1] is obs.log.spans[-1]
    assert [e.get("seq") for e in obs.log.ring] == [None, 4, None]
    assert len(obs.log.spans) == 5  # the ring evicts, spans keep every one

    written = obs.export(
        trace_path=str(tmp_path / "t.jsonl"),
        flight_path=str(tmp_path / "f.jsonl"),
    )
    assert written["spans"] == 5 and written["flight"] == 3
    trace = read_jsonl(str(tmp_path / "t.jsonl"))
    flight = read_jsonl(str(tmp_path / "f.jsonl"))
    assert [s["start"] for s in trace] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert [e["kind"] for e in flight] == ["span", "event", "span"]
    assert trace[-1] == flight[-1]
    assert isinstance(trace[0]["attrs"]["payload"], str)  # stringified


# ----------------------------------------------------------------------
# JSONL round-trip
# ----------------------------------------------------------------------
def test_jsonl_round_trip(tmp_path):
    clock = FakeClock()
    obs = Observer(clock)
    clock.t = 3.5
    obs.record_span("outer", 0.0, 3.5, kind="t")
    obs.record_span("inner", 2.0, 3.0)
    obs.record_span("window", 0.5, 1.5, key="k", sites=2)

    path = tmp_path / "trace.jsonl"
    assert obs.export(trace_path=str(path))["spans"] == 3
    back = read_jsonl(str(path))
    # Stable-sorted by start time.
    assert [s["name"] for s in back] == ["outer", "window", "inner"]
    assert {frozenset(s) for s in back} == {
        frozenset({"t", "kind", "name", "start", "end", "attrs"})
    }
    by_name = {s["name"]: s for s in back}
    assert by_name["window"]["attrs"] == {"key": "k", "sites": 2}
    # An attribute named like an entry key stays inside ``attrs``.
    assert by_name["outer"]["kind"] == "span"
    assert by_name["outer"]["attrs"] == {"kind": "t"}
    # Field-level fidelity against the in-memory entries.
    assert sorted(back, key=lambda s: s["name"]) == sorted(
        obs.log.spans, key=lambda s: s["name"]
    )
    # ``dump`` writes any entry sequence; blank lines are skipped on read.
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("\n")
    assert read_jsonl(str(path)) == back
    assert dump(str(path), []) == 0 and read_jsonl(str(path)) == []


def test_trace_summary_rolls_up_by_name():
    log = EventLog()
    for i in range(3):
        log.record_span("ship.batch", 0.0, float(i + 1))
    log.record_span("window", 0.0, 10.0)
    text = trace_summary(log.spans)
    assert "ship.batch" in text and "window" in text
    assert trace_summary([]).endswith("(no spans recorded)")


# ----------------------------------------------------------------------
# Null path
# ----------------------------------------------------------------------
def test_null_log_records_nothing():
    NULL_LOG.bind_clock(lambda: 1.0)
    NULL_LOG.record("event", fn="cb")
    assert NULL_LOG.record_span("c", 0.0, 1.0) is None
    assert not NULL_LOG.ring and not NULL_LOG.spans
