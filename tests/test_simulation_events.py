"""Unit tests for the event queue."""

from repro.simulation.events import Event, EventQueue


def test_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(3.0, fired.append, ("c",))
    q.push(1.0, fired.append, ("a",))
    q.push(2.0, fired.append, ("b",))
    times = []
    while True:
        e = q.pop()
        if e is None:
            break
        times.append(e.time)
    assert times == [1.0, 2.0, 3.0]


def test_same_time_fifo_order():
    """Events at the same instant fire in scheduling order (seq)."""
    q = EventQueue()
    q.push(1.0, lambda: None, (), priority=0)
    first = q.pop()
    q2 = EventQueue()
    events = [q2.push(5.0, lambda i=i: i, ()) for i in range(10)]
    popped = [q2.pop() for _ in range(10)]
    assert [e.seq for e in popped] == sorted(e.seq for e in events)


def test_priority_breaks_time_ties():
    q = EventQueue()
    q.push(1.0, lambda: None, (), priority=5)
    high = q.push(1.0, lambda: None, (), priority=-5)
    assert q.pop() is high


def test_cancelled_events_are_skipped():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None, ())
    e2 = q.push(2.0, lambda: None, ())
    e1.cancel()
    assert q.pop() is e2
    assert q.pop() is None


def test_len_ignores_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None, ())
    q.push(2.0, lambda: None, ())
    assert len(q) == 2
    e1.cancel()
    assert len(q) == 1


def test_peek_time_skips_cancelled():
    q = EventQueue()
    e1 = q.push(1.0, lambda: None, ())
    q.push(4.0, lambda: None, ())
    assert q.peek_time() == 1.0
    e1.cancel()
    assert q.peek_time() == 4.0


def test_bool_semantics():
    q = EventQueue()
    assert not q
    e = q.push(1.0, lambda: None, ())
    assert q
    e.cancel()
    assert not q


def test_empty_pop_returns_none():
    assert EventQueue().pop() is None
    assert EventQueue().peek_time() is None


def test_event_ordering_operator():
    a = Event(1.0, 0, 0, lambda: None, ())
    b = Event(1.0, 0, 1, lambda: None, ())
    c = Event(0.5, 9, 2, lambda: None, ())
    assert a < b
    assert c < a
