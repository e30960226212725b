"""Tests for the discrete-event engine."""

import dataclasses

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Event, EventQueue, SimClock


class TestEventQueue:
    def test_time_ordering(self):
        queue = EventQueue()
        queue.schedule(5.0, "b")
        queue.schedule(1.0, "a")
        queue.schedule(3.0, "c")
        kinds = [queue.pop().kind for _ in range(3)]
        assert kinds == ["a", "c", "b"]

    def test_fifo_tie_break(self):
        queue = EventQueue()
        queue.schedule(1.0, "first")
        queue.schedule(1.0, "second")
        assert queue.pop().kind == "first"
        assert queue.pop().kind == "second"

    def test_cancel(self):
        queue = EventQueue()
        keep = queue.schedule(1.0, "keep")
        drop = queue.schedule(0.5, "drop")
        queue.cancel(drop)
        assert len(queue) == 1
        assert queue.pop().seq == keep.seq

    def test_cancel_after_pop_is_noop(self):
        queue = EventQueue()
        event = queue.schedule(1.0, "x")
        assert queue.pop().seq == event.seq
        queue.cancel(event)
        assert len(queue) == 0

    def test_peek_time(self):
        queue = EventQueue()
        assert queue.peek_time() is None
        queue.schedule(2.0, "x")
        assert queue.peek_time() == 2.0

    def test_peek_skips_cancelled(self):
        queue = EventQueue()
        early = queue.schedule(1.0, "early")
        queue.schedule(2.0, "late")
        queue.cancel(early)
        assert queue.peek_time() == 2.0

    def test_pop_empty_raises(self):
        with pytest.raises(SimulationError):
            EventQueue().pop()

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            EventQueue().schedule(-1.0, "x")

    def test_payload_carried(self):
        queue = EventQueue()
        queue.schedule(1.0, "x", payload={"pid": 3})
        assert queue.pop().payload == {"pid": 3}

    def test_bool_and_len(self):
        queue = EventQueue()
        assert not queue
        event = queue.schedule(1.0, "x")
        assert queue and len(queue) == 1
        queue.cancel(event)
        assert not queue

    def test_cancelled_set_drains_when_queue_logically_empty(self):
        # Regression: cancelled events buried below the heap top used to
        # linger in _cancelled (and _heap) forever once the queue was
        # logically empty, growing without bound on a reused queue.
        queue = EventQueue()
        for round_no in range(50):
            live = queue.schedule(1.0, "live")
            buried = queue.schedule(2.0 + round_no, "buried")
            queue.cancel(buried)
            assert queue.pop().seq == live.seq
            assert not queue
            queue.peek_time()  # any lazy-deletion entry point
            assert not queue._cancelled
            assert not queue._heap

    def test_cancelled_set_bounded_with_live_backlog(self):
        # Out-of-order cancellations with a live event pinned at the heap
        # top must not accumulate corpses past the compaction threshold.
        queue = EventQueue()
        queue.schedule(0.0, "pinned")
        cancelled = [
            queue.schedule(10.0 + i, f"bulk{i}") for i in range(500)
        ]
        for event in cancelled:
            queue.cancel(event)
        assert len(queue) == 1
        queue.peek_time()
        assert len(queue._cancelled) <= 128
        assert queue.pop().kind == "pinned"
        assert not queue._cancelled and not queue._heap

    def test_pop_order_survives_compaction(self):
        queue = EventQueue()
        keep = [queue.schedule(float(i), f"k{i}") for i in range(5)]
        victims = [queue.schedule(100.0 + i, "v") for i in range(300)]
        for event in victims:
            queue.cancel(event)
        queue.peek_time()
        assert [queue.pop().seq for _ in range(5)] == [
            e.seq for e in keep
        ]
        assert not queue


class TestEventRecord:
    def test_fifo_tie_break_across_kinds_at_one_instant(self):
        queue = EventQueue()
        instant = 0.1 + 0.2
        order = ["tick", "finish", "arrival", "phase", "finish", "tick"]
        for i, kind in enumerate(order):
            queue.schedule(instant, kind, i)
        popped = [queue.pop() for _ in order]
        assert [e.kind for e in popped] == order
        assert [e.payload for e in popped] == list(range(len(order)))

    def test_dict_payloads_never_compared(self):
        # Dicts have no ordering: any heap comparison that reached the
        # payload would raise TypeError.
        queue = EventQueue()
        for i in range(50):
            queue.schedule(float(i % 3), "x", {"pid": i})
        times = []
        while queue:
            event = queue.pop()
            times.append((event.time_s, event.payload["pid"]))
        assert times == sorted(times)

    def test_event_is_immutable(self):
        event = EventQueue().schedule(1.0, "x", {"pid": 1})
        assert isinstance(event, Event)
        with pytest.raises(AttributeError):
            event.time_s = 2.0
        with pytest.raises(AttributeError):
            event.kind = "y"
        assert not dataclasses.is_dataclass(event)
        assert tuple(event) == (1.0, event.seq, "x", {"pid": 1})

    def test_pop_at_is_exact(self):
        queue = EventQueue()
        queue.schedule(0.1 + 0.2, "a")
        queue.schedule(0.3, "b")
        first = queue.pop()
        assert first.kind == "b"  # 0.3 < 0.1 + 0.2 in binary floats
        assert queue.pop_at(0.3) is None
        assert queue.pop_at(0.30000000000000004).kind == "a"
        assert queue.pop_at(0.30000000000000004) is None

    def test_pop_at_skips_cancelled_and_keeps_fifo(self):
        queue = EventQueue()
        first = queue.schedule(2.0, "first")
        second = queue.schedule(2.0, "second", {"k": 1})
        third = queue.schedule(2.0, "third", {"k": 2})
        queue.schedule(3.0, "later")
        queue.cancel(second)
        assert queue.pop().seq == first.seq
        assert queue.pop_at(2.0).seq == third.seq
        assert queue.pop_at(2.0) is None
        assert len(queue) == 1


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_advance_returns_delta(self):
        clock = SimClock()
        assert clock.advance_to(2.5) == 2.5
        assert clock.advance_to(4.0) == 1.5
        assert clock.now == 4.0

    def test_no_backwards(self):
        clock = SimClock()
        clock.advance_to(5.0)
        with pytest.raises(SimulationError):
            clock.advance_to(4.0)

    def test_tiny_backwards_tolerated(self):
        clock = SimClock()
        clock.advance_to(5.0)
        assert clock.advance_to(5.0 - 1e-12) == 0.0
        assert clock.now == 5.0
