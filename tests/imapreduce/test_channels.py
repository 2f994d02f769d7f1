"""Unit tests for the iteration-tagged mailboxes."""

import pytest

from repro.imapreduce import IterationMailbox, StopIteration_
from repro.simulation import Engine


def run(engine, gen):
    return engine.run(engine.process(gen))


def test_map_outputs_gather_waits_for_all_done_markers():
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("mapout", 0, 0, [1], ["a"]))
    box.put(("mapdone", 0, 0))
    box.put(("mapdone", 0, 1))

    def consumer():
        return (yield from box.gather_map_outputs(0, 2))

    got = run(engine, consumer())
    assert got == ([1], ["a"])


def test_early_messages_for_later_iteration_are_buffered():
    engine = Engine()
    box = IterationMailbox(engine)
    # Iteration 1 traffic arrives before iteration 0 completes.
    box.put(("mapout", 1, 0, [9], ["late"]))
    box.put(("mapdone", 1, 0))
    box.put(("mapdone", 0, 0))

    def consumer():
        first = yield from box.gather_map_outputs(0, 1)
        second = yield from box.gather_map_outputs(1, 1)
        return first, second

    first, second = run(engine, consumer())
    assert first == ([], [])
    assert second == ([9], ["late"])


def test_state_chunks_gather_until_last_from_each_sender():
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("state", 3, 0, [1], False))
    box.put(("state", 3, 0, [2], True))

    def consumer():
        return (yield from box.gather_state_chunks(3, 1))

    assert run(engine, consumer()) == [[1], [2]]


def test_state_chunks_multiple_senders():
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("state", 0, 1, ["b"], True))
    box.put(("state", 0, 0, ["a"], True))

    def consumer():
        return (yield from box.gather_state_chunks(0, 2))

    # Ascending sender order, not arrival order (the delivery-order rule).
    assert run(engine, consumer()) == [["a"], ["b"]]


def test_stop_sentinel_raises():
    engine = Engine()
    box = IterationMailbox(engine)
    box.stop()

    def consumer():
        try:
            yield from box.gather_map_outputs(0, 1)
        except StopIteration_:
            return "stopped"
        return "not stopped"

    assert run(engine, consumer()) == "stopped"


def test_stop_is_sticky():
    engine = Engine()
    box = IterationMailbox(engine)
    box.stop()

    def consumer():
        outcomes = []
        for _ in range(2):
            try:
                yield from box.gather_map_outputs(0, 1)
                outcomes.append("data")
            except StopIteration_:
                outcomes.append("stopped")
        return outcomes

    assert run(engine, consumer()) == ["stopped", "stopped"]


def test_control_tokens():
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("proceed", 4))

    def consumer():
        yield from box.wait_control("proceed", 4)
        return "ok"

    assert run(engine, consumer()) == "ok"


def test_blocking_until_message_arrives():
    engine = Engine()
    box = IterationMailbox(engine)
    times = []

    def consumer():
        yield from box.wait_control("sync", 0)
        times.append(engine.now)

    def producer():
        yield engine.timeout(7.0)
        box.put(("sync", 0))

    engine.process(consumer())
    engine.process(producer())
    engine.run()
    assert times == [7.0]
