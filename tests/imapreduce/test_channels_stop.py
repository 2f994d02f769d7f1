"""Stop-sentinel semantics: the final-iteration handshake."""

import pytest

from repro.imapreduce import IterationMailbox, StopIteration_
from repro.simulation import Engine


def run(engine, gen):
    return engine.run(engine.process(gen))


def test_stop_carries_final_iteration():
    engine = Engine()
    box = IterationMailbox(engine)
    box.stop(7)

    def consumer():
        try:
            yield from box.gather_map_outputs(8, 1)
        except StopIteration_ as exc:
            return exc.final_iteration

    assert run(engine, consumer()) == 7


def test_stop_without_final_iteration_is_none():
    engine = Engine()
    box = IterationMailbox(engine)
    box.stop()

    def consumer():
        try:
            yield from box.gather_map_outputs(0, 1)
        except StopIteration_ as exc:
            return ("none", exc.final_iteration)

    assert run(engine, consumer()) == ("none", None)


def test_final_iteration_sticky_across_gathers():
    engine = Engine()
    box = IterationMailbox(engine)
    box.stop(3)

    def consumer():
        results = []
        for _ in range(2):
            try:
                yield from box.gather_state_chunks(0, 1)
            except StopIteration_ as exc:
                results.append(exc.final_iteration)
        return results

    assert run(engine, consumer()) == [3, 3]


def test_data_before_stop_still_consumed():
    """Messages queued ahead of the sentinel are delivered first."""
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("mapout", 0, 0, [1], ["x"]))
    box.put(("mapdone", 0, 0))
    box.stop(0)

    def consumer():
        data = yield from box.gather_map_outputs(0, 1)
        try:
            yield from box.gather_map_outputs(1, 1)
        except StopIteration_ as exc:
            return data, exc.final_iteration

    data, final = run(engine, consumer())
    assert data == ([1], ["x"])
    assert final == 0


def test_buffered_early_arrivals_survive_the_stop_sentinel():
    """Regression: messages that raced ahead of their gather — buffered
    as early arrivals for the final iteration — must still be consumed
    after the stop sentinel has been *seen and raised*.  The sticky stop
    used to win over the early-arrival buffer, dropping final-iteration
    data a run-ahead sender had already delivered."""
    engine = Engine()
    box = IterationMailbox(engine)
    # An async run-ahead sender delivered iteration 1 (the final
    # iteration) before the master's stop landed.
    box.put(("mapout", 1, 0, [9], ["late"]))
    box.put(("mapdone", 1, 0))
    box.stop(1)

    def consumer():
        # Gathering the stale iteration 0 buffers the run-ahead messages
        # and then hits the sentinel.
        try:
            yield from box.gather_map_outputs(0, 1)
        except StopIteration_ as exc:
            final = exc.final_iteration
        # The final-iteration dump must still see the buffered data,
        # even though the mailbox is now stopped.
        data = yield from box.gather_map_outputs(final, 1)
        return data, final

    data, final = run(engine, consumer())
    assert data == ([9], ["late"])
    assert final == 1


def test_stop_still_raises_when_no_early_arrivals_match():
    """After the buffered final-iteration data is drained, further
    gathers hit the sticky sentinel again."""
    engine = Engine()
    box = IterationMailbox(engine)
    box.put(("mapout", 1, 0, [9], ["late"]))
    box.put(("mapdone", 1, 0))
    box.stop(1)

    def consumer():
        try:
            yield from box.gather_map_outputs(0, 1)
        except StopIteration_:
            pass
        yield from box.gather_map_outputs(1, 1)
        try:
            yield from box.gather_map_outputs(2, 1)
        except StopIteration_ as exc:
            return ("stopped-again", exc.final_iteration)
        return "not-stopped"

    assert run(engine, consumer()) == ("stopped-again", 1)
