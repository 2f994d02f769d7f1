"""Reliable delivery properties: dedup under duplication and reorder,
retransmission through loss and partitions.

The cross-pair mailbox traffic rides a stop-and-wait channel: lost
messages are retransmitted with backoff, and a receiver that already saw
a message (its *ack* was the thing that got lost) drops the repeat by
dedup key.  These tests pin the two halves separately: the mailbox's
dedup filter under adversarial delivery orders, and the cluster's
``reliable_transfer`` under loss windows and transient partitions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import FaultSchedule, local_cluster
from repro.imapreduce import IterationMailbox
from repro.simulation import Engine


# ---------------------------------------------------------------- dedup --
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_mailbox_dedup_ignores_duplication_and_reorder(data):
    """However the wire duplicates and interleaves delivery attempts,
    the consumer observes each message exactly once and gathers exactly
    the clean run's records.

    The adversary respects the one guarantee stop-and-wait provides:
    within one sender's flow, *first* arrivals are ordered (a sender does
    not emit ``mapdone`` before its ``mapout`` was acknowledged).  Across
    senders any interleaving is possible, and late duplicates — created
    when the ack, not the message, was lost — may land anywhere after
    their first arrival, including after the flow's later messages.
    """
    num_maps = data.draw(st.integers(min_value=1, max_value=4))
    flows = {}
    for sender in range(num_maps):
        records = data.draw(
            st.lists(st.integers(), min_size=0, max_size=3), label=f"recs{sender}"
        )
        flows[sender] = [
            (("mapout", 0, sender, [sender] * len(records), records), ("mapout", sender)),
            (("mapdone", 0, sender), ("mapdone", sender)),
        ]
    total = sum(len(flow) for flow in flows.values())

    # Random cross-flow interleaving of first arrivals.
    arrivals = []
    cursors = {sender: 0 for sender in flows}
    while len(arrivals) < total:
        open_flows = [s for s in flows if cursors[s] < len(flows[s])]
        sender = data.draw(st.sampled_from(open_flows))
        arrivals.append(flows[sender][cursors[sender]])
        cursors[sender] += 1

    # Late duplicates: each lands strictly after its first arrival.
    final = list(arrivals)
    for attempt in arrivals:
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            first = final.index(attempt)
            pos = data.draw(st.integers(min_value=first + 1, max_value=len(final)))
            final.insert(pos, attempt)

    engine = Engine()
    box = IterationMailbox(engine)
    accepted = 0
    for message, key in final:
        accepted += box.deliver(message, dedup_key=key)
    assert accepted == total, "exactly one accept per distinct message"

    def consumer():
        out = yield from box.gather_map_outputs(0, num_maps)
        return out

    gathered = engine.run(engine.process(consumer()))
    expected = sorted(
        rec
        for flow in flows.values()
        for (message, _) in flow
        if message[0] == "mapout"
        for rec in zip(message[3], message[4])
    )
    assert sorted(zip(*gathered)) == expected


def test_early_arrivals_preserve_first_delivery_order():
    """Duplicates never reorder content: the consumer sees each sender's
    messages once, senders in ascending order."""
    engine = Engine()
    box = IterationMailbox(engine)
    box.deliver(("mapout", 0, 0, [0], ["a"]), dedup_key="a")
    box.deliver(("mapout", 0, 1, [1], ["b"]), dedup_key="b")
    box.deliver(("mapout", 0, 0, [0], ["a"]), dedup_key="a")  # retransmit
    box.deliver(("mapdone", 0, 0), dedup_key="d0")
    box.deliver(("mapdone", 0, 1), dedup_key="d1")

    def consumer():
        return (yield from box.gather_map_outputs(0, 2))

    assert engine.run(engine.process(consumer())) == ([0, 1], ["a", "b"])


# ------------------------------------------------------- retransmission --
@settings(max_examples=20, deadline=None)
@given(
    loss=st.floats(min_value=0.0, max_value=0.6),
    net_seed=st.integers(min_value=0, max_value=2**31),
    nbytes=st.integers(min_value=1, max_value=1 << 20),
)
def test_reliable_transfer_always_lands_through_loss(loss, net_seed, nbytes):
    engine = Engine()
    cluster = local_cluster(engine, 2)
    FaultSchedule().lose(0.0, float("inf"), loss).arm(
        engine, cluster, net_seed=net_seed
    )

    def sender():
        ok = yield from cluster.reliable_transfer(
            cluster["node0"], cluster["node1"], nbytes
        )
        return ok

    assert engine.run(engine.process(sender())) is True


@settings(max_examples=20, deadline=None)
@given(
    heal=st.floats(min_value=0.5, max_value=20.0),
    net_seed=st.integers(min_value=0, max_value=2**31),
)
def test_reliable_transfer_waits_out_a_partition(heal, net_seed):
    """A transfer started inside a transient partition completes only
    after the window heals — never before, never not at all."""
    engine = Engine()
    cluster = local_cluster(engine, 3)
    FaultSchedule().partition(0.0, heal, ("node1",)).arm(
        engine, cluster, net_seed=net_seed
    )

    def sender():
        ok = yield from cluster.reliable_transfer(
            cluster["node0"], cluster["node1"], 4096
        )
        return ok, engine.now

    ok, finished = engine.run(engine.process(sender()))
    assert ok is True
    assert finished >= heal
