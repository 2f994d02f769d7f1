"""Persistent channels between iMapReduce tasks.

The paper builds long-lived socket connections from each reduce task to
its paired map task (§3.2.1) and lets map outputs flow to reduce tasks as
in MapReduce.  Because persistent tasks of *different* pairs progress at
different speeds in asynchronous mode, a message for iteration *k+1* can
arrive while a task is still gathering iteration *k*; the
:class:`IterationMailbox` therefore tags every message with its iteration
and buffers early arrivals.

Message vocabulary (tuples, first element is the kind):

* ``("state", k, sender, records, last)`` — reduce→map state chunk;
  ``last`` marks the sender's final chunk for iteration ``k``;
* ``("mapout", k, sender, keys, values)`` — map→reduce shuffle data,
  as two columns;
* ``("mapdone", k, sender)`` — map ``sender`` finished shuffling ``k``;
* ``("sync", k)`` — master: global barrier for iteration ``k`` passed;
* ``("proceed", k)`` — master: reports for ``k`` accepted, reduces may
  process ``k+1``;
* ``("stop",)`` — master: terminate the persistent task.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Hashable

from ..simulation import Engine, Store

__all__ = ["StopIteration_", "IterationMailbox"]

# Stop-and-wait retransmission for cross-pair messages: one message per
# flow is in flight at a time; an unacknowledged send is retried after
# RTO_INITIAL seconds, doubling (RTO_BACKOFF) up to RTO_MAX per wait.
# MAX_RETRIES bounds a send whose receiver is permanently unreachable —
# by then the failure detector has long since confirmed the peer dead
# and recovery re-routes the flow.
RTO_INITIAL = 0.25
RTO_BACKOFF = 2.0
RTO_MAX = 2.0
MAX_RETRIES = 64


class StopIteration_(Exception):
    """Raised inside a gather when the master's stop sentinel arrives.

    ``final_iteration`` names the last globally-agreed iteration: the
    final-phase reduces dump the state of exactly that iteration, even if
    they ran ahead of the master's decision (asynchronous mode lets tasks
    be up to one iteration ahead)."""

    def __init__(self, final_iteration: int | None = None):
        super().__init__(final_iteration)
        self.final_iteration = final_iteration


class IterationMailbox:
    """A tagged, iteration-aware FIFO mailbox for one persistent task."""

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._store = Store(engine)
        #: Early arrivals, keyed by (kind, iteration).
        self._early: dict[tuple[str, int], list[tuple]] = defaultdict(list)
        self._stopped = False
        self._final_iteration: int | None = None
        #: Dedup keys already delivered (see :meth:`deliver`).
        self._seen: set[Hashable] = set()

    # -- producer side ------------------------------------------------------------
    def put(self, message: tuple) -> None:
        self._store.put(message)

    def deliver(self, message: tuple, dedup_key: Hashable | None = None) -> bool:
        """Deliver ``message``, suppressing retransmission duplicates.

        The reliable channel layer retransmits until acknowledged, so a
        message whose *ack* was lost arrives more than once; the receiver
        keeps the set of seen keys and drops repeats.  Returns ``True``
        iff the message was enqueued (i.e. was not a duplicate).
        """
        if dedup_key is not None:
            if dedup_key in self._seen:
                return False
            self._seen.add(dedup_key)
        self._store.put(message)
        return True

    def stop(self, final_iteration: int | None = None) -> None:
        self._store.put(("stop", final_iteration))

    # -- consumer side --------------------------------------------------------------
    def next_message(self, wanted_kinds: tuple[str, ...], iteration: int):
        """Yield-from helper: the next matching message for ``iteration``.

        Non-matching messages are buffered for later gathers.  Raises
        :class:`StopIteration_` when the stop sentinel is seen (also on
        a sentinel seen during an *earlier* gather) — but an already
        buffered early arrival for this gather is consumed first, so a
        final-iteration chunk that landed just before the sentinel is
        never dropped.
        """
        for kind in wanted_kinds:
            bucket = self._early.get((kind, iteration))
            if bucket:
                return bucket.pop(0)
        if self._stopped:
            raise StopIteration_(self._final_iteration)
        while True:
            message = yield self._store.get()
            kind = message[0]
            if kind == "stop":
                self._stopped = True
                self._final_iteration = message[1]
                raise StopIteration_(self._final_iteration)
            if kind in wanted_kinds and message[1] == iteration:
                return message
            self._early[(kind, message[1])].append(message)

    # -- gather patterns -----------------------------------------------------------
    # A gather hands over what it collected in ascending sender order,
    # each sender's messages in arrival order — the engine's
    # delivery-order rule (:mod:`.engine`): a reduce folds its values in
    # one fixed sequence however the senders' traffic interleaved.
    def gather_state_chunks(self, iteration: int, senders: int):
        """Reduce→map gather (generator): the ``state`` chunks for
        ``iteration``, once ``senders`` distinct senders have delivered
        their ``last`` chunk.  Use ``yield from``."""
        finished: set[Any] = set()
        chunks: dict[Any, list[list]] = defaultdict(list)
        while len(finished) < senders:
            message = yield from self.next_message(("state",), iteration)
            _, _, sender, records, last = message
            chunks[sender].append(records)
            if last:
                finished.add(sender)
        return [chunk for sender in sorted(chunks) for chunk in chunks[sender]]

    def gather_map_outputs(self, iteration: int, num_maps: int):
        """Map→reduce gather (generator): all shuffle data for
        ``iteration`` as ``(keys, values)`` columns, once every map task
        has sent its ``mapdone`` marker."""
        done: set[Any] = set()
        outputs: dict[Any, list[tuple]] = defaultdict(list)
        while len(done) < num_maps:
            message = yield from self.next_message(("mapout", "mapdone"), iteration)
            if message[0] == "mapdone":
                done.add(message[2])
            else:
                outputs[message[2]].append(message[3:])
        keys: list = []
        values: list = []
        for sender in sorted(outputs):
            for sender_keys, sender_values in outputs[sender]:
                keys += sender_keys
                values += sender_values
        return keys, values

    def wait_control(self, kind: str, iteration: int):
        """Wait for a master control token (``sync``/``proceed``)."""
        yield from self.next_message((kind,), iteration)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<IterationMailbox {self.name} queued={len(self._store)}>"
