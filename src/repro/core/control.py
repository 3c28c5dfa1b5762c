"""RC control plane: synchronization and reliability-layer messaging.

The slow path of the protocol (paper §III-C) runs over reliable connected
QPs: the RNR synchronization barrier before multicasting, activation
signals between chain neighbors (§IV-A), fetch requests/ACKs of the
recovery layer, and the final-handshake packets in the virtual ring.

Design notes
------------
* Control QPs are created lazily and pairwise by the communicator; each
  rank's control QPs share one receive CQ drained by a single dispatcher
  process (mirroring the single progress thread of the UCC backend).
* Messages are tiny typed tuples sent as IB *inline* sends — no send-side
  buffer lifetime management.
* The RNR barrier is a dissemination barrier: ``⌈log2 P⌉`` rounds, round k
  sending to ``(me + 2^k) mod P`` and waiting on ``(me − 2^k) mod P``.
  (The paper uses recursive doubling; dissemination has the same round
  count and works for any P, including the 188-rank testbed.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.net.nic import CompletionQueue, QueuePair, RecvWR, SendWR
from repro.sim.events import Event, Timeout
from repro.sim.primitives import Store

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.net.nic import Nic
    from repro.sim.engine import Simulator

__all__ = [
    "ControlPlane",
    "CtrlMessage",
    "MSG_BARRIER",
    "MSG_ACTIVATE",
    "MSG_FETCH_REQ",
    "MSG_FETCH_ACK",
    "MSG_FINAL",
    "MSG_PING",
    "MSG_PONG",
    "MSG_DEATH",
]

MSG_BARRIER = 1
MSG_ACTIVATE = 2
MSG_FETCH_REQ = 3
MSG_FETCH_ACK = 4
MSG_FINAL = 5
#: liveness probe — answered by the dispatcher itself (auto-PONG), so a
#: host is "alive" iff its progress thread still drains its control CQ
MSG_PING = 6
MSG_PONG = 7
#: death notice: ``key`` = the communicator rank confirmed dead.  Consumed
#: by the engine-installed ``on_death`` callback, never by an inbox.
MSG_DEATH = 8

#: message types delivered to an any-source inbox (servers listen for
#: requests regardless of the requester's rank)
_ANY_SOURCE = {MSG_FETCH_REQ}

_SLOT_BYTES = 32
_SLOTS_PER_QP = 16
_WORDS = 6  # mtype, key, src_rank, a0, a1, a2
#: payload bytes of every control message on the wire
CTRL_PAYLOAD_BYTES = _WORDS * 4


class CtrlMessage(tuple):
    """``(src_rank, mtype, key, args)`` — a decoded control message."""

    __slots__ = ()

    def __new__(cls, src_rank: int, mtype: int, key: int, args: Tuple[int, ...]):
        return super().__new__(cls, (src_rank, mtype, key, args))

    @property
    def src(self) -> int:
        return self[0]

    @property
    def mtype(self) -> int:
        return self[1]

    @property
    def key(self) -> int:
        return self[2]

    @property
    def args(self) -> Tuple[int, ...]:
        return self[3]


class ControlPlane:
    """Per-rank control-plane endpoint.

    Parameters
    ----------
    sim, nic:
        Simulator and this rank's NIC.
    rank:
        Communicator-relative rank of this endpoint.
    pair_fn:
        ``pair_fn(peer_rank) -> QueuePair`` — supplied by the communicator;
        creates/returns the local RC QP connected to *peer_rank*'s control
        plane (creating the remote end too).
    """

    def __init__(
        self,
        sim: "Simulator",
        nic: "Nic",
        rank: int,
        pair_fn: Callable[[int], QueuePair],
        per_message_cost: float = 0.0,
    ) -> None:
        self.sim = sim
        self.nic = nic
        self.rank = rank
        self._pair_fn = pair_fn
        self.per_message_cost = per_message_cost
        self.recv_cq: CompletionQueue = nic.create_cq(f"ctrl-r{rank}")
        self.qps: Dict[int, QueuePair] = {}
        self._slot_mr = None
        self._slot_qp: Dict[int, QueuePair] = {}
        #: slot → its receive WR, validated once at post time and re-posted
        #: as is after every message (``post_recv_cached``)
        self._slot_wr: Dict[int, RecvWR] = {}
        self._n_slots = 0
        self._inboxes: Dict[tuple, Store] = {}
        self.messages_sent = 0
        self.messages_received = 0
        #: virtual instant until which a folded barrier keeps the dispatcher
        #: busy (see ``FlowFastForward.try_barrier``): a message that lands
        #: earlier waits for it, as it would behind the packet-level chain
        self.busy_until = 0.0
        #: peer rank → virtual time of the last message heard from it.
        #: Every control message doubles as a liveness heartbeat, so the
        #: suspicion logic can often clear a peer without spending a probe.
        self.last_heard: Dict[int, float] = {}
        #: ``fn(msg: CtrlMessage)`` invoked for MSG_DEATH notices (installed
        #: by the progress engine); None drops them
        self.on_death: Optional[Callable[[CtrlMessage], None]] = None
        self._dispatch_proc = sim.spawn(self._dispatch_loop(), name=f"ctrl-dispatch-r{rank}")

    # -------------------------------------------------------------- plumbing

    def adopt_qp(self, peer_rank: int, qp: QueuePair) -> None:
        """Register a connected control QP toward *peer_rank* and post its
        receive slots (called by the communicator when pairing)."""
        if peer_rank in self.qps:
            raise ValueError(f"rank {self.rank}: ctrl QP to {peer_rank} already exists")
        self.qps[peer_rank] = qp
        base = self._n_slots
        self._n_slots += _SLOTS_PER_QP
        mr = self.nic.memory.register(_SLOTS_PER_QP * _SLOT_BYTES)
        for i in range(_SLOTS_PER_QP):
            slot = base + i
            self._slot_qp[slot] = qp
            wr = self._slot_wr[slot] = RecvWR(
                wr_id=slot, mr_key=mr.key, offset=i * _SLOT_BYTES, length=_SLOT_BYTES)
            qp.post_recv(wr)
        # Keep per-QP MRs; remember via closure on the WRs (offsets local).
        if self._slot_mr is None:
            self._slot_mr = {}
        self._slot_mr[qp.qpn] = mr

    def _qp_to(self, peer_rank: int) -> QueuePair:
        qp = self.qps.get(peer_rank)
        if qp is None:
            qp = self._pair_fn(peer_rank)
        return qp

    # ------------------------------------------------------------- messaging

    def send(self, dst_rank: int, mtype: int, key: int, args: Sequence[int] = ()) -> None:
        """Post a control message (non-blocking, reliable, ordered per peer)."""
        if len(args) > _WORDS - 3:
            raise ValueError(f"control message supports up to {_WORDS - 3} args")
        qp = self._qp_to(dst_rank)
        qp.post_send(SendWR(wr_id=0, verb="send",
                            inline_data=self.encode(mtype, key, args),
                            signaled=False))
        self.messages_sent += 1

    def encode(self, mtype: int, key: int, args: Sequence[int] = ()) -> np.ndarray:
        """The wire words of a message from this rank."""
        words = np.zeros(_WORDS, dtype=np.uint32)
        words[0] = mtype
        words[1] = key
        words[2] = self.rank
        for i, a in enumerate(args):
            words[3 + i] = a
        return words

    # ------------------------------------------- preempted barrier fold

    def stage_folded(self, slot: int, words: np.ndarray) -> None:
        """Place a message's words in receive *slot*, as the NIC did when
        it landed (the dispatcher decodes them from there)."""
        mr = self._slot_mr[self._slot_qp[slot].qpn]
        local = slot % _SLOTS_PER_QP
        mr.view(local * _SLOT_BYTES, _WORDS * 4)[:] = words.view(np.uint8)

    def finish_folded(self, slot: int, msg: CtrlMessage) -> None:
        """The dispatcher's tail for a message it was processing when a
        barrier fold was preempted, run at that message's done instant."""
        self._slot_qp[slot].post_recv_cached(self._slot_wr[slot])
        self.messages_received += 1
        self.last_heard[msg.src] = self.sim.now
        self._inbox(msg.mtype, msg.key, msg.src).put(msg)

    def _inbox(self, mtype: int, key: int, src: Optional[int]) -> Store:
        # Any-source types (servers) get one inbox per type; the message
        # itself carries the key and source.
        ib_key = (mtype,) if mtype in _ANY_SOURCE else (mtype, key, src)
        store = self._inboxes.get(ib_key)
        if store is None:
            store = self._inboxes[ib_key] = Store(self.sim)
        return store

    def recv(self, mtype: int, key: int = 0, src: Optional[int] = None) -> Event:
        """Event yielding the next :class:`CtrlMessage` of this signature.

        ``src`` is required except for any-source types (FETCH_REQ), whose
        single inbox receives requests from every rank and collective.
        """
        if mtype not in _ANY_SOURCE and src is None:
            raise ValueError(f"mtype {mtype} requires an explicit source rank")
        return self._inbox(mtype, key, src).get()

    def drop_idle_inboxes(self) -> None:
        """Forget every inbox with no queued message and no waiter.

        Inboxes are keyed per (type, key, source), so each collective
        leaves its own behind; a later ``recv``/delivery simply creates a
        fresh one, so dropping an idle inbox changes no behaviour.
        """
        idle = [k for k, st in self._inboxes.items()
                if not st.items and not st._getters and not st._putters]
        for k in idle:
            del self._inboxes[k]

    def _dispatch_loop(self):
        sim = self.sim
        cq = self.recv_cq
        while True:
            yield cq.wait()
            if sim.now < self.busy_until:
                # Still busy with the messages of a folded barrier.
                yield sim.wake_at(self.busy_until)
            for cqe in cq.poll():
                if self.per_message_cost > 0.0:
                    # Progress-thread cycles spent on the control path.
                    yield Timeout(sim, self.per_message_cost)
                slot = cqe.wr_id
                qp = self._slot_qp[slot]
                mr = self._slot_mr[qp.qpn]
                local = slot % _SLOTS_PER_QP
                words = mr.view(local * _SLOT_BYTES, _WORDS * 4).view(np.uint32)
                msg = CtrlMessage(
                    src_rank=int(words[2]),
                    mtype=int(words[0]),
                    key=int(words[1]),
                    args=tuple(int(w) for w in words[3:_WORDS]),
                )
                # Re-post the slot immediately (its content is consumed).
                qp.post_recv_cached(self._slot_wr[slot])
                self.messages_received += 1
                self.last_heard[msg.src] = self.sim.now
                if msg.mtype == MSG_PING:
                    # Liveness probe: the dispatcher answers directly — the
                    # PONG proves this rank's progress loop is alive, which
                    # is exactly the fail-stop property being tested.
                    self.send(msg.src, MSG_PONG, msg.key)
                    continue
                if msg.mtype == MSG_DEATH:
                    if self.on_death is not None:
                        self.on_death(msg)
                    continue
                self._inbox(msg.mtype, msg.key, msg.src).put(msg)

    # --------------------------------------------------------------- barrier

    def barrier(self, tag: int, ranks: Optional[List[int]] = None,
                resume_round: Optional[int] = None):
        """Dissemination barrier among *ranks* (generator; ``yield from`` it).

        ``tag`` must be unique per logical barrier instance (e.g. the
        collective id); rounds are disambiguated in the key's low bits.
        ``resume_round`` picks up a barrier whose earlier rounds ran
        elsewhere (a preempted fold): that round's message was already
        sent, so the rank only waits for its peer's.

        *ranks* is required: every participant must pass the **same**
        ordered list.  Deriving it from the set of already-created control
        QPs (as an earlier revision did) is wrong in general — lazy QP
        creation means different ranks can observe different peer sets,
        deadlocking the dissemination pattern.
        """
        if ranks is None:
            raise ValueError(
                "ControlPlane.barrier requires an explicit, identical `ranks` "
                "list on every participant; deriving it from the lazily "
                "created control QPs is unreliable"
            )
        me = ranks.index(self.rank)
        p = len(ranks)
        rnd = 0 if resume_round is None else resume_round
        k = 1 << rnd
        while k < p:
            dst = ranks[(me + k) % p]
            src = ranks[(me - k) % p]
            key = (tag << 6) | rnd
            if rnd != resume_round:
                self.send(dst, MSG_BARRIER, key)
            msg = yield self.recv(MSG_BARRIER, key, src)
            assert msg.mtype == MSG_BARRIER
            k <<= 1
            rnd += 1
        return None
