"""Flow-level fast-forward: analytic advance of fault-inert collective phases.

The packet-train and CQE-train fast paths coalesce *homogeneous runs* of
work into single events; this layer generalizes the idea to a whole
multicast phase.  When a sender's bulk transfer is provably fault-inert —
no drop machinery armed on any tree channel, no straggler window, no
pending crash, no concurrent collective that could contend — the entire
phase (send batching, per-link busy chains, switch relays, receive-worker
processing, staging DMA drain) is folded arithmetically and committed as
O(links) state mutations plus one "finisher" event per receiver, instead
of O(packets) simulated events.

Exactness contract (``fast_forward="exact"``)
---------------------------------------------
The fold replicates the **slow-path** float arithmetic expression by
expression — ``max`` written as the same branch shapes, costs summed in
the same order — so every committed instant (channel ``busy_until``, DMA
watermarks, CQE anchors, ``data_done``) is bit-identical to the
packet-level engine.  The train/CQE fast paths are themselves bit
identical to the slow paths (CI gates ``--per-packet`` / ``--per-cqe``),
so matching the slow path matches every engine mode.  Event counts and
receiver-batch telemetry (``cqe_batches`` / ``batched_cqes``) necessarily
*drop* under fast-forward — that is the point — so equivalence checks
compare virtual time, counters and payload digests, never event counts.

Vectorized fold-commit
----------------------
Multi-chunk phases with enough receivers fold their per-receiver chains
as ``[n_rx]``-wide numpy array ops (``_fold_receivers_vec``), and the
single-chunk Allgather chain runs as a deferred-commit session
(:class:`_Vec1Session`) over one elementwise host-lane kernel
(:class:`_HostLanes`).  Both evaluate the same IEEE-754 operations in
the same order as the scalar fold, so they sit inside the exactness
contract; which one runs is decided by collective shape alone.  Fault
changes made outside the fabric's fault schedule while a folded phase's
packets are in flight are outside the contract (DESIGN §6d).

Eligibility gates (any failure falls back to packet level, permanently
for the rest of that collective so cursors stay exact):

* ``fast_forward="exact"``, transport UD or UC, single subgroup, chunk
  fits one segment;
* exactly one active collective on the communicator;
* no dead ranks/hosts/switches/links and no pending crash schedule
  (:attr:`Fabric.pending_crashes`);
* allgather only with an effective single chain (the sequencer's own
  ``n_chains`` fallback arithmetic) and strictly non-interleaved arrivals
  per receiver;
* every tree channel up and :meth:`Channel.fault_inert`, and every data
  packet too large for the control bypass lane;
* every receiver straggler-inert over the folded window, with enough
  posted receive WRs for the whole fold (no RNR possible);
* no recovery ran on any participant, and the folded phase completes
  strictly before every armed (or arming) cutoff deadline — so no
  recovery or fetch can observe the eagerly-committed bitmap bits.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from repro.core.sequencer import effective_chains
from repro.net.nic import RecvWR
from repro.net.topology import host_id, is_host
from repro.sim.engine import _Callback

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.communicator import Communicator
    from repro.core.ops import OpState
    from repro.core.progress import RankEngine

__all__ = ["FlowFastForward"]

_INF = float("inf")


class _RxSession:
    """Per-receiver cross-fold cursor state (one per rank per collective)."""

    __slots__ = ("cursor", "last_arrival")

    def __init__(self) -> None:
        #: receive-worker virtual-time cursor after the last committed fold
        self.cursor = 0.0
        #: last folded packet-arrival instant (non-interleave gate)
        self.last_arrival = -_INF


class _Session:
    """Per-collective fast-forward state.

    ``poisoned`` latches on the first abort: once any phase of a
    collective ran at packet level, every later phase must too — the
    analytic worker cursors would otherwise drift from the real ones.

    ``lens``/``wires``/``rx_folds`` are per-phase scratch buffers hoisted
    to the session so the Allgather chain (O(P) phases) does not allocate
    three fresh lists per phase.  ``vec`` holds the deferred-commit
    vectorized session when the collective qualifies (see
    :class:`_Vec1Session`); ``vec_unsupported`` latches a shape rejection
    so the probe runs once per collective.
    """

    __slots__ = ("poisoned", "rx", "vec", "vec_unsupported",
                 "lens", "wires", "rx_folds")

    def __init__(self) -> None:
        self.poisoned = False
        self.rx: Dict[int, _RxSession] = {}
        self.vec = None
        self.vec_unsupported = False
        self.lens: List[int] = []
        self.wires: List[int] = []
        self.rx_folds: List[tuple] = []


class FlowFastForward:
    """Phase analyzer + analytic advancer for one communicator."""

    def __init__(self, comm: "Communicator") -> None:
        self.comm = comm
        self.sim = comm.sim
        # --- telemetry (summed into CollectiveResult.engine) ---
        self.ff_phases = 0  #: phases folded analytically
        self.ff_skipped_events = 0  #: estimated packet-level events avoided
        self.ff_aborts = 0  #: eligibility-gate bailouts (fell back)
        self._sessions: Dict[int, _Session] = {}

    def preempt_vec(self) -> None:
        """Flush every deferred vectorized session *now* — called before a
        second collective is admitted, whose packet-level traffic would
        otherwise observe the deferred channel state.  Mirrors the
        ``ff_exclusive`` gate: the first collective simply stops folding."""
        for sess in self._sessions.values():
            if sess.vec is not None:
                sess.vec.abort_flush()
                sess.vec = None
                sess.poisoned = True
                self.ff_aborts += 1

    # ------------------------------------------------------------ entry point

    def try_advance(self, engine: "RankEngine", op: "OpState",
                    participants: List[int]) -> Optional[float]:
        """Attempt to fold *op*'s multicast phase from ``engine`` (the
        sender).  Returns the sender's ``run_send`` completion instant on
        success (all state committed), or ``None`` to fall back to the
        packet-level path."""
        sess = self._session(op.coll_id)
        done = self._attempt(engine, op, participants, sess)
        if done is None:
            if sess.vec is not None:
                # A generic gate (or the vec session's own) failed with a
                # deferred-commit session live: flush it before the packet
                # path can observe the stale channel/bitmap state.
                sess.vec.abort_flush()
                sess.vec = None
            self.ff_aborts += 1
            sess.poisoned = True
        return done

    def _session(self, coll_id: int) -> _Session:
        sess = self._sessions.get(coll_id)
        if sess is None:
            # Coll-ids grow monotonically; prune finished collectives.
            # Engine op registration is the source of truth (handles are
            # tracked by handle_id, not coll_id, since the submit redesign).
            active = {c for e in self.comm.engines for c in e.ops}
            for cid in [c for c in self._sessions if c not in active]:
                del self._sessions[cid]
            sess = self._sessions[coll_id] = _Session()
        return sess

    # ------------------------------------------------------------------ gates

    def _attempt(self, engine: "RankEngine", op: "OpState",
                 participants: List[int], sess: _Session) -> Optional[float]:
        comm = self.comm
        cfg = comm.config
        fabric = comm.fabric
        sim = self.sim

        if sess.poisoned:
            return None
        if cfg.n_subgroups != 1 or cfg.transport not in ("ud", "uc"):
            return None
        if fabric.topology.rails != 1:
            # Multi-rail folds would need per-plane egress chains; the
            # striped datapath (n_subgroups > 1) is already gated above.
            return None
        if not comm.ff_exclusive(op.coll_id):
            return None
        if len(participants) < 2 or comm.size < 2:
            return None
        n_chunks = op.send_hi - op.send_lo
        if n_chunks <= 0:
            return None
        # One wire segment per chunk (the UC builder fragments at the MTU).
        if op.plan.chunk_size > fabric.mtu:
            return None
        if op.kind == "allgather":
            # The sequencer's own fallback arithmetic: concurrent chains
            # would contend on shared tree links, which the fold cannot
            # serialize correctly.
            if effective_chains(len(participants), cfg.n_chains) != 1:
                return None
        if (comm.dead_ranks or fabric.dead_hosts or fabric.dead_switches
                or fabric.dead_links or fabric.pending_crashes):
            return None
        if op.aborted or op.dead_ranks:
            return None
        engines = comm.engines
        cid = op.coll_id

        # --- vectorized deferred-commit Allgather (DESIGN §6f) ------------
        # All gates above are O(1); the per-participant scan and the
        # per-receiver fold below are the O(P)-per-phase work the vec
        # session hoists to session init, making the chain O(P) overall.
        vs = sess.vec
        if vs is not None:
            return vs.fold_phase(engine, op)
        if (op.kind == "allgather" and n_chunks == 1
                and not fabric._stragglers and not sess.vec_unsupported):
            vs = _Vec1Session.build(self, engine, op, participants, sess)
            if vs is None:
                sess.vec_unsupported = True
            else:
                sess.vec = vs
                return vs.fold_phase(engine, op)

        for r in participants:
            op_r = engines[r].ops.get(cid)
            if op_r is None or op_r.aborted or op_r.stats["recoveries"]:
                return None

        uc = cfg.transport == "uc"
        plan = op.plan
        header = engine.nic.header_bytes
        lens = sess.lens
        del lens[:]
        for psn in range(op.send_lo, op.send_hi):
            lens.append(plan.bounds(psn)[1])
        wires = sess.wires
        del wires[:]
        for ln in lens:
            wires.append(ln + header)
        gid = comm.mcast_gids[0]

        # --- sender fold: doorbell batching + egress busy chain -----------
        sender_fold = self._fold_sender(engine, op, wires)
        if sender_fold is None:
            return None
        send_done, egress_finishes, batch_sizes, n_batches = sender_fold
        egress = engine.nic.egress

        # --- tree walk: per-edge busy chains to every receiver ------------
        walk = self._walk(engine, gid, egress, egress_finishes,
                          wires, batch_sizes)
        if walk is None:
            return None
        chans, arrivals_by_host, switch_counts = walk

        # Receivers must be exactly the non-sender participants.
        rx_ranks: Dict[int, int] = {}
        for r in participants:
            if r != engine.rank:
                rx_ranks[comm.host_of(r)] = r
        if set(arrivals_by_host) != set(rx_ranks):
            return None

        # --- receiver folds: worker chain + staging DMA drain -------------
        t_hook = sim.now
        rx_folds = sess.rx_folds
        del rx_folds[:]
        fin_max = send_done
        if (n_chunks >= 4 and not fabric._stragglers
                and n_chunks * len(arrivals_by_host) >= 512):
            # Matrix path: the per-receiver chains are independent, so the
            # chunk loop runs as [n_rx]-wide array ops (same expressions,
            # same order — bitwise identical to _fold_receiver).
            fin_max = self._fold_receivers_vec(
                engines, rx_ranks, arrivals_by_host, cid, lens, uc, sess,
                t_hook, rx_folds, fin_max)
            if fin_max is None:
                return None
        else:
            for host, arrivals in arrivals_by_host.items():
                rank = rx_ranks[host]
                fold = self._fold_receiver(engines[rank],
                                           engines[rank].ops[cid],
                                           arrivals, lens, uc, sess, t_hook)
                if fold is None:
                    return None
                rx_folds.append(fold)
                if fold[4] > fin_max:
                    fin_max = fold[4]

        # --- global deadline gate: the fold must land before any armed
        # (or arming) cutoff can fire, so recovery/fetch never observes the
        # eagerly committed bitmap bits. ----------------------------------
        if not self._deadlines_clear(participants, cid, t_hook, fin_max):
            return None

        # --------------------------------------------------------- commit
        self._commit(engine, op, sess, chans, switch_counts, rx_folds,
                     lens, n_chunks, n_batches, send_done, fin_max, uc)
        return send_done

    # ---------------------------------------------------------- sender fold

    def _fold_sender(self, engine: "RankEngine", op: "OpState",
                     wires: List[int]):
        """Replicate ``run_send`` + the egress burst: per-batch doorbell
        cost, one busy-chain walk per batch, one signaled CQE per batch
        pushed at its last serialization finish, bounded outstanding
        batches replayed against the push instants."""
        cfg = engine.config
        cost = engine.cost
        egress = engine.nic.egress
        if egress is None or egress.down or not egress.fault_inert():
            return None
        bypass = egress.ctrl_bypass_bytes
        if min(wires) <= bypass:
            return None
        if len(engine.send_cq):  # stale completions would skew the replay
            return None
        bw = egress.bandwidth
        prev = egress.busy_until
        t = self.sim.now
        finishes: List[float] = []
        batch_sizes: List[int] = []
        pending: List[float] = []  # signaled-CQE push instants, increasing
        p_lo = 0  # drained prefix of `pending`
        outstanding = 0
        n = len(wires)
        max_out = cfg.max_outstanding_batches
        for i in range(0, n, cfg.batch_size):
            batch = wires[i:i + cfg.batch_size]
            batch_sizes.append(len(batch))
            t = t + cost.send_batch(len(batch))
            for w in batch:
                start = t if t > prev else prev
                prev = start + w / bw
                finishes.append(prev)
            pending.append(prev)
            outstanding += 1
            while outstanding >= max_out:
                t, k, p_lo = _drain_cq(pending, p_lo, t)
                outstanding -= k
        while outstanding > 0:
            t, k, p_lo = _drain_cq(pending, p_lo, t)
            outstanding -= k
        return t, finishes, batch_sizes, len(batch_sizes)

    # ------------------------------------------------------------- tree walk

    def _walk(self, engine: "RankEngine", gid: int, egress, egress_finishes,
              wires: List[int], batch_sizes: List[int]):
        """Advance every tree channel's busy chain and collect per-receiver
        arrival instants.

        Returns ``(chans, arrivals_by_host, switch_counts)`` where
        ``chans`` carries per-channel commit records.  ``None`` on any
        gate failure (downed/faulty channel, missing multicast route,
        unexpected receiver).
        """
        fabric = engine.fabric
        n = len(wires)
        min_wire = min(wires)
        # Per-chunk train membership: a batch rides the wire as one train
        # iff it has >= 2 packets and every channel from the root down had
        # coalescing enabled (a per-packet hop breaks the train for all
        # downstream hops).  When no batch can train (all singletons) the
        # flag lists are elided entirely — the single-chunk-per-phase
        # Allgather schedule hits this walk O(P) times per collective.
        base_flags = [sz >= 2 for sz in batch_sizes]
        has_trains = True in base_flags
        arrivals0 = [f + egress.latency for f in egress_finishes]
        chans: List[tuple] = []
        arrivals_by_host: Dict[int, List[float]] = {}
        switch_counts: Dict[object, int] = {}
        bytes_sum = sum(wires)
        payload_sum = bytes_sum - n * engine.nic.header_bytes

        if has_trains:
            eg_flags = [f and egress.coalescing for f in base_flags]
            eg_trains, eg_tp = _count_trains(eg_flags, batch_sizes)
        else:
            eg_flags = None
            eg_trains = eg_tp = 0
        chans.append((egress, egress.busy_until
                      if not egress_finishes else egress_finishes[-1],
                      n, bytes_sum, payload_sum, eg_trains, eg_tp))
        stack: List[Tuple[str, str, List[float], Optional[List[bool]]]] = [
            (egress.dst_name, egress.src_name, arrivals0, eg_flags)
        ]
        while stack:
            name, in_port, arr, flags = stack.pop()
            if is_host(name):
                h = host_id(name)
                if h in arrivals_by_host:
                    return None  # tree delivered twice: not a tree
                arrivals_by_host[h] = arr
                continue
            sw = fabric.switches.get(name)
            if sw is None or sw.dead:
                return None
            tree_ports = sw.mcast_table.get(gid)
            if tree_ports is None:
                return None
            d = sw.forwarding_delay
            inj = [a + d for a in arr] if d > 0.0 else arr
            for neighbor in sorted(tree_ports):
                if neighbor == in_port:
                    continue
                ch = sw.ports.get(neighbor)
                if ch is None or ch.down or not ch.fault_inert():
                    return None
                if min_wire <= ch.ctrl_bypass_bytes:
                    return None
                bw = ch.bandwidth
                lat = ch.latency
                prev = ch.busy_until
                if n == 1:
                    t_inj = inj[0]
                    start = t_inj if t_inj > prev else prev
                    prev = start + wires[0] / bw
                    outs_lat = [prev + lat]
                else:
                    outs_lat = []
                    for i, t_inj in enumerate(inj):
                        start = t_inj if t_inj > prev else prev
                        prev = start + wires[i] / bw
                        outs_lat.append(prev + lat)
                if flags is not None:
                    ch_flags = [f and ch.coalescing for f in flags]
                    trains, tp = _count_trains(ch_flags, batch_sizes)
                else:
                    ch_flags = None
                    trains = tp = 0
                chans.append((ch, prev, n, bytes_sum, payload_sum,
                              trains, tp))
                switch_counts[sw] = switch_counts.get(sw, 0) + n
                stack.append((ch.dst_name, name, outs_lat, ch_flags))
        return chans, arrivals_by_host, switch_counts

    # --------------------------------------------------------- receiver fold

    def _fold_receiver(self, rx_engine: "RankEngine", op_r: "OpState",
                       arrivals: List[float], lens: List[int], uc: bool,
                       sess: _Session, t_hook: float):
        """Replicate the receive worker's per-CQE slow path and (UD) the
        staging DMA drain for one receiver over this fold's arrivals.

        Returns a flat tuple (not a dict): the Allgather chain schedule
        runs this O(P) times per phase, O(P^2) per collective, so the
        per-receiver constant is the scaling bottleneck.
        """
        qp = rx_engine.sub_qps[0]
        n = len(arrivals)
        # No-RNR gate: the NIC consumes one posted WR per arrival, and the
        # fold's own reposts all land after its last arrival — so the
        # currently posted depth alone must cover the fold.
        if n > len(qp.recv_queue):
            return None
        rx = sess.rx.get(rx_engine.rank)
        if rx is None:
            rx = sess.rx[rx_engine.rank] = _RxSession()
        # Strict non-interleave: FIFO busy chains guarantee later folds
        # arrive strictly after earlier ones; a tie means contention the
        # fold ordering cannot resolve.
        if arrivals[0] <= rx.last_arrival:
            return None
        cost = rx_engine.cost
        c1 = cost.cqe_poll + cost.cqe_process
        t = rx.cursor
        dma = rx_engine.dma
        dma_busy = dma.busy_until
        if uc:
            c2 = cost.recv_repost
            for a in arrivals:
                anchor = a if a > t else t
                t = (anchor + (c1 + 0.0))
                t = t + c2
            fin = t
        else:
            dma_bw = dma.bandwidth
            dma_lat = dma.latency
            c2 = cost.copy_issue + cost.recv_repost
            for a, ln in zip(arrivals, lens):
                anchor = a if a > t else t
                t = (anchor + (c1 + 0.0))
                t = t + c2
                start = t if t > dma_busy else dma_busy
                dma_busy = start + ln / dma_bw
            fin = dma_busy + dma_lat
        # Straggler veto over the whole folded window (every CQE-poll
        # stall sample in [t_hook, fin] must be zero).
        if not rx_engine.fabric.straggler_inert(rx_engine.nic.host,
                                                t_hook, fin):
            return None
        return (rx_engine, op_r, qp, rx, fin, t, dma_busy, arrivals[-1])

    def _fold_receivers_vec(self, engines, rx_ranks, arrivals_by_host,
                            cid: int, lens: List[int], uc: bool,
                            sess: _Session, t_hook: float,
                            rx_folds: List[tuple], fin_max: float):
        """Vectorized :meth:`_fold_receiver`: one ``[n_rx]`` array op chain
        instead of a Python loop per receiver.

        ``numpy``'s elementwise ``maximum``/add are the same IEEE-754
        operations the scalar expressions evaluate, in the same order per
        receiver, so every fold tuple is bit-identical to the scalar path.
        Only called with no straggler specs installed (``straggler_inert``
        is then trivially true for every window — same gate outcome).
        Returns the updated ``fin_max``, or ``None`` on any gate failure
        (no state committed either way).
        """
        items = list(arrivals_by_host.items())
        n_rx = len(items)
        n = len(lens)
        rx_engines = []
        ops_r = []
        qps = []
        rxs = []
        t0 = np.empty(n_rx)
        dma0 = np.empty(n_rx)
        for k, (host, arrivals) in enumerate(items):
            rank = rx_ranks[host]
            e = engines[rank]
            qp = e.sub_qps[0]
            if n > len(qp.recv_queue):
                return None
            rx = sess.rx.get(rank)
            if rx is None:
                rx = sess.rx[rank] = _RxSession()
            if arrivals[0] <= rx.last_arrival:
                return None
            rx_engines.append(e)
            ops_r.append(e.ops[cid])
            qps.append(qp)
            rxs.append(rx)
            t0[k] = rx.cursor
            dma0[k] = e.dma.busy_until
        # Every rank shares the communicator's cost model object, so the
        # scalar constants are uniform across the receiver axis.
        cost = rx_engines[0].cost
        c1 = cost.cqe_poll + cost.cqe_process
        # (n, n_rx) with contiguous per-chunk rows for the chunk loop.
        cols = np.ascontiguousarray(np.array([a for _, a in items]).T)
        t = t0
        if uc:
            c2 = cost.recv_repost
            for i in range(n):
                anchor = np.maximum(cols[i], t)
                t = anchor + c1
                t = t + c2
            fins = t
            dma_busy = dma0
        else:
            c2 = cost.copy_issue + cost.recv_repost
            dma_bw = np.array([e.dma.bandwidth for e in rx_engines])
            dma_lat = np.array([e.dma.latency for e in rx_engines])
            dma_busy = dma0
            for i in range(n):
                anchor = np.maximum(cols[i], t)
                t = anchor + c1
                t = t + c2
                start = np.maximum(t, dma_busy)
                dma_busy = start + lens[i] / dma_bw
            fins = dma_busy + dma_lat
        for k in range(n_rx):
            fin = float(fins[k])
            rx_folds.append((rx_engines[k], ops_r[k], qps[k], rxs[k], fin,
                             float(t[k]), float(dma_busy[k]),
                             items[k][1][-1]))
            if fin > fin_max:
                fin_max = fin
        return fin_max

    def _deadlines_clear(self, participants: List[int], cid: int,
                         t_hook: float, fin_max: float) -> bool:
        comm = self.comm
        cfg = comm.config
        for r in participants:
            eng = comm.engines[r]
            op_r = eng.ops[cid]
            if op_r.data_done.triggered:
                continue
            if op_r.cutoff_deadline < _INF:
                deadline = op_r.cutoff_deadline
                if deadline <= t_hook:
                    return False
            else:
                # Not yet armed: it will arm at >= t_hook with at least
                # this expected + slack allowance (the controller's own
                # formula), so this is a conservative lower bound.
                n_workers = max(cfg.recv_workers or cfg.n_subgroups, 1)
                sw_rate = (
                    eng.cost.recv_rate(cfg.chunk_size,
                                       uc=cfg.transport == "uc") * n_workers
                    if eng.cost.per_recv_chunk > 0
                    else _INF
                )
                recv_rate = min(eng.fabric.link_bandwidth, sw_rate)
                expected = op_r.plan.buffer_len / recv_rate
                slack = (eng.cutoff.slack() if cfg.adaptive_cutoff
                         else cfg.cutoff_alpha)
                deadline = t_hook + expected + slack
            if fin_max >= deadline:
                return False
        return True

    # ---------------------------------------------------------------- commit

    def _commit(self, engine, op, sess, chans, switch_counts, rx_folds,
                lens, n_chunks, n_batches, send_done, fin_max, uc):
        sim = self.sim
        trc = engine.trace
        t_hook = sim.now
        if trc is not None:
            trc.instant("engine.ff_enter", t_hook, {"chunks": n_chunks})
        # --- channel + switch counters, busy watermarks -------------------
        for ch, busy, packets, ch_bytes, payload, trains, train_pkts in chans:
            ch.busy_until = busy
            ch.bytes_sent += ch_bytes
            ch.payload_bytes_sent += payload
            ch.packets_sent += packets
            ch.trains_sent += trains
            ch.train_packets += train_pkts
            if ch.fault is not None:
                # Data packets are always fault-affected kinds; keep the
                # droppable index in lockstep (the spec is inert, so no
                # RNG would have been consumed either way).
                ch._droppable_seq += packets
        for sw, count in switch_counts.items():
            sw.packets_forwarded += count
        # --- sender-side NIC/CQ state -------------------------------------
        engine.send_cq.total_pushed += n_batches
        # --- per-receiver state -------------------------------------------
        lo_off, ln0 = op.plan.bounds(op.send_lo)
        hi_off = op.plan.bounds(op.send_hi - 1)
        src = op.mr.buf[lo_off:hi_off[0] + hi_off[1]]
        payload_total = int(src.nbytes)
        lens_total = sum(lens)
        psn_lo = op.send_lo
        single = n_chunks == 1
        finish = self._finish_fold
        # Finisher scheduling bypasses ``Simulator.post_at``: the Allgather
        # chain posts one finisher per receiver per phase (O(P^2) over the
        # collective), and every ``fin`` is provably >= now, so the method
        # call + past-check overhead is pure constant-factor loss at scale.
        queue = sim._queue
        seq = sim._seq
        for rx_engine, op_r, qp, rx, fin, cursor, dma_busy, last_a in rx_folds:
            nic = rx_engine.nic
            nic.packets_received += n_chunks
            nic.bytes_received += payload_total
            qp.recv_cq.total_pushed += n_chunks
            # The NIC consumed one posted WR per arrival; the worker (UD:
            # the DMA-drain callback) re-posts each at its done instant.
            rq = qp.recv_queue
            if single:
                popped = rq.popleft()
                if uc:
                    # UC recv WRs are zero-length dummies; the consumed WR
                    # is field-for-field the repost the worker would build.
                    wrs = [popped]
                    staging = None
                else:
                    wrs = [popped]
                    staging = rx_engine.stagings[0]
                    dma = rx_engine.dma
                    dma.busy_until = dma_busy
                    dma.bytes_copied += lens_total
                    dma.ops += 1
                op_r.bitmap.set(psn_lo)
                op_r.placed.set(psn_lo)
            else:
                popped = [rq.popleft() for _ in range(n_chunks)]
                if uc:
                    wrs = popped
                    staging = None
                else:
                    wrs = popped
                    staging = rx_engine.stagings[0]
                    dma = rx_engine.dma
                    dma.busy_until = dma_busy
                    dma.bytes_copied += lens_total
                    dma.ops += n_chunks
                op_r.bitmap.set_range(psn_lo, n_chunks)
                op_r.placed.set_range(psn_lo, n_chunks)
            # Payload: the real path stages through slot memory (UD) or
            # places per packet (UC); byte-for-byte this is one slice copy.
            op_r.mr.buf[lo_off:lo_off + payload_total] = src
            op_r.stats["chunks_received"] += n_chunks
            op_r.ff_hold += 1
            rx.cursor = cursor
            rx.last_arrival = last_a
            if cursor > rx_engine.ff_resume_floor:
                rx_engine.ff_resume_floor = cursor
            seq += 1
            heappush(queue, (fin, seq, _Callback(finish,
                                                 (op_r, qp, wrs, staging))))
        sim._seq = seq
        # --- watchdog liveness over the folded window ---------------------
        if sim._wd_armed and sim._wd_interval > 0.0:
            step = sim._wd_interval / 2.0
            tick = t_hook + step
            while tick < fin_max:
                sim.post_at(tick, sim.note_progress)
                tick += step
        # --- telemetry -----------------------------------------------------
        self.ff_phases += 1
        self.ff_skipped_events += n_chunks * (len(chans) + 3 * len(rx_folds))
        self.ff_skipped_events += 2 * n_batches
        if trc is not None:
            trc.instant("engine.ff_exit", t_hook,
                        {"until": fin_max, "send_done": send_done})

    def _finish_fold(self, op_r: "OpState", qp, wrs: List[RecvWR],
                     staging) -> None:
        """The one committed event per receiver per fold: at the last
        chunk's done instant, restore the receive queue (the fold's
        reposts, in done order) and release the completion hold."""
        append = qp.recv_queue.append
        for wr in wrs:
            append(wr)
        if staging is not None:
            staging.reposts += len(wrs)
        op_r.ff_hold -= 1
        op_r.maybe_complete()


class _HostLanes:
    """Host-level chain state of every receiver lane of a
    :class:`_Vec1Session`: the leaf→host edge busy chain, the receive
    worker's CQE chain and (UD) the staging DMA drain, as ``[P]`` arrays.

    ``leaf_of`` maps each lane to the index of its hosting switch in the
    per-phase injection vector.  A phase is computed into pending
    buffers and committed lazily by the next ``phase`` (or by
    ``final_state``), so a veto needs only ``rollback``.
    """

    def __init__(self, uc: bool, c1: float, c2: float, leaf_of: np.ndarray,
                 bw: np.ndarray, lat: np.ndarray, hd_busy: np.ndarray,
                 dma_bw: Optional[np.ndarray] = None,
                 dma_lat: Optional[np.ndarray] = None,
                 dma_busy: Optional[np.ndarray] = None) -> None:
        n = len(hd_busy)
        self.uc = uc
        self.c1 = c1
        self.c2 = c2
        self.leaf_of = leaf_of
        self.bw = bw
        self.lat = lat
        self.hd_busy = hd_busy
        self.cursor = np.zeros(n)
        self.last_arr = np.full(n, -_INF)
        self.last_fin = np.full(n, -_INF)
        self.dma_bw = dma_bw
        self.dma_lat = dma_lat
        self.dma_busy = dma_busy
        self._pending: Optional[Tuple[np.ndarray, ...]] = None

    def commit(self) -> None:
        p = self._pending
        if p is not None:
            (self.hd_busy, self.cursor, self.last_arr, self.last_fin,
             self.dma_busy) = p
            self._pending = None

    def rollback(self) -> None:
        self._pending = None

    def phase(self, w: float, ln: float, leaf_inj: np.ndarray, s: int):
        """Compute one phase sent by lane *s* into pending buffers
        (committing the previous pending phase first).  Returns
        ``(ok, fin_max, fins)``; ``fins`` holds every lane's done instant,
        ``-inf`` for the sender.

        Every expression replicates the scalar fold's arithmetic
        elementwise — same operation shapes, same order — so the
        committed instants are bit-identical to the per-receiver loop
        (DESIGN §6d exactness contract).
        """
        self.commit()
        # The sender receives nothing: compute the full vectors, then
        # restore its lane from the old state below.
        save = (self.hd_busy[s], self.cursor[s], self.last_arr[s],
                self.last_fin[s], None if self.uc else self.dma_busy[s])
        inj = leaf_inj[self.leaf_of]
        start = np.maximum(inj, self.hd_busy)
        hd_busy = start + w / self.bw
        a = hd_busy + self.lat
        # Strict non-interleave gate (sender lane exempt).
        ok_arr = a > self.last_arr
        ok_arr[s] = True
        if not ok_arr.all():
            return False, -_INF, None
        anchor = np.maximum(a, self.cursor)
        t = anchor + self.c1
        t = t + self.c2
        if self.uc:
            fins = t  # UC fin is the worker cursor itself
            dma_busy = None
        else:
            d_start = np.maximum(t, self.dma_busy)
            dma_busy = d_start + ln / self.dma_bw
            fins = dma_busy + self.dma_lat
            dma_busy[s] = save[4]
        hd_busy[s] = save[0]
        t[s] = save[1]
        a[s] = save[2]
        last_fin = fins.copy()
        last_fin[s] = save[3]
        out_fins = last_fin.copy()
        out_fins[s] = -_INF
        self._pending = (hd_busy, t, a, last_fin, dma_busy)
        return True, float(out_fins.max()), out_fins

    def final_state(self) -> Dict[str, np.ndarray]:
        self.commit()
        return {"hd_busy": self.hd_busy, "cursor": self.cursor,
                "last_arr": self.last_arr, "last_fin": self.last_fin,
                "dma_busy": self.dma_busy}


class _Vec1Session:
    """Deferred-commit vectorized session for the single-chunk Allgather
    chain (DESIGN §6f) — the path that makes 4096+-host allgathers CI-fast.

    The chain schedule serializes P phases, each a one-chunk multicast
    whose tree walk and P-1 receiver folds cost O(P) Python per phase in
    the generic fold — O(P²) interpreter time per collective.  This
    session exploits the schedule's structural invariants instead:

    * every phase crosses the same two-level tree (sender → its leaf →
      root → other leaves → hosts), so the per-switch fan-out reduces to
      one scalar up-chain plus one ``[n_leaves]`` vector of down-chains;
    * every host appears in exactly one leaf, so the P-1 receiver chains
      are independent elementwise recurrences over ``[P]`` arrays —
      computed by :class:`_HostLanes` in one slice over all receivers;
    * phases are serialized by bypass-lane MSG_ACTIVATE control messages
      that never touch a channel's ``busy_until``, so **all** object-level
      commits (channel watermarks, counters, bitmaps, payload copies) can
      be deferred: arrays carry the state between phases, and the objects
      are written once — at each rank's completion instant and in one
      global flush at the last fold (or at an abort).

    Exactness: every expression replicates the generic fold's float
    arithmetic elementwise (numpy float64 ops are the same IEEE-754
    operations), so committed instants are bit-identical to the scalar
    fold and the packet engine.  Gate *strictness* may diverge (this
    session caches conservative bounds where the scalar fold
    recomputes); that is invisible — the packet path the abort falls
    back to is itself bitwise-identical to the fold.  Receiver lanes are
    ordered by (canonical position of the hosting switch, rank).

    Known seam: the scalar fold pops a receive WR per fold and re-posts
    it at the fold's finisher; this session leaves the queue untouched
    (the popped WR is field-for-field its own repost — UC dummies, UD
    cached staging WRs — so the rotation is unobservable).  After an
    abort, queue *depth* can therefore transiently exceed the scalar
    engine's until the pending finisher instants pass; a divergence would
    additionally require an RNR-drop in that window, i.e. a posted depth
    smaller than the phases in flight, which the no-RNR envelope gate
    refuses to fold in the first place.
    """

    def __init__(self) -> None:  # populated by build()
        self.done = False
        self.aborted = False

    # ------------------------------------------------------------ build

    @classmethod
    def build(cls, ff: "FlowFastForward", engine: "RankEngine",
              op: "OpState", participants: List[int], sess: _Session):
        """Probe the collective's shape and hoist every per-phase gate
        that is O(P) or O(tree); returns ``None`` (no state touched) when
        unsupported — the generic fold then takes over."""
        comm = ff.comm
        cfg = comm.config
        fabric = comm.fabric
        engines = comm.engines
        cid = op.coll_id
        ranks = list(participants)
        P = len(ranks)
        if P < 2 or len(set(ranks)) != P:
            return None
        uc = cfg.transport == "uc"
        header = engine.nic.header_bytes

        ops: List["OpState"] = []
        hosts: List[int] = []
        psn_set = set()
        for r in ranks:
            op_r = engines[r].ops.get(cid)
            if (op_r is None or op_r.aborted or op_r.stats["recoveries"]
                    or op_r.send_hi - op_r.send_lo != 1
                    or op_r.n_chunks != P):
                return None
            psn_set.add(op_r.send_lo)
            ops.append(op_r)
            hosts.append(comm.host_of(r))
        if len(psn_set) != P or len(set(hosts)) != P:
            return None

        # --- tree shape: a two-level star of switches ---------------------
        gid = comm.mcast_gids[0]
        tree: Dict[str, set] = {}
        for name, sw in fabric.switches.items():
            ports = sw.mcast_table.get(gid)
            if ports:
                if sw.dead:
                    return None
                tree[name] = set(ports)
        if not tree:
            return None
        sw_nbrs = {s: {p for p in ports if not is_host(p)}
                   for s, ports in tree.items()}
        if len(tree) == 1:
            root = next(iter(tree))
        else:
            root = None
            for s, nb in sw_nbrs.items():
                if len(nb) == len(tree) - 1:
                    root = s
                    break
            if root is None:
                return None
            for s, nb in sw_nbrs.items():
                if s != root and nb != {root}:
                    return None
        host_sw: Dict[int, str] = {}
        host_port: Dict[int, str] = {}
        for s, ports in tree.items():
            for p in ports:
                if is_host(p):
                    h = host_id(p)
                    if h in host_sw:
                        return None
                    host_sw[h] = s
                    host_port[h] = p
        if set(host_sw) != set(hosts):
            return None

        # --- lane order: (canonical hosting-switch position, rank) ---------
        canon = {s: i for i, s in enumerate(fabric.topology.switch_names)}
        if any(s not in canon for s in tree):
            return None
        bswitches = sorted(tree, key=canon.__getitem__)
        bpos = {s: i for i, s in enumerate(bswitches)}
        host_of_rank = dict(zip(ranks, hosts))
        perm = sorted(ranks, key=lambda r: (bpos[host_sw[host_of_rank[r]]], r))
        pos = {r: j for j, r in enumerate(perm)}

        self = cls()
        self.ff = ff
        self.comm = comm
        self.sim = ff.sim
        self.fabric = fabric
        self.sess = sess
        self.uc = uc
        self.P = P
        self.header = header
        self.perm = perm
        self.pos = pos
        self.rank_order = sorted(range(P), key=lambda j: perm[j])
        self.engines_p = [engines[r] for r in perm]
        self.ops = [engines[r].ops[cid] for r in perm]
        self.qps = [e.sub_qps[0] for e in self.engines_p]
        self.epoch0 = fabric.fault_epoch

        # --- per-rank geometry, channels, wire sizes ----------------------
        lens_i: List[int] = []
        wires_i: List[int] = []
        lo_offs: List[int] = []
        psns: List[int] = []
        hd_ch = []
        eg_ch = []
        # Fault presence is snapshotted here: a mid-session ``set_fault``
        # bumps ``fault_epoch`` and aborts before another fold commits, so
        # every folded phase ran under the build-time fault state — the
        # flush must keep ``_droppable_seq`` in lockstep with *that*.
        hd_fault = []
        eg_fault = []
        up_fault = []
        down_fault = []
        max_bypass = 0
        hd_busy = np.empty(P)
        hd_bw = np.empty(P)
        hd_lat = np.empty(P)
        eg_busy = np.empty(P)
        eg_bw = np.empty(P)
        eg_lat = np.empty(P)
        d_sw = np.empty(P)
        s_bpos = np.empty(P, dtype=np.intp)
        for j in range(P):
            op_j = self.ops[j]
            h = host_of_rank[perm[j]]
            sw_name = host_sw[h]
            off, ln = op_j.plan.bounds(op_j.send_lo)
            lens_i.append(ln)
            wires_i.append(ln + header)
            lo_offs.append(off)
            psns.append(op_j.send_lo)
            ch = fabric.switches[sw_name].ports.get(host_port[h])
            eg = self.engines_p[j].nic.egress
            if (ch is None or ch.down or not ch.fault_inert()
                    or eg is None or eg.down or not eg.fault_inert()
                    or eg.dst_name != sw_name):
                return None
            max_bypass = max(max_bypass, ch.ctrl_bypass_bytes,
                             eg.ctrl_bypass_bytes)
            hd_ch.append(ch)
            eg_ch.append(eg)
            hd_fault.append(ch.fault is not None)
            eg_fault.append(eg.fault is not None)
            hd_busy[j] = ch.busy_until
            hd_bw[j] = ch.bandwidth
            hd_lat[j] = ch.latency
            eg_busy[j] = eg.busy_until
            eg_bw[j] = eg.bandwidth
            eg_lat[j] = eg.latency
            d_sw[j] = fabric.switches[sw_name].forwarding_delay
            s_bpos[j] = bpos[sw_name]

        leaves = [s for s in bswitches if s != root]
        n_leaves = len(leaves)
        leaf_idx = {s: u for u, s in enumerate(leaves)}
        up_ch = []
        down_ch = []
        up_busy = np.empty(n_leaves)
        up_bw = np.empty(n_leaves)
        up_lat = np.empty(n_leaves)
        down_busy = np.empty(n_leaves)
        down_bw = np.empty(n_leaves)
        down_lat = np.empty(n_leaves)
        d_leaf = np.empty(n_leaves)
        for u, s in enumerate(leaves):
            upc = fabric.switches[s].ports.get(root)
            dnc = fabric.switches[root].ports.get(s)
            if (upc is None or upc.down or not upc.fault_inert()
                    or dnc is None or dnc.down or not dnc.fault_inert()):
                return None
            max_bypass = max(max_bypass, upc.ctrl_bypass_bytes,
                             dnc.ctrl_bypass_bytes)
            up_ch.append(upc)
            down_ch.append(dnc)
            up_fault.append(upc.fault is not None)
            down_fault.append(dnc.fault is not None)
            up_busy[u] = upc.busy_until
            up_bw[u] = upc.bandwidth
            up_lat[u] = upc.latency
            down_busy[u] = dnc.busy_until
            down_bw[u] = dnc.bandwidth
            down_lat[u] = dnc.latency
            d_leaf[u] = fabric.switches[s].forwarding_delay
        if min(wires_i) <= max_bypass:
            return None

        self.lens_i = lens_i
        self.wires_i = wires_i
        self.lens_f = [float(x) for x in lens_i]
        self.wires_f = [float(x) for x in wires_i]
        self.lo_offs = lo_offs
        self.psns = psns
        self.hd_ch = hd_ch
        self.eg_ch = eg_ch
        self.hd_fault = hd_fault
        self.eg_fault = eg_fault
        self.up_fault = up_fault
        self.down_fault = down_fault
        self.eg_busy = eg_busy
        self.eg_bw = eg_bw
        self.eg_lat = eg_lat
        self.d_sw = d_sw
        self.s_bpos = s_bpos
        self.s_leafidx = np.array(
            [leaf_idx.get(host_sw[host_of_rank[perm[j]]], -1)
             for j in range(P)], dtype=np.intp)
        self.root = root
        self.root_bpos = bpos[root]
        self.d_root = float(fabric.switches[root].forwarding_delay)
        self.n_leaves = n_leaves
        self.leaves = leaves
        self.up_ch = up_ch
        self.down_ch = down_ch
        self.up_busy = up_busy
        self.up_bw = up_bw
        self.up_lat = up_lat
        self.down_busy = down_busy
        self.down_bw = down_bw
        self.down_lat = down_lat
        self.d_leaf = d_leaf
        self.leaf_bidx = np.array([bpos[s] for s in leaves], dtype=np.intp)
        self.tree_sw = [(fabric.switches[s], len(tree[s])) for s in tree]
        self.chans_per_phase = 1 + sum(len(p) - 1 for p in tree.values())
        self.b_scratch = np.empty(len(bswitches))

        # --- hoisted per-phase gates --------------------------------------
        cost = engine.cost
        self.sb1 = cost.send_batch(1)
        self.init_min_qlen = min(len(qp.recv_queue) for qp in self.qps)
        if self.init_min_qlen < 1:
            return None
        md = _INF
        unarmed: List[int] = []
        expslack = np.zeros(P)
        n_workers = max(cfg.recv_workers or cfg.n_subgroups, 1)
        for j in range(P):
            d = self.ops[j].cutoff_deadline
            if d < _INF:
                if d < md:
                    md = d
            else:
                e = self.engines_p[j]
                sw_rate = (
                    e.cost.recv_rate(cfg.chunk_size, uc=uc) * n_workers
                    if e.cost.per_recv_chunk > 0
                    else _INF
                )
                recv_rate = min(fabric.link_bandwidth, sw_rate)
                expected = self.ops[j].plan.buffer_len / recv_rate
                slack = (e.cutoff.slack() if cfg.adaptive_cutoff
                         else cfg.cutoff_alpha)
                expslack[j] = expected + slack
                unarmed.append(j)
        self.md = md
        self.unarmed = unarmed
        self.expslack = expslack

        # --- schedule state -----------------------------------------------
        self.buffer_len = op.plan.buffer_len
        self.gather = np.empty(self.buffer_len, dtype=np.uint8)
        self.env = np.empty(P)
        self.ptr = 0
        self.nfolded = 0
        self.folded: List[int] = []
        self.sent = [False] * P
        self.completed = [False] * P

        # --- host-lane kernel ----------------------------------------------
        if uc:
            self.lanes = _HostLanes(
                True, cost.cqe_poll + cost.cqe_process, cost.recv_repost,
                s_bpos, hd_bw, hd_lat, hd_busy)
        else:
            engines_p = self.engines_p
            self.lanes = _HostLanes(
                False, cost.cqe_poll + cost.cqe_process,
                cost.copy_issue + cost.recv_repost,
                s_bpos, hd_bw, hd_lat, hd_busy,
                np.array([e.dma.bandwidth for e in engines_p]),
                np.array([e.dma.latency for e in engines_p]),
                np.array([e.dma.busy_until for e in engines_p]))
        return self

    # ------------------------------------------------------------ per phase

    def fold_phase(self, engine: "RankEngine",
                   op: "OpState") -> Optional[float]:
        """Fold one chain phase; returns the sender's ``run_send`` done
        instant, or ``None`` after flushing + aborting the session."""
        sim = self.sim
        t_hook = sim.now
        if self.done or self.aborted:
            return self.abort_flush()
        if self.fabric.fault_epoch != self.epoch0:
            return self.abort_flush()
        i = self.pos.get(engine.rank, -1)
        if i < 0 or self.sent[i] or op is not self.ops[i]:
            return self.abort_flush()
        if len(engine.send_cq):
            return self.abort_flush()
        # --- cutoff-deadline gate (conservative, O(#still-unarmed)) ------
        md = self.md
        un = self.unarmed
        if un:
            k = 0
            for idx in un:
                d = self.ops[idx].cutoff_deadline
                if d < _INF:
                    if d < md:
                        md = d
                else:
                    un[k] = idx
                    k += 1
            del un[k:]
            self.md = md
        md_eff = md
        if un:
            bound = t_hook + min(self.expslack[idx] for idx in un)
            if bound < md_eff:
                md_eff = bound
        if md_eff <= t_hook:
            return self.abort_flush()
        # --- no-RNR envelope: posted depth must cover phases in flight ---
        nf = self.nfolded
        env = self.env
        ptr = self.ptr
        while ptr < nf and env[ptr] <= t_hook:
            ptr += 1
        self.ptr = ptr
        if self.init_min_qlen - (nf - ptr) < 1:
            return self.abort_flush()

        w = self.wires_f[i]
        ln = self.lens_f[i]
        # --- sender egress: _fold_sender for a single 1-packet batch -----
        t0 = t_hook + self.sb1
        prev = self.eg_busy[i]
        start = t0 if t0 > prev else prev
        eg_new = start + w / self.eg_bw[i]
        send_done = eg_new if eg_new > t0 else t0
        arr0 = eg_new + self.eg_lat[i]
        # --- up-chain: sender's leaf, then (if distinct) the root --------
        d_as = self.d_sw[i]
        inj_as = arr0 + d_as if d_as > 0.0 else arr0
        u = self.s_leafidx[i]
        if u >= 0:
            ustart = inj_as if inj_as > self.up_busy[u] else self.up_busy[u]
            up_new = ustart + w / self.up_bw[u]
            arr_r = up_new + self.up_lat[u]
            inj_r = arr_r + self.d_root if self.d_root > 0.0 else arr_r
        else:
            up_new = 0.0
            inj_r = inj_as
        # --- root fan-out: [n_leaves] vector of down-chains --------------
        b = self.b_scratch
        if self.n_leaves:
            dstart = np.maximum(inj_r, self.down_busy)
            dnew = dstart + w / self.down_bw
            inj_l = (dnew + self.down_lat) + self.d_leaf
            if u >= 0:
                dnew[u] = self.down_busy[u]  # sender's leaf: no down hop
            b[self.leaf_bidx] = inj_l
        else:
            dnew = None
        b[self.root_bpos] = inj_r
        b[self.s_bpos[i]] = inj_as
        # --- receiver lanes: every host-level chain at once ---------------
        ok, fin_rx, fins = self.lanes.phase(w, ln, b, i)
        if not ok:
            return self.abort_flush()
        fin_all = fin_rx if fin_rx > send_done else send_done
        if fin_all >= md_eff:
            return self.abort_flush()

        # ------------------------------------------------------- commit
        self.eg_busy[i] = eg_new
        if u >= 0:
            self.up_busy[u] = up_new
        if dnew is not None:
            self.down_busy = dnew
        self.sent[i] = True
        self.folded.append(i)
        env[nf] = fin_all if nf == 0 or fin_all > env[nf - 1] else env[nf - 1]
        self.nfolded = nf + 1
        lo = self.lo_offs[i]
        self.gather[lo:lo + self.lens_i[i]] = \
            op.mr.buf[lo:lo + self.lens_i[i]]

        # --- completions: delivered(r) == P-1 ----------------------------
        nf1 = nf + 1
        if nf1 >= self.P - 1:
            # Ascending-rank order fixes the completion events' heap
            # sequence numbers independently of the lane order.
            for j in self.rank_order:
                if self.completed[j]:
                    continue
                if nf1 - (1 if self.sent[j] else 0) == self.P - 1:
                    self.completed[j] = True
                    sim.post_at(float(fins[j]), self._complete_rx, j)
        if nf1 == self.P:
            self._flush_fabric(self.lanes.final_state())
            self.done = True
            self.sess.vec = None

        # --- watchdog liveness over the folded window --------------------
        if sim._wd_armed and sim._wd_interval > 0.0:
            step = sim._wd_interval / 2.0
            tick = t_hook + step
            while tick < fin_all:
                sim.post_at(tick, sim.note_progress)
                tick += step
        # --- telemetry ----------------------------------------------------
        ff = self.ff
        ff.ff_phases += 1
        ff.ff_skipped_events += self.chans_per_phase + 3 * (self.P - 1) + 2
        trc = engine.trace
        if trc is not None:
            trc.instant("engine.ff_enter", t_hook, {"chunks": 1})
            trc.instant("engine.ff_exit", t_hook,
                        {"until": fin_all, "send_done": send_done})
        return send_done

    # --------------------------------------------------------- completion

    def _complete_rx(self, j: int) -> None:
        """One event per rank, at its exact ``data_done`` instant: commit
        its bitmap, payload and stats, then let the op complete."""
        op_r = self.ops[j]
        newly = op_r.bitmap.set_range(0, self.P)
        op_r.placed.set_range(0, self.P)
        lo = self.lo_offs[j]
        hi = lo + self.lens_i[j]
        buf = op_r.mr.buf
        buf[0:lo] = self.gather[0:lo]
        buf[hi:self.buffer_len] = self.gather[hi:self.buffer_len]
        op_r.stats["chunks_received"] += newly
        op_r.maybe_complete()

    # -------------------------------------------------------------- flush

    def abort_flush(self) -> None:
        """Commit every folded phase's deferred state *now* and retire the
        session: the packet path resumes from object state identical to
        what the generic fold would have committed eagerly (WR queue depth
        aside — see the class docstring)."""
        if self.done or self.aborted:
            return None
        self.aborted = True
        sim = self.sim
        now = sim.now
        self.lanes.rollback()  # drop any tentative (uncommitted) phase
        state = self.lanes.final_state()
        self._flush_fabric(state)
        # --- per-rank partial bitmap/payload from the folded psn runs -----
        runs = self._psn_runs()
        last_fin = state["last_fin"]
        for j in range(self.P):
            if self.completed[j]:
                continue  # its pending completion event commits everything
            op_r = self.ops[j]
            got = 0
            for psn0, cnt in runs:
                got += op_r.bitmap.set_range(psn0, cnt)
                op_r.placed.set_range(psn0, cnt)
                b0 = op_r.plan.bounds(psn0)[0]
                b1_off, b1_len = op_r.plan.bounds(psn0 + cnt - 1)
                op_r.mr.buf[b0:b1_off + b1_len] = \
                    self.gather[b0:b1_off + b1_len]
            op_r.stats["chunks_received"] += got
            lf = float(last_fin[j])
            if lf > now:
                # The last folded receive is still "in flight": hold
                # completion to its finisher instant, like the scalar fold.
                op_r.ff_hold += 1
                sim.post_at(lf, self._release_hold, j)
        self.sess.vec = None
        return None

    def _release_hold(self, j: int) -> None:
        op_r = self.ops[j]
        op_r.ff_hold -= 1
        op_r.maybe_complete()

    def _psn_runs(self) -> List[Tuple[int, int]]:
        psns = sorted(self.psns[j] for j in self.folded)
        runs: List[Tuple[int, int]] = []
        i = 0
        n = len(psns)
        while i < n:
            j = i + 1
            while j < n and psns[j] == psns[j - 1] + 1:
                j += 1
            runs.append((psns[i], j - i))
            i = j
        return runs

    def _flush_fabric(self, state: Dict[str, np.ndarray]) -> None:
        """Write every deferred fabric-level counter and watermark in one
        pass: closed forms over the folded phase set (all P phases on the
        happy path), identical totals to per-phase eager commits."""
        folded = self.folded
        nf = len(folded)
        header = self.header
        wires_i = self.wires_i
        lens_i = self.lens_i
        wf = sum(wires_i[j] for j in folded)
        lf_sum = sum(lens_i[j] for j in folded)
        leaf_w = [0] * self.n_leaves
        leaf_n = [0] * self.n_leaves
        for j in folded:
            u = self.s_leafidx[j]
            if u >= 0:
                leaf_w[u] += wires_i[j]
                leaf_n[u] += 1
        hd_busy = state["hd_busy"]
        cursors = state["cursor"]
        last_arr = state["last_arr"]
        dma_busy = state.get("dma_busy")
        sess_rx = self.sess.rx
        for j in range(self.P):
            sent_j = self.sent[j]
            pk = nf - (1 if sent_j else 0)
            own_w = wires_i[j] if sent_j else 0
            own_l = lens_i[j] if sent_j else 0
            e = self.engines_p[j]
            ch = self.hd_ch[j]
            ch.busy_until = float(hd_busy[j])
            ch.bytes_sent += wf - own_w
            ch.payload_bytes_sent += lf_sum - own_l
            ch.packets_sent += pk
            if self.hd_fault[j]:
                ch._droppable_seq += pk
            if sent_j:
                eg = self.eg_ch[j]
                eg.busy_until = float(self.eg_busy[j])
                eg.bytes_sent += wires_i[j]
                eg.payload_bytes_sent += lens_i[j]
                eg.packets_sent += 1
                if self.eg_fault[j]:
                    eg._droppable_seq += 1
                e.send_cq.total_pushed += 1
            nic = e.nic
            nic.packets_received += pk
            nic.bytes_received += lf_sum - own_l
            self.qps[j].recv_cq.total_pushed += pk
            if not self.uc:
                dma = e.dma
                dma.busy_until = float(dma_busy[j])
                dma.bytes_copied += lf_sum - own_l
                dma.ops += pk
                e.stagings[0].reposts += pk
            rank = self.perm[j]
            rx = sess_rx.get(rank)
            if rx is None:
                rx = sess_rx[rank] = _RxSession()
            rx.cursor = float(cursors[j])
            rx.last_arrival = float(last_arr[j])
            if rx.cursor > e.ff_resume_floor:
                e.ff_resume_floor = rx.cursor
        for u in range(self.n_leaves):
            upc = self.up_ch[u]
            upc.busy_until = float(self.up_busy[u])
            upc.bytes_sent += leaf_w[u]
            upc.payload_bytes_sent += leaf_w[u] - leaf_n[u] * header
            upc.packets_sent += leaf_n[u]
            if self.up_fault[u]:
                upc._droppable_seq += leaf_n[u]
            dnc = self.down_ch[u]
            dnc.busy_until = float(self.down_busy[u])
            dnc.bytes_sent += wf - leaf_w[u]
            dnc.payload_bytes_sent += \
                (wf - leaf_w[u]) - (nf - leaf_n[u]) * header
            dnc.packets_sent += nf - leaf_n[u]
            if self.down_fault[u]:
                dnc._droppable_seq += nf - leaf_n[u]
        # Every phase visits every tree switch with exactly one in-port,
        # so each forwards (tree-ports - 1) packets per folded phase.
        for sw, nports in self.tree_sw:
            sw.packets_forwarded += nf * (nports - 1)


def _count_trains(flags: List[bool], batch_sizes: List[int]) -> Tuple[int, int]:
    """(trains, train_packets) a channel would have recorded for the
    batches whose train flag survived the coalescing chain so far."""
    trains = 0
    train_pkts = 0
    for f, sz in zip(flags, batch_sizes):
        if f:
            trains += 1
            train_pkts += sz
    return trains, train_pkts


def _drain_cq(pending: List[float], lo: int, t: float) -> Tuple[float, int, int]:
    """Replay one ``send_cq.wait() + poll()`` round of ``run_send``.

    ``pending[lo:]`` holds undrained signaled-CQE push instants in
    increasing order.  If any are due at *t* the wait returns immediately
    and the poll drains all of them; otherwise the worker parks until the
    next push and drains exactly it.
    """
    if lo < len(pending) and pending[lo] <= t:
        k = 0
        while lo < len(pending) and pending[lo] <= t:
            lo += 1
            k += 1
        return t, k, lo
    t = pending[lo]
    return t, 1, lo + 1
