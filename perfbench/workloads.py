"""The benchmark's three closed-loop workloads.

Each workload builds one fabric and one communicator, then runs
iterations in a single process with no threads.  An iteration issues its
next collective (or concurrent pair) only after the previous one has
completed, and checks every collective with the matching
``CollectiveResult.verify_*``.  A collective that raises or fails its
check is recorded as failed; the run goes on.

Inputs come from the seed alone: payload bytes, broadcast roots, shard
sizes and the fabric's ``RandomStreams`` seed.  Only configuration that
outlives the planned removal of the ``parallel``/``banded`` knobs is
used (every workload runs ``fast_forward="exact"`` with defaults
otherwise).
"""

from __future__ import annotations

import sys
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import CollectiveConfig, CollectiveKind, CollectiveRequest, Communicator
from repro.bench import make_fabric
from repro.net.faults import GilbertElliott
from repro.net.link import FaultSpec
from repro.net.topology import is_host
from repro.units import KiB, MiB

from probe import Spans


@dataclass
class Op:
    """One collective of an iteration, as the benchmark observed it."""

    kind: str
    ok: bool
    result: Optional[object] = None  #: the CollectiveResult when it completed
    useful_bytes: int = 0  #: payload bytes delivered to receivers
    mcast_phases: int = 0  #: multicast sender phases the collective ran


@dataclass
class Session:
    """A built fabric and communicator for one workload and seed."""

    fabric: object
    comm: Communicator
    seed: int
    #: the seeded payload size: broadcast bytes, or FSDP shard bytes per rank
    nbytes: int


def _useful_bytes(result) -> int:
    """Payload bytes the collective delivered to its receivers (the
    denominator of the paper's Fig 12 traffic ratio)."""
    receivers = result.comm_size - (1 if result.kind == "broadcast" else 0)
    return result.recv_bytes_per_rank * receivers


def _failed(kind: str, exc: BaseException) -> Op:
    print(f"collective {kind} failed: {exc!r}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)
    return Op(kind, ok=False)


def _run_one(comm: Communicator, request: CollectiveRequest,
             verify: Callable, spans: Spans, span: str, phases: int) -> Op:
    """Submit one collective, run it to completion and check it."""
    kind = str(request.kind)
    try:
        with spans.span(span):
            handle = comm.submit(request)
            comm.run(handle)
            result = handle.result()
            comm.release(handle)
        with spans.span("verify"):
            ok = bool(verify(result))
    except Exception as exc:  # counted into the failed-op ratio
        return _failed(kind, exc)
    if not ok:
        print(f"collective {kind} failed verification", file=sys.stderr)
    return Op(kind, ok, result, _useful_bytes(result), phases)


def _rng(seed: int, salt: int, *index: int) -> np.random.Generator:
    return np.random.default_rng([seed, salt, *index])


def _trimmed(nbytes: int, seed: int, salt: int) -> int:
    """*nbytes* less a seeded 0-124 bytes, so simulated times differ a
    little between seeds while the work stays the same."""
    return nbytes - 4 * int(_rng(seed, salt).integers(0, 32))


class Workload:
    """A named workload: how to build it, make inputs and run an iteration."""

    name = ""
    why = ""
    #: approximate host seconds per iteration at the parent commit; sizes the
    #: iteration count from ``--seconds`` so every run does the same work
    nominal_iter_s = 1.0
    #: salts the workload's random streams
    salt = 0
    #: payload size before the seeded trim (see :attr:`Session.nbytes`)
    nbytes = 0

    def make_fabric(self, seed: int):
        raise NotImplementedError

    def config(self) -> CollectiveConfig:
        raise NotImplementedError

    def build(self, seed: int, spans: Spans) -> Session:
        with spans.span("fabric_build"):
            fabric = self.make_fabric(seed)
        with spans.span("comm_init"):
            comm = Communicator(fabric, config=self.config())
        return Session(fabric, comm, seed, _trimmed(self.nbytes, seed, self.salt))

    def inputs(self, session: Session, index: int):
        raise NotImplementedError

    def iterate(self, session: Session, inputs, spans: Spans) -> List[Op]:
        raise NotImplementedError


class BroadcastAllgather(Workload):
    """One broadcast (of a seeded size, from a seeded root), then one
    allgather."""

    nbytes = 64 * KiB  #: broadcast payload
    ag_bytes = 256  #: allgather contribution per rank

    def inputs(self, session: Session, index: int):
        rng = _rng(session.seed, self.salt, index)
        size = session.comm.size
        root = int(rng.integers(0, size))
        payload = rng.integers(0, 256, session.nbytes, dtype=np.uint8)
        shards = [rng.integers(0, 256, self.ag_bytes, dtype=np.uint8)
                  for _ in range(size)]
        return root, payload, shards

    def iterate(self, session: Session, inputs, spans: Spans) -> List[Op]:
        root, payload, shards = inputs
        comm = session.comm
        bcast = _run_one(
            comm, CollectiveRequest(kind=CollectiveKind.BROADCAST,
                                    data=payload, root=root),
            lambda r: r.verify_broadcast(payload), spans, "broadcast", 1)
        ag = _run_one(
            comm, CollectiveRequest(kind=CollectiveKind.ALLGATHER, data=shards),
            lambda r: r.verify_allgather(shards), spans, "allgather", comm.size)
        return [bcast, ag]


class Fold1024(BroadcastAllgather):
    name = "fold1024"
    why = ("1024-host leaf-spine broadcast + allgather on UC: the fold, control "
           "plane, fabric build and buffer memory do the work, packet events little")
    nominal_iter_s = 5.0
    salt = 1024

    def make_fabric(self, seed: int):
        return make_fabric(1024, mtu=4096, seed=seed)

    def config(self) -> CollectiveConfig:
        # The chain-serialised allgather outruns the adaptive cutoff at this
        # scale and spurious recovery fires; a static cutoff wide enough that
        # none fires keeps the workload on the fold.
        return CollectiveConfig(chunk_size=4096, transport="uc",
                                adaptive_cutoff=False, cutoff_alpha=10e-3,
                                fast_forward="exact")


class Lossy188(BroadcastAllgather):
    name = "lossy188"
    why = ("188-host broadcast + allgather under burst loss on every "
           "switch-to-host link: the fold declines, and cutoff timers, bitmaps "
           "and RC ring fetch recover")
    nominal_iter_s = 4.5
    salt = 188
    nbytes = MiB
    ag_bytes = 4 * KiB
    loss = GilbertElliott(p_good_bad=0.01, p_bad_good=0.3,
                          drop_good=0.001, drop_bad=0.10)

    def make_fabric(self, seed: int):
        fabric = make_fabric(188, mtu=4096, seed=seed)
        # Loss on the last hop only: a burst on a link above the leaves hits
        # a whole leaf at once, so the ring fetch escalates through it and a
        # collective's simulated time swings between two modes (about 5 and
        # 15 ms), too far apart for a run of a few iterations to repeat.
        fabric.set_fault_all(
            lambda src, dst: FaultSpec(gilbert_elliott=self.loss)
            if is_host(dst) else None)
        return fabric

    def config(self) -> CollectiveConfig:
        return CollectiveConfig(chunk_size=4096, fast_forward="exact")


class Fsdp188(Workload):
    """One FSDP layer step on the paper's 188-host testbed: a multicast
    allgather of the layer's parameters and an INC reduce-scatter of its
    gradients, submitted together and run to completion as a pair."""

    name = "fsdp188"
    why = ("188-host FSDP layer, multicast allgather + INC reduce-scatter at "
           "once: the fold declines, so packet engine, link contention and INC "
           "do the work")
    nominal_iter_s = 4.0
    salt = 7
    nbytes = 4 * KiB  #: allgather shard per rank: one chunk

    def make_fabric(self, seed: int):
        return make_fabric(188, mtu=4096, seed=seed)

    def config(self) -> CollectiveConfig:
        return CollectiveConfig(chunk_size=4096, fast_forward="exact")

    def inputs(self, session: Session, index: int):
        rng = _rng(session.seed, self.salt, index)
        size = session.comm.size
        shard = session.nbytes
        ag = [rng.integers(0, 256, shard, dtype=np.uint8) for _ in range(size)]
        rs = [rng.random(shard // 4 * size, dtype=np.float32)
              for _ in range(size)]
        return ag, rs

    def iterate(self, session: Session, inputs, spans: Spans) -> List[Op]:
        ag_data, rs_data = inputs
        comm = session.comm
        try:
            with spans.span("fsdp_layer"):
                ag = comm.submit(CollectiveRequest(
                    kind=CollectiveKind.ALLGATHER, data=ag_data))
                rs = comm.submit(CollectiveRequest(
                    kind=CollectiveKind.REDUCE_SCATTER, data=rs_data,
                    algorithm="inc"))
                comm.run(ag, rs)
                ag_res, rs_res = ag.result(), rs.result()
                comm.release(ag)
                comm.release(rs)
            with spans.span("verify"):
                ag_ok = bool(ag_res.verify_allgather(ag_data))
                rs_ok = bool(rs_res.verify_reduce_scatter(rs_data))
        except Exception as exc:  # counted into the failed-op ratio
            return [_failed("allgather+reduce_scatter", exc),
                    Op("reduce_scatter", ok=False)]
        for kind, ok in (("allgather", ag_ok), ("reduce_scatter", rs_ok)):
            if not ok:
                print(f"collective {kind} failed verification", file=sys.stderr)
        return [Op("allgather", ag_ok, ag_res, _useful_bytes(ag_res), comm.size),
                Op("reduce_scatter", rs_ok, rs_res, _useful_bytes(rs_res), 0)]


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (Fold1024(), Fsdp188(), Lossy188())
}
