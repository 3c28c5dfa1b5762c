"""The vectorized fold-commit against the packet engine.

The contract under test (DESIGN §6d, §6f): the vectorized receiver fold
and the deferred-commit single-chunk Allgather session are *performance*
layers of ``fast_forward="exact"`` — virtual time, payloads, traffic and
per-rank counters must be bit-identical to the per-packet engine
(``fast_forward="off"``), across clean, lossy and mid-run-perturbed
conditions.  Any float divergence, however small, is a bug.

Event counts and receiver-batch telemetry drop under the fold by design,
so those engine keys are excluded from the comparison.

One known divergence is pinned rather than hidden: a fault installed by
a raw ``sim.post_at`` while a folded phase's packets are in flight is
outside the exactness contract.  There the vectorized session is checked
against the scalar fold, and the packet-engine comparison is a strict
xfail.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.fastforward import _Vec1Session
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

#: engine keys that differ between the fold and the packet engine by
#: design: the fold replaces packet events, finisher events and CQE
#: batches with arithmetic
EVENT_KEYS = {"sim_events", "ff_phases", "ff_skipped_events", "ff_aborts",
              "cqe_batches", "batched_cqes"}


def make_comm(P: int, seed: int = 7, *, transport: str = "ud",
              ff: str = "exact", chunk_size: int = 1024) -> Communicator:
    sim = Simulator()
    fabric = Fabric(sim, Topology.leaf_spine(P, 4, 2),
                    link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed))
    return Communicator(fabric, config=CollectiveConfig(
        chunk_size=chunk_size, transport=transport, fast_forward=ff))


def ag_data(P: int, nbytes: int = 1024):
    return [np.full(nbytes, (3 * r + 1) % 251, dtype=np.uint8)
            for r in range(P)]


def strip(engine: dict) -> dict:
    return {k: v for k, v in engine.items() if k not in EVENT_KEYS}


def assert_matches(res, ref) -> None:
    assert res.duration == ref.duration  # bitwise, not approx
    assert res.traffic == ref.traffic
    assert strip(res.engine) == strip(ref.engine)
    for rf, ro in zip(res.ranks, ref.ranks):
        assert rf.phases == ro.phases, f"rank {rf.rank} phase timestamps differ"
        assert rf.counters == ro.counters
    assert [bytes(b) for b in res.buffers] == [bytes(b) for b in ref.buffers]


# ----------------------------------------------------- clean equivalence


@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [7, 23])
def test_allgather_vec_matches_packet_engine(transport, seed):
    P = 32
    data = ag_data(P)
    ref = make_comm(P, seed, transport=transport, ff="off").allgather(data)
    res = make_comm(P, seed, transport=transport).allgather(data)
    assert res.engine["ff_phases"] == P  # every phase via the vec session
    assert res.engine["ff_aborts"] == 0
    assert ref.engine["ff_phases"] == 0
    assert_matches(res, ref)
    expected = np.concatenate(data)
    for buf in res.buffers:
        assert np.array_equal(buf, expected)


@pytest.mark.parametrize("seed", [7, 23])
def test_broadcast_vec_matches_packet_engine(seed):
    # Broadcast folds whole multi-chunk phases: the vec receiver-fold
    # (matrix path) engages at n_chunks * n_rx >= 512.
    P = 32
    data = np.arange(64 * 1024, dtype=np.uint8).reshape(-1) % 199
    ref = make_comm(P, seed, ff="off").broadcast(0, data)
    res = make_comm(P, seed).broadcast(0, data)
    assert res.engine["ff_phases"] > 0
    assert_matches(res, ref)
    for buf in res.buffers:
        assert np.array_equal(buf, data)


def test_allreduce_vec_matches_packet_engine():
    P = 16
    data = [np.full(2048, r + 1, dtype=np.float32) for r in range(P)]
    ref = make_comm(P, ff="off").allreduce(data)
    res = make_comm(P).allreduce(data)
    assert res.engine["ff_phases"] > 0
    assert res.duration == ref.duration
    assert res.traffic == ref.traffic
    assert res.verify_allreduce(data)
    assert strip(res.engine) == strip(ref.engine)


def test_fast_forward_rejects_banded():
    with pytest.raises(ValueError, match="fast_forward"):
        make_comm(4, ff="banded")


# ----------------------------------------------------- lossy + abort paths


@pytest.mark.parametrize("transport", ["ud", "uc"])
def test_lossy_from_start_falls_back_identically(transport):
    # A drop-capable fault fails every fold's fault_inert gate, so the
    # fold never engages and the run is the packet engine's exactly.
    P = 16
    data = ag_data(P, 512)

    def run(ff):
        comm = make_comm(P, transport=transport, ff=ff)
        comm.fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={2, 5}))
        return comm.allgather(data)

    ref, res = run("off"), run("exact")
    assert res.engine["ff_phases"] == 0  # vec session never built
    assert_matches(res, ref)


def _run_mid_run_fault(t_inject: float, ff: str = "exact"):
    P = 16
    data = ag_data(P, 512)
    comm = make_comm(P, ff=ff)
    fabric = comm.fabric
    comm.sim.post_at(
        t_inject,
        lambda: fabric.set_fault_all(
            lambda src, dst: FaultSpec(drop_packet_seqs={0})))
    res = comm.allgather(data)
    expected = np.concatenate(data)
    for buf in res.buffers:
        assert np.array_equal(buf, expected)
    return res


@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_fault_install_flushes_bitwise(monkeypatch, t_inject):
    # Install a dropping fault mid-collective: the deferred-commit session
    # must flush every folded phase's channel/bitmap/payload state at the
    # abort, and the packet-level path (plus recovery for the dropped
    # chunks) must complete from it at exactly the scalar fold's instant.
    # The two inject times abort the chain near its head (1 folded phase)
    # and mid-chain (~7 of 16).  The reference is the scalar fold (every
    # deferred-commit session declined), not the packet engine: see the
    # xfail below.
    res = _run_mid_run_fault(t_inject)
    with monkeypatch.context() as m:
        m.setattr(_Vec1Session, "build", classmethod(lambda cls, *args: None))
        base = _run_mid_run_fault(t_inject)
    # the abort must interrupt a *live* session for the test to mean much
    assert 0 < res.engine["ff_phases"] < 16
    assert base.engine["ff_phases"] > 0
    assert res.duration == base.duration
    assert res.traffic == base.traffic


@pytest.mark.xfail(strict=True, reason=(
    "a fault installed outside the fabric's fault schedule while a folded "
    "phase's packets are in flight drops, in the packet engine, packets "
    "the fold has already delivered: fold vs packet fabric_drops 15 vs 27 "
    "at 2e-5 s (duration 4.036952 vs 4.037098 ms), 9 vs 12 at 4e-5 s"))
@pytest.mark.parametrize("t_inject", [2e-5, 4e-5])
def test_mid_run_fault_install_vs_packet_engine(t_inject):
    ref = _run_mid_run_fault(t_inject, ff="off")
    res = _run_mid_run_fault(t_inject)
    assert res.traffic == ref.traffic
    assert res.duration == ref.duration


def test_mid_run_second_collective_preempts_bitwise():
    # A second collective submitted mid-run must preempt the deferred
    # session (its packets would otherwise observe stale channel state);
    # both collectives then run packet-level and the combined timeline
    # must match the packet engine's exactly.
    P = 16
    data = ag_data(P, 512)
    bdata = np.full(4096, 99, dtype=np.uint8)
    t_submit = 2e-5

    def run(ff):
        comm = make_comm(P, ff=ff)
        handles = []
        h1 = comm.allgather_async(data)
        comm.sim.post_at(
            t_submit,
            lambda: handles.append(comm.broadcast_async(0, bdata)))
        comm.run(h1)
        comm.run(handles[0])
        t_end = comm.sim.now
        bufs = [bytes(op.mr.buf) for op in h1.ops]
        bbufs = [bytes(op.mr.buf) for op in handles[0].ops]
        return (t_end, bufs, bbufs, comm.fabric.total_drops()), comm.ff

    ref, _ = run("off")
    res, ff = run("exact")
    assert ff.ff_phases > 0  # the session was live when it was preempted
    assert res == ref


def test_recovery_path_preempts_vec_session():
    # preempt_vec on an idle engine must be a safe no-op: the next
    # collective still folds every phase.
    comm = make_comm(8)
    comm.ff.preempt_vec()
    res = comm.allgather(ag_data(8))
    assert res.engine["ff_phases"] == 8
