"""Proof of equivalence for the simulator fast paths.

Two independent fast paths are proven here, each against its own slow
path:

* the **packet-train** fast path (wire side, PR 2): every scenario is
  executed with channel coalescing on and off, and the two runs must
  agree *exactly* — completion times, per-rank phase timestamps,
  per-channel byte/packet/drop counters, switch forwarding counters, the
  reliability summary, and the received payloads;
* the **receiver-batch** fast path (host side, DESIGN.md §6c): the same
  battery toggles ``recv_batching`` instead, across clean / lossy /
  reordered / straggler conditions × {broadcast, allgather} × {ud, uc}.

Any float divergence, however small, is a bug in the fast path (see
DESIGN.md §"Simulator fast path" and §6c).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott, StragglerSpec
from repro.net.link import FaultSpec
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import KiB, gbit_per_s

P = 16
NBYTES = 64 * KiB


def _make_comm(seed: int, coalescing: bool, fault_factory=None,
               transport: str = "ud", recv_batching: bool = True,
               straggler=None) -> Communicator:
    sim = Simulator()
    fabric = Fabric(
        sim,
        Topology.leaf_spine(P, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
        coalescing=coalescing,
    )
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    return Communicator(
        fabric, config=CollectiveConfig(chunk_size=4096, transport=transport,
                                        recv_batching=recv_batching)
    )


def _channel_counters(fabric: Fabric) -> Dict[Tuple[str, str], Tuple[int, ...]]:
    return {
        key: (ch.bytes_sent, ch.payload_bytes_sent, ch.packets_sent,
              ch.bytes_dropped, ch.packets_dropped)
        for key, ch in fabric.channels.items()
    }


def _switch_counters(fabric: Fabric) -> Dict[str, Tuple[int, int]]:
    return {
        name: (sw.packets_forwarded, sw.packets_dropped_no_route)
        for name, sw in fabric.switches.items()
    }


def _run(kind: str, seed: int, coalescing: bool, fault_factory=None,
         transport: str = "ud", recv_batching: bool = True,
         straggler=None):
    comm = _make_comm(seed, coalescing, fault_factory, transport,
                      recv_batching, straggler)
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        data = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        # 4 chunks per rank so senders have multi-packet runs to coalesce.
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res


def _assert_equivalent(kind: str, seed: int, fault_factory=None,
                       transport: str = "ud",
                       expect_trains: bool = True) -> None:
    comm_fast, res_fast = _run(kind, seed, True, fault_factory, transport)
    comm_slow, res_slow = _run(kind, seed, False, fault_factory, transport)

    # Virtual-time agreement must be exact, not approximate.
    assert res_fast.t_begin == res_slow.t_begin
    assert res_fast.t_end == res_slow.t_end
    assert res_fast.duration == res_slow.duration
    for rf, rs in zip(res_fast.ranks, res_slow.ranks):
        assert rf.phases == rs.phases, f"rank {rf.rank} phase timestamps differ"

    # Byte-exact telemetry on every port and switch.
    assert _channel_counters(comm_fast.fabric) == _channel_counters(comm_slow.fabric)
    assert _switch_counters(comm_fast.fabric) == _switch_counters(comm_slow.fabric)
    assert res_fast.traffic == res_slow.traffic

    # Slow-path bookkeeping (recoveries, fetch rounds, retries) agrees too.
    assert res_fast.reliability_summary() == res_slow.reliability_summary()

    # Payloads byte-identical.
    for bf, bs in zip(res_fast.buffers, res_slow.buffers):
        assert np.array_equal(bf, bs)

    if expect_trains:
        assert res_fast.engine["trains"] > 0, "fast path never engaged"
    else:
        assert res_fast.engine["trains"] == 0, (
            "fast path must stay off while a live fault schedule exists"
        )
    assert res_slow.engine["trains"] == 0


def _lossy(s: str, d: str) -> FaultSpec:
    return FaultSpec(gilbert_elliott=GilbertElliott(
        p_good_bad=0.02, p_bad_good=0.3, drop_good=0.002, drop_bad=0.15))


def _reordered(s: str, d: str) -> FaultSpec:
    return FaultSpec(reorder_jitter=3e-6)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_clean_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_lossy_equivalence(kind: str, seed: int) -> None:
    # Drop machinery no longer forces the per-packet slow path: the train
    # walk evaluates each packet's drop decision inline, in the identical
    # RNG consumption order, and delivers the survivors as one train.
    # Lossy channels must therefore still coalesce — and stay bit-exact.
    _assert_equivalent(kind, seed, fault_factory=_lossy, expect_trains=True)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_equivalent(kind, seed, fault_factory=_reordered,
                       expect_trains=False)


@pytest.mark.parametrize("seed", [0, 1])
def test_uc_transport_equivalence(seed: int) -> None:
    _assert_equivalent("broadcast", seed, transport="uc")


def test_past_fault_windows_allow_coalescing() -> None:
    """A fault spec whose windows are entirely in the past is inert: the
    fast path re-engages and still matches per-packet results exactly."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 1e-9)])

    # The collective starts at t=0, so the window is still live at first
    # transmissions; channels coalesce only after it expires.  Results
    # must agree regardless of the mid-run switchover.
    _assert_equivalent("broadcast", 0, fault_factory=stale,
                       expect_trains=True)


# ---------------------------------------------------------------------------
# Receiver-batch fast path (DESIGN.md §6c): batched vs per-CQE datapath.
# Coalescing stays ON for both runs — the NIC only delivers CQE trains for
# wire-coalesced trains, so this axis is orthogonal to the one above.
# ---------------------------------------------------------------------------


def _assert_batching_equivalent(kind: str, seed: int, fault_factory=None,
                                transport: str = "ud", straggler=None,
                                expect_batches: bool = True) -> None:
    comm_b, res_b = _run(kind, seed, True, fault_factory, transport,
                         recv_batching=True, straggler=straggler)
    comm_s, res_s = _run(kind, seed, True, fault_factory, transport,
                         recv_batching=False, straggler=straggler)

    assert res_b.t_begin == res_s.t_begin
    assert res_b.t_end == res_s.t_end
    assert res_b.duration == res_s.duration
    for rb, rs in zip(res_b.ranks, res_s.ranks):
        assert rb.phases == rs.phases, f"rank {rb.rank} phase timestamps differ"

    assert _channel_counters(comm_b.fabric) == _channel_counters(comm_s.fabric)
    assert _switch_counters(comm_b.fabric) == _switch_counters(comm_s.fabric)
    assert res_b.traffic == res_s.traffic
    assert res_b.reliability_summary() == res_s.reliability_summary()
    assert comm_b.fabric.total_rnr_drops() == comm_s.fabric.total_rnr_drops()

    for bf, bs in zip(res_b.buffers, res_s.buffers):
        assert np.array_equal(bf, bs)

    if expect_batches:
        assert res_b.engine["cqe_batches"] > 0, "batch fast path never engaged"
        assert res_b.engine["batched_cqes"] >= 2 * res_b.engine["cqe_batches"]
    assert res_s.engine["cqe_batches"] == 0
    assert res_s.engine["batched_cqes"] == 0


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_recv_batching_clean_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_lossy_equivalence(kind: str, seed: int) -> None:
    # Live faults keep channels per-packet, so no CQE trains ever form;
    # the assertion proves the batched configuration degrades to exactly
    # the per-CQE datapath when the wire gives it nothing to batch.
    _assert_batching_equivalent(kind, seed, fault_factory=_lossy,
                                expect_batches=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_reordered_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed, fault_factory=_reordered,
                                expect_batches=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_straggler_equivalence(kind: str, seed: int) -> None:
    # Host 3 pays +300 ns per CQE poll inside the window; the worker gate
    # (fabric.straggler_inert) must force its batches back to per-CQE
    # while other hosts keep batching, with bit-identical results.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_batching_equivalent(kind, seed, straggler=(3, spec))


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_recv_batching_uc_equivalence(kind: str, seed: int) -> None:
    _assert_batching_equivalent(kind, seed, transport="uc")


def test_recv_batching_straggler_window_suppresses_batches() -> None:
    """With every host straggling over the whole run, the eligibility gate
    must keep the batch counter at zero — and results still match."""
    spec = StragglerSpec(windows=[(0.0, 1.0)], extra_poll_delay=250e-9)

    def run(batching: bool):
        comm = _make_comm(0, True, recv_batching=batching)
        for h in range(P):
            comm.fabric.set_straggler(h, spec)
        data = np.arange(NBYTES, dtype=np.uint8) % 251
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
        return res

    res_b, res_s = run(True), run(False)
    assert res_b.engine["cqe_batches"] == 0
    assert res_b.duration == res_s.duration


# ---------------------------------------------------------------------------
# Flow-level fast-forward (DESIGN.md §"Hybrid flow-level fast-forward"):
# ff=exact must be bit-identical in virtual time and result digests to the
# packet-level engine.
# Event counts necessarily DROP under fast-forward (that is the point), so
# this axis never compares sim_events; the wire/host counters it mirrors
# (bytes, packets, trains, switch forwards, traffic) must still agree.
# Receiver-batch telemetry (cqe_batches/batched_cqes) is also excluded: a
# folded phase never wakes the workers that would have batched.
# ---------------------------------------------------------------------------

def _run_ff(kind: str, seed: int, ff: str, fault_factory=None,
            transport: str = "ud", straggler=None):
    sim = Simulator()
    fabric = Fabric(
        sim,
        Topology.leaf_spine(P, 2, 2),
        link_bandwidth=gbit_per_s(56),
        streams=RandomStreams(seed),
    )
    if fault_factory is not None:
        fabric.set_fault_all(fault_factory)
    if straggler is not None:
        host, spec = straggler
        fabric.set_straggler(host, spec)
    comm = Communicator(
        fabric, config=CollectiveConfig(chunk_size=4096, transport=transport,
                                        fast_forward=ff)
    )
    rng = np.random.default_rng(seed)
    if kind == "broadcast":
        data = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res = comm.broadcast(0, data)
        assert res.verify_broadcast(data)
    else:
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.allgather(data)
        assert res.verify_allgather(data)
    return comm, res


def _assert_ff_exact(kind: str, seed: int, fault_factory=None,
                     transport: str = "ud", straggler=None,
                     expect_folds: bool = True) -> None:
    comm_ff, res_ff = _run_ff(kind, seed, "exact", fault_factory,
                              transport, straggler)
    comm_off, res_off = _run_ff(kind, seed, "off", fault_factory,
                                transport, straggler)

    assert res_ff.t_begin == res_off.t_begin
    assert res_ff.t_end == res_off.t_end
    assert res_ff.duration == res_off.duration
    for rf, ro in zip(res_ff.ranks, res_off.ranks):
        assert rf.phases == ro.phases, f"rank {rf.rank} phase timestamps differ"
        assert rf.counters == ro.counters

    assert _channel_counters(comm_ff.fabric) == _channel_counters(comm_off.fabric)
    assert _switch_counters(comm_ff.fabric) == _switch_counters(comm_off.fabric)
    assert res_ff.traffic == res_off.traffic
    assert res_ff.reliability_summary() == res_off.reliability_summary()
    # The fold mirrors the train counters the packet engine would produce.
    assert res_ff.engine["trains"] == res_off.engine["trains"]
    assert res_ff.engine["train_packets"] == res_off.engine["train_packets"]

    for bf, bo in zip(res_ff.buffers, res_off.buffers):
        assert np.array_equal(bf, bo)

    assert res_off.engine["ff_phases"] == 0
    if expect_folds:
        assert res_ff.engine["ff_phases"] > 0, "fast-forward never engaged"
        assert res_ff.engine["sim_events"] < res_off.engine["sim_events"]
    else:
        assert res_ff.engine["ff_phases"] == 0, (
            "fast-forward must stay off while a fault schedule is live"
        )


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ff_exact_clean_equivalence(kind: str, transport: str, seed: int) -> None:
    _assert_ff_exact(kind, seed, transport=transport)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ff_exact_lossy_equivalence(kind: str, seed: int) -> None:
    # Armed drop machinery fails every channel's fault_inert() probe, so
    # the eligibility gate must veto all folds — and the run must then be
    # trivially identical to the packet engine.
    _assert_ff_exact(kind, seed, fault_factory=_lossy, expect_folds=False)


@pytest.mark.parametrize("kind", ["broadcast", "allgather"])
@pytest.mark.parametrize("seed", [0, 1])
def test_ff_exact_straggler_equivalence(kind: str, seed: int) -> None:
    # A straggler window overlapping any receiver's folded interval vetoes
    # the fold (fabric.straggler_inert); with host 3 slow for the whole
    # run, no phase may fold and results stay bit-identical.
    spec = StragglerSpec(windows=[(0.0, 1e-3)], extra_poll_delay=300e-9)
    _assert_ff_exact(kind, seed, straggler=(3, spec), expect_folds=False)


def test_ff_poisons_collective_after_fallback() -> None:
    """Within ONE collective, any packet-level fallback must veto every
    later fold of the same collective: a fallback phase moves the real
    receive-worker cursors, which the analytic fold can no longer track.
    A flap window covering the first phases forces exactly that."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    comm_ff, res_ff = _run_ff("allgather", 0, "exact", fault_factory=stale)
    assert res_ff.engine["ff_phases"] == 0
    assert res_ff.engine["ff_aborts"] > 0
    # ... and the run is still bit-identical to the packet engine.
    _assert_ff_exact("allgather", 0, fault_factory=stale, expect_folds=False)


def test_ff_mixed_mode_across_collectives() -> None:
    """A fault window that expires between collectives poisons nothing
    permanently: the first broadcast (window live) runs packet-level, the
    second folds — and both match the packet engine bit-for-bit."""
    def stale(s: str, d: str) -> FaultSpec:
        return FaultSpec(flap_windows=[(0.0, 2e-5)])

    def run(ff: str):
        comm = _make_comm(0, True, fault_factory=stale)
        comm.config.fast_forward = ff
        comm.ff = None
        if ff != "off":
            from repro.sim.fastforward import FlowFastForward
            comm.ff = FlowFastForward(comm)
        rng = np.random.default_rng(0)
        data1 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        data2 = rng.integers(0, 256, NBYTES, dtype=np.uint8)
        res1 = comm.broadcast(0, data1)
        res2 = comm.broadcast(0, data2)
        assert res1.verify_broadcast(data1)
        assert res2.verify_broadcast(data2)
        return res1, res2

    (ff1, ff2) = run("exact")
    (off1, off2) = run("off")
    assert ff1.engine["ff_phases"] == 0, "window was live: must not fold"
    assert ff2.engine["ff_phases"] > 0, "window expired: second op must fold"
    for rf, ro in [(ff1, off1), (ff2, off2)]:
        assert rf.t_begin == ro.t_begin
        assert rf.t_end == ro.t_end
        for a, b in zip(rf.ranks, ro.ranks):
            assert a.phases == b.phases


def test_ff_off_is_default() -> None:
    cfg = CollectiveConfig()
    assert cfg.fast_forward == "off"
    with pytest.raises(ValueError):
        sim = Simulator()
        fabric = Fabric(sim, Topology.star(4), streams=RandomStreams(0))
        CollectiveConfig(fast_forward="bogus").validate(fabric)


# ---------------------------------------------------------------------------
# Unified-submission kinds (allreduce = INC RS → multicast AG composed in
# one submission; alltoall = RC rotation schedule).  Both fast paths —
# packet-train coalescing and receiver batching — must stay bit-identical
# on these kinds across the same clean/lossy/straggler × {ud, uc} axes as
# the engine kinds above.  (The transports govern the allgather phase of
# allreduce; the RC substrate of alltoall and the reduce-scatter phase is
# transport-invariant by construction, which the axis also proves.)
# ---------------------------------------------------------------------------


def _run_submit_kind(kind: str, seed: int, coalescing: bool,
                     fault_factory=None, transport: str = "ud",
                     recv_batching: bool = True, straggler=None):
    comm = _make_comm(seed, coalescing, fault_factory, transport,
                      recv_batching, straggler)
    rng = np.random.default_rng(seed)
    if kind == "allreduce":
        data = [rng.normal(size=P * 1024).astype(np.float32)
                for _ in range(P)]
        res = comm.allreduce(data, algorithm="inc")
        assert res.verify_allreduce(data)
    else:
        data = [rng.integers(0, 256, 16 * KiB, dtype=np.uint8)
                for _ in range(P)]
        res = comm.alltoall(data)
        assert res.verify_alltoall(data)
    return comm, res


_SUBMIT_CONDITIONS = {
    "clean": {},
    "lossy": {"fault_factory": _lossy},
    "straggler": {"straggler": (3, StragglerSpec(
        windows=[(0.0, 1e-3)], extra_poll_delay=300e-9))},
}


@pytest.mark.parametrize("kind", ["allreduce", "alltoall"])
@pytest.mark.parametrize("condition", sorted(_SUBMIT_CONDITIONS))
@pytest.mark.parametrize("transport", ["ud", "uc"])
@pytest.mark.parametrize("seed", [0, 1])
def test_submit_kind_fastpath_equivalence(kind: str, condition: str,
                                          transport: str, seed: int) -> None:
    kw = _SUBMIT_CONDITIONS[condition]
    comm_ref, res_ref = _run_submit_kind(kind, seed, True,
                                         transport=transport, **kw)
    variants = [
        _run_submit_kind(kind, seed, False, transport=transport, **kw),
        _run_submit_kind(kind, seed, True, transport=transport,
                         recv_batching=False, **kw),
    ]
    ref_phases = [(ph.name, ph.t_begin, ph.t_end) for ph in res_ref.phases]
    for comm_v, res_v in variants:
        assert res_v.t_begin == res_ref.t_begin
        assert res_v.t_end == res_ref.t_end
        assert res_v.duration == res_ref.duration
        assert [(ph.name, ph.t_begin, ph.t_end)
                for ph in res_v.phases] == ref_phases
        assert _channel_counters(comm_v.fabric) == _channel_counters(comm_ref.fabric)
        assert _switch_counters(comm_v.fabric) == _switch_counters(comm_ref.fabric)
        for bv, br in zip(res_v.buffers, res_ref.buffers):
            assert np.array_equal(bv, br)


def test_coalescing_toggle_mid_simulation() -> None:
    """set_coalescing() flips every channel and is honored immediately."""
    comm = _make_comm(0, True)
    comm.fabric.set_coalescing(False)
    assert all(not ch.coalescing for ch in comm.fabric.channels.values())
    data = np.arange(NBYTES, dtype=np.uint8) % 251
    res = comm.broadcast(0, data)
    assert res.engine["trains"] == 0
    comm.fabric.set_coalescing(True)
    res2 = comm.broadcast(0, data)
    assert res2.engine["trains"] > 0
