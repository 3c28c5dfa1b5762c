"""The RNR barrier fold against the packet engine.

Under ``fast_forward="exact"`` the dissemination barrier that opens every
multicast collective is computed in closed form (DESIGN §6g) whenever its
gates hold.  The contract is the data fold's: virtual time, every rank's
phases, traffic, per-channel/switch/NIC counters, control-plane counts,
``last_heard`` and buffers are bit-identical to ``fast_forward="off"``;
only event counts and the engine-tier telemetry differ.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.communicator import CollectiveConfig, Communicator
from repro.core.costmodel import HostCostModel
from repro.net.fabric import Fabric
from repro.net.faults import GilbertElliott
from repro.net.link import FaultSpec
from repro.net.topology import Topology, is_host
from repro.obs.trace import TraceConfig
from repro.sim.engine import Simulator
from repro.sim.random import RandomStreams
from repro.units import gbit_per_s

TOPOLOGIES = {
    "leaf_spine": lambda P: Topology.leaf_spine(P, max(2, -(-P // 4)), 2),
    "testbed": lambda P: Topology.testbed_188(),
    "fat_tree": lambda P: Topology.fat_tree3(P, n_leaf=max(2, -(-P // 4)),
                                             n_mid=2, n_core=2),
    "torus": lambda P: Topology.torus([max(1, -(-P // 4)), 4]) if P > 4
    else Topology.torus([P]),
    "dragonfly": lambda P: Topology.dragonfly(4, 2, hosts_per_router=-(-P // 8)),
    "star": lambda P: Topology.star(P),
}

#: (topology, P, per_message_cost, folds): ``cost=None`` is the default
#: 500 ns dispatcher cost.  Where ``folds`` is False a gate declines (the
#: margin fence, or ties at cost 0) and the run must still match.
CASES = [
    ("leaf_spine", 2, None, True),
    ("leaf_spine", 2, 0.0, True),
    ("leaf_spine", 3, 0.0, False),
    ("leaf_spine", 16, None, True),
    ("leaf_spine", 16, 0.0, False),
    ("testbed", 188, None, False),
    ("star", 188, None, True),
    ("fat_tree", 2, 0.0, True),
    ("fat_tree", 5, None, False),
    ("fat_tree", 16, None, True),
    ("torus", 3, None, True),
    ("torus", 3, 0.0, True),
    ("torus", 16, 0.0, True),
    ("dragonfly", 5, None, True),
    ("dragonfly", 5, 0.0, True),
    ("dragonfly", 16, None, True),
    ("star", 5, 0.0, True),
]


def make_comm(topo: str, P: int, ff: str, cost=None, seed: int = 3,
              trace=None, **cfg) -> Communicator:
    sim = Simulator()
    fabric = Fabric(sim, TOPOLOGIES[topo](P), link_bandwidth=gbit_per_s(56),
                    streams=RandomStreams(seed))
    if cost is not None:
        cfg["cost"] = HostCostModel(ctrl_message=cost)
    cfg.setdefault("chunk_size", 1024)
    cfg.setdefault("transport", "uc")
    return Communicator(fabric, hosts=list(range(P)), trace=trace,
                        config=CollectiveConfig(fast_forward=ff, **cfg))


def state(comm: Communicator) -> dict:
    """Everything the packet path leaves behind that the fold commits."""
    fabric = comm.fabric
    return {
        "now": comm.sim.now,
        "channels": {k: (c.bytes_sent, c.payload_bytes_sent, c.packets_sent,
                         c.busy_until)
                     for k, c in fabric.channels.items()},
        "switches": {k: s.packets_forwarded for k, s in fabric.switches.items()},
        "nics": [(n.packets_received, n.bytes_received)
                 for n in fabric.nics.values()],
        "ctrl": [(e.ctrl.messages_sent, e.ctrl.messages_received,
                  e.ctrl.recv_cq.total_pushed, sorted(e.ctrl.last_heard.items()),
                  [sorted(wr.wr_id for wr in qp.recv_queue)
                   for _, qp in sorted(e.ctrl.qps.items())])
                 for e in comm.engines],
    }


def result_view(res) -> tuple:
    return (res.t_begin, res.t_end, res.traffic,
            [(r.phases, r.counters) for r in res.ranks],
            [bytes(b) for b in res.buffers])


def workload(comm: Communicator, P: int, rounds: int = 2):
    """Broadcasts and an allgather; the first barrier creates the control
    QPs at packet level, the later ones may fold."""
    rng = np.random.default_rng(P)
    out = []
    for it in range(rounds):
        data = rng.integers(0, 256, 4096, dtype=np.uint8)
        res = comm.broadcast(it % P, data)
        assert res.verify_broadcast(data)
        out.append(res)
    # Small shards keep the 188-rank packet-level allgather short.
    shards = [rng.integers(0, 256, 1024 if P < 64 else 64, dtype=np.uint8)
              for _ in range(P)]
    res = comm.allgather(shards)
    assert res.verify_allgather(shards)
    out.append(res)
    return out


def assert_runs_match(ref_comm, ref, comm, res) -> None:
    for a, b in zip(ref, res):
        assert result_view(a) == result_view(b)
    assert state(ref_comm) == state(comm)


@pytest.mark.parametrize("topo,P,cost,folds", CASES,
                         ids=[f"{t}-{p}-{'dflt' if c is None else c}"
                              for t, p, c, _ in CASES])
def test_fold_matches_packet_engine(topo, P, cost, folds):
    ref_comm = make_comm(topo, P, "off", cost)
    comm = make_comm(topo, P, "exact", cost)
    ref, res = workload(ref_comm, P), workload(comm, P)
    assert_runs_match(ref_comm, ref, comm, res)
    assert res[0].engine["ff_barriers"] == 0  # no control QPs yet
    assert res[0].engine["ff_barrier_declines"] == {"qp_missing": 1}
    later = sum(r.engine["ff_barriers"] for r in res[1:])
    if folds:
        assert later == len(res) - 1
    else:
        assert later == 0
        assert all(r.engine["ff_barrier_declines"] for r in res[1:])
    assert all(r.engine["ff_barriers"] == 0 for r in ref)


def test_fold_runs_under_host_link_burst_loss():
    # Loss on every switch-to-host link: the data phase recovers at packet
    # level, but RC is protected, so the barrier still folds.
    loss = GilbertElliott(p_good_bad=0.05, p_bad_good=0.3, drop_good=0.01,
                          drop_bad=0.3)

    def run(ff):
        comm = make_comm("star", 16, ff, transport="ud")
        comm.fabric.set_fault_all(
            lambda s, d: FaultSpec(gilbert_elliott=loss) if is_host(d) else None)
        return comm, workload(comm, 16, rounds=3)

    (ref_comm, ref), (comm, res) = run("off"), run("exact")
    assert_runs_match(ref_comm, ref, comm, res)
    assert sum(r.counter_total("recoveries") for r in res) > 0
    assert sum(r.engine["ff_barriers"] for r in res) >= 2


@pytest.mark.parametrize("fault,reason", [
    (FaultSpec(protect_reliable=False), "channel"),
    (FaultSpec(bandwidth_windows=[(0.0, 1.0, 0.5)]), "channel"),
], ids=["rc_unprotected", "bandwidth_window"])
def test_fold_declines_on_channel_faults(fault, reason):
    def run(ff):
        comm = make_comm("leaf_spine", 16, ff)
        comm.fabric.set_fault_all(lambda s, d: fault.clone())
        return comm, workload(comm, 16)

    (ref_comm, ref), (comm, res) = run("off"), run("exact")
    assert_runs_match(ref_comm, ref, comm, res)
    assert sum(r.engine["ff_barriers"] for r in res) == 0
    assert all(r.engine["ff_barrier_declines"] == {reason: 1} for r in res[1:])


def test_fold_declines_with_failure_policy():
    # The liveness layer's barrier is never folded.
    ref_comm = make_comm("leaf_spine", 16, "off", failure_policy="abort")
    comm = make_comm("leaf_spine", 16, "exact", failure_policy="abort")
    ref, res = workload(ref_comm, 16), workload(comm, 16)
    assert_runs_match(ref_comm, ref, comm, res)
    assert all(r.engine["ff_barriers"] == 0 for r in res)
    assert all(r.engine["ff_barrier_declines"] == {} for r in res)


def test_fold_declines_multi_chain_allgather():
    ref_comm = make_comm("leaf_spine", 16, "off", n_chains=4)
    comm = make_comm("leaf_spine", 16, "exact", n_chains=4)
    ref, res = workload(ref_comm, 16), workload(comm, 16)
    assert_runs_match(ref_comm, ref, comm, res)
    assert res[1].engine["ff_barriers"] == 1  # broadcast: one injector
    assert res[2].engine["ff_barriers"] == 0
    assert res[2].engine["ff_barrier_declines"] == {"injectors": 1}


@pytest.mark.parametrize("cost", [None, 0.0], ids=["dflt", "0"])
@pytest.mark.parametrize("delta", [0.0, 0.4e-6, 1.3e-6, 2.6e-6, 4.1e-6, 6.3e-6],
                         ids=lambda d: f"{d * 1e6:.1f}us")
def test_submit_inside_folded_window_preempts(delta, cost):
    """A broadcast submitted from a ``sim.post_at`` callback while a folded
    barrier's messages are in flight: the fold hands its rest back to the
    packet engine at that instant, and both collectives stay exact."""
    P = 16
    topo = "torus"

    def run(ff):
        comm = make_comm(topo, P, ff, cost)
        rng = np.random.default_rng(5)
        first = rng.integers(0, 256, 4096, dtype=np.uint8)
        second = rng.integers(0, 256, 2048, dtype=np.uint8)
        comm.broadcast(0, first)  # creates the control QPs
        h1 = comm.broadcast_async(3, first)
        late = []
        comm.sim.post_at(comm.sim.now + delta,
                         lambda: late.append(comm.broadcast_async(9, second)))
        comm.run(h1)
        comm.run(*late)
        r1, r2 = h1.result(), late[0].result()
        assert r1.verify_broadcast(first) and r2.verify_broadcast(second)
        return comm, [r1, r2]

    (ref_comm, ref), (comm, res) = run("off"), run("exact")
    assert_runs_match(ref_comm, ref, comm, res)
    assert comm.ff.ff_barriers == 1  # the second barrier, then preempted
    assert comm.ff.barrier_declines["preempted"] == 1


def test_traced_and_untraced_folds_agree():
    plain = make_comm("leaf_spine", 16, "exact")
    traced = make_comm("leaf_spine", 16, "exact", trace=TraceConfig())
    a, b = workload(plain, 16), workload(traced, 16)
    assert [result_view(x) for x in a] == [result_view(x) for x in b]
    assert plain.sim.events_processed == traced.sim.events_processed
    assert sum(r.engine["ff_barriers"] for r in b) == 2
    assert sum(r.trace.count("engine.ff_barrier") for r in b) == 2


# ------------------------------------------------ satellite: no leaks


@pytest.mark.parametrize("ff", ["off", "exact"])
def test_finished_ops_are_freed_without_the_cycle_collector(ff):
    comm = make_comm("leaf_spine", 16, ff)
    refs = []
    gc.collect()
    gc.disable()
    try:
        for it in range(3):
            data = np.full(4096, it, dtype=np.uint8)
            handle = comm.broadcast_async(it, data)
            refs.extend(weakref.ref(op) for op in handle.ops)
            comm.run(handle)
            handle.result()
            comm.release(handle)
            del handle
        assert all(r() is None for r in refs)
    finally:
        gc.enable()


@pytest.mark.parametrize("ff", ["off", "exact"])
def test_control_inboxes_stay_flat(ff):
    comm = make_comm("leaf_spine", 16, ff)
    counts = []
    for it in range(4):
        workload(comm, 16, rounds=1)
        counts.append(sum(len(e.ctrl._inboxes) for e in comm.engines))
    assert counts[-1] == counts[1]


@pytest.mark.parametrize("eps", [1e-9, 2e-7], ids=["1ns", "200ns"])
def test_submit_after_window_waits_for_folded_dispatch(eps):
    """Submitted just past the preempt threshold, the newcomer's messages
    land after every folded arrival but while some dispatchers are still
    busy with the folded chain: they must queue behind it, unpreempted."""
    P = 16
    probe = make_comm("star", P, "exact")
    data = np.arange(4096, dtype=np.uint8) % 251
    probe.broadcast(0, data)
    t = probe.sim.now
    h = probe.broadcast_async(3, data)
    probe.sim.run(until=t)
    fold = probe.ff._barriers[h.coll_id]
    delta = fold.last_arrival - fold.d_lb - t + eps

    def run(ff):
        comm = make_comm("star", P, ff)
        comm.broadcast(0, data)
        h1 = comm.broadcast_async(3, data)
        late = []
        comm.sim.post_at(comm.sim.now + delta,
                         lambda: late.append(comm.broadcast_async(9, data[:2048])))
        comm.run(h1)
        comm.run(*late)
        return comm, [h1.result(), late[0].result()]

    (ref_comm, ref), (comm, res) = run("off"), run("exact")
    assert_runs_match(ref_comm, ref, comm, res)
    assert comm.ff.ff_barriers == 1
    assert comm.ff.barrier_declines["preempted"] == 0
