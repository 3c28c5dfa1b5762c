"""Fig. 16-style host-count scaling of the flow-level fast-forward engine.

Sweeps the multicast broadcast across host counts and simulation engines:

* ``pkt``    — packet-level reference: ``fast_forward='off'`` with train
  coalescing disabled; every wire packet is a simulated event.
* ``train``  — the packet-train engine (``fast_forward='off'``,
  coalescing on): clean runs ride the CQE-train/coalesced-DMA fast path.
* ``exact``  — flow-level fast-forward, bit-identical virtual time to
  ``pkt`` (the fold replays the per-packet arithmetic).

Every broadcast folds as a single phase (``staging_slots`` is sized to
the chunk count so the receive queue covers the whole payload), so the
wall-clock ratio ``pkt / exact`` measures exactly what the engine
replaces: O(packets) event simulation with O(links) arithmetic.

Entry modes:

* ``--smoke`` — the CI ``scaling-smoke`` job: exact broadcast +
  allgather at 1024 AND 4096 hosts, an ag4096/ag1024 wall-clock
  scaling-ratio gate, a hard wall-clock budget, and ``ff_phases``
  assertions that fail loudly if the fold silently disengages.  The
  result table is persisted to
  ``benchmarks/results/ff_scaling_smoke.txt`` for artifact upload.
* default — the full sweep (minutes: the ``pkt`` column at 2048 hosts
  is the cost being amortized), persisted to
  ``benchmarks/results/ff_scaling.txt``; source of the EXPERIMENTS.md
  table.

Virtual time is printed for every cell: ``pkt``/``exact`` agreement is
the exactness contract, checked here on every run.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

import numpy as np

from repro.bench import format_table, make_fabric, report
from repro.core.communicator import CollectiveConfig, Communicator
from repro.units import KiB, MiB

#: engine mode -> (fast_forward knob, train coalescing)
MODES = {
    "pkt": ("off", False),
    "train": ("off", True),
    "exact": ("exact", False),
}

BCAST_PAYLOAD = 4 * MiB
CHUNK = 4096
AG_PER_RANK = KiB


def run_broadcast(n_hosts: int, mode: str,
                  payload: int = BCAST_PAYLOAD) -> Dict[str, object]:
    ff, coalescing = MODES[mode]
    fabric = make_fabric(n_hosts, mtu=CHUNK)
    fabric.set_coalescing(coalescing)
    cfg = CollectiveConfig(
        chunk_size=CHUNK,
        transport="uc",
        fast_forward=ff,
        # Cover the whole payload with posted recv WRs so the phase is
        # fold-eligible end to end (the no-RNR gate needs the posted
        # depth to absorb every chunk of a folded phase).
        staging_slots=payload // CHUNK,
    )
    comm = Communicator(fabric, config=cfg)
    # Warm-up: establishes the lazily-built control-plane QP mesh so the
    # timed section measures the data path, not one-time setup.
    comm.broadcast(0, np.zeros(64 * KiB, dtype=np.uint8))
    data = np.arange(payload, dtype=np.uint8) % 251
    t0 = time.perf_counter()
    res = comm.broadcast(0, data)
    wall = time.perf_counter() - t0
    assert res.verify_broadcast(data), "broadcast payload corrupted"
    return {
        "wall_s": wall,
        "events": res.engine["sim_events"],
        "virtual_s": res.duration,
        "ff_phases": res.engine.get("ff_phases", 0),
    }


def run_allgather(n_ranks: int, mode: str,
                  per_rank: int = AG_PER_RANK,
                  cutoff_alpha: float = 10e-3) -> Dict[str, object]:
    ff, coalescing = MODES[mode]
    fabric = make_fabric(n_ranks, mtu=4096)
    fabric.set_coalescing(coalescing)
    cfg = CollectiveConfig(
        chunk_size=per_rank,
        transport="uc",
        fast_forward=ff,
        # The chain-serialized allgather is activation-latency bound; the
        # adaptive cutoff's bandwidth-based deadline under-estimates it
        # at this scale, so pin a static slack that covers the chain.
        # (4096-rank chains run ~13 ms of virtual time, so their callers
        # pass a wider slack than the 10 ms default here.)
        adaptive_cutoff=False,
        cutoff_alpha=cutoff_alpha,
    )
    comm = Communicator(fabric, config=cfg)
    datas = [np.full(per_rank, r % 251, dtype=np.uint8) for r in range(n_ranks)]
    t0 = time.perf_counter()
    res = comm.allgather(datas)
    wall = time.perf_counter() - t0
    assert res.verify_allgather(datas), "allgather payload corrupted"
    return {
        "wall_s": wall,
        "events": res.engine["sim_events"],
        "virtual_s": res.duration,
        "ff_phases": res.engine.get("ff_phases", 0),
    }


def _rows(kind: str, sizes: List[int], modes: List[str],
          runner) -> List[List[str]]:
    rows = []
    for n in sizes:
        base_wall: Optional[float] = None
        virts = {}
        for mode in modes:
            r = runner(n, mode)
            virts[mode] = r["virtual_s"]
            if mode == "pkt":
                base_wall = r["wall_s"]
            speedup = (f"{base_wall / r['wall_s']:.1f}x"
                       if base_wall and mode != "pkt" else "-")
            rows.append([kind, str(n), mode, f"{r['wall_s']:.2f}",
                         f"{r['events']:,}", f"{r['virtual_s'] * 1e6:.3f}",
                         str(r["ff_phases"]), speedup])
            print(f"  {kind} n={n} {mode}: wall={r['wall_s']:.2f}s "
                  f"events={r['events']:,} virt={r['virtual_s'] * 1e6:.3f}us "
                  f"ff_phases={r['ff_phases']}", flush=True)
        # Exactness contract: pkt and exact must agree bitwise.
        if "pkt" in virts and "exact" in virts:
            assert virts["exact"] == virts["pkt"], (
                f"{kind} n={n}: exact diverged from packet-level "
                f"({virts['exact']} != {virts['pkt']})")
    return rows


HEADERS = ["collective", "hosts", "engine", "wall_s", "events",
           "virtual_us", "ff_phases", "speedup_vs_pkt"]


def full_sweep(bcast_hosts: List[int], ag_hosts: List[int]) -> int:
    rows = _rows("broadcast", bcast_hosts,
                 ["pkt", "train", "exact"], run_broadcast)
    rows += _rows("allgather", ag_hosts, ["pkt", "exact"], run_allgather)
    report("ff_scaling", format_table(HEADERS, rows))
    return 0


def smoke(budget_s: float) -> int:
    """CI scaling-smoke: exact broadcast + allgather at 1024 AND 4096
    hosts, a wall-clock budget, and fold-engagement assertions.

    The 4096-host rows are the headline of the vectorized fold: the
    allgather chain is O(P) folds, so quadrupling the rank count must
    cost far less than the 16x a quadratic engine would pay.  The ratio
    is measured against a 1024-rank run with the *same* per-rank payload
    and cutoff so the comparison isolates scaling, not configuration.
    Payloads shrink at 4096 (1 MiB broadcast, 128 B/rank allgather):
    receive buffers are materialized per rank, so a 4 MiB broadcast at
    4096 ranks would page in 16 GB of payload state — the engine cost
    being measured here is per-chunk/per-link, not per-byte.
    """
    t0 = time.perf_counter()
    rows = []
    failures = []

    def row(kind, n, r, note="-"):
        rows.append([kind, str(n), "exact", f"{r['wall_s']:.2f}",
                     f"{r['events']:,}", f"{r['virtual_s'] * 1e6:.3f}",
                     str(r["ff_phases"]), note])
        print(f"  smoke {kind} n={n} ({note}): wall={r['wall_s']:.2f}s "
              f"ff_phases={r['ff_phases']}", flush=True)

    b = run_broadcast(1024, "exact")
    row("broadcast", 1024, b)
    if b["ff_phases"] != 1:
        failures.append(
            f"broadcast fold disengaged (ff_phases={b['ff_phases']}, "
            "expected 1) — the run fell back to packet level")

    a = run_allgather(1024, "exact")
    row("allgather", 1024, a)
    if a["ff_phases"] != 1024:
        failures.append(
            f"allgather folded {a['ff_phases']}/1024 phases — "
            "eligibility gates are rejecting clean phases")

    # --- 4096-host rows ----------------------------------------------------
    b4 = run_broadcast(4096, "exact", payload=MiB)
    row("broadcast", 4096, b4, note="1MiB")
    if b4["ff_phases"] != 1:
        failures.append(
            f"4096-host broadcast fold disengaged "
            f"(ff_phases={b4['ff_phases']}, expected 1)")

    # Matched-payload baseline for the scaling ratio: same 128 B/rank and
    # the same 100 ms static cutoff (a 4096-rank chain runs ~13 ms of
    # virtual time, past the 10 ms default slack).
    a1m = run_allgather(1024, "exact", per_rank=128, cutoff_alpha=100e-3)
    row("allgather", 1024, a1m, note="128B/rank")
    a4 = run_allgather(4096, "exact", per_rank=128, cutoff_alpha=100e-3)
    row("allgather", 4096, a4, note="128B/rank")
    if a4["ff_phases"] != 4096:
        failures.append(
            f"4096-rank allgather folded {a4['ff_phases']}/4096 phases — "
            "the chain fell back to packet level partway")
    ratio = a4["wall_s"] / max(a1m["wall_s"], 1e-9)
    rows.append(["ag4096/ag1024", "-", "-", f"{ratio:.2f}x",
                 "-", "-", "-", "wall ratio"])
    print(f"  smoke ag4096/ag1024 wall ratio: {ratio:.2f}x "
          "(a quadratic engine would pay 16x)", flush=True)
    if ratio >= 16.0:
        failures.append(
            f"allgather scaling regressed: 4096/1024 wall ratio "
            f"{ratio:.2f}x >= 16x — the chain is quadratic again")

    wall = time.perf_counter() - t0
    rows.append(["total", "-", "-", f"{wall:.2f}", "-", "-", "-", "-"])
    report("ff_scaling_smoke", format_table(HEADERS, rows))
    if wall > budget_s:
        failures.append(
            f"scaling smoke blew its wall-clock budget: {wall:.1f}s > "
            f"{budget_s:.0f}s")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if not failures:
        print(f"scaling smoke OK in {wall:.1f}s (budget {budget_s:.0f}s)")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--smoke", action="store_true",
                    help="CI mode: exact 1024- and 4096-host broadcast + "
                         "allgather under a wall-clock budget")
    ap.add_argument("--budget", type=float, default=300.0,
                    help="smoke wall-clock budget in seconds (default 300)")
    ap.add_argument("--hosts", type=str, default="188,512,1024,2048",
                    help="broadcast sweep host counts (full mode)")
    ap.add_argument("--ag-hosts", type=str, default="1024",
                    help="allgather sweep rank counts (full mode)")
    args = ap.parse_args()
    if args.smoke:
        return smoke(args.budget)
    bcast_hosts = [int(x) for x in args.hosts.split(",") if x]
    ag_hosts = [int(x) for x in args.ag_hosts.split(",") if x]
    return full_sweep(bcast_hosts, ag_hosts)


if __name__ == "__main__":
    raise SystemExit(main())
