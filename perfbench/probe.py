"""Measurement probes the benchmark installs from outside the program.

* :class:`Spans` records host time around calls into the program.
* :func:`counters` reads the program's cumulative counters from public
  objects (``fabric``, ``comm.ff``, ``comm.engines``); the benchmark takes
  it before and after each iteration and keeps the difference.
* :func:`self_time_by_module` attributes a ``cProfile`` run's self time
  to the program's modules, the layers the per-layer metrics name.
* :func:`host_fingerprint` describes the machine a run was made on.
"""

from __future__ import annotations

import os
import platform
import pstats
import resource
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

import numpy as np

#: per-layer self-time groups, in report order
MODULE_GROUPS = (
    "sim.engine", "sim.fastforward",
    "net.link", "net.switch", "net.nic", "net.memory", "net.dma", "net.inc",
    "net.build",
    "core.control", "core.progress", "core.reliability", "core.baselines",
    "core.api",
    "numpy", "other",
)

#: source files (paths below ``repro/``) to group; first prefix match wins
_PREFIXES = (
    ("sim/engine.py", "sim.engine"),
    ("sim/events.py", "sim.engine"),
    ("sim/process.py", "sim.engine"),
    ("sim/primitives.py", "sim.engine"),
    ("sim/random.py", "sim.engine"),
    ("sim/fastforward.py", "sim.fastforward"),
    ("sim/parallel.py", "sim.fastforward"),  # the fold's host-lane kernel
    ("net/link.py", "net.link"),
    ("net/packet.py", "net.link"),
    ("net/faults.py", "net.link"),
    ("net/switch.py", "net.switch"),
    ("net/nic.py", "net.nic"),
    ("net/memory.py", "net.memory"),
    ("net/dma.py", "net.dma"),
    ("net/inc.py", "net.inc"),
    ("net/topology.py", "net.build"),
    ("net/fabric.py", "net.build"),
    ("net/plan/", "net.build"),
    ("core/control.py", "core.control"),
    ("core/progress.py", "core.progress"),
    ("core/sequencer.py", "core.progress"),
    ("core/staging.py", "core.progress"),
    ("core/bitmap.py", "core.progress"),
    ("core/ops.py", "core.progress"),
    ("core/reliability.py", "core.reliability"),
    ("core/baselines/", "core.baselines"),
    ("core/", "core.api"),
)


class Spans:
    """Host-time spans recorded around calls into the program, by name."""

    def __init__(self) -> None:
        self.durations: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.durations.setdefault(name, []).append(time.perf_counter() - t0)


def counters(comm) -> Dict[str, int]:
    """The program's cumulative counters, read from public objects."""
    fabric = comm.fabric
    ff = comm.ff
    return {
        "sim.events": fabric.sim.events_processed,
        "ff.phases": ff.ff_phases if ff is not None else 0,
        "ff.aborts": ff.ff_aborts if ff is not None else 0,
        "ff.skipped_events": ff.ff_skipped_events if ff is not None else 0,
        "net.trains": fabric.total_trains(),
        "net.train_packets": fabric.total_train_packets(),
        "net.drops": fabric.total_drops(),
        "net.rnr_drops": fabric.total_rnr_drops(),
        "nic.cqe_batches": sum(e.cqe_batches for e in comm.engines),
        "nic.batched_cqes": sum(e.batched_cqes for e in comm.engines),
        "traffic.switch_bytes": fabric.switch_egress_bytes(),
        "traffic.host_injected_bytes": fabric.host_injected_bytes(),
    }


def _group(filename: str, funcname: str) -> Optional[str]:
    """The module group of one profiled function, or ``None`` for a
    builtin whose time belongs to its callers."""
    path = filename.replace("\\", "/")
    if "/repro/" in path:
        rel = path.rsplit("/repro/", 1)[1]
        for prefix, group in _PREFIXES:
            if rel.startswith(prefix):
                return group
        return "other"
    if "/numpy/" in path or "numpy" in funcname:
        return "numpy"
    if "_heapq" in funcname:
        return "sim.engine"  # the event queue
    if filename == "~":
        return None
    return "other"


def self_time_by_module(profile) -> Dict[str, float]:
    """Host self seconds per module group in a ``cProfile.Profile``.

    A builtin outside numpy and heapq (``len``, ``dict.get``, ...) is
    charged to the groups of the functions that called it, in proportion
    to the time each call site spent in it."""
    out = dict.fromkeys(MODULE_GROUPS, 0.0)
    for (filename, _line, name), (_cc, _nc, tt, _ct, callers) in \
            pstats.Stats(profile).stats.items():
        group = _group(filename, name)
        if group is not None:
            out[group] += tt
            continue
        for (cfile, _cline, cname), caller_stats in callers.items():
            out[_group(cfile, cname) or "other"] += caller_stats[2]
    return out


def peak_rss_mb() -> float:
    """The process's peak resident set size so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_fingerprint() -> Dict[str, object]:
    ram = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    return {
        "nproc": os.cpu_count(),
        "ram_gib": round(ram / 2**30, 2),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
