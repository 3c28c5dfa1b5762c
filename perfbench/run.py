"""The repository's benchmark: closed-loop collectives on the simulator.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fold1024 --seed 1 --seconds 15 --trace 0

Workloads (see ``workloads.py``): ``fold1024``, ``fsdp188``, ``lossy188``.

A run builds the fabric and communicator and runs one warm-up iteration
(``setup_s`` covers both), three times, keeping the last build; then it
runs the timed iterations on it.  The iteration count is ``--seconds``
over the workload's nominal iteration time, rounded to an odd number of
at least three, so every run of a workload does the same work and peak
memory is comparable.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload twice from scratch with the same seed: untraced, then under
``cProfile`` for the warm-up and at most two timed iterations.  It checks
that simulated time, traffic, every counter and every verdict are
bit-identical between the two, and prints the per-layer metrics: spans
around calls into the program and counters read before and after each
iteration (both from the untraced pass), host self time per module, and
the profiler's overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are a record of the seed, host and samples, and a table of every
metric with its unit.  Without the program's source under ``src/`` the
run fails with a non-zero exit code and prints no result.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: builds (fabric, communicator, warm-up) per run; ``setup_s`` is their median
SETUP_SAMPLES = 3
#: fewest timed iterations in a run
MIN_ITERATIONS = 3
#: timed iterations of the profiled pass of a traced run (profiling is slow)
TRACED_ITERATIONS = 2

END_TO_END = {
    "setup_s": "s",
    "iter_wall_s": "s",
    "peak_rss_mb": "MiB",
    "virtual_us": "us",
    "traffic_ratio": "ratio",
    "ok_op_ratio": "ratio",
}

#: counters read before and after each iteration (see probe.counters)
COUNTERS = (
    "sim.events", "ff.phases", "ff.aborts", "ff.skipped_events",
    "net.trains", "net.train_packets", "net.drops", "net.rnr_drops",
    "nic.cqe_batches", "nic.batched_cqes",
    "traffic.switch_bytes", "traffic.host_injected_bytes",
)
#: per-rank reliability counters summed over an iteration's results
RELIABILITY = {
    "rel.recoveries": "recoveries",
    "rel.recovered_chunks": "recovered_chunks",
    "rel.fetch_rounds": "fetch_rounds",
    "rel.fetch_ack_timeouts": "fetch_ack_timeouts",
    "rel.escalations": "neighbor_escalations",
}
SETUP_SPANS = ("fabric_build", "comm_init", "warmup")
ITERATION_SPANS = ("broadcast", "allgather", "fsdp_layer", "verify")
VIRTUAL_PHASES = ("sync", "multicast", "handshake")


def per_layer_units(module_groups) -> Dict[str, str]:
    units = {f"span.{s}_s": "s" for s in SETUP_SPANS + ITERATION_SPANS}
    for name in COUNTERS:
        units[name] = "B" if name.startswith("traffic.") else "count"
    units["sim.host_us_per_event"] = "us"
    units["ff.fold_share"] = "ratio"
    units.update({name: "count" for name in RELIABILITY})
    units.update({f"virt.{p}_us": "us" for p in VIRTUAL_PHASES})
    units.update({f"self_s.{g}": "s" for g in module_groups})
    units.update({f"setup.self_s.{g}": "s" for g in module_groups})
    units["trace.overhead"] = "ratio"
    return units


def _import_program():
    """Put the checkout's ``src`` on the path and import the benchmark's
    modules; exit non-zero when the program's source is not there."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: program source not found under {src}")
    sys.path.insert(0, str(src))
    import probe
    import workloads
    return probe, workloads


class Runner:
    """Runs one workload for one seed and keeps the per-iteration records."""

    def __init__(self, probe, workload, seed: int) -> None:
        self.probe = probe
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        #: the samples behind the reported medians, for the run record
        self.samples: Dict[str, List[float]] = {}

    def setup(self, setup_profile: Optional[cProfile.Profile] = None):
        """Build, then run the warm-up iteration; returns the session, the
        setup span durations and the warm-up record."""
        spans = self.probe.Spans()
        t0 = time.perf_counter()
        if setup_profile is not None:
            setup_profile.enable()
        session = self.workload.build(self.seed, spans)
        if setup_profile is not None:
            setup_profile.disable()
        build_s = time.perf_counter() - t0
        warmup = self.iteration(session, 0, setup_profile)
        setup = {name: sum(d) for name, d in spans.durations.items()}
        setup["warmup"] = warmup["wall_s"]
        setup["total"] = build_s + warmup["wall_s"]
        return session, setup, warmup

    def iteration(self, session, index: int,
                  profile: Optional[cProfile.Profile] = None) -> dict:
        """One closed-loop iteration; payload generation is outside the
        timed window, counters are read on both sides of it."""
        probe = self.probe
        comm = session.comm
        inputs = self.workload.inputs(session, index)
        spans = self.probe.Spans()
        before = probe.counters(comm)
        v0 = comm.sim.now
        t0 = time.perf_counter()
        if profile is not None:
            profile.enable()
        ops = self.workload.iterate(session, inputs, spans)
        if profile is not None:
            profile.disable()
        wall = time.perf_counter() - t0
        after = probe.counters(comm)
        self.attempted += len(ops)
        self.failed += sum(not op.ok for op in ops)
        return {
            "wall_s": wall,
            "spans": {name: sum(d) for name, d in spans.durations.items()},
            "sim": self._simulated(ops, before, after, v0, comm.sim.now),
        }

    @staticmethod
    def _simulated(ops, before, after, v0: float, now: float) -> dict:
        """The iteration's deterministic outcome: simulated time, traffic,
        counters and verdicts (identical for identical seeds)."""
        results = [op.result for op in ops if op.result is not None]
        end = max((r.t_end for r in results), default=now)
        if len(results) < len(ops):
            end = now
        sim = {name: after[name] - before[name] for name in COUNTERS}
        useful = sum(op.useful_bytes for op in ops)
        sim.update({
            "virtual_s": end - v0,
            "useful_bytes": useful,
            "traffic_ratio": (sim["traffic.switch_bytes"] / useful
                              if useful else 0.0),
            "mcast_phases": sum(op.mcast_phases for op in ops),
            "verdicts": [op.ok for op in ops],
        })
        for name, counter in RELIABILITY.items():
            sim[name] = sum(r.counter_total(counter) for r in results)
        mcast = [op.result.phase_means() for op in ops
                 if op.result is not None and op.mcast_phases]
        for phase in VIRTUAL_PHASES:
            sim[f"virt.{phase}_us"] = sum(getattr(b, phase) for b in mcast) * 1e6
        return sim

    def timed(self, session, n: int,
              profile: Optional[cProfile.Profile] = None) -> List[dict]:
        return [self.iteration(session, i, profile) for i in range(1, n + 1)]


def _median(records: List[dict], key) -> float:
    return statistics.median(key(r) for r in records)


def end_to_end(probe, workload, seed: int, n: int) -> Tuple[Runner, dict]:
    runner = Runner(probe, workload, seed)
    setups = []
    for sample in range(SETUP_SAMPLES):
        session, setup, _warmup = runner.setup()
        setups.append(setup["total"])
        if sample < SETUP_SAMPLES - 1:
            # Between set-up samples only: the timed iterations below run on
            # one fabric, with whatever the program retains.
            del session
            gc.collect()
    records = runner.timed(session, n)
    runner.samples = {"setup_s": setups,
                      "iter_wall_s": [r["wall_s"] for r in records]}
    metrics = {
        "setup_s": statistics.median(setups),
        "iter_wall_s": _median(records, lambda r: r["wall_s"]),
        "peak_rss_mb": probe.peak_rss_mb(),
        "virtual_us": _median(records, lambda r: r["sim"]["virtual_s"]) * 1e6,
        "traffic_ratio": _median(records, lambda r: r["sim"]["traffic_ratio"]),
        "ok_op_ratio": (runner.attempted - runner.failed) / runner.attempted,
    }
    return runner, metrics


def _differences(untraced: List[dict], traced: List[dict]) -> List[str]:
    diffs = []
    for i, (a, b) in enumerate(zip(untraced, traced)):
        for key in a["sim"]:
            if a["sim"][key] != b["sim"][key]:
                diffs.append(f"iteration {i} {key}: {a['sim'][key]!r} "
                             f"untraced vs {b['sim'][key]!r} traced")
    return diffs


def per_layer(probe, workload, seed: int, n: int) -> Tuple[Runner, dict, bool]:
    runner = Runner(probe, workload, seed)
    session, setup, warmup = runner.setup()
    records = runner.timed(session, n)
    del session
    gc.collect()

    setup_prof, iter_prof = cProfile.Profile(), cProfile.Profile()
    session, _setup, traced_warmup = runner.setup(setup_prof)
    traced = runner.timed(session, min(n, TRACED_ITERATIONS), iter_prof)
    del session

    diffs = _differences([warmup] + records, [traced_warmup] + traced)
    for line in diffs:
        print(f"traced run differs: {line}", file=sys.stderr)

    metrics: Dict[str, float] = {}
    for name in SETUP_SPANS:
        metrics[f"span.{name}_s"] = setup.get(name, 0.0)
    for name in ITERATION_SPANS:
        metrics[f"span.{name}_s"] = _median(
            records, lambda r: r["spans"].get(name, 0.0))
    for name in COUNTERS + tuple(RELIABILITY) + tuple(
            f"virt.{p}_us" for p in VIRTUAL_PHASES):
        metrics[name] = _median(records, lambda r: r["sim"][name])
    metrics["sim.host_us_per_event"] = _median(
        records, lambda r: r["wall_s"] / max(r["sim"]["sim.events"], 1) * 1e6)
    metrics["ff.fold_share"] = _median(
        records, lambda r: (r["sim"]["ff.phases"] / r["sim"]["mcast_phases"]
                            if r["sim"]["mcast_phases"] else 0.0))
    for group, seconds in probe.self_time_by_module(iter_prof).items():
        metrics[f"self_s.{group}"] = seconds / len(traced)
    for group, seconds in probe.self_time_by_module(setup_prof).items():
        metrics[f"setup.self_s.{group}"] = seconds
    metrics["trace.overhead"] = (
        _median(traced, lambda r: r["wall_s"])
        / _median(records[:len(traced)], lambda r: r["wall_s"]))
    runner.samples = {"iter_wall_s": [r["wall_s"] for r in records],
                      "traced_iter_wall_s": [r["wall_s"] for r in traced]}
    return runner, metrics, not diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    probe, workloads = _import_program()
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        ap.error(f"unknown workload {args.workload!r} "
                 f"(one of {', '.join(workloads.WORKLOADS)})")
    # An odd count, so each median is one iteration's value.
    n = max(MIN_ITERATIONS, round(args.seconds / workload.nominal_iter_s)) | 1

    if args.trace:
        runner, metrics, identical = per_layer(probe, workload, args.seed, n)
        units = per_layer_units(probe.MODULE_GROUPS)
    else:
        runner, metrics = end_to_end(probe, workload, args.seed, n)
        identical = True
        units = END_TO_END

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "trace": args.trace, "timed_iterations": n,
        "setup_samples": 1 if args.trace else SETUP_SAMPLES,
        "failed_op_ratio": runner.failed / runner.attempted,
        "host": probe.host_fingerprint(),
        "samples": runner.samples,
    }
    print("run " + json.dumps(record, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<32} {metrics[name]:>16.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0 and identical,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
