#!/usr/bin/env python3
"""The repository benchmark: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload sweep-oltp --seed 1 --seconds 30 --trace 0

``--trace 0`` repeats whole passes of the workload while at least half
of the next one fits in ``--seconds`` (at least one pass), and reports
end-to-end metrics from each cell's median time over the passes.
``--trace 1`` runs a warm-up pass, then traced and untraced passes in
the order T U U T (traced passes carry span probes at every layer's
entry points), and on ``scale16-harness`` the harness-window
measurement, and reports the per-layer metrics; ``--seconds`` does not
apply.  Every cell's stats fingerprint is checked against
``expected.json`` when it holds the seed, and always against the
seed-independent checks in ``workloads.check_cells``.

Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit code 0 on a completed run (even with failed cells,
which ``failed`` counts), 2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space for journals and checkpoints, inside the checkout.
TMP = ROOT / ".perfbench-tmp"
EXPECTED = HERE / "expected.json"
DEFAULT_SEED = 20050604
#: Span name prefixes, one per layer (see ``layers.py``).
LAYERS = ("workloads", "cpu", "caches", "interconnect", "harness", "stats",
          "experiments")

#: Fresh interpreters timed importing the simulator; setup_s uses the median.
IMPORT_SAMPLES = 3
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import repro.experiments.scale, repro.harness; "
    "print(time.perf_counter() - start)"
)

def import_seconds() -> float:
    """Median time for a fresh interpreter to import the simulator."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: the metric names, units and bounds this reports."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def expected_digests(seed: int, workload: str) -> "Optional[Dict[str, str]]":
    """Stored fingerprint digests for ``seed``, or None if not stored."""
    with open(EXPECTED) as handle:
        table = json.load(handle)["seeds"]
    by_workload = table.get(str(seed))
    return None if by_workload is None else by_workload.get(workload, {})


class Pass:
    """One pass of a workload: its cells, wall time and span log."""

    def __init__(self, workload, seed: int, traced: bool) -> None:
        import layers
        from spans import SpanLog

        gc.collect()  # each pass starts from the same heap
        self.log = SpanLog()
        self.probes = layers.Probes(self.log, traced)
        TMP.mkdir(exist_ok=True)
        workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP)
        try:
            with self.probes:
                start = time.perf_counter()
                self.cells = workload.run(workload.config(seed), workdir, self.log)
                self.wall = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)

    @property
    def events(self) -> int:
        return sum(cell.events for cell in self.cells)

    def digests(self) -> "Dict[str, Optional[str]]":
        return {cell.name: cell.digest for cell in self.cells}


def check_repeat(reference: Pass, later: Pass, what: str) -> None:
    """Cells of ``later`` must reproduce ``reference``'s fingerprints."""
    want = reference.digests()
    for cell in later.cells:
        if cell.digest is not None and cell.digest != want.get(cell.name):
            cell.errors.append(f"fingerprint differs from the {what}")


def end_to_end(workload, passes: "List[Pass]", imports: float) -> Dict[str, float]:
    """End-to-end metrics from the per-cell medians over the passes.

    Each timing sums, over the cells, the median of that cell's times
    across passes, so one pass slowed by another tenant of the host
    moves no cell's estimate.
    """
    import layers

    durations = np.array([one.log.durations_of("bench.cell") for one in passes])
    setups = np.array([one.log.within("bench.cell", layers.SETUP_SPANS)
                       for one in passes])
    cells = np.median(durations, axis=0)
    simulating = np.median(durations - setups, axis=0).sum()
    rusage = resource.getrusage(resource.RUSAGE_SELF)
    return {
        "wall_s": imports + float(cells.sum()),
        "accesses_per_s": passes[0].events / float(simulating),
        "setup_s": imports + float(np.median(setups, axis=0).sum()),
        "slowest_cell_s": float(cells.max()),
        "peak_rss_mb": rusage.ru_maxrss / 1024.0,
        "cells_attempted": float(len(passes[0].cells)),
        "sim_rel_perf": workload.rel_perf(passes[0].cells),
    }


def layer_self_times(traced: Pass) -> Dict[str, float]:
    """Self time of each layer's spans, plus the unattributed remainder."""
    own = traced.log.self_by_name()
    times = {
        layer: sum(value for name, value in own.items()
                   if name.startswith(layer + "."))
        for layer in LAYERS
    }
    times["unattributed"] = traced.wall - sum(times.values())
    return times


def per_layer(traced: Pass, overhead: float, window_s: float) -> Dict[str, float]:
    """Per-layer metrics from the traced pass's span log."""
    from repro.common.stats import SimulationStats

    log = traced.log
    own = log.self_by_name()
    total = log.total_by_name()
    count = log.count_by_name()
    layers = layer_self_times(traced)

    def per(numerator: float, denominator: float, scale: float = 1.0) -> float:
        return numerator / denominator * scale if denominator else 0.0

    pooled = SimulationStats()
    nurapid = SimulationStats()
    for cell in traced.cells:
        if cell.stats is not None:
            pooled.merge(cell.stats)
            if cell.design.startswith("cmp-nurapid"):
                nurapid.merge(cell.stats)
    generated = traced.probes.generated
    events = traced.events
    gen_s = own.get("workloads.gen", 0.0)
    cpu_s = own.get("cpu.run", 0.0) + own.get("cpu.step", 0.0)
    l2_s = own.get("caches.l2", 0.0) + own.get("caches.snoop", 0.0)
    l2_calls = count.get("caches.l2", 0)
    net_s = layers["interconnect"]
    net_calls = sum(value for name, value in count.items()
                    if name.startswith("interconnect."))
    hops = sum(noc.mesh_stats.hops for noc in traced.probes.meshes)
    sizes = traced.probes.checkpoint_bytes
    return {
        "workloads.build_s": total.get("workloads.build", 0.0),
        "workloads.gen_s": gen_s,
        "workloads.events": float(generated),
        "workloads.ns_per_event": per(gen_s, generated, 1e9),
        "cpu.self_s": cpu_s,
        "cpu.ns_per_event": per(cpu_s, events, 1e9),
        "cpu.l1_filter_frac": 1.0 - per(l2_calls, events),
        "caches.l2_self_s": l2_s,
        "caches.l2_calls": float(l2_calls),
        "caches.l2_ns_per_call": per(l2_s, l2_calls, 1e9),
        "caches.l2_miss_frac": pooled.accesses.miss_rate,
        "caches.closest_dgroup_frac": nurapid.dgroups.closest_fraction_of_hits,
        "caches.build_s": total.get("caches.build", 0.0),
        "interconnect.self_s": net_s,
        "interconnect.calls": float(net_calls),
        "interconnect.ns_per_call": per(net_s, net_calls, 1e9),
        "interconnect.mesh_hops": float(hops),
        "harness.check_s": total.get("harness.check", 0.0),
        "harness.checks": float(count.get("harness.check", 0)),
        "harness.checkpoint_s": total.get("harness.checkpoint", 0.0),
        "harness.checkpoints": float(count.get("harness.checkpoint", 0)),
        "harness.checkpoint_mb": per(sum(sizes), len(sizes), 1e-6),
        "harness.resume_s": total.get("harness.resume", 0.0),
        "harness.window_s": window_s,
        "stats.s": layers["stats"],
        "experiments.journal_s": own.get("experiments.journal", 0.0),
        "unattributed_s": layers["unattributed"],
        "trace_overhead_frac": overhead,
    }


def main(argv: "Optional[List[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="sweep-oltp, mix-eventq or scale16-harness")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    expected = expected_digests(args.seed, workload.name)
    passes: "List[Pass]" = []
    notes: "List[str]" = []
    if args.trace:
        # The warm-up pass takes the first-run costs and gives the
        # fingerprints every later pass must repeat.  Traced (T) and
        # untraced (U) passes then run T U U T, so run order and a host
        # that drifts steadily cancel out of the overhead estimate.
        warmup = Pass(workload, args.seed, traced=False)
        timed_passes = [Pass(workload, args.seed, traced=is_traced)
                        for is_traced in (True, False, False, True)]
        traced = [one for one in timed_passes if one.probes.traced]
        untraced = [one for one in timed_passes if not one.probes.traced]
        for later in timed_passes:
            check_repeat(warmup, later, "untraced warm-up pass")
        passes = [warmup] + timed_passes
        overhead = statistics.median(
            t.wall / u.wall for t, u in zip(traced, untraced)
        ) - 1.0
        window_s = 0.0
        if workload.name == "scale16-harness":
            window_s, window = workloads.harness_window(workload.config(args.seed))
            for cell in warmup.cells:
                if any(d != cell.digest for d in window.get(cell.design, ())):
                    cell.errors.append("harness-window run differs")
        metrics = per_layer(traced[0], overhead, window_s)
        shares = ", ".join(
            f"{layer} {seconds / traced[0].wall:.1%}"
            for layer, seconds in layer_self_times(traced[0]).items()
        )
        notes.append(
            "traced passes " + ", ".join(f"{t.wall:.3f}" for t in traced)
            + " s, untraced " + ", ".join(f"{u.wall:.3f}" for u in untraced)
            + f" s; self time by layer in the first traced pass: {shares}"
        )
    else:
        started = time.perf_counter()
        while True:
            passes.append(Pass(workload, args.seed, traced=False))
            elapsed = time.perf_counter() - started
            # Start another pass only if at least half of it fits.
            if elapsed + passes[-1].wall / 2 > args.seconds:
                break
        for later in passes[1:]:
            check_repeat(passes[0], later, "first pass")
        metrics = end_to_end(workload, passes, import_seconds())

    attempted = failed = 0
    for one in passes:
        workloads.check_cells(one.cells, expected)
        for cell in one.cells:
            attempted += 1
            if cell.failed:
                failed += 1
                print(f"FAILED {cell.name}: {'; '.join(cell.errors)}")
    print(f"workload {workload.name}, seed {args.seed}, {len(passes)} passes, "
          f"expected fingerprints: {'stored' if expected is not None else 'none for this seed'}")
    for note in notes:
        print(note)
    declared = benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(metrics) != set(units):
        raise RuntimeError(
            f"computed metrics {sorted(metrics)} differ from BENCHMARK.json's"
        )
    for name, value in metrics.items():
        line = f"{name} = {value:.6g} {units[name]}"
        if name == "sim_rel_perf":
            paper = workload.paper
            line += (f"  (paper {paper:.2f}, {workload.paper_note})"
                     if paper is not None else f"  ({workload.paper_note})")
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    try:
        TMP.rmdir()  # only when no other run is using it
    except OSError:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
