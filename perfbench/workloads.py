"""The benchmark's three workloads, one pass at a time.

Each workload runs a fixed grid of cells serially, through the same
public entry points the experiment commands use: no worker pool, the
default scalar engine, and a fresh on-disk stats journal per pass.
Every cell warms up, then measures.

* ``sweep-oltp`` — ``runner.sweep`` over oltp and all eight registry
  designs on the atomic bus: the shape of Figures 5-10.  Generation and
  the L1/L2 coherence paths (CR/ISC on read-write-shared data) do the
  work; the harness and the mesh do none.
* ``mix-eventq`` — {MIX1, MIX4} x {private, cmp-nurapid} on the
  event-queue bus: the shape of Figure 12.  No sharing; the L2 is
  scaled to :data:`MIX_L2_BYTES` per core so that, at this run length,
  the capacity-skewed MIX1 overflows its closest d-groups and capacity
  stealing and demotion do the L2 work (at Table 1's 2 MB no block is
  served from a farther d-group within 150k accesses per core).  The
  event queue sends every run through ``CmpSystem._run_instrumented``
  instead of the specialised loop.
* ``scale16-harness`` — ``scale.run_scaled_cell`` for oltp x {private,
  cmp-nurapid} on a 16-core mesh with directory coherence, with the
  scale study's invariant and checkpoint cadence; each cell is then
  resumed from its final snapshot.  The only workload that exercises
  the mesh, the directory and the harness.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from spans import SpanLog

from repro.common.params import (
    DEFAULT_NUM_CORES,
    CacheGeometry,
    NurapidParams,
    PrivateCacheParams,
)
from repro.common.stats import SimulationStats
from repro.experiments import runner
from repro.experiments import scale
from repro.harness import HarnessConfig, run_events
from repro.perflab.runner import stats_digest

SWEEP_DESIGNS = tuple(runner.DESIGN_FACTORIES)
#: MIX1, whose cores overflow their share of the scaled L2 within the
#: run, and MIX4, whose cores mostly do not (about a tenth of MIX1's
#: demotions): the two mixes EXPERIMENTS.md reports at full length.
MIXES = ("MIX1", "MIX4")
MIX_DESIGNS = ("private", "cmp-nurapid")
#: L2 capacity per core on ``mix-eventq`` (each private cache, each
#: CMP-NuRAPID d-group): a quarter of Table 1's 2 MB.
MIX_L2_BYTES = 512 * 1024
SCALE_DESIGNS = ("private", "cmp-nurapid")
SCALE_WORKLOAD = "oltp"
SCALE_CORES = 16


@dataclass
class Cell:
    """One (input stream, design) run of a pass."""

    name: str
    #: Input stream the cell ran (cells of one stream retire equal work).
    stream: str
    design: str
    #: Events simulated (warm-up plus measurement).
    events: int
    digest: "Optional[str]" = None
    stats: "Optional[SimulationStats]" = None
    #: Reasons this cell failed; empty for a correct cell.
    errors: "List[str]" = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.errors)


@contextlib.contextmanager
def _bus_model(name: str):
    """Select the interconnect the way ``--bus-model`` does, then restore."""
    saved = os.environ.get("REPRO_BUS_MODEL")
    os.environ["REPRO_BUS_MODEL"] = name
    try:
        yield
    finally:
        if saved is None:
            del os.environ["REPRO_BUS_MODEL"]
        else:
            os.environ["REPRO_BUS_MODEL"] = saved


def _digest(stats: SimulationStats, log: SpanLog) -> str:
    index = log.open(log.name_id("stats.fingerprint"))
    try:
        return stats_digest(stats)
    finally:
        log.close(index)


def _finish(cell: Cell, stats: SimulationStats, log: SpanLog) -> None:
    cell.stats = stats
    cell.digest = _digest(stats, log)


def _serial_cells(streams, designs, events: int, bus_model: str,
                  log: SpanLog,
                  run_cell: "Callable[[str, str], SimulationStats]") -> "List[Cell]":
    """Run ``run_cell(stream, design)`` for every cell, one after another."""
    cell_span = log.name_id("bench.cell")
    cells = []
    with _bus_model(bus_model):
        for stream in streams:
            for design in designs:
                cell = Cell(f"{stream}/{design}", stream, design, events)
                cells.append(cell)
                index = log.open(cell_span)
                try:
                    _finish(cell, run_cell(stream, design), log)
                except Exception as error:  # a failing cell must not stop the pass
                    cell.errors.append(f"raised {type(error).__name__}: {error}")
                finally:
                    log.close(index)
    return cells


def _events_per_cell(config: runner.ExperimentConfig) -> int:
    return DEFAULT_NUM_CORES * (config.warmup_per_core + config.measure_per_core)


def sweep_oltp(config, workdir, log):
    cache = runner.StatsCache(os.path.join(workdir, "stats.journal"))

    def run_cell(stream, design):
        result = runner.sweep([stream], [design], config, cache=cache,
                              jobs=1, engine="scalar")
        return result.stats[stream][design]

    return _serial_cells(("oltp",), SWEEP_DESIGNS, _events_per_cell(config),
                         "atomic", log, run_cell)


def _mix_design(name: str):
    """``name`` with its L2 scaled to :data:`MIX_L2_BYTES` per core."""
    if name == "private":
        geometry = CacheGeometry(MIX_L2_BYTES, 8, 128)
        return runner.build_design(name, params=PrivateCacheParams(geometry))
    return runner.build_design(
        name, params=NurapidParams(dgroup_capacity_bytes=MIX_L2_BYTES)
    )


def mix_eventq(config, workdir, log):
    """The mixes through the stats journal, as ``runner.sweep`` runs them,
    but on the scaled designs (journalled under their own keys)."""
    cache = runner.StatsCache(os.path.join(workdir, "stats.journal"))

    def run_cell(mix, design):
        return cache.get(mix, f"{design}@{MIX_L2_BYTES // 1024}k",
                         lambda: _mix_design(design), config,
                         multiprogrammed=True)

    return _serial_cells(MIXES, MIX_DESIGNS, _events_per_cell(config),
                         "eventq", log, run_cell)


def scale16_harness(config, workdir, log):
    """Harnessed 16-core mesh cells, each resumed from its final snapshot."""
    cache = runner.StatsCache(os.path.join(workdir, "stats.journal"))
    cell_span = log.name_id("bench.cell")
    resume_span = log.name_id("harness.resume")
    per_cell = SCALE_CORES * (config.warmup_per_core + config.measure_per_core)
    cells = []
    for design in SCALE_DESIGNS:
        cell = Cell(f"{SCALE_WORKLOAD}@c{SCALE_CORES}/{design}",
                    SCALE_WORKLOAD, design, per_cell)
        cells.append(cell)
        checkpoint = os.path.join(
            workdir, f"{SCALE_WORKLOAD}-{design}-c{SCALE_CORES}.ckpt"
        )
        index = log.open(cell_span)
        try:
            stats = scale.run_scaled_cell(
                design, SCALE_WORKLOAD, SCALE_CORES, config,
                checkpoint_path=checkpoint,
            )
            cache.insert(
                runner.StatsCache.scaled_key(
                    SCALE_WORKLOAD, design, config, False, SCALE_CORES
                ),
                stats,
            )
            _finish(cell, stats, log)
            inner = log.open(resume_span)
            try:
                resumed = scale.run_scaled_cell(
                    design, SCALE_WORKLOAD, SCALE_CORES, config,
                    checkpoint_path=checkpoint,
                )
            finally:
                log.close(inner)
            if _digest(resumed, log) != cell.digest:
                cell.errors.append("resumed run differs from the fresh run")
        except Exception as error:  # a failing cell must not stop the pass
            cell.errors.append(f"raised {type(error).__name__}: {error}")
        finally:
            log.close(index)
    return cells


def _window_run(design: str, events, warmup: int,
                harnessed: bool) -> "tuple[float, str]":
    """Time one run of ``events`` on a freshly built scaled design.

    Construction is left out of the time.  Returns the seconds and the
    run's fingerprint digest.
    """
    built = runner.build_design(design, bus_model="mesh", num_cores=SCALE_CORES)
    if harnessed:
        system = runner.CmpSystem(built)
        start = time.perf_counter()
        run_events(system, events, warmup, HarnessConfig())
        seconds = time.perf_counter() - start
        stats = system.stats()
    else:
        start = time.perf_counter()
        _, stats = runner.run_design_on_events(built, events, warmup)
        seconds = time.perf_counter() - start
    return seconds, stats_digest(stats)


def harness_window(config: runner.ExperimentConfig) -> "tuple[float, Dict[str, List[str]]]":
    """Cost of the harness's step-and-ring-tracer path on the scaled cells.

    For each scaled design, one materialised event list runs through
    ``run_events`` with checks and snapshots off (H) and through a plain
    ``CmpSystem.run`` (P), in the order H P P H.  The design's cost is
    the mean of the two paired differences, so run order and a host
    that drifts steadily cancel out.  Returns the sum over the designs,
    and every run's fingerprint digest by design.
    """
    seconds = 0.0
    digests: "Dict[str, List[str]]" = {}
    warmup = config.warmup_per_core * SCALE_CORES
    for design in SCALE_DESIGNS:
        workload = runner.make_workload(
            SCALE_WORKLOAD, num_cores=SCALE_CORES, seed=config.seed
        )
        events = list(workload.events(
            config.warmup_per_core + config.measure_per_core
        ))
        times = {True: 0.0, False: 0.0}
        digests[design] = []
        for harnessed in (True, False, False, True):
            took, digest = _window_run(design, events, warmup, harnessed)
            times[harnessed] += took
            digests[design].append(digest)
        seconds += (times[True] - times[False]) / 2
    return seconds, digests


@dataclass(frozen=True)
class Workload:
    name: str
    run: "Callable[[runner.ExperimentConfig, str, SpanLog], List[Cell]]"
    #: Accesses per core for warm-up and for measurement.
    warmup_per_core: int
    measure_per_core: int
    #: ``sim_rel_perf``: CMP-NuRAPID over this baseline, by this metric.
    baseline: str
    metric: str
    #: The paper's value for ``sim_rel_perf``, or None if it has none.
    paper: "Optional[float]"
    paper_note: str

    def config(self, seed: int) -> runner.ExperimentConfig:
        return runner.ExperimentConfig(
            warmup_per_core=self.warmup_per_core,
            measure_per_core=self.measure_per_core,
            seed=seed,
        )

    def rel_perf(self, cells: "List[Cell]") -> float:
        """CMP-NuRAPID over the baseline, averaged over input streams."""
        result = runner.SweepResult()
        for cell in cells:
            if cell.stats is not None:
                result.stats.setdefault(cell.stream, {})[cell.design] = cell.stats
        try:
            return result.average_relative(
                list(result.stats), self.baseline, self.metric
            )["cmp-nurapid"]
        except (KeyError, StopIteration):
            return 0.0  # a cell failed; ``failed`` already counts it


WORKLOADS: "Dict[str, Workload]" = {
    workload.name: workload
    for workload in (
        Workload("sweep-oltp", sweep_oltp, 10_000, 10_000,
                 "uniform-shared", "throughput", 1.16,
                 "paper Figure 10, OLTP"),
        Workload("mix-eventq", mix_eventq, 40_000, 20_000,
                 "private", "aggregate_ipc", 1.08,
                 "paper Figure 12, about 8% over private at 2 MB per core"),
        Workload("scale16-harness", scale16_harness, 2_000, 2_000,
                 "private", "throughput", None,
                 "unvalidated: the paper has no 16-core result"),
    )
}


def check_cells(cells: "List[Cell]",
                expected: "Optional[Dict[str, str]]") -> None:
    """Mark cells that break a correctness check (errors are appended).

    * With ``expected`` digests (the stored fingerprints for this seed),
      every cell must match its own.
    * Every design retires the same instructions on one input stream:
      the instruction count depends only on the stream, never on the
      memory system.
    """
    for cell in cells:
        if cell.digest is None or expected is None:
            continue
        want = expected.get(cell.name)
        if want is None:
            cell.errors.append("no expected fingerprint for this cell")
        elif want != cell.digest:
            cell.errors.append("fingerprint differs from the expected one")
    retired: "Dict[str, int]" = {}
    for cell in cells:
        if cell.stats is None:
            continue
        count = cell.stats.total_instructions
        first = retired.setdefault(cell.stream, count)
        if count != first:
            cell.errors.append(
                f"retired {count} instructions, another design on "
                f"{cell.stream} retired {first}"
            )
