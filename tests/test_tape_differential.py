"""Tape replay against the object-generator path, fingerprint for fingerprint.

Each (workload, bus, seed) group runs every registry design twice:

* through :meth:`StatsCache.get`, which stores the stream once as an
  :class:`~repro.workloads.tape.EventTape` (filled column by column)
  and replays that tape for every design; and
* through :meth:`CmpSystem.step`, one :class:`TimedAccess` at a time,
  fed straight from a fresh workload's ``events()`` generator — the
  reference ``_CoreStream.next_access`` path, no tape involved.
"""

import pytest

from repro.cpu.system import CmpSystem
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    build_design,
)
from repro.workloads import make_mix, make_workload

WORKLOADS = (("oltp", False), ("ocean", False), ("MIX1", True), ("MIX4", True))
BUSES = ("atomic", "eventq")
SEEDS = (3, 20260809)


def _reference(design, workload, multiprogrammed, config):
    maker = make_mix if multiprogrammed else make_workload
    source = maker(workload, seed=config.seed)
    events = source.events(config.warmup_per_core + config.measure_per_core)
    system = CmpSystem(design)
    for index, event in enumerate(events):
        if index == config.warmup_per_core * source.num_cores:
            system.reset_stats()
        system.step(event)
    return system.stats()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("bus", BUSES)
@pytest.mark.parametrize("workload, multiprogrammed", WORKLOADS)
def test_tape_replay_matches_object_path(workload, multiprogrammed, bus, seed):
    config = ExperimentConfig(warmup_per_core=120, measure_per_core=180,
                              seed=seed)
    cache = StatsCache()
    for name in DESIGN_FACTORIES:
        replayed = cache.get(
            workload, name, lambda: build_design(name, bus_model=bus),
            config, multiprogrammed,
        )
        reference = _reference(build_design(name, bus_model=bus), workload,
                               multiprogrammed, config)
        assert replayed.fingerprint() == reference.fingerprint(), (
            f"{workload}/{name}/{bus}/seed {seed}"
        )
