"""Tape replay against the object-generator path, fingerprint for fingerprint.

Each (workload, bus, seed) group runs every registry design twice:

* through :meth:`StatsCache.get`, which stores the stream once as an
  :class:`~repro.workloads.tape.EventTape` (filled column by column)
  and replays that tape for every design; and
* through :meth:`CmpSystem.step`, one :class:`TimedAccess` at a time,
  fed straight from a fresh workload's ``events()`` generator — the
  reference ``_CoreStream.next_access`` path, no tape involved.

The edge cases at the bottom replay degenerate tapes (empty, a single
event, short and ragged lengths, a warm-up at or past the tape's end)
through :func:`run_design_on_events` against the same ``step`` loop.
"""

import pytest

from repro.common.types import Access, AccessType, SharingClass
from repro.cpu.system import CmpSystem, TimedAccess
from repro.experiments.runner import (
    DESIGN_FACTORIES,
    ExperimentConfig,
    StatsCache,
    build_design,
    run_design_on_events,
)
from repro.workloads import make_mix, make_workload
from repro.workloads.tape import EventTape

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


def _edge_stream(n, num_cores=4):
    """A deterministic n-event mix of aliasing reads and writes."""
    for i in range(n):
        core = i % num_cores
        shared = i % 3 == 0
        base = 0x40000 if shared else (core + 1) << 20
        address = base + (i % 7) * 64
        kind = AccessType.WRITE if i % 5 == 2 else AccessType.READ
        sharing = (
            SharingClass.READ_WRITE_SHARED if shared else SharingClass.PRIVATE
        )
        yield TimedAccess(Access(core, address, kind, sharing),
                          gap=i % 4, colocated=i % 2)


def _step_reference(design, events, warmup):
    """Warm up on the first ``warmup`` events, reset, step the rest."""
    events = list(events)
    system = CmpSystem(design)
    for event in events[:warmup]:
        system.step(event)
    if warmup:
        system.reset_stats()
    for event in events[warmup:]:
        system.step(event)
    return system.stats()


#: One design per L2 family; the eventq cell takes the general loop.
EDGE_DESIGNS = (
    ("private", "atomic"),
    ("cmp-nurapid", "atomic"),
    ("cmp-nurapid-cr", "eventq"),
)


@pytest.mark.parametrize(
    "length, warmup",
    [(0, 0), (1, 0), (24, 0), (53, 0), (53, 20), (10, 10), (10, 25)],
    ids=["empty", "single", "short", "ragged", "warm-ragged",
         "warmup-at-end", "warmup-past-end"],
)
def test_edge_tapes_match_object_path(length, warmup):
    tape = EventTape.from_events(_edge_stream(length))
    assert len(tape) == length
    for name, bus in EDGE_DESIGNS:
        _, replayed = run_design_on_events(
            build_design(name, bus_model=bus), tape, warmup
        )
        reference = _step_reference(
            build_design(name, bus_model=bus), _edge_stream(length), warmup
        )
        assert replayed.fingerprint() == reference.fingerprint(), (
            f"{name}/{bus} diverged on a {length}-event tape, warmup {warmup}"
        )
