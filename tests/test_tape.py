"""Tests for the columnar event tape and the StatsCache tape memo."""

import dataclasses
import weakref
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.types import Access, AccessType, SharingClass
from repro.experiments import runner
from repro.experiments.runner import ExperimentConfig, StatsCache
from repro.workloads import base, make_mix, make_workload
from repro.workloads.tape import SHARING, EventTape, TimedAccess


def _fields(event):
    access = event.access
    return (access.core, access.address, access.type, access.sharing,
            event.gap, event.colocated)


def _events(n):
    """``n`` hand-made events cycling through every field's values."""
    return [
        TimedAccess(
            Access(i % 4, (i * 0x9E3779B1) & ((1 << 47) - 1),
                   AccessType.WRITE if i % 3 == 1 else AccessType.READ,
                   SHARING[i % len(SHARING)]),
            gap=i % 11, colocated=i % 5,
        )
        for i in range(n)
    ]


class TestRoundTrip:
    @pytest.mark.parametrize("n", [0, 1, 7, 13])
    def test_events_round_trip(self, n):
        events = _events(n)
        tape = EventTape.from_events(iter(events))
        assert len(tape) == n
        assert [_fields(e) for e in tape.events()] == [_fields(e) for e in events]
        assert [_fields(e) for e in tape] == [_fields(e) for e in events]

    def test_twenty_bytes_per_event(self):
        tape = EventTape.from_events(_events(13))
        assert sum(len(c) * c.itemsize for c in tape.columns()) == 13 * 20

    def test_every_sharing_class(self):
        events = [
            TimedAccess(Access(0, 64 * i, AccessType.READ, sharing))
            for i, sharing in enumerate(SharingClass)
        ]
        tape = EventTape.from_events(events)
        assert [e.access.sharing for e in tape.events()] == list(SharingClass)

    def test_slices_are_windows(self):
        events = _events(9)
        tape = EventTape.from_events(events)
        window = tape[2:7]
        assert len(window) == 5
        assert [_fields(e) for e in window.events()] == [
            _fields(e) for e in events[2:7]
        ]
        assert [_fields(e) for e in tape[7:].events()] == [
            _fields(e) for e in events[7:]
        ]
        with pytest.raises(TypeError):
            tape[::2]

    @pytest.mark.parametrize("field, value", [
        ("core", 1 << 15), ("gap", 1 << 31), ("colocated", 1 << 31),
    ])
    def test_out_of_range_raises(self, field, value):
        core, gap, colocated = 0, 0, 0
        if field == "core":
            core = value
        elif field == "gap":
            gap = value
        else:
            colocated = value
        event = TimedAccess(Access(core, 0, AccessType.READ), gap, colocated)
        with pytest.raises(OverflowError):
            EventTape.from_events([event])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(
        st.integers(0, 63), st.integers(0, (1 << 63) - 1), st.booleans(),
        st.sampled_from(SHARING), st.integers(0, (1 << 31) - 1),
        st.integers(0, (1 << 31) - 1),
    ), max_size=40))
    def test_round_trip_property(self, rows):
        events = [
            TimedAccess(Access(core, address,
                               AccessType.WRITE if write else AccessType.READ,
                               sharing), gap, colocated)
            for core, address, write, sharing, gap, colocated in rows
        ]
        tape = EventTape.from_events(events)
        assert [_fields(e) for e in tape.events()] == [_fields(e) for e in events]


class TestWorkloadStreams:
    def test_islice_chunks_yield_each_event_once(self):
        reference = [_fields(e) for e in make_workload("oltp", seed=3).events(50)]
        stream = make_workload("oltp", seed=3).events(50)
        pulled = []
        while True:
            chunk = list(islice(stream, 7))
            if not chunk:
                break
            pulled.extend(_fields(e) for e in chunk)
        assert pulled == reference
        assert next(stream, None) is None

    def test_next_and_iteration_share_one_position(self):
        reference = [_fields(e) for e in make_mix("MIX1", seed=3).events(5)]
        stream = make_mix("MIX1", seed=3).events(5)
        first = _fields(next(stream))
        rest = [_fields(e) for e in stream]
        assert [first] + rest == reference

    def test_to_tape_after_draws_keeps_the_rest(self):
        reference = [_fields(e) for e in make_workload("ocean", seed=3).events(20)]
        stream = make_workload("ocean", seed=3).events(20)
        head = [_fields(e) for e in islice(stream, 9)]
        tape = EventTape.from_events(stream)
        assert head + [_fields(e) for e in tape.events()] == reference
        assert list(stream) == []

    def test_direct_fill_builds_no_event_objects(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("per-event object built during the fill")

        stream = make_workload("oltp", seed=3).events(300)
        monkeypatch.setattr(base, "Access", refuse)
        monkeypatch.setattr(base, "TimedAccess", refuse)
        tape = EventTape.from_events(stream)
        assert len(tape) == 4 * 300
        assert list(stream) == []


def _counting_factories(monkeypatch):
    calls = []

    def counted(real):
        def build(*args, **kwargs):
            calls.append((real.__name__, args, tuple(sorted(kwargs.items()))))
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(runner, "make_workload", counted(runner.make_workload))
    monkeypatch.setattr(runner, "make_mix", counted(runner.make_mix))
    return calls


CONFIG = ExperimentConfig(warmup_per_core=40, measure_per_core=60, seed=5)


class TestTapeMemo:
    def test_fresh_cache_starts_empty(self, monkeypatch):
        calls = _counting_factories(monkeypatch)
        StatsCache().tape("oltp", CONFIG)
        StatsCache().tape("oltp", CONFIG)
        assert len(calls) == 2

    def test_one_stream_per_workload_across_designs(self, monkeypatch):
        calls = _counting_factories(monkeypatch)
        cache = StatsCache()
        result = runner.sweep(["oltp"], ["private", "cmp-nurapid"], CONFIG,
                              cache=cache, jobs=1)
        assert len(calls) == 1
        tape, cores = cache.tape("oltp", CONFIG)
        assert cores == 4 and len(tape) == 4 * 100
        assert len(calls) == 1
        for design in ("private", "cmp-nurapid"):
            built = runner.build_design(design)
            _, alone = runner.run_multithreaded(built, "oltp", CONFIG)
            assert result.stats["oltp"][design].fingerprint() == alone.fingerprint()

    @pytest.mark.parametrize("change", [
        dict(seed=6),
        dict(warmup_per_core=41),
        dict(measure_per_core=61),
    ])
    def test_config_key_fields_force_regeneration(self, monkeypatch, change):
        calls = _counting_factories(monkeypatch)
        cache = StatsCache()
        first, _ = cache.tape("oltp", CONFIG)
        assert cache.tape("oltp", CONFIG)[0] is first
        changed = dataclasses.replace(CONFIG, **change)
        assert cache.tape("oltp", changed)[0] is not first
        assert len(calls) == 2

    def test_workload_mix_and_core_count_force_regeneration(self, monkeypatch):
        calls = _counting_factories(monkeypatch)
        cache = StatsCache()
        keys = [("oltp", False, 0), ("ocean", False, 0), ("MIX1", True, 0),
                ("MIX4", True, 0), ("oltp", False, 8)]
        for workload, multiprogrammed, cores in keys:
            cache.tape(workload, CONFIG, multiprogrammed, cores)
            cache.tape(workload, CONFIG, multiprogrammed, cores)
        assert len(calls) == len(keys)
        tape, cores = cache.tape("oltp", CONFIG, num_cores=8)
        assert cores == 8 and len(tape) == 8 * 100

    def test_same_total_with_another_warmup_split_shares_the_tape(self):
        cache = StatsCache()
        tape, _ = cache.tape("oltp", CONFIG)
        resplit = ExperimentConfig(warmup_per_core=10, measure_per_core=90,
                                   seed=CONFIG.seed)
        assert cache.tape("oltp", resplit)[0] is tape
        stats = cache.get("oltp", "private", lambda: runner.build_design("private"),
                          resplit)
        _, alone = runner.run_multithreaded(runner.build_design("private"),
                                            "oltp", resplit)
        assert stats.fingerprint() == alone.fingerprint()

    def test_holds_at_most_one_tape(self):
        cache = StatsCache()
        old = weakref.ref(cache.tape("oltp", CONFIG)[0].address)
        cache.tape("ocean", CONFIG)
        assert old() is None
