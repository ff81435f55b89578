"""Tests for the synthetic workload generators."""

import itertools

import pytest

from repro.common.rng import stream
from repro.common.types import AccessType, SharingClass
from repro.workloads.base import (
    BLOCK,
    EventShaper,
    HotSet,
    RegionSpec,
    SyntheticWorkload,
    WorkloadSpec,
    private_block_address,
    shared_ro_block_address,
    shared_rw_block_address,
)
from repro.workloads.multiprogrammed import MIXES, SPEC_APPS, make_mix
from repro.workloads.multithreaded import (
    COMMERCIAL,
    MULTITHREADED,
    make_workload,
    workload_spec,
)


def tiny_spec(**overrides) -> WorkloadSpec:
    defaults = dict(
        name="tiny",
        mem_ratio=0.4,
        p_private=0.5,
        p_shared_ro=0.25,
        p_shared_rw=0.25,
        private=RegionSpec(blocks=100, hot_blocks=20),
        shared_ro=RegionSpec(blocks=80, hot_blocks=16),
        shared_rw=RegionSpec(blocks=60, hot_blocks=12),
        p_recent=0.5,
        recent_window=8,
        spatial_factor=2.0,
    )
    defaults.update(overrides)
    return WorkloadSpec(**defaults)


class TestSpecValidation:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ValueError):
            tiny_spec(p_private=0.9)

    def test_missing_region_rejected(self):
        with pytest.raises(ValueError):
            tiny_spec(shared_rw=None)

    def test_bad_mem_ratio(self):
        with pytest.raises(ValueError):
            tiny_spec(mem_ratio=0.0)

    def test_bad_spatial_factor(self):
        with pytest.raises(ValueError):
            tiny_spec(spatial_factor=0.5)

    def test_hot_set_cannot_exceed_footprint(self):
        with pytest.raises(ValueError):
            RegionSpec(blocks=10, hot_blocks=11)


class TestAddresses:
    def test_regions_are_disjoint(self):
        privates = {private_block_address(c, b) for c in range(4) for b in range(100)}
        ro = {shared_ro_block_address(b) for b in range(100)}
        rw = {shared_rw_block_address(b) for b in range(100)}
        assert not privates & ro
        assert not privates & rw
        assert not ro & rw

    def test_per_core_private_spaces_disjoint(self):
        a = {private_block_address(0, b) for b in range(1000)}
        b = {private_block_address(1, b) for b in range(1000)}
        assert not a & b

    def test_block_alignment_within_l2_block(self):
        for block in range(200):
            address = shared_ro_block_address(block)
            assert (address // BLOCK) * BLOCK in (address, address - 64)


class TestEventShaper:
    def test_long_run_average_matches_spec(self):
        spec = tiny_spec(mem_ratio=0.25, spatial_factor=3.0)
        shaper = EventShaper(spec)
        total_gap = total_colocated = 0
        n = 10_000
        for _ in range(n):
            gap, colocated = shaper.next_shape()
            total_gap += gap
            total_colocated += colocated
        mem_instructions = n * 1 + total_colocated
        all_instructions = mem_instructions + total_gap
        assert mem_instructions / all_instructions == pytest.approx(0.25, rel=0.01)
        assert (total_colocated + n) / n == pytest.approx(3.0, rel=0.01)


class TestHotSet:
    def test_initial_blocks_within_footprint(self):
        region = RegionSpec(blocks=50, hot_blocks=10)
        hot = HotSet(region, stream("test.hot"))
        assert len(hot.blocks) == 10
        assert all(0 <= b < 50 for b in hot.blocks)
        assert len(set(hot.blocks)) == 10  # sampled without replacement

    def test_draw_uniform_in_range(self):
        region = RegionSpec(blocks=50, hot_blocks=10)
        hot = HotSet(region, stream("test.hot"))
        draws = {hot.draw(u / 100.0) for u in range(100)}
        assert draws <= set(hot.blocks)

    def test_rotation_changes_membership(self):
        region = RegionSpec(blocks=1000, hot_blocks=10, rotate_prob=1.0)
        hot = HotSet(region, stream("test.hot"))
        before = list(hot.blocks)
        for _ in range(50):
            hot.maybe_rotate(0.0)
        assert hot.blocks != before

    def test_no_rotation_above_probability(self):
        region = RegionSpec(blocks=1000, hot_blocks=10, rotate_prob=0.01)
        hot = HotSet(region, stream("test.hot"))
        before = list(hot.blocks)
        hot.maybe_rotate(0.5)  # 0.5 >= 0.01: no rotation
        assert hot.blocks == before


class TestStreamProperties:
    def test_deterministic_for_same_seed(self):
        events_a = list(
            SyntheticWorkload(tiny_spec(), seed=5).events(accesses_per_core=50)
        )
        events_b = list(
            SyntheticWorkload(tiny_spec(), seed=5).events(accesses_per_core=50)
        )
        assert [(e.access.core, e.access.address, e.access.type) for e in events_a] == [
            (e.access.core, e.access.address, e.access.type) for e in events_b
        ]

    def test_different_seeds_differ(self):
        events_a = list(
            SyntheticWorkload(tiny_spec(), seed=1).events(accesses_per_core=100)
        )
        events_b = list(
            SyntheticWorkload(tiny_spec(), seed=2).events(accesses_per_core=100)
        )
        assert [e.access.address for e in events_a] != [
            e.access.address for e in events_b
        ]

    def test_round_robin_core_order(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=3))
        cores = [event.access.core for event in events]
        assert cores == [0, 1, 2, 3] * 3

    def test_sharing_classes_match_regions(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=200))
        for event in events:
            access = event.access
            if access.sharing is SharingClass.PRIVATE:
                assert access.address >= (1 << 32)
                assert access.address < (1 << 40)
            elif access.sharing is SharingClass.READ_ONLY_SHARED:
                assert (1 << 40) <= access.address < (1 << 41)
            else:
                assert access.address >= (1 << 41)

    def test_read_only_region_never_written(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=500))
        for event in events:
            if event.access.sharing is SharingClass.READ_ONLY_SHARED:
                assert event.access.type is AccessType.READ

    def test_rws_writes_come_from_writer_core(self):
        events = list(SyntheticWorkload(tiny_spec()).events(accesses_per_core=500))
        for event in events:
            access = event.access
            if (
                access.sharing is SharingClass.READ_WRITE_SHARED
                and access.type is AccessType.WRITE
            ):
                block = (access.address - (1 << 41)) // BLOCK
                assert block % 4 == access.core


class TestTable3Workloads:
    def test_all_five_defined(self):
        names = [spec.name for spec in MULTITHREADED]
        assert names == ["oltp", "apache", "specjbb", "ocean", "barnes"]

    def test_commercial_share_more_than_scientific(self):
        for commercial in COMMERCIAL:
            sharing = commercial.p_shared_ro + commercial.p_shared_rw
            assert sharing > 0.3
        for scientific in ("ocean", "barnes"):
            spec = workload_spec(scientific)
            assert spec.p_shared_ro + spec.p_shared_rw < 0.15

    def test_oltp_is_rws_dominated(self):
        oltp = workload_spec("oltp")
        assert oltp.p_shared_rw > oltp.p_shared_ro

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            workload_spec("tpc-h")

    def test_make_workload_produces_events(self):
        workload = make_workload("barnes")
        events = list(itertools.islice(workload.events(10), 40))
        assert len(events) == 40


class TestTable2Mixes:
    def test_mixes_match_table2(self):
        assert MIXES["MIX1"] == ("apsi", "art", "equake", "mesa")
        assert MIXES["MIX2"] == ("ammp", "swim", "mesa", "vortex")
        assert MIXES["MIX3"] == ("apsi", "mcf", "gzip", "mesa")
        assert MIXES["MIX4"] == ("ammp", "gzip", "vortex", "wupwise")

    def test_all_ten_apps_modelled(self):
        used = {app for mix in MIXES.values() for app in mix}
        assert used == set(SPEC_APPS)

    def test_capacity_demands_are_nonuniform(self):
        """Streaming apps exceed 2 MB (16384 blocks); small apps fit."""
        for big in ("art", "mcf", "swim"):
            assert SPEC_APPS[big].hot_blocks > 16384
        for small in ("mesa", "gzip", "wupwise", "vortex"):
            assert SPEC_APPS[small].hot_blocks < 8192

    def test_mix_events_are_private_only(self):
        mix = make_mix("MIX2")
        events = list(itertools.islice(mix.events(20), 80))
        assert all(e.access.sharing is SharingClass.PRIVATE for e in events)

    def test_unknown_mix_rejected(self):
        with pytest.raises(KeyError):
            make_mix("MIX9")

    def test_mix_deterministic(self):
        a = [e.access.address for e in make_mix("MIX1", seed=4).events(30)]
        b = [e.access.address for e in make_mix("MIX1", seed=4).events(30)]
        assert a == b


def _object_columns(events):
    """An events list as tape-layout tuples, via the reference generator."""
    from repro.workloads.tape import SHARING_CODE

    return [
        (e.access.core, e.access.address, int(e.access.type is AccessType.WRITE),
         SHARING_CODE[e.access.sharing], e.gap, e.colocated)
        for e in events
    ]


class TestDirectFill:
    """The column fill against the reference object path, event by event."""

    SOURCES = [
        ("tiny", lambda: SyntheticWorkload(tiny_spec(), seed=9)),
        ("oltp", lambda: make_workload("oltp", seed=9)),
        ("ocean", lambda: make_workload("ocean", seed=9)),
        ("barnes-8core", lambda: make_workload("barnes", num_cores=8, seed=9)),
    ] + [(mix, lambda mix=mix: make_mix(mix, seed=9)) for mix in sorted(MIXES)]

    @pytest.mark.parametrize("name, make", SOURCES, ids=[n for n, _ in SOURCES])
    def test_fill_matches_next_access(self, name, make):
        from repro.workloads.tape import EventTape

        # 8300 per core crosses the generators' 8192-draw refill.
        n = 8300 if name in ("tiny", "MIX1") else 600
        reference = _object_columns(make().events(n))
        tape = EventTape.from_events(make().events(n))
        filled = list(zip(*tape.columns()))
        assert len(filled) == len(reference)
        for index, (got, want) in enumerate(zip(filled, reference)):
            assert got == want, f"{name}: event {index} differs"

    def test_next_packed_matches_next_access_per_stream(self):
        from repro.workloads.tape import SHARING_CODE

        packed_streams = make_workload("apache", seed=2).events(1)._streams
        object_streams = make_workload("apache", seed=2).events(1)._streams
        for _ in range(3000):
            for packed, reference in zip(packed_streams, object_streams):
                value = packed.next_packed()
                access = reference.next_access()
                assert (value >> 3, value >> 2 & 1, value & 3) == (
                    access.address, int(access.type is AccessType.WRITE),
                    SHARING_CODE[access.sharing],
                )

    def test_inlined_shapes_match_next_shape(self):
        spec = tiny_spec(mem_ratio=0.3, spatial_factor=4.25)
        shaper = EventShaper(spec)
        expected = [shaper.next_shape() for _ in range(500)]
        events = list(SyntheticWorkload(spec, seed=1).events(500))
        assert [(e.gap, e.colocated) for e in events[::4]] == expected
