"""Synthetic workload substrate.

The paper drives its caches from Simics full-system traces of
commercial, scientific, and SPEC2K workloads.  Offline we synthesize
block-granularity access streams whose *architecturally relevant*
properties are controlled per workload:

* the **sharing mix** — fractions of references to per-core private
  data, read-only shared data, and read-write shared data (Figure 5);
* a three-tier **locality hierarchy**:

  - a *recent window* of the last few dozen distinct addresses,
    re-referenced with high probability — this produces L1 hit rates
    and the multi-reuse bursts behind Figure 7's histograms;
  - a slowly *rotating hot set* per region — the L2-resident working
    set.  Its size relative to the 2 MB/8 MB capacities is what
    creates (or relieves) capacity pressure, and its rotation rate
    sets the steady-state cold-miss rate every design pays;
  - a Zipf-distributed *cold tail* over the full footprint — blocks
    touched once and rarely again (the paper finds 42% of read-shared
    blocks are replaced with no reuse at all);

* **producer-consumer communication** — each read-write-shared block
  has a writer-affinity core; the writer updates it and other cores
  read it a few times before the next update (Section 5.1.2 finds most
  RWS blocks are reused 2-5 times between invalidations).

Shared regions use *one* hot set across all cores (that is what makes
them shared working sets), so private caches replicate them — the
capacity pathology controlled replication attacks.

Every stream is deterministic given the workload name and seed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.common.rng import DEFAULT_SEED, stream
from repro.common.types import Access, AccessType, SharingClass
from repro.workloads.tape import COLUMNS, SHARING_CODE, EventTape, TimedAccess

#: L2 block size the generators align addresses to.
BLOCK = 128

#: Disjoint address-space bases so regions can never alias.
_PRIVATE_BASE = 1 << 32
_SHARED_RO_BASE = 1 << 40
_SHARED_RW_BASE = 1 << 41

_READ = AccessType.READ
_WRITE = AccessType.WRITE


@dataclass(frozen=True)
class RegionSpec:
    """One data region: hot working set plus a Zipf cold tail.

    Attributes:
        blocks: total footprint in 128 B blocks.
        zipf_alpha: popularity skew of the cold-tail (and rotation)
            draws over the full footprint.
        write_fraction: probability an access to this region writes.
        hot_blocks: size of the L2-resident hot working set (0 disables
            the hot tier; draws are then pure Zipf over the footprint).
        hot_fraction: probability a draw comes from the hot set.
        rotate_prob: per-draw probability of replacing one random hot
            entry with a fresh footprint draw — the steady-state
            working-set turnover every cache design must absorb.
    """

    blocks: int
    zipf_alpha: float = 1.0
    write_fraction: float = 0.0
    hot_blocks: int = 0
    hot_fraction: float = 0.8
    rotate_prob: float = 0.002

    def __post_init__(self) -> None:
        if self.blocks <= 0:
            raise ValueError("region footprint must be positive")
        if self.hot_blocks > self.blocks:
            raise ValueError("hot set cannot exceed the footprint")
        if not 0.0 <= self.hot_fraction <= 1.0:
            raise ValueError("hot_fraction must be in [0, 1]")

    def probabilities(self) -> np.ndarray:
        ranks = np.arange(1, self.blocks + 1, dtype=np.float64)
        weights = ranks**-self.zipf_alpha
        return weights / weights.sum()


class HotSet:
    """A slowly rotating working set of blocks within a region.

    Shared regions hold one :class:`HotSet` instance used by every
    core's stream, so all cores reference the same working set.
    """

    _ROTATE_BATCH = 512

    def __init__(self, region: RegionSpec, rng: np.random.Generator) -> None:
        if region.hot_blocks <= 0:
            raise ValueError("HotSet requires hot_blocks > 0")
        self.region = region
        self._rng = rng
        self._probs = region.probabilities()
        self.blocks = rng.choice(
            region.blocks, size=region.hot_blocks, replace=False
        ).tolist()
        self._refill_rotations()

    def _refill_rotations(self) -> None:
        self._rotations = self._rng.choice(
            self.region.blocks, size=self._ROTATE_BATCH, p=self._probs
        ).tolist()
        self._slots = self._rng.integers(
            0, self.region.hot_blocks, size=self._ROTATE_BATCH
        ).tolist()
        self._rot_cursor = 0

    def draw(self, uniform: float) -> int:
        """Uniform pick from the hot set given a U(0,1) sample."""
        index = int(uniform * self.region.hot_blocks)
        return self.blocks[min(index, self.region.hot_blocks - 1)]

    def maybe_rotate(self, uniform: float) -> None:
        """With ``rotate_prob``, swap one hot entry for a fresh block."""
        if uniform >= self.region.rotate_prob:
            return
        if self._rot_cursor >= self._ROTATE_BATCH:
            self._refill_rotations()
        i = self._rot_cursor
        self._rot_cursor += 1
        self.blocks[self._slots[i]] = self._rotations[i]


@dataclass(frozen=True)
class WorkloadSpec:
    """Full parameterization of one synthetic workload.

    ``p_private + p_shared_ro + p_shared_rw`` must equal 1; regions with
    zero probability may be None.
    """

    name: str
    mem_ratio: float
    p_private: float
    p_shared_ro: float
    p_shared_rw: float
    private: RegionSpec
    shared_ro: "Optional[RegionSpec]" = None
    shared_rw: "Optional[RegionSpec]" = None
    #: Probability of re-referencing a recently used address.
    p_recent: float = 0.5
    #: Size of the per-core recent-address window.
    recent_window: int = 32
    #: Write probability for an RWS access by the block's writer core.
    rw_writer_write_fraction: float = 0.6
    #: Average memory instructions per touched cache line (spatial
    #: locality).  The extra ``spatial_factor - 1`` accesses per line
    #: are guaranteed L1 hits and are folded into the event's
    #: ``colocated`` count rather than simulated individually.
    spatial_factor: float = 3.5

    def __post_init__(self) -> None:
        total = self.p_private + self.p_shared_ro + self.p_shared_rw
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"{self.name}: region probabilities sum to {total}")
        if not 0.0 < self.mem_ratio <= 1.0:
            raise ValueError(f"{self.name}: mem_ratio must be in (0, 1]")
        if self.p_shared_ro > 0 and self.shared_ro is None:
            raise ValueError(f"{self.name}: missing shared_ro region")
        if self.p_shared_rw > 0 and self.shared_rw is None:
            raise ValueError(f"{self.name}: missing shared_rw region")
        if self.spatial_factor < 1.0:
            raise ValueError(f"{self.name}: spatial_factor must be >= 1")


class EventShaper:
    """Deterministically shapes events to a spec's instruction mix.

    Per line-touch event it emits ``colocated`` extra memory
    instructions (mean ``spatial_factor - 1``) and ``gap`` non-memory
    instructions (so memory instructions are ``mem_ratio`` of the
    total), using fractional error accumulation instead of randomness.
    """

    def __init__(self, spec: WorkloadSpec) -> None:
        mem_per_event = spec.spatial_factor
        self._colocated_target = mem_per_event - 1.0
        self._gap_target = mem_per_event * (1.0 - spec.mem_ratio) / spec.mem_ratio
        self._colocated_error = 0.0
        self._gap_error = 0.0

    def next_shape(self) -> "tuple[int, int]":
        """Return ``(gap, colocated)`` for the next event."""
        self._colocated_error += self._colocated_target
        colocated = int(self._colocated_error)
        self._colocated_error -= colocated
        self._gap_error += self._gap_target
        gap = int(self._gap_error)
        self._gap_error -= gap
        return gap, colocated


def interleave_streams(
    streams: "List[_CoreStream]", accesses_per_core: int
) -> "Iterator[TimedAccess]":
    """Round-robin the per-core streams into one timed-event stream.

    This is every workload generator's hot loop, so the per-event work
    is flattened: bound ``next_access`` methods instead of attribute
    walks, and :class:`EventShaper`'s error accumulation inlined as
    per-core floats (the arithmetic — and therefore the emitted
    gap/colocated sequence — is identical to ``next_shape``, which
    remains the reference implementation and is pinned against this
    loop by the workload tests).
    """
    shapers = [EventShaper(stream.spec) for stream in streams]
    nexts = [stream.next_access for stream in streams]
    colocated_targets = [shaper._colocated_target for shaper in shapers]
    gap_targets = [shaper._gap_target for shaper in shapers]
    colocated_errors = [0.0] * len(streams)
    gap_errors = [0.0] * len(streams)
    indices = range(len(streams))
    timed = TimedAccess
    for _ in range(accesses_per_core):
        for k in indices:
            error = colocated_errors[k] + colocated_targets[k]
            colocated = int(error)
            colocated_errors[k] = error - colocated
            error = gap_errors[k] + gap_targets[k]
            gap = int(error)
            gap_errors[k] = error - gap
            yield timed(nexts[k](), gap, colocated)


#: Round-robin rounds drawn per chunk by :func:`fill_tape`; bounds the
#: transient list of packed events at full run lengths.
_FILL_ROUNDS = 4096


def _shape_column(spec: WorkloadSpec, accesses_per_core: int
                  ) -> "tuple[array, array]":
    """One core's gap and colocated values, from :class:`EventShaper`."""
    next_shape = EventShaper(spec).next_shape
    gaps = array("i", [0]) * accesses_per_core
    colocateds = array("i", [0]) * accesses_per_core
    for i in range(accesses_per_core):
        gaps[i], colocateds[i] = next_shape()
    return gaps, colocateds


def fill_tape(streams: "List[_CoreStream]", accesses_per_core: int) -> EventTape:
    """The tape :func:`interleave_streams` would yield, filled by column.

    Cores interact only through shared hot sets, so the address, write
    and sharing columns are drawn in the same round-robin order, as one
    packed int per event (:meth:`_CoreStream.next_packed`) that numpy
    splits into the columns a chunk at a time.  The core, gap and
    colocated columns depend only on each core's index and spec and are
    laid down per core.  Columns are sized up front and written through
    numpy views, so the fill's transient memory stays one chunk.
    """
    num_cores = len(streams)
    total = num_cores * accesses_per_core
    tape = EventTape()
    tape.core = array("h", range(num_cores)) * accesses_per_core
    for name, typecode in COLUMNS[1:]:
        setattr(tape, name, array(typecode, [0]) * total)
    gaps = np.frombuffer(tape.gap, dtype=np.int32).reshape(-1, num_cores)
    colocateds = np.frombuffer(tape.colocated, dtype=np.int32).reshape(
        -1, num_cores
    )
    shaped: "dict[int, int]" = {}
    for k, stream in enumerate(streams):
        first = shaped.setdefault(id(stream.spec), k)
        if first == k:
            gap, colocated = _shape_column(stream.spec, accesses_per_core)
        else:
            gap, colocated = gaps[:, first], colocateds[:, first]
        gaps[:, k] = gap
        colocateds[:, k] = colocated
    address = np.frombuffer(tape.address, dtype=np.int64)
    write = np.frombuffer(tape.write, dtype=np.int8)
    sharing = np.frombuffer(tape.sharing, dtype=np.int8)
    nexts = [stream.next_packed for stream in streams]
    done = 0
    while done < total:
        rounds = min(_FILL_ROUNDS, accesses_per_core - done // num_cores)
        packed = np.array(
            [draw() for _ in range(rounds) for draw in nexts], dtype=np.int64
        )
        chunk = slice(done, done + len(packed))
        np.right_shift(packed, 3, out=address[chunk])
        write[chunk] = (packed >> 2) & 1
        sharing[chunk] = packed & 3
        done += len(packed)
    return tape


class EventStream:
    """The one-shot event iterator a synthetic workload's ``events()`` returns.

    Iterating yields :class:`TimedAccess` objects from
    :func:`interleave_streams`.  :meth:`to_tape` (what
    :meth:`EventTape.from_events` calls) stores the stream as a tape;
    if nothing has been drawn yet it fills the columns directly with
    :func:`fill_tape`, building no per-event objects.  Either way the
    stream is consumed.
    """

    __slots__ = ("_streams", "_accesses_per_core", "_iterator")

    def __init__(self, streams: "List[_CoreStream]", accesses_per_core: int) -> None:
        self._streams = streams
        self._accesses_per_core = accesses_per_core
        self._iterator: "Optional[Iterator[TimedAccess]]" = None

    def __iter__(self) -> "Iterator[TimedAccess]":
        if self._iterator is None:
            self._iterator = interleave_streams(
                self._streams, self._accesses_per_core
            )
        return self._iterator

    def __next__(self) -> TimedAccess:
        return next(iter(self))

    def to_tape(self) -> EventTape:
        if self._iterator is not None:
            tape = EventTape()
            tape.extend(self._iterator)
            return tape
        self._iterator = iter(())
        return fill_tape(self._streams, self._accesses_per_core)


def _half(block: int) -> int:
    """Deterministic 64 B half of the 128 B block a reference touches.

    Using a fixed half per block keeps every reference to a block on the
    same L1 line (so recency produces L1 hits) while spreading blocks
    over both halves so all L1 sets are used.  The half is derived from
    bits *above* the L1 set-index range: a 64 KB 2-way L1 with 64 B
    lines indexes on address bits 6-14, i.e. block bits 0-7 plus the
    half bit — deriving the half from low block bits would collapse the
    set index to 8 bits of entropy and halve the usable L1.
    """
    return (((block >> 8) ^ (block >> 10) ^ (block >> 12)) & 1) * 64


def private_block_address(core: int, block: int) -> int:
    return _PRIVATE_BASE * (core + 1) + block * BLOCK + _half(block)


def shared_ro_block_address(block: int) -> int:
    return _SHARED_RO_BASE + block * BLOCK + _half(block)


def shared_rw_block_address(block: int) -> int:
    return _SHARED_RW_BASE + block * BLOCK + _half(block)


class _Region:
    """Runtime state for one region as seen by one core's stream."""

    def __init__(
        self,
        spec: RegionSpec,
        sharing: SharingClass,
        address_fn: "Callable[[int], int]",
        hot_set: "Optional[HotSet]",
    ) -> None:
        self.spec = spec
        self.sharing = sharing
        self.code = SHARING_CODE[sharing]
        self.address_fn = address_fn
        self.hot_set = hot_set


class _CoreStream:
    """Per-core access generator combining the three locality tiers."""

    _BATCH = 8192

    def __init__(
        self,
        spec: WorkloadSpec,
        core: int,
        num_cores: int,
        rng: np.random.Generator,
        regions: "List[_Region]",
        region_probs: "List[float]",
    ) -> None:
        self.spec = spec
        self.core = core
        self.num_cores = num_cores
        self.rng = rng
        self.regions = regions
        self._region_cut = np.cumsum(region_probs)
        # Recent window entries: (address, sharing class, write probability).
        # Kept as a ring buffer once full: ``_recent_start`` points at the
        # logically oldest entry, so logical index ``i`` lives at
        # ``_recent[(_recent_start + i) % len]`` — same ordering as the
        # old append-then-pop(0) list without the O(window) memmove.
        self._recent: "List[tuple[int, SharingClass, float]]" = []
        self._recent_start = 0
        self._tail_probs = [region.spec.probabilities() for region in regions]
        self._refill()

    def _refill(self) -> None:
        n = self._BATCH
        self._choice = self.rng.random(n).tolist()
        self._write = self.rng.random(n).tolist()
        self._hot_draw = self.rng.random(n).tolist()
        self._hot_pick = self.rng.random(n).tolist()
        self._rotate = self.rng.random(n).tolist()
        self._recent_pick = self.rng.integers(
            0, max(self.spec.recent_window, 1), size=n
        ).tolist()
        self._region_index = np.minimum(
            np.searchsorted(self._region_cut, self.rng.random(n)),
            len(self.regions) - 1,
        ).tolist()
        self._tail_blocks = [
            self.rng.choice(region.spec.blocks, size=n, p=probs).tolist()
            for region, probs in zip(self.regions, self._tail_probs)
        ]
        self._cursor = 0

    def _write_prob(self, region: _Region, block: int) -> float:
        if region.sharing is SharingClass.READ_WRITE_SHARED:
            writer = block % self.num_cores
            if self.core == writer:
                return self.spec.rw_writer_write_fraction
            return 0.0
        return region.spec.write_fraction

    def next_access(self) -> Access:
        i = self._cursor
        if i >= self._BATCH:
            self._refill()
            i = 0
        self._cursor = i + 1
        spec = self.spec

        recent = self._recent
        rlen = len(recent)
        if rlen and self._choice[i] < spec.p_recent:
            pos = self._recent_start + self._recent_pick[i] % rlen
            if pos >= rlen:
                pos -= rlen
            address, sharing, write_prob = recent[pos]
            access_type = _WRITE if self._write[i] < write_prob else _READ
            return Access(self.core, address, access_type, sharing)

        region_index = self._region_index[i]
        region = self.regions[region_index]

        hot = region.hot_set
        if hot is not None and self._hot_draw[i] < region.spec.hot_fraction:
            block = hot.draw(self._hot_pick[i])
            hot.maybe_rotate(self._rotate[i])
        else:
            block = self._tail_blocks[region_index][i]

        address = region.address_fn(block)
        write_prob = self._write_prob(region, block)
        is_write = self._write[i] < write_prob
        window = spec.recent_window
        if rlen < window:
            recent.append((address, region.sharing, write_prob))
        elif window:
            start = self._recent_start
            recent[start] = (address, region.sharing, write_prob)
            start += 1
            self._recent_start = 0 if start == window else start
        access_type = _WRITE if is_write else _READ
        return Access(self.core, address, access_type, sharing=region.sharing)

    def next_packed(self) -> int:
        """:meth:`next_access`'s next event as one int, for :func:`fill_tape`.

        Returns ``address << 3 | write << 2 | sharing code``.  Draws and
        branches are :meth:`next_access`'s, which stays the reference
        implementation and is pinned against this method event by event
        by the workload tests.  The recent window holds ``(address << 3
        | sharing code, write probability)`` pairs here, so one stream
        must be drawn through one of the two methods only.
        """
        i = self._cursor
        if i >= self._BATCH:
            self._refill()
            i = 0
        self._cursor = i + 1
        spec = self.spec

        recent = self._recent
        rlen = len(recent)
        if rlen and self._choice[i] < spec.p_recent:
            pos = self._recent_start + self._recent_pick[i] % rlen
            if pos >= rlen:
                pos -= rlen
            packed, write_prob = recent[pos]
            return packed | 4 if self._write[i] < write_prob else packed

        region_index = self._region_index[i]
        region = self.regions[region_index]

        hot = region.hot_set
        if hot is not None and self._hot_draw[i] < region.spec.hot_fraction:
            block = hot.draw(self._hot_pick[i])
            hot.maybe_rotate(self._rotate[i])
        else:
            block = self._tail_blocks[region_index][i]

        packed = region.address_fn(block) << 3 | region.code
        write_prob = self._write_prob(region, block)
        window = spec.recent_window
        if rlen < window:
            recent.append((packed, write_prob))
        elif window:
            start = self._recent_start
            recent[start] = (packed, write_prob)
            start += 1
            self._recent_start = 0 if start == window else start
        return packed | 4 if self._write[i] < write_prob else packed


def _build_regions(
    spec: WorkloadSpec,
    core: int,
    shared_hot_sets: "dict[str, Optional[HotSet]]",
    private_spec: "Optional[RegionSpec]",
    seed: int,
) -> "tuple[List[_Region], List[float]]":
    """Assemble the (region, probability) lists for one core."""
    regions: "List[_Region]" = []
    probs: "List[float]" = []
    private_region = private_spec or spec.private
    if spec.p_private > 0:
        private_hot = None
        if private_region.hot_blocks:
            private_hot = HotSet(
                private_region,
                stream(f"hot.{spec.name}.private.core{core}", seed),
            )
        regions.append(
            _Region(
                private_region,
                SharingClass.PRIVATE,
                lambda block, core=core: private_block_address(core, block),
                private_hot,
            )
        )
        probs.append(spec.p_private)
    if spec.p_shared_ro > 0:
        assert spec.shared_ro is not None
        regions.append(
            _Region(
                spec.shared_ro,
                SharingClass.READ_ONLY_SHARED,
                shared_ro_block_address,
                shared_hot_sets.get("ro"),
            )
        )
        probs.append(spec.p_shared_ro)
    if spec.p_shared_rw > 0:
        assert spec.shared_rw is not None
        regions.append(
            _Region(
                spec.shared_rw,
                SharingClass.READ_WRITE_SHARED,
                shared_rw_block_address,
                shared_hot_sets.get("rw"),
            )
        )
        probs.append(spec.p_shared_rw)
    return regions, probs


class SyntheticWorkload:
    """A reproducible multi-core access stream built from a spec.

    For homogeneous multithreaded workloads every core runs the same
    spec; :class:`~repro.workloads.multiprogrammed.MultiprogrammedWorkload`
    overrides the private region per core to model SPEC2K mixes.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        num_cores: int = 4,
        seed: int = DEFAULT_SEED,
    ) -> None:
        self.spec = spec
        self.num_cores = num_cores
        self.seed = seed

    def _shared_hot_sets(self) -> "dict[str, Optional[HotSet]]":
        hot_sets: "dict[str, Optional[HotSet]]" = {}
        if self.spec.shared_ro is not None and self.spec.shared_ro.hot_blocks:
            hot_sets["ro"] = HotSet(
                self.spec.shared_ro, stream(f"hot.{self.spec.name}.ro", self.seed)
            )
        if self.spec.shared_rw is not None and self.spec.shared_rw.hot_blocks:
            hot_sets["rw"] = HotSet(
                self.spec.shared_rw, stream(f"hot.{self.spec.name}.rw", self.seed)
            )
        return hot_sets

    def events(self, accesses_per_core: int) -> EventStream:
        """Round-robin interleaving of the per-core streams (one-shot)."""
        shared_hot = self._shared_hot_sets()
        streams = []
        for core in range(self.num_cores):
            regions, probs = _build_regions(
                self.spec, core, shared_hot, None, self.seed
            )
            rng = stream(f"workload.{self.spec.name}.core{core}", self.seed)
            streams.append(
                _CoreStream(self.spec, core, self.num_cores, rng, regions, probs)
            )
        return EventStream(streams, accesses_per_core)
