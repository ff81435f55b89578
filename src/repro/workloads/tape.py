"""Columnar event tapes: one workload stream, stored once, replayed often.

A sweep runs one workload stream under many L2 designs (Figures 5-10
run each stream under eight), and the stream is identical for every
design.  An :class:`EventTape` holds it once, as one ``array`` column
per event field, so every design replays it without regenerating it:

============  =========  ==============
column        typecode   bytes / event
============  =========  ==============
``core``      ``h``      2
``address``   ``q``      8
``write``     ``b``      1
``sharing``   ``b``      1
``gap``       ``i``      4
``colocated`` ``i``      4
============  =========  ==============

That is 20 bytes per event, against roughly 150 for a
:class:`TimedAccess` plus its :class:`~repro.common.types.Access`.
Values that do not fit their column raise ``OverflowError`` rather than
being truncated.  ``sharing`` holds the index of the event's
:class:`~repro.common.types.SharingClass` in :data:`SHARING`.

:meth:`CmpSystem.run <repro.cpu.system.CmpSystem.run>` replays a tape
column by column and builds an ``Access`` only for events that miss
the L1; instrumented runs and the harness consume :class:`TimedAccess`
objects rebuilt by :meth:`EventTape.events`.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Iterator

from repro.common.types import Access, AccessType, SharingClass


class TimedAccess:
    """One workload event: a cache-line touch with its instruction context.

    Attributes:
        access: the memory reference presented to the hierarchy.
        gap: non-memory instructions executed before it.
        colocated: additional memory instructions that hit the same
            cache line (spatial locality) — guaranteed L1 hits, charged
            the L1 latency without being simulated individually.

    A plain slotted class: traces contain millions of these and
    construction cost dominates the generator's hot path.
    """

    __slots__ = ("access", "gap", "colocated")

    def __init__(self, access: Access, gap: int = 0, colocated: int = 0) -> None:
        self.access = access
        self.gap = gap
        self.colocated = colocated

    def __repr__(self) -> str:
        return (
            f"TimedAccess({self.access!r}, gap={self.gap}, "
            f"colocated={self.colocated})"
        )


#: Sharing classes in ``sharing``-column code order.
SHARING = (
    SharingClass.PRIVATE,
    SharingClass.READ_ONLY_SHARED,
    SharingClass.READ_WRITE_SHARED,
)
SHARING_CODE = {sharing: code for code, sharing in enumerate(SHARING)}

#: ``(column, array typecode)`` in tape order.
COLUMNS = (
    ("core", "h"),
    ("address", "q"),
    ("write", "b"),
    ("sharing", "b"),
    ("gap", "i"),
    ("colocated", "i"),
)

_TYPES = (AccessType.READ, AccessType.WRITE)


class EventTape:
    """A workload event stream as six parallel ``array`` columns.

    Slicing (``tape[start:stop]``) returns a tape whose columns are
    ``memoryview`` windows onto this one's, so a run can replay its
    warm-up and measurement phases without copying.
    """

    __slots__ = tuple(name for name, _ in COLUMNS)

    def __init__(self) -> None:
        for name, typecode in COLUMNS:
            setattr(self, name, array(typecode))

    @classmethod
    def from_events(cls, events: "Iterable[TimedAccess]") -> "EventTape":
        """Store ``events`` as a tape.

        A fresh synthetic workload stream (what ``events()`` returns)
        fills the columns directly, without building an object per
        event; any other iterable of :class:`TimedAccess` is consumed
        object by object.
        """
        to_tape = getattr(events, "to_tape", None)
        if to_tape is not None:
            return to_tape()
        tape = cls()
        tape.extend(events)
        return tape

    def extend(self, events: "Iterable[TimedAccess]") -> None:
        """Append ``events`` one by one."""
        code = SHARING_CODE
        write = AccessType.WRITE
        add_core = self.core.append
        add_address = self.address.append
        add_write = self.write.append
        add_sharing = self.sharing.append
        add_gap = self.gap.append
        add_colocated = self.colocated.append
        for event in events:
            access = event.access
            add_core(access.core)
            add_address(access.address)
            add_write(access.type is write)
            add_sharing(code[access.sharing])
            add_gap(event.gap)
            add_colocated(event.colocated)

    def __len__(self) -> int:
        return len(self.core)

    def __getitem__(self, window: slice) -> "EventTape":
        if not isinstance(window, slice) or window.step not in (None, 1):
            raise TypeError("an EventTape only slices contiguously")
        view = EventTape.__new__(EventTape)
        for name, _ in COLUMNS:
            setattr(view, name, memoryview(getattr(self, name))[window])
        return view

    def columns(self) -> "tuple":
        """The six columns in :data:`COLUMNS` order."""
        return (self.core, self.address, self.write, self.sharing,
                self.gap, self.colocated)

    def events(self) -> "Iterator[TimedAccess]":
        """Rebuild the stream's :class:`TimedAccess` objects, in order."""
        sharing_of = SHARING
        types = _TYPES
        for core, address, write, sharing, gap, colocated in zip(
            *self.columns()
        ):
            yield TimedAccess(
                Access(core, address, types[write], sharing_of[sharing]),
                gap,
                colocated,
            )

    def __iter__(self) -> "Iterator[TimedAccess]":
        return self.events()


__all__ = ["COLUMNS", "SHARING", "SHARING_CODE", "EventTape", "TimedAccess"]
