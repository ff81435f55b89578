"""In-memory span log and self-time accounting for the benchmark.

A span is one wrapped call: its name, start, end and the span that was
open when it started (its parent).  Spans are kept in flat arrays (about
26 bytes each), so a traced pass holding a few hundred thousand of them
stays small.  Nothing here knows about the simulator; ``layers.py``
decides which calls to wrap.
"""

from __future__ import annotations

import time
from array import array
from typing import Callable, Dict, List

import numpy as np


class SpanLog:
    """Records properly nested spans in the order they open."""

    def __init__(self, clock: "Callable[[], float]" = time.perf_counter) -> None:
        self.clock = clock
        self.names: "List[str]" = []
        self._ids: "Dict[str, int]" = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._open: "List[int]" = []

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        """The small integer a span name is stored as."""
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Start a span named ``nid``; returns its index for :meth:`close`."""
        index = len(self.start)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self._open.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End span ``index``, which must be the innermost open span."""
        self.end[index] = self.clock()
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end) - np.frombuffer(self.start)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its direct children cover."""
        durations = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int64)
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=durations[nested], minlength=len(self)
        )
        return durations - covered

    def _by_name(self, values: np.ndarray) -> "Dict[str, float]":
        sums = np.bincount(
            np.frombuffer(self.name, dtype=np.uint16), weights=values,
            minlength=len(self.names),
        )
        return {name: float(sums[i]) for i, name in enumerate(self.names)}

    def self_by_name(self) -> "Dict[str, float]":
        """Total self time per span name, in seconds."""
        return self._by_name(self.self_times())

    def total_by_name(self) -> "Dict[str, float]":
        """Total duration per span name (nested time included)."""
        return self._by_name(self.durations())

    def count_by_name(self) -> "Dict[str, int]":
        counts = np.bincount(
            np.frombuffer(self.name, dtype=np.uint16), minlength=len(self.names)
        )
        return {name: int(counts[i]) for i, name in enumerate(self.names)}

    def within(self, outer: str, inner: "tuple[str, ...]") -> np.ndarray:
        """Per ``outer`` span (in order), the summed durations of the
        ``inner``-named spans that start inside it."""
        names = np.frombuffer(self.name, dtype=np.uint16)
        start = np.frombuffer(self.start)
        durations = self.durations()
        outers = np.flatnonzero(names == self._ids.get(outer, -1))
        ids = [self._ids[name] for name in inner if name in self._ids]
        inside = np.flatnonzero(np.isin(names, ids))
        owner = np.searchsorted(start[outers], start[inside], side="right") - 1
        ends = np.frombuffer(self.end)[outers[np.maximum(owner, 0)]]
        keep = (owner >= 0) & (start[inside] < ends)
        return np.bincount(owner[keep], weights=durations[inside][keep],
                           minlength=len(outers))

    def durations_of(self, name: str) -> "List[float]":
        """Durations of every span called ``name``, in recording order."""
        nid = self._ids.get(name)
        if nid is None:
            return []
        mask = np.frombuffer(self.name, dtype=np.uint16) == nid
        return [float(value) for value in self.durations()[mask]]


def timed(log: SpanLog, name: str, fn: Callable) -> Callable:
    """``fn`` wrapped so that every call records one span called ``name``."""
    nid = log.name_id(name)
    open_span, close_span = log.open, log.close

    def wrapper(*args, **kwargs):
        index = open_span(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            close_span(index)

    wrapper.__wrapped__ = fn
    return wrapper
