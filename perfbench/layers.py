"""Span probes at the public entry points of each simulator layer.

The benchmark measures the program from outside: :class:`Probes`
replaces the module-level names the experiment code calls
(``make_workload``, ``build_design``, ``CmpSystem``, the harness's
checker and checkpoint functions, the stats journal) with wrappers that
record spans, and on every design and system they build it wraps the
instance methods each layer is entered through.  Nothing in ``src/`` is
edited, and :meth:`Probes.remove` restores every patched name.

An untraced pass installs only the set-up probes (a handful of spans per
cell, so the timed numbers carry no per-event cost).  A traced pass
installs all of them.

Span names, grouped into layers by their first component:

* ``workloads.build`` — ``make_workload``/``make_mix``;
  ``workloads.gen`` — the ``events()`` call and every chunk of
  :data:`GEN_CHUNK` events pulled from the stream.
* ``cpu.build`` — ``CmpSystem(...)``; ``cpu.run``/``cpu.step`` —
  ``CmpSystem.run``/``step`` (self time: run loop plus the L1s).
* ``caches.build`` — ``build_design``; ``caches.l2`` —
  ``L2Design.access``; ``caches.snoop`` — a private cache
  controller's snoop handler, called back by the bus.
* ``interconnect.*`` — bus and mesh ``issue``, crossbar ``access``,
  mesh protocol accounting and eviction hints, directory methods and
  event-queue calls.  Queue callbacks fired inside ``run_until``
  (NuRAPID's mesh invalidation deliveries) count as event-queue time.
* ``harness.*`` — ``HarnessRunner.run`` (self time: the step loop and
  its monotonicity check), ``check_system_incremental``,
  ``save_checkpoint``, ``load_checkpoint``, and a scaled cell's resume.
* ``stats.*`` — ``CmpSystem.stats`` and ``SimulationStats.fingerprint``.
* ``experiments.journal`` — ``StatsCache.append_record``.
"""

from __future__ import annotations

import os
from itertools import islice
from typing import Any, Callable, List, Tuple

from spans import SpanLog, timed

from repro.experiments import runner as exp_runner
from repro.experiments import scale as exp_scale
from repro.harness import runner as harness_runner
from repro.interconnect.mesh import mesh_noc

#: Events pulled from a traced workload stream per ``workloads.gen`` span.
GEN_CHUNK = 512

#: Construction spans; their durations make up the benchmark's set-up.
SETUP_SPANS = ("workloads.build", "caches.build", "cpu.build")

_DIRECTORY_METHODS = (
    "home", "holders", "add", "discard", "set_solo", "clear", "apply",
)
_QUEUE_METHODS = ("at", "schedule", "run_until", "run_next", "drain")


class Probes:
    """Installs span probes for one pass; undone by :meth:`remove`."""

    def __init__(self, log: SpanLog, traced: bool) -> None:
        self.log = log
        self.traced = traced
        #: Mesh NoC of every design simulated while traced (hop counts
        #: are read from these after the pass); restored snapshots are
        #: left out, so their hops are not counted twice.
        self.meshes: "List[Any]" = []
        #: Events yielded by traced workload streams.
        self.generated = 0
        #: Size in bytes of each checkpoint file written.
        self.checkpoint_bytes: "List[int]" = []
        self._undo: "List[Tuple[Any, str, Any]]" = []

    # -- installing ----------------------------------------------------

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Probes":
        for module in (exp_runner, exp_scale):
            self._patch(module, "make_workload",
                        self._workload_factory(module.make_workload))
            self._patch(module, "build_design",
                        self._design_factory(module.build_design))
            self._patch(module, "CmpSystem",
                        self._system_factory(module.CmpSystem))
        self._patch(exp_runner, "make_mix",
                    self._workload_factory(exp_runner.make_mix))
        if self.traced:
            log = self.log
            self._patch(harness_runner, "check_system_incremental",
                        timed(log, "harness.check",
                              harness_runner.check_system_incremental))
            self._patch(harness_runner, "save_checkpoint",
                        self._checkpoint_saver(harness_runner.save_checkpoint))
            self._patch(exp_scale, "load_checkpoint",
                        self._checkpoint_loader(exp_scale.load_checkpoint))
            cls = harness_runner.HarnessRunner
            self._patch(cls, "run", timed(log, "harness.run", cls.run))
            journal = exp_runner.StatsCache
            self._patch(journal, "append_record", staticmethod(
                timed(log, "experiments.journal", journal.append_record)))
        return self

    def remove(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Probes":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- construction probes -------------------------------------------

    def _constructor(self, name: str, real: Callable,
                     after: Callable[[Any], None]) -> Callable:
        log = self.log
        nid = log.name_id(name)

        def construct(*args, **kwargs):
            index = log.open(nid)
            try:
                built = real(*args, **kwargs)
            finally:
                log.close(index)
            after(built)
            return built

        construct.__wrapped__ = real
        return construct

    def _workload_factory(self, real: Callable) -> Callable:
        def after(workload) -> None:
            if self.traced:
                workload.events = self._traced_events(workload.events)
        return self._constructor("workloads.build", real, after)

    def _design_factory(self, real: Callable) -> Callable:
        def after(design) -> None:
            if self.traced:
                self._wrap_design(design)
        return self._constructor("caches.build", real, after)

    def _system_factory(self, real: Callable) -> Callable:
        def after(system) -> None:
            if self.traced:
                log = self.log
                system.run = timed(log, "cpu.run", system.run)
                system.step = timed(log, "cpu.step", system.step)
                system.stats = timed(log, "stats.assemble", system.stats)
        return self._constructor("cpu.build", real, after)

    # -- traced-only probes --------------------------------------------

    def _traced_events(self, real_events: Callable) -> Callable:
        log = self.log
        nid = log.name_id("workloads.gen")

        def chunks(stream):
            while True:
                index = log.open(nid)
                try:
                    chunk = list(islice(stream, GEN_CHUNK))
                finally:
                    log.close(index)
                if not chunk:
                    return
                self.generated += len(chunk)
                yield from chunk

        def events(*args, **kwargs):
            index = log.open(nid)
            try:
                stream = real_events(*args, **kwargs)
            finally:
                log.close(index)
            return chunks(stream)

        return events

    def _checkpoint_saver(self, real: Callable) -> Callable:
        saved = timed(self.log, "harness.checkpoint", real)

        def save_checkpoint(system, event_index, path, *args, **kwargs):
            saved(system, event_index, path, *args, **kwargs)
            self.checkpoint_bytes.append(os.path.getsize(path))

        return save_checkpoint

    def _checkpoint_loader(self, real: Callable) -> Callable:
        loaded = timed(self.log, "harness.load", real)

        def load_checkpoint(*args, **kwargs):
            checkpoint = loaded(*args, **kwargs)
            noc = mesh_noc(checkpoint.system.design)
            self.meshes[:] = [mesh for mesh in self.meshes if mesh is not noc]
            return checkpoint

        return load_checkpoint

    def _wrap(self, obj: Any, method: str, name: str) -> None:
        setattr(obj, method, timed(self.log, name, getattr(obj, method)))

    def _wrap_design(self, design) -> None:
        self._wrap(design, "access", "caches.l2")
        for controller in getattr(design, "controllers", ()):
            self._wrap(controller, "snoop", "caches.snoop")
        noc = mesh_noc(design)
        bus = getattr(design, "bus", None)
        if bus is not None and bus is not noc:
            self._wrap(bus, "issue", "interconnect.bus")
        crossbar = getattr(design, "crossbar", None)
        if crossbar is not None:
            self._wrap(crossbar, "access", "interconnect.crossbar")
        if noc is not None:
            self.meshes.append(noc)
            for method in ("issue", "note_eviction", "record_protocol_message"):
                self._wrap(noc, method, "interconnect.mesh")
            for method in _DIRECTORY_METHODS:
                self._wrap(noc.directory, method, "interconnect.directory")
        queue = getattr(design, "queue", None)
        if queue is not None:
            for method in _QUEUE_METHODS:
                self._wrap(queue, method, "interconnect.eventq")
