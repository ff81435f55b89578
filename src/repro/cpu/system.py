"""The 4-core CMP: cores, L1s, one L2 design, and the run loop.

:class:`CmpSystem` wires per-core L1s above any :class:`~repro.caches.
design.L2Design` and keeps the hierarchy coherent at the granularity
the trace-driven model needs:

* **inclusion** — L2 evictions/invalidations invalidate the covered L1
  blocks via the design's L1-invalidate hook;
* **write-invalidate at L1** — a store that reaches the L2 invalidates
  other cores' L1 copies of the block;
* **read-downgrade** — a load that reaches the L2 revokes other cores'
  L1 write permission, so their next store must re-request it from the
  L2 (this is how L2-level coherence observes writes after reads, as a
  MESI L1 hierarchy would);
* **write-through blocks** — when the L2 marks a block write-through
  (CMP-NuRAPID's C state), L1 write permission is withheld and every
  store is sent down.

:func:`run_workload` drives a system from a workload's per-core access
streams, interleaving cores round-robin, and returns the
:class:`~repro.common.stats.SimulationStats` the experiments report.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional

from repro.caches.design import L2Design
from repro.caches.l1 import L1Cache
from repro.common.params import SystemParams
from repro.common.stats import CoreTiming, SimulationStats
from repro.common.types import Access, AccessResult, AccessType
from repro.cpu.core import InOrderCore
from repro.obs import events as ev
from repro.obs.metrics import MetricsCollector
from repro.obs.tracer import NO_TRACE, NullTracer, Tracer
from repro.workloads.tape import SHARING, EventTape, TimedAccess


class CmpSystem:
    """A CMP with per-core L1s above one L2 design."""

    def __init__(
        self,
        design: L2Design,
        params: "Optional[SystemParams]" = None,
        tracer: "Tracer | NullTracer | None" = None,
        metrics: "Optional[MetricsCollector]" = None,
    ) -> None:
        if params is None:
            # Size the CMP from the design: an 8/16/64-core design gets
            # matching cores and L1s without callers threading params.
            params = SystemParams()
            design_cores = getattr(design, "num_cores", 0) or 0
            if design_cores and design_cores != params.num_cores:
                params = replace(params, num_cores=design_cores)
        self.params = params
        self.design = design
        self.l1s = [L1Cache(self.params.l1) for _ in range(self.params.num_cores)]
        self.cores = [
            InOrderCore(i, self.params.l1.latency)
            for i in range(self.params.num_cores)
        ]
        design.set_l1_invalidate_hook(self._on_l2_invalidate)
        # Peer-core index tuples, precomputed: the access path visits
        # "every core but the issuer" on each L2-reaching reference, and
        # building a generator there costs an allocation per access.
        self._peers = tuple(
            tuple(c for c in range(self.params.num_cores) if c != i)
            for i in range(self.params.num_cores)
        )
        self.tracer = NO_TRACE
        self.attach_tracer(tracer if tracer is not None else NO_TRACE)
        self.metrics: "Optional[MetricsCollector]" = None
        if metrics is not None:
            self.attach_metrics(metrics)

    def attach_tracer(self, tracer: "Tracer | NullTracer") -> None:
        """Route this system's (and its design's) events to ``tracer``."""
        self.tracer = tracer
        self.design.tracer = tracer
        bus = getattr(self.design, "bus", None)
        if bus is not None and hasattr(bus, "tracer"):
            bus.tracer = tracer

    def attach_metrics(self, metrics: MetricsCollector) -> "MetricsCollector":
        """Bind an interval-sampling metrics collector to this system."""
        self.metrics = metrics.bind(self)
        return metrics

    def _on_l2_invalidate(self, core: int, l2_block_address: int) -> None:
        self.l1s[core].invalidate_l2_block(l2_block_address, self.design.block_size)

    def access(self, access: Access) -> int:
        """Run one memory reference; returns its stall cycles (0 on L1 hit)."""
        l1 = self.l1s[access.core]
        if access.type is AccessType.WRITE:
            if l1.store(access.address):
                return 0
            return self._store_miss(access)
        if l1.load(access.address):
            return 0
        return self._load_miss(access)

    # The L1-missing halves of ``access`` are separate methods so the
    # specialized run loop can probe the L1 directly and only pay a
    # call into the L2 path on a miss.

    def _store_miss(self, access: Access) -> int:
        core = access.core
        l1s = self.l1s
        address = access.address
        result = self.design.access(access, now=self.cores[core].cycles)
        if self.metrics is not None:
            self.metrics.observe_l2(result)
        l1s[core].fill(address, writable=not result.write_through, dirty=True)
        for other in self._peers[core]:
            l1s[other].invalidate(address)
        # Stores retire through a store buffer by default: the
        # hierarchy has processed the write (coherence, traffic,
        # statistics) but the in-order core does not stall on it.
        return result.latency if self.params.blocking_stores else 0

    def _load_miss(self, access: Access) -> int:
        core = access.core
        l1s = self.l1s
        address = access.address
        result = self.design.access(access, now=self.cores[core].cycles)
        if self.metrics is not None:
            self.metrics.observe_l2(result)
        l1s[core].fill(address, writable=False)
        for other in self._peers[core]:
            l1s[other].revoke_writable(address)
        return result.latency

    def reset_stats(self) -> None:
        """Clear all statistics after a warm-up phase; state is kept.

        Core cycle counters are *preserved* (only their measurement
        baselines move): they double as the hierarchy's virtual clock
        (the ``now`` passed to the L2), so recreating cores here would
        send post-warm-up timestamps backwards relative to pre-warm-up
        fills — the harness's ``timestamp-monotonic`` invariant.
        """
        self.design.reset_stats()
        for core in self.cores:
            core.reset_stats()
        for l1 in self.l1s:
            l1.stats = type(l1.stats)()
        if self.metrics is not None:
            self.metrics.reset()

    def _trace_step(self, event: "TimedAccess") -> None:
        """Emit the replayable ``step`` record for one workload event."""
        access = event.access
        self.tracer.emit(
            ev.STEP,
            cycle=self.cores[access.core].cycles,
            core=access.core,
            address=access.address,
            type=access.type.value,
            sharing=access.sharing.value,
            gap=event.gap,
            colocated=event.colocated,
        )

    def _drain_interconnect(self) -> None:
        """Fire interconnect events due by the cores' virtual clocks.

        Deferred events (the race faults' late deliveries) fire at the
        *start* of the following step, so the harness's invariant check
        — which runs after each step — observes the open race window.
        In normal operation the queue is already empty here (every
        transaction drains inside its issuing call) and this is one
        attribute load and one branch.
        """
        queue = getattr(self.design, "queue", None)
        if queue is not None and queue.pending:
            queue.run_until(max(core.cycles for core in self.cores))

    def step(self, event: TimedAccess) -> None:
        """Execute one timed access (the harness's unit of work).

        The ``step`` record is emitted *before* execution so that when
        an access blows up mid-protocol, the fatal event is already in
        the tracer's ring buffer (the harness's replayable window).
        """
        self._drain_interconnect()
        if self.tracer.enabled:
            self._trace_step(event)
        core = self.cores[event.access.core]
        if event.gap:
            core.execute_gap(event.gap)
        if event.colocated:
            core.execute_colocated(event.colocated)
        core.execute_memory(self.access(event.access))
        if self.metrics is not None:
            self.metrics.on_step()

    def run(self, events: "EventTape | Iterable[TimedAccess]") -> None:
        """Execute a stream of timed accesses (an :class:`EventTape` or
        any iterable of :class:`TimedAccess`).

        Dispatches on the observability configuration once, not per
        event.  A plain run (no tracer, no metrics, atomic interconnect)
        replays the stream as a tape — storing it first if it is not
        one — through :meth:`_run_tape`, a loop with *zero*
        instrumentation guards.  Any attached instrument takes
        :meth:`_run_instrumented` instead, whose behavior is
        bit-identical.
        """
        if (
            self.tracer.enabled
            or self.metrics is not None
            or getattr(self.design, "queue", None) is not None
        ):
            return self._run_instrumented(events)
        if not isinstance(events, EventTape):
            events = EventTape.from_events(events)
        self._run_tape(events)

    def _run_tape(self, tape: EventTape) -> None:
        """The specialized hot loop: replay ``tape`` column by column.

        An :class:`Access` is built only for events that miss the L1.
        The per-event accounting mirrors InOrderCore.execute_gap/
        execute_colocated/execute_memory: the L2 reads ``core.cycles``
        as its virtual clock, so gap and colocated cycles land *before*
        a miss reaches it (an L1 hit charges everything at once).
        test_system pins this loop against :meth:`_run_instrumented`.
        """
        cores = self.cores
        l1s = self.l1s
        store_miss = self._store_miss
        load_miss = self._load_miss
        sharing_of = SHARING
        write = AccessType.WRITE
        read = AccessType.READ
        for core_id, address, is_write, sharing, gap, colocated in zip(
            *tape.columns()
        ):
            core = cores[core_id]
            latency = core.l1_latency
            core.instructions += gap + colocated + 1
            if is_write:
                if l1s[core_id].store(address):
                    core.cycles += gap + (colocated + 1) * latency
                    continue
                core.cycles += gap + colocated * latency
                stall = store_miss(
                    Access(core_id, address, write, sharing_of[sharing])
                )
            elif l1s[core_id].load(address):
                core.cycles += gap + (colocated + 1) * latency
                continue
            else:
                core.cycles += gap + colocated * latency
                stall = load_miss(
                    Access(core_id, address, read, sharing_of[sharing])
                )
            core.cycles += latency + stall

    def _run_instrumented(
        self, events: "EventTape | Iterable[TimedAccess]"
    ) -> None:
        """The general event loop: tracing, metrics, event-queue drains.

        Inlines :meth:`step` over :class:`TimedAccess` objects (rebuilt
        from the columns when ``events`` is a tape); with tracing
        disabled and no metrics bound the additions are one branch each
        per event.
        """
        tracer = self.tracer
        traced = tracer.enabled
        metrics = self.metrics
        queue = getattr(self.design, "queue", None)
        for event in events:
            if queue is not None and queue.pending:
                queue.run_until(max(core.cycles for core in self.cores))
            if traced:
                self._trace_step(event)
            core = self.cores[event.access.core]
            if event.gap:
                core.execute_gap(event.gap)
            if event.colocated:
                core.execute_colocated(event.colocated)
            core.execute_memory(self.access(event.access))
            if metrics is not None:
                metrics.on_step()

    def state_dict(self) -> dict:
        """Full model state as plain dicts of primitives and numpy arrays.

        Observability (tracer/metrics/profiler) is per-process and never
        part of a snapshot; pending event-queue deferrals are encoded
        separately by :mod:`repro.harness.checkpoint`, which knows the
        component graph needed to name their bound actions.
        """
        from repro.common import serialization

        state = {
            "params": serialization.params_state(self.params),
            "cores": [core.state_dict() for core in self.cores],
            "l1s": [l1.state_dict() for l1 in self.l1s],
            "design": self.design.state_dict(),
        }
        queue = getattr(self.design, "queue", None)
        if queue is not None:
            state["eventq"] = queue.state_dict()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Inject a :meth:`state_dict` snapshot into this fresh system.

        The snapshot's :class:`SystemParams` win over construction-time
        ones (cores and L1s are rebuilt from them), so non-default
        geometries restore onto a default-built system.  The design must
        already be the right one (``build_design`` chose it from the
        checkpoint envelope); its internals are rebuilt by its own
        ``load_state_dict``.
        """
        from repro.common import serialization
        from repro.common.serialization import StateDictError, require

        self.params = serialization.params_from_state(
            SystemParams, require(state, "params", "system"), "system.params"
        )
        cores = require(state, "cores", "system")
        l1s = require(state, "l1s", "system")
        if len(cores) != self.params.num_cores:
            raise StateDictError(
                "system.cores",
                f"{len(cores)} cores in snapshot, params say {self.params.num_cores}",
            )
        if len(l1s) != self.params.num_cores:
            raise StateDictError(
                "system.l1s",
                f"{len(l1s)} L1s in snapshot, params say {self.params.num_cores}",
            )
        self.l1s = [L1Cache(self.params.l1) for _ in range(self.params.num_cores)]
        self.cores = [
            InOrderCore(i, self.params.l1.latency)
            for i in range(self.params.num_cores)
        ]
        self._peers = tuple(
            tuple(c for c in range(self.params.num_cores) if c != i)
            for i in range(self.params.num_cores)
        )
        for i, (core, core_state) in enumerate(zip(self.cores, cores)):
            core.load_state_dict(core_state, f"system.cores[{i}]")
        for i, (l1, l1_state) in enumerate(zip(self.l1s, l1s)):
            l1.load_state_dict(l1_state, f"system.l1s[{i}]")
        self.design.load_state_dict(require(state, "design", "system"), "design")
        self.design.set_l1_invalidate_hook(self._on_l2_invalidate)
        queue = getattr(self.design, "queue", None)
        if "eventq" in state:
            if queue is None:
                raise StateDictError(
                    "system.eventq",
                    "snapshot carries event-queue state but this system was "
                    "built with the atomic bus model",
                )
            queue.load_state_dict(state["eventq"], "system.eventq")
        elif queue is not None and queue.pending:
            raise StateDictError(
                "system.eventq", "fresh queue is not empty before restore"
            )

    def stats(self) -> SimulationStats:
        """Collect the run's statistics from every component."""
        stats = SimulationStats(accesses=self.design.stats)
        stats.per_core = [
            CoreTiming(core.measured_instructions, core.measured_cycles)
            for core in self.cores
        ]
        reuse = getattr(self.design, "reuse", None)
        if reuse is not None:
            stats.reuse = reuse
        dgroups = getattr(self.design, "dgroup_stats", None)
        if dgroups is not None:
            stats.dgroups = dgroups
        bus = getattr(self.design, "bus", None)
        if bus is not None:
            stats.bus = bus.stats
        bus_stats = getattr(self.design, "bus_stats", None)
        if bus_stats is not None:
            stats.bus = bus_stats
        return stats


def run_workload(design: L2Design, events: "Iterable[TimedAccess]",
                 params: "Optional[SystemParams]" = None) -> SimulationStats:
    """Convenience wrapper: build a system, run, return statistics."""
    system = CmpSystem(design, params)
    system.run(events)
    return system.stats()


__all__ = ["CmpSystem", "TimedAccess", "run_workload", "AccessResult", "AccessType"]
