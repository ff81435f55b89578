"""Vectorized structure-of-arrays batch kernel (``--engine batch``).

Steps many (workload, design) simulation cells per numpy operation:
per-cell L1 tag arrays, recency state, and permission bits live in
structure-of-arrays buffers (:class:`~repro.kernel.soa.L1Pool`), opted-in
designs additionally mirror their NuRAPID tag arrays into a stacked L2
tier (:class:`~repro.kernel.soa.L2Pool`), and the engine
(:mod:`repro.kernel.engine`) executes tag probes, four-class hit
classification (L1 hit, private L2 hit, pointer-only L2 hit, fallback),
and recency updates as masked array ops across the whole batch, batching
the residual scalar events per window instead of breaking on the first
blocking event.  Correctness is anchored on
``SimulationStats.fingerprint()`` identity with the scalar engine.
"""

from repro.kernel.engine import (
    BATCH_BUS_MODELS,
    ENGINE_ENV,
    ENGINES,
    BatchKernel,
    TapeViews,
    resolve_engine,
    run_batch,
)
from repro.kernel.soa import L1Pool, L2Pool

__all__ = [
    "BATCH_BUS_MODELS",
    "ENGINE_ENV",
    "ENGINES",
    "BatchKernel",
    "L1Pool",
    "L2Pool",
    "TapeViews",
    "resolve_engine",
    "run_batch",
]
