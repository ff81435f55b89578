#!/usr/bin/env python3
"""Regenerate ``expected.json``: every cell's fingerprint digest per seed.

Usage, from the repository root::

    python3 perfbench/generate.py

Each (workload, seed) of :data:`STORED_SEEDS` runs once, untraced, in
a pool of fresh worker interpreters (one per CPU), at the benchmark's
own run lengths, and the file is written anew.  A cell that raises or
breaks a seed-independent check (resume mismatch, unequal retired
instructions) aborts generation.  Run this only on the commit whose
behaviour the benchmark should pin.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import shutil
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import SpanLog  # noqa: E402

#: The default seed, the held-out seed 7, and every seed below 32.
STORED_SEEDS = (run.DEFAULT_SEED,) + tuple(range(32))


def cell_digests(workload_name: str, seed: int) -> "dict[str, str]":
    workload = workloads.WORKLOADS[workload_name]
    run.TMP.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"gen-{workload_name}-", dir=run.TMP)
    try:
        cells = workload.run(workload.config(seed), workdir, SpanLog())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.check_cells(cells, None)
    for cell in cells:
        if cell.failed:
            raise RuntimeError(
                f"{workload_name} seed {seed} {cell.name}: {cell.errors}"
            )
    return {cell.name: cell.digest for cell in cells}


def main() -> int:
    tasks = [(name, seed) for seed in STORED_SEEDS for name in workloads.WORKLOADS]
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(os.cpu_count(), mp_context=context) as pool:
        futures = [pool.submit(cell_digests, *task) for task in tasks]
        results = [future.result() for future in futures]
    table: "dict[str, dict[str, dict[str, str]]]" = {}
    for (name, seed), digests in zip(tasks, results):
        table.setdefault(str(seed), {})[name] = digests
    run.EXPECTED.write_text(json.dumps({"seeds": table}, indent=1) + "\n")
    print(f"wrote {len(tasks)} workload digests for {len(STORED_SEEDS)} "
          f"seeds to {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
