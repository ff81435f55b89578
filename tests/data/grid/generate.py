"""Regenerate the golden 4-core cell-grid fingerprints.

Run from the repository root::

    PYTHONPATH=src python tests/data/grid/generate.py

The script runs a small but representative cell grid (multithreaded and
multiprogrammed workloads, replication-sensitive designs, both bus
models, two seeds) through :meth:`~repro.experiments.runner.StatsCache.
get`, so every design of a workload replays one shared event tape, and
records every cell's :meth:`~repro.common.stats.SimulationStats.
fingerprint` in ``expected.json``.  ``test_grid_golden.py`` then
asserts that the current build still reproduces every committed
fingerprint bit for bit.

The corpus pins the paper's 4-core machine on the atomic bus and the
event queue; the mesh corpus (``tests/data/mesh``) pins the scaled
machine.  A failure means the model changed simulated behaviour since
the fixtures were committed.  Regenerate only for a legitimate model
change, and commit the refreshed ``expected.json`` with the change
that caused it.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.experiments.runner import ExperimentConfig, StatsCache, build_design

HERE = Path(__file__).resolve().parent

#: (workload, design, multiprogrammed, bus_model) cells, run per seed.
CELLS = (
    ("oltp", "uniform-shared", False, "atomic"),
    ("oltp", "private", False, "atomic"),
    ("oltp", "cmp-nurapid", False, "eventq"),
    ("apache", "cmp-nurapid-cr", False, "eventq"),
    ("ocean", "cmp-nurapid-isc", False, "atomic"),
    ("MIX1", "private", True, "atomic"),
    ("MIX3", "cmp-nurapid", True, "eventq"),
)

#: warmup=0 cells: the cold-start trajectory, pinned under the
#: ``/cold`` keys.
COLD_CELLS = (
    ("oltp", "cmp-nurapid", False, "atomic"),
    ("apache", "cmp-nurapid-cs", False, "atomic"),
    ("ocean", "cmp-nurapid-cr", False, "eventq"),
    ("MIX2", "cmp-nurapid-isc", True, "atomic"),
)

SEEDS = (42, 7)

ACCESSES = 600
WARMUP = 300


def cell_key(workload, design, multiprogrammed, bus_model, seed, cold=False):
    kind = "mix" if multiprogrammed else "mt"
    key = f"{workload}/{design}/{kind}/{bus_model}/seed={seed}"
    return key + "/cold" if cold else key


def run_grid(seed, cold=False):
    """``{cell_key: stats}`` for one seed's warm (or cold) grid."""
    config = ExperimentConfig(
        warmup_per_core=0 if cold else WARMUP,
        measure_per_core=ACCESSES,
        seed=seed,
    )
    cache = StatsCache()
    results = {}
    for workload, design, mp, bus in COLD_CELLS if cold else CELLS:
        # The cache key names the bus model too: one cache serves both.
        stats = cache.get(
            workload,
            f"{design}/{bus}",
            lambda design=design, bus=bus: build_design(design, bus_model=bus),
            config,
            mp,
        )
        results[cell_key(workload, design, mp, bus, seed, cold)] = stats
    return results


def main() -> None:
    expected = {}
    for seed in SEEDS:
        for cold in (False, True):
            for key, stats in run_grid(seed, cold).items():
                expected[key] = stats.fingerprint()
    out = HERE / "expected.json"
    out.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(expected)} fingerprints)")


if __name__ == "__main__":
    main()
