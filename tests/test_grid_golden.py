"""Golden 4-core cell grid: committed fingerprints must keep holding.

``tests/data/grid/expected.json`` pins the fingerprint of a small cell
grid spanning both workload families, replication-sensitive designs,
both bus models, two seeds, and warm and cold starts.  It is the only
corpus that pins apache, ocean and the mixes across builds — a failure
here means simulated behaviour drifted since the fixtures were
committed.  Either fix the regression or consciously regenerate with
``tests/data/grid/generate.py`` alongside the model change.
"""

import json
from pathlib import Path

import pytest

from tests.data.grid.generate import CELLS, COLD_CELLS, SEEDS, cell_key, run_grid

DATA = Path(__file__).resolve().parent / "data" / "grid"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def test_corpus_is_complete():
    """Every generator cell has a committed fingerprint, and only those."""
    assert EXPECTED, "expected.json is empty — regenerate the corpus"
    want = {
        cell_key(*cell, seed) for cell in CELLS for seed in SEEDS
    } | {
        cell_key(*cell, seed, cold=True)
        for cell in COLD_CELLS
        for seed in SEEDS
    }
    assert set(EXPECTED) == want


@pytest.mark.parametrize("cold", [False, True], ids=["warm", "cold"])
@pytest.mark.parametrize("seed", SEEDS)
def test_grid_matches_golden_fingerprints(seed, cold):
    results = run_grid(seed, cold)
    assert len(results) == len(COLD_CELLS if cold else CELLS)
    mismatches = [
        key for key, stats in results.items()
        if stats.fingerprint() != EXPECTED[key]
    ]
    assert not mismatches, f"fingerprint drift in: {', '.join(mismatches)}"
