"""Synthetic workload generators for Table 2 and Table 3 workloads,
the columnar event tape every run replays, and trace-file I/O for
user-supplied traces."""

from repro.workloads import tape, tracefile
from repro.workloads.base import (
    BLOCK,
    RegionSpec,
    SyntheticWorkload,
    WorkloadSpec,
    private_block_address,
    shared_ro_block_address,
    shared_rw_block_address,
)
from repro.workloads.multiprogrammed import (
    MIXES,
    SPEC_APPS,
    AppModel,
    MultiprogrammedWorkload,
    make_mix,
)
from repro.workloads.multithreaded import (
    COMMERCIAL,
    MULTITHREADED,
    SCIENTIFIC,
    make_workload,
    workload_spec,
)
from repro.workloads.tape import EventTape, TimedAccess

__all__ = [
    "BLOCK",
    "COMMERCIAL",
    "EventTape",
    "MIXES",
    "MULTITHREADED",
    "SCIENTIFIC",
    "SPEC_APPS",
    "AppModel",
    "MultiprogrammedWorkload",
    "RegionSpec",
    "SyntheticWorkload",
    "TimedAccess",
    "WorkloadSpec",
    "make_mix",
    "make_workload",
    "private_block_address",
    "shared_ro_block_address",
    "shared_rw_block_address",
    "tape",
    "tracefile",
    "workload_spec",
]
