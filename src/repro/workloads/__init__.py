"""Synthetic SPEC2000 workloads (the paper's SimPoint traces, Section 5).

SPEC2000 binaries and SimPoints are not redistributable, so each of the
paper's 23 benchmarks is modeled as a parameterized synthetic trace whose
statistics (instruction mix, dependence distances, loop structure and
branch predictability, working-set size and access pattern) are tuned to
span the behaviours that matter to the Rescue experiments: issue-queue
pressure, memory-boundedness, and branch-recovery sensitivity.  Identical
traces drive the baseline and Rescue machines, so IPC deltas isolate the
microarchitectural change.
"""

from repro.workloads.profiles import (
    BENCHMARKS,
    PROFILES,
    BenchmarkProfile,
    profile,
)
from repro.workloads.generator import TraceGenerator, generate_trace

__all__ = [
    "BENCHMARKS",
    "BenchmarkProfile",
    "PROFILES",
    "TraceGenerator",
    "generate_trace",
    "profile",
]
