"""Per-benchmark trace parameters for the 23 SPEC2000 programs.

The paper simulates 23 of the SPEC2000 benchmarks (ammp, galgel, and gap
are left out for simulation time).  Parameters below are calibrated to the
programs' well-known qualitative behaviour — mcf/art are memory-bound with
tiny IPC, bzip2/gzip/crafty are integer codes with high issue-queue
pressure, swim/mgrid/applu are stride-friendly FP loop nests, etc. — which
is what the Figure 8 / Figure 9 experiments are sensitive to.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Tuple

from repro.cpu.isa import OpClass


@dataclass(frozen=True)
class BenchmarkProfile:
    """Trace-synthesis parameters for one benchmark.

    Attributes:
        name: SPEC2000 benchmark name.
        is_fp: SPEC FP suite member (drives the FP issue queue).
        mix: instruction-class weights (normalized when sampled).
        dep_p: geometric parameter of dependence distances — larger means
            shorter distances, i.e. tighter dependence chains / less ILP.
        body_len: average loop-body length in instructions.
        loop_iters: average iterations per loop visit (long loops are
            highly predictable).
        chaos: probability a conditional branch is data-dependent noise
            (hard to predict).
        working_set_kb: memory footprint driving cache behaviour.
        stride_frac: fraction of sequential (stride) accesses; the rest
            are uniform over the working set.
        locality: of the non-stride accesses, the fraction staying in a
            small hot region — low values model pointer-chasing codes
            (mcf, art) whose loads roam the whole working set.
    """

    name: str
    is_fp: bool
    mix: Mapping[OpClass, float]
    dep_p: float
    body_len: int
    loop_iters: int
    chaos: float
    working_set_kb: int
    stride_frac: float
    locality: float = 0.9


def _mix(ialu=0.0, imul=0.0, fadd=0.0, fmul=0.0, load=0.0, store=0.0,
         branch=0.0) -> Dict[OpClass, float]:
    return {
        OpClass.IALU: ialu,
        OpClass.IMUL: imul,
        OpClass.FADD: fadd,
        OpClass.FMUL: fmul,
        OpClass.LOAD: load,
        OpClass.STORE: store,
        OpClass.BRANCH: branch,
    }


def _int_profile(name, dep_p, body_len, loop_iters, chaos, ws_kb, stride,
                 locality=0.9, mix=None):
    return BenchmarkProfile(
        name=name,
        is_fp=False,
        mix=mix or _mix(ialu=0.48, imul=0.02, load=0.26, store=0.12,
                        branch=0.12),
        dep_p=dep_p,
        body_len=body_len,
        loop_iters=loop_iters,
        chaos=chaos,
        working_set_kb=ws_kb,
        stride_frac=stride,
        locality=locality,
    )


def _fp_profile(name, dep_p, body_len, loop_iters, chaos, ws_kb, stride,
                locality=0.9, mix=None):
    return BenchmarkProfile(
        name=name,
        is_fp=True,
        mix=mix or _mix(ialu=0.22, fadd=0.22, fmul=0.14, load=0.28,
                        store=0.10, branch=0.04),
        dep_p=dep_p,
        body_len=body_len,
        loop_iters=loop_iters,
        chaos=chaos,
        working_set_kb=ws_kb,
        stride_frac=stride,
        locality=locality,
    )


#: The 23 benchmarks of the paper (SPEC2000 minus ammp, galgel, gap).
PROFILES: Tuple[BenchmarkProfile, ...] = (
    # ---- SPECint2000 ------------------------------------------------
    _int_profile("gzip", dep_p=0.180, body_len=14, loop_iters=30,
                 chaos=0.064, ws_kb=180, stride=0.75, locality=0.97),
    _int_profile("vpr", dep_p=0.252, body_len=12, loop_iters=12,
                 chaos=0.102, ws_kb=2048, stride=0.45, locality=0.92),
    _int_profile("gcc", dep_p=0.270, body_len=9, loop_iters=6,
                 chaos=0.115, ws_kb=4096, stride=0.40, locality=0.93),
    _int_profile("mcf", dep_p=0.330, body_len=8, loop_iters=10,
                 chaos=0.090, ws_kb=65536, stride=0.05, locality=0.30),
    _int_profile("crafty", dep_p=0.180, body_len=16, loop_iters=18,
                 chaos=0.077, ws_kb=512, stride=0.60, locality=0.96),
    _int_profile("parser", dep_p=0.300, body_len=10, loop_iters=8,
                 chaos=0.109, ws_kb=8192, stride=0.35, locality=0.90),
    _int_profile("eon", dep_p=0.192, body_len=18, loop_iters=20,
                 chaos=0.051, ws_kb=256, stride=0.70, locality=0.97),
    _int_profile("perlbmk", dep_p=0.240, body_len=11, loop_iters=10,
                 chaos=0.083, ws_kb=2048, stride=0.50, locality=0.94),
    _int_profile("vortex", dep_p=0.210, body_len=13, loop_iters=16,
                 chaos=0.058, ws_kb=4096, stride=0.55, locality=0.93),
    _int_profile("bzip2", dep_p=0.168, body_len=15, loop_iters=40,
                 chaos=0.070, ws_kb=3072, stride=0.70, locality=0.95),
    _int_profile("twolf", dep_p=0.288, body_len=10, loop_iters=9,
                 chaos=0.115, ws_kb=1024, stride=0.40, locality=0.92),
    # ---- SPECfp2000 -------------------------------------------------
    _fp_profile("wupwise", dep_p=0.180, body_len=24, loop_iters=60,
                chaos=0.008, ws_kb=8192, stride=0.85, locality=0.95),
    _fp_profile("swim", dep_p=0.240, body_len=28, loop_iters=120,
                chaos=0.004, ws_kb=131072, stride=0.95, locality=0.90),
    _fp_profile("mgrid", dep_p=0.210, body_len=30, loop_iters=100,
                chaos=0.004, ws_kb=65536, stride=0.92, locality=0.90),
    _fp_profile("applu", dep_p=0.228, body_len=26, loop_iters=80,
                chaos=0.008, ws_kb=65536, stride=0.90, locality=0.90),
    _fp_profile("mesa", dep_p=0.198, body_len=16, loop_iters=25,
                chaos=0.024, ws_kb=2048, stride=0.65, locality=0.95,
                mix=_mix(ialu=0.30, fadd=0.18, fmul=0.12, load=0.26,
                         store=0.10, branch=0.04)),
    _fp_profile("art", dep_p=0.300, body_len=12, loop_iters=50,
                chaos=0.012, ws_kb=32768, stride=0.20, locality=0.45),
    _fp_profile("equake", dep_p=0.252, body_len=18, loop_iters=40,
                chaos=0.016, ws_kb=49152, stride=0.55, locality=0.85),
    _fp_profile("facerec", dep_p=0.204, body_len=20, loop_iters=45,
                chaos=0.016, ws_kb=16384, stride=0.75, locality=0.90),
    _fp_profile("lucas", dep_p=0.216, body_len=26, loop_iters=70,
                chaos=0.008, ws_kb=98304, stride=0.88, locality=0.90),
    _fp_profile("fma3d", dep_p=0.240, body_len=18, loop_iters=30,
                chaos=0.020, ws_kb=49152, stride=0.60, locality=0.85),
    _fp_profile("sixtrack", dep_p=0.180, body_len=24, loop_iters=55,
                chaos=0.012, ws_kb=4096, stride=0.80, locality=0.95),
    _fp_profile("apsi", dep_p=0.222, body_len=20, loop_iters=35,
                chaos=0.016, ws_kb=8192, stride=0.70, locality=0.92),
)

_BY_NAME = {p.name: p for p in PROFILES}

#: Every benchmark name, in ``PROFILES`` order.
BENCHMARKS: Tuple[str, ...] = tuple(_BY_NAME)


def profile(name: str) -> BenchmarkProfile:
    """Look up a benchmark profile by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; choose from "
            f"{sorted(_BY_NAME)}"
        ) from None
