"""Fault-injection benchmark — masking validation + determinism gate.

Runs the degraded-mode masking experiment (the paper's headline
defect-tolerance property) and records the outcome distributions:
faults sampled only from mapped-out ICI blocks must classify 100%
``masked`` on the fully-degraded core, while the identical fault sites
on the full core (where those blocks are live) produce a nonzero
SDC/hang/detection rate.  Also verifies that campaign results are
bit-identical between serial and multi-worker execution, across a
checkpoint/resume cycle, and between every replay strategy — grouped
warm-core replay, ungrouped per-fault forking, scan-disabled forking
(the PR 6 behavior), and the from-scratch reference path, each at two
checkpoint intervals.  Performance is gated twice: total simulated
cycles forked vs from-scratch must drop by at least 3x, and
checkpoint-grouped replay with the sticky first-effect scan at a finer
interval must beat the PR 6 forked baseline by at least 2x wall clock
(both recorded in the JSON, along with peak RSS, the compressed
snapshot-arena footprint, and a cold/warm golden-prefix-cache probe —
a warm campaign must simulate zero golden cycles).

Results land in ``BENCH_inject.json`` at the repo root.

Command line:

```
python benchmarks/bench_inject.py                 # measure + write JSON
python benchmarks/bench_inject.py --check         # CI gate, no JSON
python benchmarks/bench_inject.py --faults 256 --workers 8
```

``--check`` runs a small campaign pair and asserts masking, worker /
resume invariance, replay-strategy equivalence, and the golden-cache
cold/warm contract, exiting nonzero on any violation without touching
the JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))

RESULT_PATH = _REPO_ROOT / "BENCH_inject.json"


def _masking(spec, workers: int):
    from repro.inject import masking_validation

    t0 = time.perf_counter()
    val = masking_validation(spec, workers=workers, checkpoint=False)
    return val, time.perf_counter() - t0


def _assert_masking(val) -> None:
    deg, full = val["degraded"], val["full"]
    if deg.outcomes["masked"] != deg.n:
        escaped = {
            k: v for k, v in deg.outcomes.items()
            if k != "masked" and v
        }
        raise AssertionError(
            f"faults escaped mapped-out blocks on the degraded core: "
            f"{escaped}"
        )
    if full.outcomes["masked"] >= full.n:
        raise AssertionError(
            "the same fault sites produced no visible outcome on the "
            "full core — the sample is not exercising live state"
        )


def _assert_invariance(spec, workers: int) -> None:
    from repro.inject import run_injection

    serial = run_injection(spec, workers=1, checkpoint=False)
    parallel = run_injection(spec, workers=workers, checkpoint=False)
    if serial != parallel:
        raise AssertionError(
            f"{workers}-worker InjectionStats differ from serial"
        )
    with tempfile.TemporaryDirectory() as cache:
        fresh = run_injection(spec, workers=workers, cache_root=cache)
        resumed = run_injection(
            spec, workers=1, cache_root=cache, resume=True
        )
    if fresh != resumed or fresh != serial:
        raise AssertionError("checkpoint/resume changed the result")


def _masking_specs(spec):
    """The masking-validation spec pair (degraded + full core)."""
    from dataclasses import replace

    from repro.inject import mapped_out_blocks
    from repro.inject.campaign import DIMENSIONS
    from repro.yieldmodel.configs import CoreCounts

    shadow = mapped_out_blocks(CoreCounts(**{d: 1 for d in DIMENSIONS}))
    return {
        "degraded": replace(spec, counts=(1,) * 6, blocks=shadow),
        "full": replace(spec, counts=(2,) * 6, blocks=shadow),
    }


def _assert_fork_equivalence(spec) -> None:
    """Every replay strategy must reproduce from-scratch stats
    bit-exactly on the masking-validation fault list, at any checkpoint
    interval: grouped warm-core replay, ungrouped per-fault forking,
    and scan-disabled forking (the PR 6 behavior)."""
    from dataclasses import replace

    from repro.inject import run_injection

    for name, s in _masking_specs(spec).items():
        scratch = run_injection(
            replace(s, fork=False), workers=1, checkpoint=False
        )
        for interval in (s.checkpoint_interval, 97):
            variants = {
                "grouped": replace(s, checkpoint_interval=interval),
                "ungrouped": replace(
                    s, grouped=False, checkpoint_interval=interval
                ),
                "unscanned": replace(
                    s, first_effect=False, checkpoint_interval=interval
                ),
            }
            for variant, vs in variants.items():
                forked = run_injection(vs, workers=1, checkpoint=False)
                if forked != scratch:
                    raise AssertionError(
                        f"{variant} InjectionStats (checkpoint "
                        f"interval {interval}) differ from "
                        f"from-scratch on the {name} core"
                    )


def _measure_suffix_replay(spec, workers: int) -> dict:
    """Run the masking campaign forked and from-scratch under telemetry
    and compare total simulated cycles and wall clock."""
    from dataclasses import replace

    from repro.inject import run_injection
    from repro.telemetry import TELEMETRY

    specs = _masking_specs(spec)
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as m_fork:
            t0 = time.perf_counter()
            for s in specs.values():
                run_injection(s, workers=workers, checkpoint=False)
            fork_wall = time.perf_counter() - t0
        with TELEMETRY.collect() as m_scratch:
            t0 = time.perf_counter()
            for s in specs.values():
                run_injection(
                    replace(s, fork=False), workers=workers,
                    checkpoint=False,
                )
            scratch_wall = time.perf_counter() - t0
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()

    forked = m_fork.counters.get("inject.sim_cycles", 0)
    scratch = m_scratch.counters.get("inject.sim_cycles", 0)
    if not forked or not scratch:
        raise AssertionError("inject.sim_cycles telemetry missing")
    ratio = scratch / forked
    if ratio < 3.0:
        raise AssertionError(
            f"suffix replay simulated-cycle reduction {ratio:.2f}x "
            f"is below the 3x gate"
        )
    return {
        "checkpoint_interval": spec.checkpoint_interval,
        "cycles_simulated": {
            "forked": forked,
            "scratch": scratch,
            "ratio": round(ratio, 2),
        },
        "wall_seconds": {
            "forked": round(fork_wall, 4),
            "scratch": round(scratch_wall, 4),
            "speedup": round(scratch_wall / fork_wall, 2),
        },
        "fork_restores": m_fork.counters.get("inject.fork_restores", 0),
        "early_exits": m_fork.counters.get("inject.early_exits", 0),
        "cycles_saved": m_fork.counters.get("inject.cycles_saved", 0),
        "note": (
            "faulty-run cycles only; the golden run is simulated once "
            "per configuration in both modes"
        ),
    }


def _measure_grouped_replay(spec, workers: int) -> dict:
    """PR 6 forked baseline vs checkpoint-grouped replay + scan.

    Both legs run the full masking campaign end-to-end — golden
    simulation, first-effect scan, and every faulty replay inside the
    timed region.  The baseline reproduces PR 6 behavior exactly
    (ungrouped per-fault forking, no scan, the coarse default
    interval); the contender is this PR's default strategy at a finer
    checkpoint interval.  Gated at a 2x wall-clock speedup.
    """
    from dataclasses import replace

    from repro.inject import prepare_injection, run_injection
    from repro.runner import clear_contexts
    from repro.telemetry import TELEMETRY

    fine = 48
    specs = _masking_specs(spec)
    baseline = {
        name: replace(
            s, grouped=False, first_effect=False, checkpoint_interval=128
        )
        for name, s in specs.items()
    }
    contender = {
        name: replace(s, checkpoint_interval=fine)
        for name, s in specs.items()
    }
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as m_base:
            t0 = time.perf_counter()
            base_stats = {}
            for name, s in baseline.items():
                clear_contexts()
                base_stats[name] = run_injection(
                    s, workers=workers, checkpoint=False
                )
            base_wall = time.perf_counter() - t0
        arena = {}
        with TELEMETRY.collect() as m_grp:
            t0 = time.perf_counter()
            grp_stats = {}
            for name, s in contender.items():
                clear_contexts()
                grp_stats[name] = run_injection(
                    s, workers=workers, checkpoint=False
                )
                golden, _faults = prepare_injection(s)  # cached
                arena[name] = golden.arena.stats()
            grp_wall = time.perf_counter() - t0
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    if grp_stats != base_stats:
        raise AssertionError(
            "grouped+scanned campaign stats differ from the PR 6 "
            "baseline"
        )
    for name, stats in arena.items():
        if stats["compressed_bytes"] >= stats["raw_bytes"]:
            raise AssertionError(
                f"snapshot arena did not compress on the {name} core: "
                f"{stats}"
            )
    speedup = base_wall / grp_wall
    if speedup < 2.0:
        raise AssertionError(
            f"grouped replay wall speedup {speedup:.2f}x over the PR 6 "
            f"forked baseline is below the 2x gate"
        )
    return {
        "baseline": {
            "strategy": "ungrouped fork, no first-effect scan (PR 6)",
            "checkpoint_interval": 128,
            "wall_seconds": round(base_wall, 4),
        },
        "grouped": {
            "strategy": "checkpoint-grouped + sticky first-effect scan",
            "checkpoint_interval": fine,
            "wall_seconds": round(grp_wall, 4),
            "restore_reuses": m_grp.counters.get(
                "inject.restore_reuses", 0
            ),
            "scan_skips": m_grp.counters.get("inject.scan_skips", 0),
            "scan_cycles": m_grp.counters.get("inject.scan_cycles", 0),
        },
        "wall_speedup": round(speedup, 2),
        "arena": arena,
        "note": (
            "end-to-end wall clock per leg: golden simulation, "
            "first-effect scan, and all faulty replays included; "
            "classifications bit-identical between legs"
        ),
    }


def _golden_cache_probe(spec, workers: int = 1) -> dict:
    """Cold-then-warm campaign against a fresh golden-prefix cache.

    The cold run must simulate and store the golden prefix; the warm
    run must load it — zero golden cycles simulated — and reproduce the
    cold stats bit-exactly.
    """
    from dataclasses import replace

    from repro.inject import run_injection
    from repro.runner import clear_contexts
    from repro.telemetry import TELEMETRY

    s = replace(spec, golden_cache=True)
    saved = os.environ.get("REPRO_CACHE_DIR")
    with tempfile.TemporaryDirectory() as cache:
        os.environ["REPRO_CACHE_DIR"] = cache
        TELEMETRY.enable()
        try:
            clear_contexts()
            with TELEMETRY.collect() as cold:
                cold_stats = run_injection(
                    s, workers=workers, checkpoint=False
                )
            clear_contexts()
            with TELEMETRY.collect() as warm:
                warm_stats = run_injection(
                    s, workers=workers, checkpoint=False
                )
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
            clear_contexts()
            if saved is None:
                os.environ.pop("REPRO_CACHE_DIR", None)
            else:
                os.environ["REPRO_CACHE_DIR"] = saved
    if warm_stats != cold_stats:
        raise AssertionError(
            "warm golden-cache campaign stats differ from cold"
        )
    cold_golden = cold.counters.get("inject.golden_sim_cycles", 0)
    warm_golden = warm.counters.get("inject.golden_sim_cycles", 0)
    hits = warm.counters.get("inject.golden_cache_hits", 0)
    if not cold_golden:
        raise AssertionError("cold run did not simulate a golden prefix")
    if cold.counters.get("inject.golden_cache_hits", 0):
        raise AssertionError("cold run hit a supposedly empty cache")
    if warm_golden:
        raise AssertionError(
            f"warm golden-cache run simulated {warm_golden} golden "
            f"cycles (expected 0)"
        )
    if not hits:
        raise AssertionError("warm run did not hit the golden cache")
    return {
        "cold_golden_cycles": cold_golden,
        "warm_golden_cycles": warm_golden,
        "warm_cache_hits": hits,
        "agreement": "warm stats bit-identical to cold",
    }


def _peak_rss_kb() -> int:
    """Peak resident set of this process and its workers, in KiB."""
    import resource

    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )


def measure(n_faults: int = 128, workers: int = 4, seed: int = 0,
            n_instructions: int = 2000) -> dict:
    """Run the masking validation and record outcome distributions."""
    from repro.inject import InjectionSpec

    spec = InjectionSpec(
        n_instructions=n_instructions,
        n_faults=n_faults,
        seed=seed,
        chunk_size=max(1, n_faults // (workers * 4)),
    )
    val, seconds = _masking(spec, workers)
    _assert_masking(val)
    _assert_invariance(spec, workers)
    _assert_fork_equivalence(spec)
    suffix = _measure_suffix_replay(spec, workers)
    grouped = _measure_grouped_replay(spec, workers)
    cache = _golden_cache_probe(spec)

    deg, full = val["degraded"], val["full"]
    host_cpus = os.cpu_count() or 1
    return {
        "campaign": (
            "masking validation (faults in mapped-out ICI blocks, "
            "degraded vs full core)"
        ),
        "benchmark": spec.benchmark,
        "n_instructions": spec.n_instructions,
        "n_faults_per_config": n_faults,
        "model": spec.model,
        "workers": workers,
        "host_cpus": host_cpus,
        "seconds": round(seconds, 4),
        "degraded_outcomes": deg.outcomes,
        "full_outcomes": full.outcomes,
        "degraded_masked_rate": deg.rate("masked"),
        "full_sdc_rate": round(full.rate("sdc"), 4),
        "masking": "100% masked in mapped-out blocks",
        "agreement": (
            "bit-exact across workers/chunking/resume and grouped/"
            "ungrouped/unscanned fork vs from-scratch"
        ),
        "suffix_replay": suffix,
        "grouped_replay": grouped,
        "golden_cache": cache,
        "peak_rss_kb": _peak_rss_kb(),
    }


def check(workers: int = 2) -> None:
    """CI gate: masking + determinism on a small sample (no JSON)."""
    from repro.inject import InjectionSpec

    spec = InjectionSpec(n_instructions=1200, n_faults=24, chunk_size=6)
    val, _ = _masking(spec, workers)
    _assert_masking(val)
    _assert_invariance(spec, workers)
    _assert_fork_equivalence(spec)
    suffix = _measure_suffix_replay(spec, workers=1)
    cache = _golden_cache_probe(spec)
    deg, full = val["degraded"], val["full"]
    print(
        "inject check OK: "
        f"degraded {deg.outcomes['masked']}/{deg.n} masked, "
        f"full core outcomes {full.outcomes}, "
        f"{workers}-worker/resume runs bit-identical to serial, "
        f"grouped == ungrouped == unscanned == scratch at 2 "
        f"checkpoint intervals, "
        f"{suffix['cycles_simulated']['ratio']}x fewer simulated cycles "
        f"({suffix['early_exits']} early exits), "
        f"warm golden cache: {cache['warm_cache_hits']} hits / "
        f"{cache['warm_golden_cycles']} golden cycles simulated"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="masking/determinism gate, no JSON written")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--faults", type=int, default=128,
                        help="injections per configuration")
    parser.add_argument("--instructions", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.check:
        check(workers=min(args.workers, 2))
        return 0

    result = measure(
        n_faults=args.faults, workers=args.workers, seed=args.seed,
        n_instructions=args.instructions,
    )
    RESULT_PATH.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
