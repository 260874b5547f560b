"""Telemetry overhead benchmark — grading throughput on vs off.

The telemetry subsystem promises two things this benchmark holds it to:

1. **Zero cost when off.**  Fault grading with telemetry disabled must
   stay within noise of the engine's recorded throughput
   (``BENCH_faultsim.json``, word backend) — the instrumentation points
   compile down to one attribute test each.

2. **Cheap when on.**  Enabling counters/histograms/spans may cost at
   most a few percent: the engine batches its counts at cone-walk and
   grading-call boundaries instead of per gate.

Both timings grade the identical fault universe and pattern set, and the
resulting detection maps are asserted bit-exact before any number is
reported — instrumentation must observe, never perturb.

The run also exercises the campaign-metrics contract: a sharded
isolation campaign at ``--workers 1`` and ``--workers 2`` must produce
bit-identical deterministic metric views (counters + histograms), the
same invariance the campaign results themselves obey.

Results land in ``BENCH_telemetry.json`` at the repo root.

Command line:

```
python benchmarks/bench_telemetry.py           # measure + write JSON
python benchmarks/bench_telemetry.py --check   # pre-merge gate (<30 s)
python benchmarks/bench_telemetry.py --reps 5
```

``--check`` asserts the disabled path records nothing, on/off grades are
bit-exact, worker-count metric invariance holds, and enabled overhead
stays under a loose CI-noise bound, without touching the JSON.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))

RESULT_PATH = _REPO_ROOT / "BENCH_telemetry.json"
FAULTSIM_RECORD = _REPO_ROOT / "BENCH_faultsim.json"


def _grading_setup(n_patterns: int, seed: int):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe
    from repro.netlist.compiled import PackedWordSimulator
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    model = build_rescue_rtl(RtlParams.tiny())
    netlist = model.netlist
    insert_scan(netlist)
    faults = collapse_faults(netlist, full_fault_universe(netlist))
    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(seed)
    patterns = rng.integers(
        0, 2, size=(n_patterns, sim.n_sources)
    ).astype(bool)
    return netlist, faults, sim, patterns


def _time_grading(netlist, faults, sim, patterns, reps: int):
    """Best-of-``reps`` grading time and the (identical) grade object."""
    from repro.atpg.faultsim import grade_faults

    best = float("inf")
    grade = None
    for _ in range(reps):
        t0 = time.perf_counter()
        grade = grade_faults(netlist, faults, patterns, sim=sim)
        best = min(best, time.perf_counter() - t0)
    return best, grade


def _time_grading_interleaved(netlist, faults, sim, patterns, reps: int):
    """Best-of-``reps`` for telemetry off and on, reps alternating.

    Alternation makes both modes sample the same noise environment —
    on a shared (or single-core) host, two back-to-back timing blocks
    can easily differ by more than the effect being measured.
    """
    from repro.atpg.faultsim import grade_faults
    from repro.telemetry import TELEMETRY

    best = {False: float("inf"), True: float("inf")}
    grades = {}
    for _ in range(reps):
        for enabled in (False, True):
            TELEMETRY.enabled = enabled
            t0 = time.perf_counter()
            grades[enabled] = grade_faults(
                netlist, faults, patterns, sim=sim
            )
            best[enabled] = min(
                best[enabled], time.perf_counter() - t0
            )
    TELEMETRY.disable()
    return best[False], best[True], grades[False], grades[True]


def _assert_same_grade(g_off, g_on) -> None:
    if g_off.detected != g_on.detected:
        raise AssertionError("telemetry changed detection maps")
    if g_off.undetected != g_on.undetected:
        raise AssertionError("telemetry changed undetected lists")


def _runner_metric_views(n_faults: int, chunk: int, workers):
    """Deterministic metric views of the isolation campaign per worker
    count (payloads asserted identical along the way)."""
    from repro.runner import IsolationSpec, prepare_isolation, run_isolation
    from repro.telemetry import TELEMETRY

    spec = IsolationSpec(
        tiny=True, n_faults=n_faults, max_deterministic=0,
        chunk_size=chunk,
    )
    # Prepare once, outside every collect scope: the first run must not
    # absorb one-time setup work (ATPG, cache warmup) the others skip.
    prepare_isolation(spec)
    TELEMETRY.enable()
    views = {}
    payload = None
    try:
        for w in workers:
            with TELEMETRY.collect() as m:
                stats = run_isolation(spec, workers=w, checkpoint=False)
            if payload is None:
                payload = stats
            elif stats != payload:
                raise AssertionError(
                    f"workers={w} campaign result differs from serial"
                )
            views[w] = m.deterministic()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    return views


def measure(n_patterns: int = 512, seed: int = 0, reps: int = 5) -> dict:
    """Time grading with telemetry off and on; verify invariance."""
    from repro.telemetry import TELEMETRY

    netlist, faults, sim, patterns = _grading_setup(n_patterns, seed)
    evals = len(faults) * n_patterns

    # Disabled-records-nothing invariant, checked on a clean registry
    # before the timing loop mixes modes.
    TELEMETRY.disable()
    TELEMETRY.reset()
    _time_grading(netlist, faults, sim, patterns, reps=1)
    assert TELEMETRY.metrics.is_empty(), "disabled run recorded metrics"

    try:
        t_off, t_on, g_off, g_on = _time_grading_interleaved(
            netlist, faults, sim, patterns, reps
        )
        counters = dict(TELEMETRY.metrics.counters)
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    _assert_same_grade(g_off, g_on)

    overhead_pct = 100.0 * (t_on - t_off) / t_off
    disabled_rate = evals / t_off

    vs_record = None
    if FAULTSIM_RECORD.exists():
        record = json.loads(FAULTSIM_RECORD.read_text())
        rec_rate = record["backends"]["word"]["evals_per_sec"]
        vs_record = {
            "recorded_evals_per_sec": rec_rate,
            "disabled_over_recorded": round(disabled_rate / rec_rate, 3),
        }

    views = _runner_metric_views(n_faults=300, chunk=50, workers=(1, 2))
    runner_invariant = views[1] == views[2]
    if not runner_invariant:
        raise AssertionError(
            "campaign metrics differ between --workers 1 and --workers 2"
        )

    return {
        "netlist": netlist.stats(),
        "n_faults": len(faults),
        "n_patterns": n_patterns,
        "fault_pattern_evals": evals,
        "reps": reps,
        "grade_seconds_disabled": round(t_off, 4),
        "grade_seconds_enabled": round(t_on, 4),
        "evals_per_sec_disabled": round(disabled_rate),
        "evals_per_sec_enabled": round(evals / t_on),
        "enabled_overhead_pct": round(overhead_pct, 2),
        "vs_faultsim_record": vs_record,
        "grades_bit_exact_on_vs_off": True,
        "runner_metrics_invariant_across_workers": runner_invariant,
        "runner_counters_sample": {
            k: views[1]["counters"][k]
            for k in sorted(views[1]["counters"])[:8]
        },
        "enabled_counters_during_grading": {
            k: counters[k] for k in sorted(counters)
        },
    }


def check(seed: int = 0) -> None:
    """Pre-merge gate: invariance + a loose overhead bound (<30 s).

    The 50% overhead ceiling is deliberately loose — CI boxes are noisy
    and the sample is small; the recorded measurement in
    ``BENCH_telemetry.json`` is where the <3% claim is held.
    """
    from repro.telemetry import TELEMETRY

    netlist, faults, sim, patterns = _grading_setup(
        n_patterns=128, seed=seed
    )

    TELEMETRY.disable()
    TELEMETRY.reset()
    t_off, g_off = _time_grading(netlist, faults, sim, patterns, reps=2)
    assert TELEMETRY.metrics.is_empty(), (
        "disabled telemetry recorded metrics"
    )

    TELEMETRY.enable()
    try:
        t_on, g_on = _time_grading(netlist, faults, sim, patterns, reps=2)
        assert not TELEMETRY.metrics.is_empty(), (
            "enabled telemetry recorded nothing"
        )
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    _assert_same_grade(g_off, g_on)
    overhead_pct = 100.0 * (t_on - t_off) / t_off
    assert overhead_pct < 50.0, (
        f"enabled overhead {overhead_pct:.1f}% exceeds the loose CI bound"
    )

    views = _runner_metric_views(n_faults=60, chunk=13, workers=(1, 2))
    assert views[1] == views[2], (
        "campaign metrics differ between --workers 1 and --workers 2"
    )
    assert views[1]["counters"], "campaign collected no counters"

    print(
        f"telemetry check OK: {len(faults)} faults x "
        f"{patterns.shape[0]} patterns bit-exact on/off "
        f"(overhead {overhead_pct:+.1f}%), campaign metrics "
        f"bit-identical across worker counts"
    )


def _print_result(data: dict) -> None:
    print(f"\n=== Telemetry overhead: tiny Rescue core "
          f"({data['netlist']['gates']} gates) ===")
    print(f"{data['n_faults']} faults x {data['n_patterns']} patterns, "
          f"best of {data['reps']}")
    print(f"  disabled: {data['grade_seconds_disabled']:8.3f} s   "
          f"{data['evals_per_sec_disabled']:>12,} evals/s")
    print(f"  enabled:  {data['grade_seconds_enabled']:8.3f} s   "
          f"{data['evals_per_sec_enabled']:>12,} evals/s")
    print(f"  overhead: {data['enabled_overhead_pct']:+.2f}%")
    if data["vs_faultsim_record"]:
        ratio = data["vs_faultsim_record"]["disabled_over_recorded"]
        print(f"  disabled vs BENCH_faultsim.json word record: "
              f"{ratio:.2f}x")
    print("  campaign metrics bit-identical across --workers 1/2: "
          f"{data['runner_metrics_invariant_across_workers']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="invariance gate only (no JSON written)",
    )
    parser.add_argument("--patterns", type=int, default=512)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.check:
        check(seed=args.seed)
        return 0
    data = measure(
        n_patterns=args.patterns, seed=args.seed, reps=args.reps
    )
    _print_result(data)
    RESULT_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
