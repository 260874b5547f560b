"""ATPG flow benchmark — end-to-end `run_atpg` vectors/sec, plus the
compiled-vs-reference PODEM comparison.

Runs the Table-3 scan workload (tiny Rescue core, full-scan, collapsed
stuck-at universe) end to end on the production engine pair — bit-packed
fault simulation + compiled event-driven PODEM
(:class:`repro.atpg.podem_compiled.CompiledPodem`: undo trail, SCOAP
guidance, X-path pruning) with batched fault dropping — and times the
reference :class:`repro.atpg.podem.Podem` oracle (full 3-valued
resimulation per decision) on the same deterministic targets.

**Hard-tail exclusion.**  A handful of faults need >10^5 backtracks to
resolve under *any* PODEM (redundancy proofs are exponential in the
worst case), so no finite backtrack budget yields an abort-free run of
the raw universe.  The bench therefore pre-screens the deterministic
phase's targets standalone under *both* engines and excludes any fault
either engine aborts on — an engine-neutral filter, recorded in the JSON
(``n_excluded_hard``).  The screen doubles as the per-target PODEM
timing of engine and oracle.  On the filtered workload every targeted
fault provably resolves, so the flow must finish with zero aborts,
report exactly the faults the oracle PODEM proves untestable, and its
patterns must detect every other fault under the reference simulator.
That oracle-coverage check is asserted before any number is reported.

Results go to ``BENCH_atpg.json`` at the repo root: flow wall time,
vectors/sec, backtracks, and the per-target PODEM screen time of the
compiled engine and the reference oracle.

Command line:

```
python benchmarks/bench_atpg.py           # measure + write JSON (minutes:
                                          # the reference screen dominates)
python benchmarks/bench_atpg.py --check   # fast equivalence gate (CI)
```

``--check`` asserts reference/compiled verdict agreement on random
circuits and a sampled slice of the Rescue workload, the flow's oracle
coverage on the random circuits, and that the compiled engine's
cone-only reset reaches the full-sweep base state on every collapsed
fault of the Rescue netlist; it exits nonzero on any mismatch without
touching the JSON.
"""

from __future__ import annotations

import argparse
import json
import random as pyrandom
import sys
import time
from pathlib import Path

import numpy as np

_REPO_ROOT = Path(__file__).resolve().parents[1]
if "repro" not in sys.modules:  # script mode: make src/ importable
    sys.path.insert(0, str(_REPO_ROOT / "src"))

RESULT_PATH = _REPO_ROOT / "BENCH_atpg.json"

BACKTRACK_LIMIT = 512
SEED = 0


def _build_netlist():
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    model = build_rescue_rtl(RtlParams.tiny())
    return insert_scan(model.netlist).netlist


def _fault_list(netlist):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe

    return collapse_faults(netlist, full_fault_universe(netlist))


def _random_survivors(netlist, faults, seed, batch_size=64,
                      max_random_batches=16):
    """Faults the flow's random phase leaves for PODEM (replicates the
    random phase of :func:`run_atpg` with its default knobs)."""
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator

    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(seed)
    remaining = list(faults)
    for _ in range(max_random_batches):
        if not remaining:
            break
        batch = rng.integers(
            0, 2, size=(batch_size, sim.n_sources)
        ).astype(bool)
        grade = grade_faults(netlist, remaining, batch, sim=sim)
        if not grade.detected:
            break
        remaining = grade.undetected
    return remaining


def _flow_stats(result):
    return {
        "n_vectors": result.n_vectors,
        "n_detected": result.n_detected,
        "n_untestable": result.n_untestable,
        "n_aborted": result.n_aborted,
        "coverage": round(result.coverage, 6),
    }


def _assert_oracle_coverage(netlist, targets, result, untestable, label):
    """The flow's verdicts against the oracles: zero aborts, exactly the
    oracle-proven untestable faults reported untestable, and every other
    target detected by the flow's patterns under the reference
    simulator."""
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.simulate import PackedSimulator

    assert result.n_aborted == 0, f"{label}: flow aborted targets"
    assert result.n_untestable == len(untestable), (
        f"{label}: flow reports {result.n_untestable} untestable, the "
        f"reference PODEM proves {len(untestable)}"
    )
    grade = grade_faults(
        netlist, targets, result.patterns, sim=PackedSimulator(netlist)
    )
    assert set(grade.detected) == set(targets) - set(untestable), (
        f"{label}: flow patterns do not detect exactly the testable "
        f"targets under the reference simulator"
    )


def measure(seed: int = SEED,
            backtrack_limit: int = BACKTRACK_LIMIT) -> dict:
    """Time the flow end to end; time compiled vs reference PODEM."""
    from repro.atpg.flow import run_atpg
    from repro.atpg.podem import Podem
    from repro.atpg.podem_compiled import CompiledPodem
    from repro.telemetry import TELEMETRY

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    survivors = _random_survivors(netlist, faults, seed)
    print(f"{len(faults)} collapsed faults, {len(survivors)} survive the "
          f"random phase; screening the hard tail...", flush=True)

    # Engine-neutral hard-tail screen: standalone PODEM per survivor
    # under the engine and the oracle; exclude faults either aborts on.
    screen_times = {}
    aborted = set()
    untestable = set()
    for name, engine in (
        ("compiled", CompiledPodem(netlist,
                                   backtrack_limit=backtrack_limit)),
        ("reference", Podem(netlist, backtrack_limit=backtrack_limit)),
    ):
        t0 = time.perf_counter()
        for fault in survivors:
            status = engine.generate(fault).status
            if status == "aborted":
                aborted.add(fault)
            elif status == "untestable" and name == "reference":
                untestable.add(fault)
        screen_times[name] = time.perf_counter() - t0
        print(f"  screened with {name} PODEM in "
              f"{screen_times[name]:.1f}s ({len(aborted)} hard so far)",
              flush=True)
    bench_faults = [f for f in faults if f not in aborted]

    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as metrics:
            t0 = time.perf_counter()
            result = run_atpg(
                netlist,
                faults=bench_faults,
                seed=seed,
                backtrack_limit=backtrack_limit,
            )
            elapsed = time.perf_counter() - t0
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    print(f"  flow: {elapsed:.1f}s, {result.summary()}", flush=True)
    _assert_oracle_coverage(
        netlist, bench_faults, result, untestable - aborted, "Rescue"
    )
    counters = metrics.counters
    return {
        "workload": "table3-tiny-rescue-scan",
        "netlist": netlist.stats(),
        "backtrack_limit": backtrack_limit,
        "n_collapsed_faults": len(faults),
        "n_random_survivors": len(survivors),
        "n_excluded_hard": len(aborted),
        "n_bench_faults": len(bench_faults),
        "flow": {
            "run_seconds": round(elapsed, 2),
            "vectors_per_sec": round(result.n_vectors / elapsed, 2),
            "podem_targets": counters.get("podem.targets", 0),
            "podem_backtracks": counters.get("podem.backtracks", 0),
            "podem_cone_evals": counters.get("podem.cone_evals", 0),
            "podem_xpath_prunes": counters.get("podem.xpath_prunes", 0),
            **_flow_stats(result),
        },
        "podem_screen_seconds": {
            name: round(t, 2) for name, t in screen_times.items()
        },
        "speedup_compiled_over_reference_podem": round(
            screen_times["reference"] / screen_times["compiled"], 2
        ),
        "agreement": "zero aborts; untestable set equals the reference "
                     "PODEM's proofs; patterns detect every other target "
                     "under the reference simulator",
    }


def check(seed: int = SEED) -> None:
    """Pre-merge gate: reference/compiled PODEM equivalence, fast.

    1. Random circuits: per-fault verdicts agree at a no-abort budget,
       and every compiled pattern detects its target.
    2. The same circuits' `run_atpg` flow (batched dropping, compaction)
       matches the oracles: zero aborts, its untestable count equals the
       faults the reference PODEM proves untestable, and its patterns
       detect exactly the other targets under the reference simulator.
    3. Rescue workload slice: standalone verdicts agree on a fault
       sample wherever neither engine aborts (an abort makes no claim).
    4. Rescue netlist, every collapsed fault: the compiled engine's
       cone-only reset lands in exactly the good/faulty/D-net state of
       a full topological 3-valued sweep, with an empty undo trail.
    """
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe
    from repro.atpg.faultsim import grade_faults
    from repro.atpg.flow import run_atpg
    from repro.atpg.podem import Podem
    from repro.atpg.podem_compiled import CompiledPodem
    from repro.netlist import GateType, Netlist
    from repro.netlist.compiled import PackedWordSimulator

    kinds = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
             GateType.NOR, GateType.NOT, GateType.MUX2]

    def circuit(cseed, n_inputs=5, n_gates=22):
        rng = pyrandom.Random(cseed)
        nl = Netlist(f"bench{cseed}")
        nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
        for _ in range(n_gates):
            kind = rng.choice(kinds)
            n_pins = {GateType.NOT: 1, GateType.MUX2: 3}.get(kind, 2)
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(n_pins)])
            )
        nl.mark_output(nets[-1])
        return nl

    n_verdicts = 0
    for cseed in range(8):
        nl = circuit(cseed)
        sim = PackedWordSimulator(nl)
        reference = Podem(nl, backtrack_limit=5_000)
        compiled = CompiledPodem(nl, backtrack_limit=5_000)
        targets = collapse_faults(nl, full_fault_universe(nl))
        untestable = set()
        for fault in targets:
            r_l = reference.generate(fault)
            r_c = compiled.generate(fault)
            assert r_l.status == r_c.status, (
                f"seed {cseed} {fault.describe()}: "
                f"reference={r_l.status} compiled={r_c.status}"
            )
            n_verdicts += 1
            if r_l.status == "untestable":
                untestable.add(fault)
            if r_c.status == "detected":
                row = np.zeros((1, sim.n_sources), dtype=bool)
                for net, val in r_c.pattern.items():
                    row[0, sim.source_col[net]] = bool(val)
                assert fault in grade_faults(nl, [fault], row,
                                             sim=sim).detected, (
                    f"seed {cseed}: compiled pattern misses "
                    f"{fault.describe()}"
                )
        result = run_atpg(nl, seed=3, backtrack_limit=5_000)
        _assert_oracle_coverage(
            nl, targets, result, untestable, f"seed {cseed}"
        )

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 40)]
    reference = Podem(netlist, backtrack_limit=128)
    compiled = CompiledPodem(netlist, backtrack_limit=128)
    agreed = skipped = 0
    for fault in sample:
        s_l = reference.generate(fault).status
        s_c = compiled.generate(fault).status
        if "aborted" in (s_l, s_c):
            skipped += 1  # an abort is a non-verdict, not a disagreement
            continue
        assert s_l == s_c, (
            f"Rescue {fault.describe()}: reference={s_l} compiled={s_c}"
        )
        agreed += 1

    if str(_REPO_ROOT) not in sys.path:  # the reset oracle lives in tests/
        sys.path.insert(0, str(_REPO_ROOT))
    from tests.test_podem_compiled import assert_reset_matches_full_sweep

    assert_reset_matches_full_sweep(
        CompiledPodem(netlist), faults, label="Rescue "
    )
    print(
        f"check OK: {n_verdicts} random-circuit verdicts, 8 flow "
        f"oracle-coverage checks, {agreed} Rescue verdicts bit-identical "
        f"between compiled and reference PODEM ({skipped} abort-budget "
        f"skips), {len(faults)} Rescue cone-only resets equal to the "
        f"full sweep"
    )


def _print_result(data: dict) -> None:
    print(f"\n=== ATPG flow: {data['workload']} "
          f"({data['netlist']['gates']} gates, "
          f"{data['netlist']['flops']} flops) ===")
    print(f"{data['n_bench_faults']} bench faults "
          f"({data['n_excluded_hard']} hard-tail excluded of "
          f"{data['n_collapsed_faults']} collapsed), backtrack limit "
          f"{data['backtrack_limit']}")
    row = data["flow"]
    print(f"  flow: {row['run_seconds']:8.2f} s   "
          f"{row['n_vectors']} vectors "
          f"({row['vectors_per_sec']:.2f}/s), "
          f"{row['podem_backtracks']} backtracks, "
          f"coverage {100 * row['coverage']:.2f}%")
    screen = data["podem_screen_seconds"]
    print(f"  PODEM screen: compiled {screen['compiled']} s, reference "
          f"{screen['reference']} s "
          f"({data['speedup_compiled_over_reference_podem']}x)")
    print(f"  {data['agreement']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="equivalence gate only (no JSON written)",
    )
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--backtrack-limit", type=int,
                        default=BACKTRACK_LIMIT)
    args = parser.parse_args(argv)
    if args.check:
        check(seed=args.seed)
        return 0
    data = measure(seed=args.seed, backtrack_limit=args.backtrack_limit)
    _print_result(data)
    RESULT_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (pre-merge gate; cheap equivalence + kernel timing)
# ----------------------------------------------------------------------
def test_atpg_backend_equivalence(benchmark):
    check()

    from repro.atpg.podem_compiled import CompiledPodem

    netlist = _build_netlist()
    faults = _fault_list(netlist)
    sample = faults[:: max(1, len(faults) // 30)]
    podem = CompiledPodem(netlist, backtrack_limit=64)
    benchmark(lambda: [podem.generate(f) for f in sample])


if __name__ == "__main__":
    sys.exit(main())
