"""Fault-simulation engine benchmark — fault-pattern evaluations/sec.

Grades the full collapsed fault universe of the Rescue core netlist
against a random pattern set with the engine and its oracle:

- ``word``   — :class:`repro.netlist.compiled.PackedWordSimulator`
  (levelized structure-of-arrays, 64 bit-packed patterns per uint64 word,
  event-driven cone re-simulation), the only production engine,
- ``legacy`` — :class:`repro.netlist.simulate.PackedSimulator`
  (dict of per-net numpy bool arrays), the reference oracle, handed to
  the grader through its ``sim=`` argument.

Throughput is ``faults x patterns / seconds``.  Results (and the
oracle-vs-engine speedup) are written to ``BENCH_faultsim.json`` at the
repo root — the repo's perf trajectory record; equivalence with the
oracle is asserted bit-for-bit before any number is reported.

Command line:

```
python benchmarks/bench_faultsim.py           # measure + write JSON
python benchmarks/bench_faultsim.py --check   # <30 s equivalence smoke
python benchmarks/bench_faultsim.py --full    # paper-scale RtlParams()
python benchmarks/bench_faultsim.py --patterns 1024
```

``--check`` is the pre-merge perf gate (see benchmarks/README.md): it
asserts engine/oracle equivalence (detection verdicts + first-detection
indices + captured responses) on a small netlist and exits nonzero on
any mismatch, without touching the JSON.
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

RESULT_PATH = _REPO_ROOT / "BENCH_faultsim.json"


def _build_netlist(full: bool):
    from repro.rtl import RtlParams, build_rescue_rtl
    from repro.scan import insert_scan

    params = RtlParams() if full else RtlParams.tiny()
    model = build_rescue_rtl(params)
    insert_scan(model.netlist)
    return model.netlist


def _fault_list(netlist):
    from repro.atpg.collapse import collapse_faults
    from repro.atpg.faults import full_fault_universe

    return collapse_faults(netlist, full_fault_universe(netlist))


def _assert_equivalent(grade_a, grade_b, label: str) -> None:
    if grade_a.detected != grade_b.detected:
        raise AssertionError(f"{label}: detection maps differ")
    if grade_a.undetected != grade_b.undetected:
        raise AssertionError(f"{label}: undetected lists differ")


def measure(
    full: bool = False, n_patterns: int = 512, seed: int = 0
) -> dict:
    """Time the engine and its oracle on the Rescue core netlist; verify
    agreement."""
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator
    from repro.netlist.simulate import PackedSimulator

    netlist = _build_netlist(full)
    faults = _fault_list(netlist)
    rng = np.random.default_rng(seed)
    sims = {
        "legacy": PackedSimulator(netlist),
        "word": PackedWordSimulator(netlist),
    }
    patterns = rng.integers(
        0, 2, size=(n_patterns, sims["word"].n_sources)
    ).astype(bool)

    # Captured responses must agree bit-for-bit before timing means
    # anything.
    po = {}
    state = {}
    for name, sim in sims.items():
        values = sim.good_values(patterns)
        po[name], state[name] = sim.capture(values)
    assert (po["legacy"] == po["word"]).all(), "PO capture differs"
    assert (state["legacy"] == state["word"]).all(), "state capture differs"

    grades = {}
    timings = {}
    for name, sim in sims.items():
        t0 = time.perf_counter()
        grades[name] = grade_faults(netlist, faults, patterns, sim=sim)
        timings[name] = time.perf_counter() - t0
    _assert_equivalent(grades["legacy"], grades["word"], "measure")

    evals = len(faults) * n_patterns
    backends = {
        name: {
            "grade_seconds": round(timings[name], 4),
            "evals_per_sec": round(evals / timings[name]),
        }
        for name in sims
    }
    return {
        "netlist": netlist.stats(),
        "params": "full" if full else "tiny",
        "n_faults": len(faults),
        "n_patterns": n_patterns,
        "fault_pattern_evals": evals,
        "coverage": round(grades["word"].coverage, 4),
        "backends": backends,
        "speedup_word_over_legacy": round(
            timings["legacy"] / timings["word"], 2
        ),
        "agreement": "bit-exact",
    }


def check(seed: int = 0) -> None:
    """Pre-merge smoke gate: engine/oracle equivalence on a small netlist.

    Covers grading (verdicts + first-detection indices), per-pattern
    detection vectors, and faulty captured responses for every collapsed
    fault, at a pattern count that straddles the word boundary.  Runs in
    well under 30 s.
    """
    from repro.atpg.compaction import detection_matrix
    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator
    from repro.netlist.simulate import PackedSimulator

    netlist = _build_netlist(full=False)
    faults = _fault_list(netlist)
    rng = np.random.default_rng(seed)
    word = PackedWordSimulator(netlist)
    legacy = PackedSimulator(netlist)
    patterns = rng.integers(0, 2, size=(96, word.n_sources)).astype(bool)

    g_word = grade_faults(netlist, faults, patterns, sim=word)
    g_legacy = grade_faults(netlist, faults, patterns, sim=legacy)
    _assert_equivalent(g_legacy, g_word, "check")

    sample = faults[:: max(1, len(faults) // 200)]
    m_word = detection_matrix(netlist, sample, patterns, sim=word)
    m_legacy = detection_matrix(netlist, sample, patterns, sim=legacy)
    for fault in sample:
        assert (m_word[fault] == m_legacy[fault]).all(), (
            f"detection vector differs for {fault.describe()}"
        )
    lv = legacy.good_values(patterns)
    wv = word.good_values(patterns)
    for fault in sample[:60]:
        dl = legacy.faulty_values(lv, fault)
        dw = word.faulty_values(wv, fault)
        po_l, st_l = legacy.capture(lv, fault=fault, delta=dl)
        po_w, st_w = word.capture(wv, fault=fault, delta=dw)
        assert (po_l == po_w).all() and (st_l == st_w).all(), (
            f"faulty capture differs for {fault.describe()}"
        )
    print(
        f"check OK: {len(faults)} faults x {patterns.shape[0]} patterns, "
        f"{len(sample)} detection vectors and {min(60, len(sample))} "
        f"faulty captures bit-exact against the oracle"
    )


def _print_result(data: dict) -> None:
    print(f"\n=== Fault-simulation engines: {data['params']} Rescue core "
          f"({data['netlist']['gates']} gates, "
          f"{data['netlist']['flops']} flops) ===")
    print(f"{data['n_faults']} faults x {data['n_patterns']} patterns "
          f"({data['fault_pattern_evals']} fault-pattern evals), "
          f"coverage {100 * data['coverage']:.1f}%")
    for name, row in data["backends"].items():
        print(f"  {name:>7}: {row['grade_seconds']:8.3f} s   "
              f"{row['evals_per_sec']:>12,} evals/s")
    print(f"  speedup: {data['speedup_word_over_legacy']}x "
          f"(agreement: {data['agreement']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--check", action="store_true",
        help="equivalence smoke gate only (no JSON written)",
    )
    parser.add_argument(
        "--full", action="store_true",
        help="use the paper-scale RtlParams() netlist",
    )
    parser.add_argument("--patterns", type=int, default=512)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.check:
        check(seed=args.seed)
        return 0
    data = measure(
        full=args.full, n_patterns=args.patterns, seed=args.seed
    )
    _print_result(data)
    RESULT_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {RESULT_PATH}")
    return 0


# ----------------------------------------------------------------------
# pytest entry point (pre-merge gate; cheap equivalence + kernel timing)
# ----------------------------------------------------------------------
def test_faultsim_backend_equivalence(benchmark):
    check()

    from repro.atpg.faultsim import grade_faults
    from repro.netlist.compiled import PackedWordSimulator

    netlist = _build_netlist(full=False)
    faults = _fault_list(netlist)[:500]
    sim = PackedWordSimulator(netlist)
    rng = np.random.default_rng(0)
    patterns = rng.integers(0, 2, size=(512, sim.n_sources)).astype(bool)
    benchmark(lambda: grade_faults(netlist, faults, patterns, sim=sim))


if __name__ == "__main__":
    sys.exit(main())
