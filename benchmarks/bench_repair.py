"""Auto-repair benchmark — verified-patch and plan-determinism gate.

Runs the ``repair`` campaign on the baseline RTL and on a hand-broken
Rescue variant, records the plan (violations found, candidates searched,
area added, verification outcome), and wall clock.  The CI gate
(``--check``) asserts the subsystem's headline properties:

1. **Every repair verifies** — the composed patched model passes the
   gate-level ICI netcheck and is bit-exact through the packed
   equivalence screen, with no unrepaired violations on either model.
2. **Plan determinism** — the emitted plan is bit-identical between
   serial and multi-worker execution, across a different chunking, and
   across a checkpoint/resume cycle.
3. **Local verification is exact** — for every candidate of both models
   at oracle seeds 0 and 2, the cone-local lint, equivalence and
   isolation results equal ``check_netlist_ici``, the whole-netlist
   equivalence screen and a whole-netlist ``PackedWordSimulator`` fault
   walk, and the patched copy's cached order is a valid topological
   order of its gates.

Gates 1 and 2 run ``baseline`` at seed 0 and ``rescue-broken`` at
seeds 0 and 2 (seed 2's plan has actions that earlier actions
discharge).

Results land in ``BENCH_repair.json`` at the repo root.

Command line:

```
python benchmarks/bench_repair.py                 # measure + write JSON
python benchmarks/bench_repair.py --check         # CI gate, no JSON
python benchmarks/bench_repair.py --patterns 256 --workers 4
```
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

RESULT_PATH = _REPO_ROOT / "BENCH_repair.json"


def _assert_invariance(spec, workers: int):
    """Serial, multi-worker, re-chunked, and resumed runs must agree."""
    from dataclasses import replace

    from repro.repair import run_repair

    serial = run_repair(spec, workers=1, checkpoint=False)
    parallel = run_repair(spec, workers=workers, checkpoint=False)
    if serial.to_json() != parallel.to_json():
        raise AssertionError(
            f"{workers}-worker repair plan differs from serial "
            f"({spec.model})"
        )
    rechunked = run_repair(
        replace(spec, chunk_size=spec.chunk_size + 3),
        workers=workers,
        checkpoint=False,
    )
    r, s = rechunked.to_json(), serial.to_json()
    for key in ("violations", "actions", "unrepaired", "extra_area",
                "patched_satisfied", "equivalent"):
        if r[key] != s[key]:
            raise AssertionError(
                f"re-chunked repair plan differs from serial on "
                f"{key!r} ({spec.model})"
            )
    with tempfile.TemporaryDirectory() as cache:
        fresh = run_repair(spec, workers=workers, cache_root=cache)
        resumed = run_repair(
            spec, workers=1, cache_root=cache, resume=True
        )
    if (fresh.to_json() != resumed.to_json()
            or fresh.to_json() != serial.to_json()):
        raise AssertionError(
            f"checkpoint/resume changed the repair plan ({spec.model})"
        )
    return serial


def _assert_verified(result, spec) -> None:
    """Every violation repaired; the composed patch re-verifies."""
    from repro.core.netcheck import check_netlist_ici
    from repro.repair import BaseState, build_model, patch_model
    from repro.repair.oracle import _equivalence_stage

    if result.unrepaired:
        raise AssertionError(
            f"{spec.model}: {len(result.unrepaired)} violations "
            f"unrepaired: {result.unrepaired}"
        )
    if not result.patched_satisfied:
        raise AssertionError(
            f"{spec.model}: patched model still violates ICI"
        )
    if not result.equivalent:
        raise AssertionError(
            f"{spec.model}: patched model not bit-exact vs base"
        )
    # Independent re-derivation from the plan alone.
    netlist, _breaks = build_model(spec)
    report = check_netlist_ici(netlist, exempt_blocks=spec.exempt)
    patched, _log = patch_model(spec, result.actions)
    if not check_netlist_ici(
        patched, exempt_blocks=spec.exempt
    ).satisfied:
        raise AssertionError(
            f"{spec.model}: re-applied plan fails netcheck"
        )
    base = BaseState.build(netlist, report, spec.n_patterns, spec.seed)
    verdict, _sim, _values = _equivalence_stage(base, patched, spec.seed)
    if verdict is not None:
        raise AssertionError(
            f"{spec.model}: re-applied plan fails equivalence: "
            f"{verdict.reason}"
        )


def _model_row(result, seconds: float) -> dict:
    counts = result.candidate_counts()
    kinds: dict = {}
    for a in result.actions:
        kinds[a.kind] = kinds.get(a.kind, 0) + 1
    return {
        "model": result.model,
        "seconds_all_runs": round(seconds, 4),
        "n_observers": result.n_observers,
        "n_violations": result.n_violations,
        "n_repaired": result.n_repaired,
        "n_unrepaired": len(result.unrepaired),
        "candidates_generated": counts["generated"],
        "candidates_verified": counts["verified"],
        "candidates_rejected": counts["rejected"],
        "actions_by_kind": kinds,
        "base_area": round(result.base_area, 4),
        "extra_area": round(result.extra_area, 4),
        "area_overhead_pct": round(
            100.0 * result.extra_area / result.base_area, 4
        ) if result.base_area else 0.0,
        "patched_satisfied": result.patched_satisfied,
        "equivalent": result.equivalent,
        "seeded_breaks": list(result.breaks),
    }


def measure(workers: int = 4, n_patterns: int = 192,
            seed: int = 0) -> dict:
    """Repair both violation-bearing models and record the plans."""
    from repro.repair import RepairSpec

    rows = []
    for model in ("baseline", "rescue-broken"):
        spec = RepairSpec(
            model=model, tiny=True, n_patterns=n_patterns, seed=seed
        )
        t0 = time.perf_counter()
        result = _assert_invariance(spec, workers)
        seconds = time.perf_counter() - t0
        _assert_verified(result, spec)
        rows.append(_model_row(result, seconds))

    host_cpus = os.cpu_count() or 1
    return {
        "campaign": (
            "repair: verified ICI patch search — candidates (relabel / "
            "cone redrive / latch staging) checked by netcheck + "
            "bit-exact packed equivalence + stuck-at isolation sample"
        ),
        "n_patterns": n_patterns,
        "workers": workers,
        "host_cpus": host_cpus,
        "models": rows,
        "agreement": (
            "plan bit-exact across workers/chunking/resume; every "
            "violation repaired and the composed patch re-verifies "
            "from the plan alone on both models"
        ),
    }


def check(workers: int = 2) -> None:
    """CI gate: verified repair + plan determinism on small specs, and
    local-vs-full oracle agreement on every candidate."""
    from repro.repair import RepairSpec

    if str(_REPO_ROOT) not in sys.path:  # the comparison lives in tests/
        sys.path.insert(0, str(_REPO_ROOT))
    from tests.test_repair import assert_candidates_local_match_full

    summaries = []
    for model, seed in (("baseline", 0), ("rescue-broken", 0),
                        ("rescue-broken", 2)):
        spec = RepairSpec(
            model=model, tiny=True, n_patterns=96, chunk_size=4, seed=seed
        )
        result = _assert_invariance(spec, workers)
        _assert_verified(result, spec)
        summaries.append(
            f"{model} seed {seed}: {result.n_repaired}/"
            f"{result.n_violations} repaired"
        )
    checked = 0
    for model in ("baseline", "rescue-broken"):
        for seed in (0, 2):
            checked += assert_candidates_local_match_full(RepairSpec(
                model=model, tiny=True, n_patterns=96, chunk_size=4,
                seed=seed,
            ))
    print(
        "repair check OK: "
        + "; ".join(summaries)
        + f"; {workers}-worker/re-chunked/resume plans bit-identical "
        "to serial, composed patches pass netcheck + bit-exact "
        f"equivalence; {checked} candidates' local netcheck, "
        "equivalence and isolation equal the whole-netlist oracles"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true",
                        help="verified-repair/determinism gate, no JSON "
                             "written")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--patterns", type=int, default=192,
                        help="equivalence patterns per candidate")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.check:
        check(workers=min(args.workers, 2))
        return 0

    result = measure(
        workers=args.workers, n_patterns=args.patterns, seed=args.seed
    )
    RESULT_PATH.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result, indent=1))
    print(f"wrote {RESULT_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
