"""The campaign benchmark: one command, four workloads.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload inject-replay --seed 1 \\
        --seconds 20 --trace 0

Each workload is a closed loop with one client issuing registered
campaigns back to back through their public ``prepare_*``/``run_*``
entry points (``workers=1``, a fresh checkpoint directory, no resume,
golden cache off), in a fresh process (``child.py``).  A run is a fixed
number of campaigns, about ``--seconds`` of work on the reference host
(``Workload.nominal_s``).  Every campaign's merged result is checked
(``workloads.py``) and, where ``expected.json`` records its spec,
digested and compared exactly.  Every reported time is in reference
seconds (``hostclock.py``); the records keep the wall times too.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the
campaigns of half the window twice, in two fresh processes: untraced,
then traced (``spans.py``), checks that both passes give the
same result digests and that every wrapped function is restored, and
reports the per-layer metrics of ``layers.py``.

Human-readable lines go to standard output; the last line is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``.  The full
record — provenance, campaign specs, per-campaign figures and, when
traced, every span — is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import LAYER_METRICS, layer_metrics, quantile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Per-pass time limit of a child process, in seconds.
CHILD_TIMEOUT = 160.0


def provenance(root: Path) -> Dict[str, Any]:
    """What ties a record to a host and a source tree."""
    sha = None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "host_cpus": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


def run_child(
    root: Path, out: Path, workload: str, seed: int, extra: List[str]
) -> Dict[str, Any]:
    """Run one pass in a fresh process and return its record."""
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--out", str(out), *extra,
    ]
    # The child's own output goes to stderr: stdout ends with the result.
    subprocess.run(
        cmd, cwd=root, stdout=sys.stderr, timeout=CHILD_TIMEOUT, check=True
    )
    with open(out) as f:
        record = json.load(f)
    out.unlink()
    return record


def check_campaigns(
    campaigns: List[Dict[str, Any]], expected: Dict[str, str]
) -> None:
    """Fold the expected-digest comparison into each campaign's ``ok``."""
    for c in campaigns:
        want = expected.get(c["spec_key"])
        c["expected"] = (
            "unrecorded" if want is None or not c.get("digest")
            else "match" if want == c["digest"] else "MISMATCH"
        )
        if c["expected"] == "MISMATCH":
            c["ok"] = False
            c.setdefault("violations", []).append("digest differs from "
                                                  "expected.json")


def end_to_end(
    workload: Any, record: Dict[str, Any]
) -> Dict[str, Tuple[float, str, str]]:
    """End-to-end metrics of one untraced pass: (value, unit, note)."""
    ok = [c for c in record["campaigns"] if c["ok"]]
    shards = [s for c in ok for s in c["shard_s"]]
    shard_time = sum(shards)
    work = sum(c["work"] for c in ok)
    return {
        "campaign_s": (statistics.median(c["campaign_s"] for c in ok),
                       "s", f"median of {len(ok)} campaigns"),
        "setup_s": (statistics.median(c["setup_s"] for c in ok),
                    "s", f"median of {len(ok)} campaigns"),
        "work_per_s": (work / shard_time, "1/s",
                       f"{workload.work_name}: {work:g} units over "
                       f"{shard_time:.3f} s of shard time"),
        "shard_ms_p50": (quantile(shards, 50) * 1e3, "ms",
                         f"{len(shards)} shards"),
        "shard_ms_p90": (quantile(shards, 90) * 1e3, "ms",
                         f"{len(shards)} shards"),
        "peak_rss_mb": (record["peak_rss_mb"], "MB",
                        "peak RSS of the workload process"),
    }


def print_campaigns(label: str, campaigns: List[Dict[str, Any]]) -> None:
    for c in campaigns:
        if "digest" not in c:
            status = "RAISED " + c["error"].strip().splitlines()[-1]
        else:
            status = "ok" if c["ok"] else "FAILED " + "; ".join(
                c["violations"]
            )
            status += (
                f"  {c['campaign_s']:.3f} s (setup {c['setup_s']:.4f} s,"
                f" wall {c['wall_s']:.3f} s)"
                f"  {len(c['shard_s'])} shards"
                f"  digest {c['digest'][:12]} ({c['expected']})"
            )
        print(f"  {label} campaign {c['index']}: {status}")


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(
        description="Campaign benchmark (see the module docstring)."
    )
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: run from the root of a source checkout "
              "(src/repro not found)", file=sys.stderr)
        return 2
    declared = json.loads((root / "BENCHMARK.json").read_text())
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workload = WORKLOADS[args.workload]
    expected = json.loads((HERE / "expected.json").read_text()).get(
        args.workload, {}
    )
    record: Dict[str, Any] = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "provenance": provenance(root),
    }
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("  " + " ".join(f"{k}={v}" for k, v in
                          record["provenance"].items()))

    # Traced runs split the window between the untraced and traced pass.
    n = workload.campaigns_for(args.seconds / (2 if args.trace else 1))
    plain = run_child(root, out_dir / f"{stem}.plain.json", args.workload,
                      args.seed, ["--campaigns", str(n)])
    passes = {"plain": plain}
    if args.trace:
        traced = run_child(root, out_dir / f"{stem}.traced.json",
                           args.workload, args.seed,
                           ["--campaigns", str(n), "--trace"])
        passes["traced"] = traced
    for label, rec in passes.items():
        check_campaigns(rec["campaigns"], expected)
        print_campaigns(label, rec["campaigns"])

    all_campaigns = [c for rec in passes.values() for c in rec["campaigns"]]
    attempted = len(all_campaigns)
    failed = sum(not c["ok"] for c in all_campaigns)
    problems: List[str] = []
    if args.trace:
        pairs = zip(plain["campaigns"], traced["campaigns"])
        diff = [p["index"] for p, t in pairs
                if p.get("digest") != t.get("digest")]
        if diff or len(plain["campaigns"]) != len(traced["campaigns"]):
            problems.append(f"traced digests differ on campaigns {diff}")
        if traced["leftovers"]:
            problems.append(f"wrappers left behind: {traced['leftovers']}")
    metrics: Dict[str, Dict[str, Any]] = {}
    if failed == attempted:
        problems.append("no campaign succeeded")
    elif not args.trace:
        table = end_to_end(workload, plain)
        for name, (value, unit, note) in table.items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:14s} {value:14.6f} {unit:5s} {note}")
        print(f"  {'work unit':14s} {workload.work_unit}")
    else:
        table = layer_metrics(
            traced["spans"], traced["durations"], traced["self_s"],
            traced["counters"],
            traced["campaigns"], plain["campaigns"],
        )
        for m in LAYER_METRICS:
            metrics[m.name] = {"value": table[m.name], "unit": m.unit}
            if args.workload in m.bypass:
                note = "bypassed here: a change should not move it"
            else:
                note = "moves " + (", ".join(
                    f"{e} on {w}" for e, w in m.moves) or "nothing gated")
            if m.about:
                note += f" [{m.about}]"
            print(f"  {m.name:36s} {table[m.name]:16.6f} {m.unit:5s} "
                  f"{note}")
    print(f"  {'fail_share':14s} {failed / attempted:14.6f} "
          f"{failed} of {attempted} campaigns failed")
    kind = "per_layer" if args.trace else "end_to_end"
    declared_units = {m["name"]: m["unit"] for m in declared[kind]}
    if metrics and declared_units != {
        name: m["unit"] for name, m in metrics.items()
    }:
        problems.append(f"metrics differ from BENCHMARK.json {kind}")
    for p in problems:
        print(f"  PROBLEM: {p}")

    record.update(
        passes={k: {kk: vv for kk, vv in v.items()
                    if kk not in ("spans", "durations", "self_s")}
                for k, v in passes.items()},
        problems=problems,
        metrics=metrics,
    )
    with open(out_dir / f"{stem}.json", "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(out_dir / f"{stem}.spans.json", "w") as f:
            json.dump({"fields": ["name", "start", "end", "parent",
                                  "campaign", "value"],
                       "spans": traced["spans"],
                       "durations": traced["durations"],
                       "self_s": traced["self_s"]}, f)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
