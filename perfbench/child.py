"""One workload pass in a fresh process (started by ``run.py``).

Runs campaigns 0..N-1 of a workload back to back, untraced or
(``--trace``) under the span tracer with the program's telemetry
counters on, and writes one JSON record to ``--out``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--campaigns", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    root = os.getcwd()
    scratch = tempfile.mkdtemp(
        prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench")
    )
    # Every on-disk cache of the program starts empty in this pass.
    os.environ["REPRO_CACHE_DIR"] = scratch
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        record = run_pass(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    with open(args.out, "w") as f:
        json.dump(record, f)
    return 0


def run_pass(args, scratch: str) -> dict:
    from hostclock import HostClock
    from workloads import WORKLOADS, run_campaign

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        from repro.telemetry import TELEMETRY
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
        TELEMETRY.reset()
        TELEMETRY.enable()
    campaigns = []
    clock = HostClock()
    clock.start()
    try:
        for index in range(args.campaigns):
            # A fresh process starts with no garbage: collect the last
            # campaign's here, not inside the next campaign's timing.
            gc.collect()
            spec = workload.spec(args.seed, index)
            cache_root = os.path.join(scratch, f"campaign-{index}")
            if tracer is not None:
                tracer.campaign = index
            rec = run_campaign(
                workload, spec, cache_root,
                span=tracer.span if tracer is not None else None,
            )
            rec["index"] = index
            campaigns.append(rec)
    finally:
        clock.stop()
        if tracer is not None:
            tracer.uninstall()
    for rec in campaigns:
        if "stamps" not in rec:
            continue
        t0, t1, t2 = rec["stamps"]
        # A campaign makes one prepare call; the repeats only time it.
        setup = clock.scaled(t0, t1) / workload.setup_calls
        rec["setup_s"] = setup
        rec["campaign_s"] = setup + clock.scaled(t1, t2)
        rec["wall_s"] = t2 - t0
        rec["shard_s"] = [clock.scaled(a, b) for a, b in rec["shards"]]
    record = {
        "campaigns": campaigns,
        "probe_ms": [p * 1e3 for p in clock.probes],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    if tracer is not None:
        TELEMETRY.disable()
        record["counters"] = dict(TELEMETRY.metrics.counters)
        record["leftovers"] = tracer.leftovers()
        durations = [clock.scaled(row[1], row[2]) for row in tracer.spans]
        record["spans"] = tracer.spans
        record["durations"] = durations
        record["self_s"] = tracer.self_times(durations)
    return record


if __name__ == "__main__":
    sys.exit(main())
