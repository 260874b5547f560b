"""Per-layer metrics of the traced run, and what each should move.

:data:`LAYER_METRICS` is the one list of per-layer metrics: name, unit,
which direction is better, the end-to-end metrics and workloads it
should move, and the workloads that bypass the layer (where a change to
it should move nothing).  ``BENCHMARK.json`` lists the same names,
units and directions; :func:`layer_metrics` computes them from a traced
run's spans, the program's own telemetry counters and the campaign
records.

Conventions: ``*_s`` is seconds per campaign, ``*_calls`` calls per
campaign, ``*_us`` / ``*_ms`` the median duration of one call, and
``*_share`` a ratio whose base the table states.  A ``<layer>.self_s``
metric is that layer's self time per campaign: the time inside its
wrapped calls not covered by a wrapped call of any layer.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, NamedTuple, Sequence, Tuple

IR, IPC, ATPG, REP = (
    "inject-replay", "ipc-sweep", "atpg-isolate", "repair-verify",
)
ALL = (IR, IPC, ATPG, REP)


class LayerMetric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: Tuple[Tuple[str, str], ...]  # (end-to-end metric, workload)
    bypass: Tuple[str, ...]  # workloads that never reach the layer
    about: str = ""


def _m(name, unit, better, moves=(), bypass=(), about=""):
    return LayerMetric(name, unit, better, tuple(moves), tuple(bypass),
                       about)


LAYER_METRICS: Tuple[LayerMetric, ...] = (
    # cpu: the cycle-level core.
    _m("cpu.self_s", "s", "lower",
       [("campaign_s", IPC), ("campaign_s", IR)], [ATPG, REP]),
    _m("cpu.run_self_s", "s", "lower",
       [("work_per_s", IPC), ("work_per_s", IR)], [ATPG, REP]),
    _m("cpu.cycles_per_s", "1/s", "higher",
       [("work_per_s", IPC), ("work_per_s", IR)], [ATPG, REP],
       "core.cycle advance per second of Core.run self time"),
    _m("cpu.snapshot_us", "us", "lower", [("setup_s", IR)],
       [IPC, ATPG, REP]),
    _m("cpu.snapshot_calls", "count", "lower", [("setup_s", IR)],
       [IPC, ATPG, REP]),
    _m("cpu.restore_us", "us", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP]),
    _m("cpu.restore_calls", "count", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP]),
    _m("cpu.rearm_us", "us", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP]),
    _m("cpu.rearm_calls", "count", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP]),
    # workloads: synthetic trace generation.
    _m("workloads.self_s", "s", "lower",
       [("campaign_s", IPC), ("setup_s", IR)], [ATPG, REP]),
    _m("workloads.trace_s", "s", "lower",
       [("campaign_s", IPC), ("setup_s", IR)], [ATPG, REP]),
    # inject: golden run, scan, forked replays, snapshot arena.
    _m("inject.self_s", "s", "lower", [("campaign_s", IR)],
       [IPC, ATPG, REP]),
    _m("inject.golden_s", "s", "lower", [("setup_s", IR)],
       [IPC, ATPG, REP]),
    _m("inject.scan_s", "s", "lower", [("setup_s", IR)], [IPC, ATPG, REP]),
    _m("inject.fault_run_ms_p50", "ms", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP],
       "run_with_fault and ReplaySession.run, one call per replayed fault"),
    _m("inject.fault_run_ms_p90", "ms", "lower",
       [("work_per_s", IR), ("shard_ms_p90", IR)], [IPC, ATPG, REP]),
    _m("inject.arena_append_us", "us", "lower",
       [("setup_s", IR), ("peak_rss_mb", IR)], [IPC, ATPG, REP]),
    _m("inject.arena_get_us", "us", "lower",
       [("setup_s", IR), ("peak_rss_mb", IR)], [IPC, ATPG, REP]),
    _m("inject.arena_ratio", "ratio", "higher",
       [("setup_s", IR), ("peak_rss_mb", IR)], [IPC, ATPG, REP],
       "raw snapshot bytes over compressed bytes (SnapshotArena.stats)"),
    _m("inject.arena_mb", "MB", "lower",
       [("setup_s", IR), ("peak_rss_mb", IR)], [IPC, ATPG, REP],
       "compressed arena bytes of one golden run"),
    _m("inject.scan_skip_share", "share", "higher", [("work_per_s", IR)],
       [IPC, ATPG, REP],
       "never-biting faults synthesized by the scan, of all faults"),
    _m("inject.early_exit_share", "share", "higher", [("work_per_s", IR)],
       [IPC, ATPG, REP],
       "reconvergence early exits, of all replayed faults"),
    _m("inject.session_reuse_share", "share", "higher",
       [("work_per_s", IR)], [IPC, ATPG, REP],
       "rearms of a warm session core, of all replayed faults"),
    # netlist: the packed gate-level engine.
    _m("netlist.self_s", "s", "lower",
       [("campaign_s", ATPG), ("campaign_s", REP)], [IR, IPC]),
    _m("netlist.compile_s", "s", "lower",
       [("campaign_s", REP), ("campaign_s", ATPG)], [IR, IPC],
       "expected to move much more on repair-verify"),
    _m("netlist.compile_calls", "count", "lower", [("campaign_s", REP)],
       [IR, IPC]),
    _m("netlist.good_values_s", "s", "lower", [("campaign_s", REP)],
       [IR, IPC]),
    _m("netlist.good_values_calls", "count", "lower",
       [("campaign_s", REP)], [IR, IPC]),
    _m("netlist.faulty_values_s", "s", "lower", [("campaign_s", ATPG)],
       [IR, IPC]),
    _m("netlist.faulty_values_calls", "count", "lower",
       [("campaign_s", ATPG)], [IR, IPC]),
    _m("netlist.evals_per_s", "1/s", "higher", [("campaign_s", ATPG)],
       [IR, IPC],
       "engine.resim.gate_evals per second of faulty_values time"),
    # atpg: random phase, compiled PODEM, compaction.
    _m("atpg.self_s", "s", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.run_s", "s", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.grade_s", "s", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.grade_calls", "count", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.podem_s", "s", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.podem_targets_per_s", "1/s", "higher",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.compaction_s", "s", "lower",
       [("setup_s", ATPG), ("campaign_s", ATPG)], [IR, IPC, REP]),
    _m("atpg.podem_detected_share", "share", "higher",
       [("setup_s", ATPG)], [IR, IPC, REP],
       "PODEM targets detected, of all targets"),
    _m("atpg.podem_aborted_share", "share", "lower",
       [("setup_s", ATPG)], [IR, IPC, REP],
       "PODEM targets aborted, of all targets"),
    # scan and core: failing-bit collection, isolation, netcheck.
    _m("scan.self_s", "s", "lower", [("campaign_s", ATPG)],
       [IR, IPC, REP]),
    _m("core.self_s", "s", "lower",
       [("campaign_s", ATPG), ("campaign_s", REP)], [IR, IPC]),
    _m("scan.failing_bits_us", "us", "lower", [("campaign_s", ATPG)],
       [IR, IPC, REP]),
    _m("core.isolate_us", "us", "lower", [("campaign_s", ATPG)],
       [IR, IPC, REP]),
    _m("core.netcheck_s", "s", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    # rtl: netlist construction of the tiny models.
    _m("rtl.self_s", "s", "lower", [("setup_s", ATPG), ("setup_s", REP)],
       [IR, IPC]),
    _m("rtl.build_s", "s", "lower", [("setup_s", ATPG), ("setup_s", REP)],
       [IR, IPC]),
    # repair: candidate patches and the three-stage oracle.
    _m("repair.self_s", "s", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    _m("repair.apply_us", "us", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    _m("repair.apply_calls", "count", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    _m("repair.verify_ms", "ms", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    _m("repair.verify_calls", "count", "lower", [("campaign_s", REP)],
       [IR, IPC, ATPG]),
    _m("repair.verified_share", "share", "higher", [("campaign_s", REP)],
       [IR, IPC, ATPG], "verified verdicts, of all verify_candidate calls"),
    _m("repair.rejected_by_stage.netcheck", "count", "lower",
       [("campaign_s", REP)], [IR, IPC, ATPG]),
    _m("repair.rejected_by_stage.equivalence", "count", "lower",
       [("campaign_s", REP)], [IR, IPC, ATPG]),
    _m("repair.rejected_by_stage.isolation", "count", "lower",
       [("campaign_s", REP)], [IR, IPC, ATPG]),
    # runner: sharding and checkpointing around every campaign.
    _m("runner.shards", "count", "lower", [("campaign_s", w) for w in ALL]),
    _m("runner.store_append_us", "us", "lower",
       [("campaign_s", w) for w in ALL]),
    _m("runner.overhead_s", "s", "lower", [("campaign_s", w) for w in ALL],
       about="run_* minus run_shards, per campaign (prepare_* is timed "
             "before run_*)"),
    # telemetry: the cost of tracing itself (reported, not gated).
    _m("telemetry.trace_overhead_pct", "%", "lower",
       about="traced campaign_s against the untraced campaign_s"),
)

#: Layers with a ``<layer>.self_s`` metric (the span-name prefix).  The
#: runner has none: the shard bodies it calls are not wrapped, so its
#: self time would hold every campaign's unwrapped code.
LAYERS = ("cpu", "workloads", "inject", "netlist", "atpg", "scan", "core",
          "rtl", "repair")


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def quantile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive method), 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(
    spans: List[List[Any]],
    durations: List[float],
    self_s: List[float],
    counters: Dict[str, int],
    traced: List[Dict[str, Any]],
    untraced: List[Dict[str, Any]],
) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``spans`` are the tracer's rows with their scaled ``durations`` and
    self times, ``counters`` the program's telemetry counters summed
    over the traced campaigns, ``traced``/``untraced`` the two passes'
    campaign records.
    """
    n = max(1, len(traced))
    dur: Dict[str, List[float]] = defaultdict(list)
    own: Dict[str, float] = defaultdict(float)
    values: Dict[str, List[Any]] = defaultdict(list)
    for row, d, s in zip(spans, durations, self_s):
        name = row[0]
        dur[name].append(d)
        own[name] += s
        values[name].append(row[5])

    def total(name):
        return sum(dur[name])

    def per(name):
        return total(name) / n

    def calls(name):
        return len(dur[name]) / n

    def med(name, scale):
        return _median(dur[name]) * scale

    fault_runs = dur["inject.fault_run"] + dur["inject.session_run"]
    replayed = len(fault_runs)
    podem = values["atpg.podem"]
    verdicts = values["repair.verify"]
    arena = [r["setup_stats"] for r in traced if r.get("setup_stats")]
    cycles = sum(v for v in values["cpu.run"] if v)
    evals = counters.get("engine.resim.gate_evals", 0)
    n_faults = sum(r["spec"].get("n_faults", 0) for r in traced)

    def share(num, den):
        return num / den if den else 0.0

    overhead = (total("campaign.run") - total("runner.run_shards")) / n
    t_med = _median([r["campaign_s"] for r in traced if r["ok"]])
    u_med = _median([r["campaign_s"] for r in untraced if r["ok"]])

    out: Dict[str, float] = {
        "cpu.run_self_s": own["cpu.run"] / n,
        "cpu.cycles_per_s": share(cycles, own["cpu.run"]),
        "cpu.snapshot_us": med("cpu.snapshot", 1e6),
        "cpu.snapshot_calls": calls("cpu.snapshot"),
        "cpu.restore_us": med("cpu.restore", 1e6),
        "cpu.restore_calls": calls("cpu.restore"),
        "cpu.rearm_us": med("cpu.rearm", 1e6),
        "cpu.rearm_calls": calls("cpu.rearm"),
        "workloads.trace_s": per("workloads.trace"),
        "inject.golden_s": per("inject.golden"),
        "inject.scan_s": per("inject.scan"),
        "inject.fault_run_ms_p50": quantile(fault_runs, 50) * 1e3,
        "inject.fault_run_ms_p90": quantile(fault_runs, 90) * 1e3,
        "inject.arena_append_us": med("inject.arena_append", 1e6),
        "inject.arena_get_us": med("inject.arena_get", 1e6),
        "inject.arena_ratio": _median([a["ratio"] for a in arena]),
        "inject.arena_mb": _median(
            [a["compressed_bytes"] / 1e6 for a in arena]
        ),
        "inject.scan_skip_share": share(
            counters.get("inject.scan_skips", 0), n_faults
        ),
        "inject.early_exit_share": share(
            counters.get("inject.early_exits", 0), replayed
        ),
        "inject.session_reuse_share": share(
            counters.get("inject.restore_reuses", 0), replayed
        ),
        "netlist.compile_s": per("netlist.compile"),
        "netlist.compile_calls": calls("netlist.compile"),
        "netlist.good_values_s": per("netlist.good_values"),
        "netlist.good_values_calls": calls("netlist.good_values"),
        "netlist.faulty_values_s": per("netlist.faulty_values"),
        "netlist.faulty_values_calls": calls("netlist.faulty_values"),
        "netlist.evals_per_s": share(evals, total("netlist.faulty_values")),
        "atpg.run_s": per("atpg.run"),
        "atpg.grade_s": per("atpg.grade"),
        "atpg.grade_calls": calls("atpg.grade"),
        "atpg.podem_s": per("atpg.podem"),
        "atpg.podem_targets_per_s": share(
            len(podem), total("atpg.podem")
        ),
        "atpg.compaction_s": per("atpg.compaction"),
        "atpg.podem_detected_share": share(
            podem.count("detected"), len(podem)
        ),
        "atpg.podem_aborted_share": share(
            podem.count("aborted"), len(podem)
        ),
        "scan.failing_bits_us": med("scan.failing_bits", 1e6),
        "core.isolate_us": med("core.isolate", 1e6),
        "core.netcheck_s": per("core.netcheck"),
        "rtl.build_s": per("rtl.build"),
        "repair.apply_us": med("repair.apply", 1e6),
        "repair.apply_calls": calls("repair.apply"),
        "repair.verify_ms": med("repair.verify", 1e3),
        "repair.verify_calls": calls("repair.verify"),
        "repair.verified_share": share(
            verdicts.count("verified"), len(verdicts)
        ),
        "runner.shards": sum(len(r.get("shard_s", ())) for r in traced) / n,
        "runner.store_append_us": med("runner.store_append", 1e6),
        "runner.overhead_s": overhead,
        "telemetry.trace_overhead_pct": (
            (t_med / u_med - 1.0) * 100.0 if u_med else 0.0
        ),
    }
    for stage in ("netcheck", "equivalence", "isolation"):
        out[f"repair.rejected_by_stage.{stage}"] = (
            verdicts.count(stage) / n
        )
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            s for name, s in own.items() if name.split(".")[0] == layer
        ) / n
    return out
