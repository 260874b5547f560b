"""The benchmark's four campaign workloads.

Each workload is a closed loop with one client: campaign ``i`` of a run
is built from the workload seed and ``i`` alone, prepared through the
campaign's public ``prepare_*`` step, run through its registered
``run_*`` entry point with ``workers=1`` and a fresh checkpoint
directory, and checked.  Consecutive campaigns always differ
in their spec, so the campaign modules' worker state never lets a
campaign skip its own setup.

The workload seed varies only inputs that leave the amount of work
unchanged: the isolated fault sample of ``atpg-isolate`` and the oracle
seed of ``repair-verify``.  Inputs whose work varies more than the
benchmark's bounds (fault samples of ``inject-replay``, traces of
``ipc-sweep``, the ATPG seed) follow the campaign index alone, so every
run measures the same work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict
from typing import Any, Callable, Dict, List, Optional


def campaign_seed(workload: str, seed: int, index: int) -> int:
    """The seed of campaign ``index`` in a run with workload ``seed``."""
    blob = f"{workload}/{seed}/{index}".encode()
    return int.from_bytes(hashlib.sha256(blob).digest()[:4], "big")


def spec_key(spec: Any) -> str:
    """Stable short hash of a campaign spec (keys the expected digests)."""
    blob = json.dumps(asdict(spec), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def result_digest(campaign: str, result: Any) -> str:
    """Exact digest of a merged campaign result (its registry JSON form)."""
    from repro.runner.registry import get_campaign

    payload = get_campaign(campaign).result_to_json(result)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class Workload:
    """One named workload: spec factory, setup step, work count, checks."""

    name: str = ""
    campaign: str = ""  # registry name
    why: str = ""
    work_name: str = ""  # the printed name of ``work_per_s``
    work_unit: str = ""  # what ``work`` counts, for the printed table
    #: Typical campaign time in reference seconds (``hostclock.py``).  A
    #: run of ``--seconds S`` is ``round(S / nominal_s)`` campaigns, so
    #: every run of a workload measures the same campaign list.
    nominal_s: float = 0.0
    #: Prepare calls timed per campaign: a step much shorter than the
    #: clock's resolution is repeated and ``setup_s`` is the time per call.
    setup_calls: int = 1

    def campaigns_for(self, seconds: float) -> int:
        """Campaigns in a run measuring about ``seconds`` seconds."""
        return max(1, round(seconds / self.nominal_s))

    def spec(self, seed: int, index: int) -> Any:
        raise NotImplementedError

    def prepare(self, spec: Any) -> Any:
        """The campaign's setup step; its wall time is ``setup_s``."""
        raise NotImplementedError

    def work(self, spec: Any, result: Any) -> float:
        """Units of work the campaign's shards did (for ``work_per_s``)."""
        raise NotImplementedError

    def check(self, spec: Any, result: Any) -> List[str]:
        """Seed-independent invariants; returns the violated ones."""
        raise NotImplementedError

    def setup_stats(self, prepared: Any) -> Dict[str, Any]:
        """Footprint figures of the prepared state, if it has any."""
        return {}


class InjectReplay(Workload):
    name = "inject-replay"
    campaign = "inject"
    why = ("forked suffix replay of injected faults on the full core: "
           "golden run, snapshot arena, restore/rearm and the inject layer")
    work_name = "faults_per_s"
    work_unit = "faults classified per second of shard time"
    nominal_s = 6.0

    def spec(self, seed: int, index: int):
        from repro.inject.campaign import InjectionSpec

        # The same fault samples in every run: a 64-fault campaign's
        # shard time varies by a quarter with its sample (a few hang and
        # SDC faults dominate), more than any change worth measuring.
        return InjectionSpec(
            benchmark="gzip",
            n_instructions=6000,
            counts=(2, 2, 2, 2, 2, 2),
            model="both",
            n_faults=64,
            seed=index,
            chunk_size=4,
        )

    def prepare(self, spec):
        from repro.inject.campaign import prepare_injection

        return prepare_injection(spec)

    def work(self, spec, result):
        return float(result.n)

    def setup_stats(self, prepared):
        golden, _faults = prepared
        return golden.arena.stats()

    def check(self, spec, result):
        bad = []
        if result.n != spec.n_faults:
            bad.append(f"outcomes sum to {result.n}, not {spec.n_faults}")
        by_block = sum(sum(c.values()) for c in result.by_block.values())
        if by_block != spec.n_faults:
            bad.append(f"per-block outcomes sum to {by_block}")
        return bad


class IpcSweep(Workload):
    name = "ipc-sweep"
    campaign = "ipc"
    why = ("straight Core.run simulations with warm-up and no snapshot, "
           "restore or fault: compute-bound gzip beside memory-bound mcf")
    work_name = "sim_kips"
    work_unit = "thousand simulated instructions per second of shard time"
    nominal_s = 6.0
    setup_calls = 1000  # one call lists 14 items in about 40 us

    def spec(self, seed: int, index: int):
        from repro.runner.campaigns import IpcSweepSpec

        # The same traces in every run: at this length mcf's IPC, and
        # with it a sweep's cycle count, varies by a third across trace
        # seeds.
        return IpcSweepSpec(
            benchmarks=("gzip", "mcf"),
            n_instructions=1000,
            warmup=500,
            seed=12345 + index,
            compose=True,
            chunk_size=1,
        )

    def prepare(self, spec):
        # The sweep has no prepare step; its item list is what a run
        # computes before the first shard.
        from repro.runner.campaigns import ipc_sweep_items

        return ipc_sweep_items(spec)

    def work(self, spec, result):
        per_item = spec.n_instructions + spec.warmup
        return len(result.measured) * per_item / 1000.0

    def check(self, spec, result):
        from repro.cpu.params import MachineConfig
        from repro.runner.campaigns import ipc_sweep_items

        width = MachineConfig(rescue=True).core.width
        bad = []
        expected = set(ipc_sweep_items(spec))
        if set(result.measured) != expected:
            bad.append(
                f"{len(result.measured)} items measured, "
                f"expected {len(expected)}"
            )
        for item, ipc in sorted(result.measured.items()):
            if not 0.0 < ipc <= width:
                bad.append(f"IPC {ipc} of {item} outside (0, {width}]")
        return bad


class AtpgIsolate(Workload):
    name = "atpg-isolate"
    campaign = "isolation"
    why = ("gate-level netlist, scan, ATPG and scan-bit isolation of "
           "sampled stuck-at faults, with no cpu or inject work")
    work_name = "isolated_per_s"
    work_unit = "faults isolated per second of shard time"
    nominal_s = 10.0

    def spec(self, seed: int, index: int):
        from repro.runner.campaigns import IsolationSpec

        # One ATPG seed for every campaign of every run: ATPG work varies
        # by seed, so only the fault sample follows the workload seed.
        return IsolationSpec(
            tiny=True,
            atpg_seed=0,
            fault_seed=campaign_seed(self.name, seed, index),
            n_faults=6000,
            backend="word",
            chunk_size=50,
        )

    def prepare(self, spec):
        from repro.runner.campaigns import prepare_isolation

        return prepare_isolation(spec)

    def work(self, spec, result):
        return float(result.inserted)

    def check(self, spec, result):
        bad = []
        if result.inserted != spec.n_faults:
            bad.append(f"{result.inserted} faults inserted")
        if result.correct != result.detected:
            bad.append(
                f"{result.correct} of {result.detected} detected faults "
                f"isolated to their block ({result.ambiguous} ambiguous, "
                f"{result.wrong} wrong)"
            )
        return bad


class RepairVerify(Workload):
    name = "repair-verify"
    campaign = "repair"
    why = ("lint-to-patch repair of the baseline netlist: hundreds of "
           "mutated netlists compiled and checked for equivalence")
    work_name = "violations_per_s"
    work_unit = "violations searched per second of shard time"
    nominal_s = 5.0

    def spec(self, seed: int, index: int):
        from repro.repair.campaign import RepairSpec

        return RepairSpec(
            model="baseline",
            seed=campaign_seed(self.name, seed, index),
        )

    def prepare(self, spec):
        from repro.repair.campaign import prepare_repair

        return prepare_repair(spec)

    def work(self, spec, result):
        return float(result.n_violations)

    def check(self, spec, result):
        bad = []
        if result.n_violations == 0:
            bad.append("no violations found")
        if result.unrepaired or result.n_repaired != result.n_violations:
            bad.append(
                f"{result.n_repaired} of {result.n_violations} "
                f"violations repaired"
            )
        if not result.patched_satisfied:
            bad.append("patched netlist fails netcheck")
        if not result.equivalent:
            bad.append("patched netlist is not equivalent")
        return bad


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (InjectReplay(), IpcSweep(), AtpgIsolate(), RepairVerify())
}


def run_campaign(
    workload: Workload,
    spec: Any,
    cache_root: str,
    span: Optional[Callable[[str], Any]] = None,
) -> Dict[str, Any]:
    """Prepare, run and check one campaign; never raises.

    ``span(name)`` (the traced run's) returns a context manager wrapped
    around the prepare and run steps.  Returns the campaign record with
    raw ``time.perf_counter`` stamps: ``stamps`` = start, end of the
    ``setup_calls`` prepare calls, end of run; ``shards`` = one
    ``[start, end]`` per computed shard.
    """
    import time
    import traceback
    from contextlib import nullcontext

    from repro.runner.registry import get_campaign

    span = span or (lambda name: nullcontext())
    entry = get_campaign(workload.campaign)
    shards: List[List[float]] = []

    def progress(event) -> None:
        if not event.cached:
            end = time.perf_counter()
            shards.append([end - event.seconds, end])

    rec: Dict[str, Any] = {
        "spec": asdict(spec),
        "spec_key": spec_key(spec),
        "ok": False,
    }
    t0 = time.perf_counter()
    try:
        with span("campaign.prepare"):
            for _ in range(workload.setup_calls):
                prepared = workload.prepare(spec)
        t1 = time.perf_counter()
        with span("campaign.run"):
            result = entry.run(
                spec,
                workers=1,
                cache_root=cache_root,
                progress=progress,
            )
        t2 = time.perf_counter()
    except Exception:  # a failed campaign is a counted, reported result
        rec["error"] = traceback.format_exc()
        return rec
    rec.update(
        stamps=[t0, t1, t2],
        shards=shards,
        work=workload.work(spec, result),
        digest=result_digest(workload.campaign, result),
        violations=workload.check(spec, result),
        setup_stats=workload.setup_stats(prepared),
    )
    rec["ok"] = not rec["violations"]
    return rec
