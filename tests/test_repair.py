"""Tests for the ICI auto-repair subsystem (``repro.repair``).

Covers the acceptance contract: every repairable violation of the
baseline RTL and of a hand-broken Rescue variant gets a verified patch
(patched model passes netcheck, is bit-exact through the packed engine,
and the chosen candidate is area-minimal), and the emitted plan is
bit-identical for any worker count, chunking, or resume history.
"""

import dataclasses
import hashlib
import json
from collections import Counter

import pytest

from repro.core.netcheck import _default_block, check_netlist_ici
from repro.netlist.faults import StuckAt
from repro.netlist.gates import GateType
from repro.netlist.netlist import Netlist
from repro.repair import (
    CANDIDATE_KINDS,
    BaseState,
    NotApplicable,
    PatchInfo,
    RepairSpec,
    apply_candidate,
    build_model,
    patch_model,
    plan_graph_repairs,
    run_repair,
    seed_breaks,
    verify_candidate,
)
from repro.repair.oracle import (
    PatchView,
    _equivalence_stage,
    _isolation_stage,
)
from tests.test_netlist import assert_topological

BASELINE = RepairSpec(model="baseline", tiny=True, n_patterns=96)
BROKEN = RepairSpec(model="rescue-broken", tiny=True, n_patterns=96)


@pytest.fixture(scope="module")
def baseline_result():
    return run_repair(BASELINE, checkpoint=False)


@pytest.fixture(scope="module")
def broken_result():
    return run_repair(BROKEN, checkpoint=False)


# ----------------------------------------------------------------------
# Netlist patch primitives
# ----------------------------------------------------------------------

def _two_block_netlist():
    """b.f observes logic from blocks a and b: one ICI violation."""
    n = Netlist("twoblock")
    x = n.add_input("x")
    y = n.add_input("y")
    ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
    bx = n.add_gate(GateType.OR, [ax, y], component="b/logic")
    n.add_flop(bx, name="b.f", component="b/state")
    n.add_flop(ax, name="a.f", component="a/state")
    return n


class TestPatchPrimitives:
    def test_rewire_gate_preserves_identity(self):
        n = _two_block_netlist()
        g = n.gates[1]
        n.rewire_gate(1, [g.inputs[0], g.inputs[0]])
        assert n.gates[1].gid == 1
        assert n.gates[1].output == g.output
        assert n.gates[1].inputs == (g.inputs[0], g.inputs[0])

    def test_set_flop_d_repoints(self):
        n = _two_block_netlist()
        n.set_flop_d(0, n.flops[1].d_net)
        assert n.flops[0].d_net == n.flops[1].d_net

    def test_copy_isolates_flop_mutation(self):
        n = _two_block_netlist()
        c = n.copy()
        c.flops[0].component = "elsewhere"
        c.set_flop_d(1, c.flops[0].d_net)
        assert n.flops[0].component == "b/state"
        assert n.flops[1].d_net != n.flops[0].d_net
        n.validate()
        c.validate()


# ----------------------------------------------------------------------
# Candidates + oracle on a hand-built violation
# ----------------------------------------------------------------------

class TestCandidates:
    def test_redrive_discharges_and_verifies(self):
        n = _two_block_netlist()
        report = check_netlist_ici(n)
        assert not report.satisfied
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "redrive", observer)
        verdict = verify_candidate(
            base, patched, observer, info.sample_gates, exempt=()
        )
        assert verdict.ok, verdict
        assert check_netlist_ici(patched).satisfied
        assert info.extra_area > 0

    def test_latch_rejected_by_equivalence(self):
        # Staging a foreign net through a flop changes cycle timing, so
        # the functional screen must reject it.
        n = _two_block_netlist()
        report = check_netlist_ici(n)
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, "latch", observer)
        verdict = verify_candidate(
            base, patched, observer, info.sample_gates, exempt=()
        )
        assert not verdict.ok
        assert verdict.stage == "equivalence"

    def test_not_applicable_on_clean_observer(self):
        n = _two_block_netlist()
        with pytest.raises(NotApplicable):
            apply_candidate(n, "redrive", "a.f")

    def test_relabel_requires_single_foreign_block(self):
        n = _two_block_netlist()
        # b.f's cone contains b's own OR gate, so relabel cannot apply.
        with pytest.raises(NotApplicable):
            apply_candidate(n, "relabel", "b.f")


def _relabel_netlist():
    """c.f is written purely by block a: relabel (0 area) must win."""
    n = Netlist("relabel")
    x = n.add_input("x")
    y = n.add_input("y")
    ax = n.add_gate(GateType.AND, [x, y], component="a/logic")
    n.add_flop(ax, name="a.f", component="a/state")
    n.add_flop(ax, name="c.f", component="c/state")
    return n


class TestAreaMinimalChoice:
    def test_relabel_beats_redrive_when_both_verify(self):
        n = _relabel_netlist()
        report = check_netlist_ici(n)
        assert len(report.violations) == 1
        observer = report.violations[0].observer
        base = BaseState.build(n, report, 64, seed=1)
        outcomes = {}
        for kind in ("relabel", "redrive"):
            patched = n.copy()
            info = apply_candidate(patched, kind, observer)
            verdict = verify_candidate(
                base, patched, observer, info.sample_gates, exempt=()
            )
            outcomes[kind] = (verdict.ok, info.extra_area)
        assert outcomes["relabel"] == (True, 0.0)
        assert outcomes["redrive"][0] and outcomes["redrive"][1] > 0
        # choose_actions picks the cheaper verified candidate.
        from repro.repair import choose_actions

        entry = {
            "id": "v", "observer": observer, "observer_block": "c",
            "candidates": [
                {"kind": k, "verified": ok, "stage": "verified",
                 "reason": "", "extra_area": area, "note": ""}
                for k, (ok, area) in outcomes.items()
            ],
        }
        actions, unrepaired = choose_actions([entry])
        assert not unrepaired
        assert actions[0].kind == "relabel"
        assert actions[0].extra_area == 0.0


# ----------------------------------------------------------------------
# Seeded breaks
# ----------------------------------------------------------------------

class TestSeededBreaks:
    def test_breaks_create_violations_deterministically(self):
        n1, breaks1 = build_model(BROKEN)
        n2, breaks2 = build_model(BROKEN)
        assert [b.describe() for b in breaks1] == [
            b.describe() for b in breaks2
        ]
        assert len(breaks1) == BROKEN.n_breaks
        report = check_netlist_ici(n1, exempt_blocks=BROKEN.exempt)
        assert not report.satisfied
        n1.validate()

    def test_clean_rescue_has_nothing_to_break_into(self):
        spec = RepairSpec(model="rescue", tiny=True)
        netlist, breaks = build_model(spec)
        assert breaks == []
        assert check_netlist_ici(
            netlist, exempt_blocks=spec.exempt
        ).satisfied


# ----------------------------------------------------------------------
# Campaign acceptance: baseline + broken rescue fully repaired
# ----------------------------------------------------------------------

class TestRepairCampaign:
    def test_baseline_fully_repaired(self, baseline_result):
        res = baseline_result
        assert res.n_violations > 0
        assert res.unrepaired == []
        assert res.patched_satisfied
        assert res.equivalent
        assert res.extra_area > 0
        counts = res.candidate_counts()
        assert counts["verified"] >= res.n_repaired
        assert counts["generated"] == (
            counts["verified"] + counts["rejected"]
        )

    def test_broken_rescue_restored_to_clean(self, broken_result):
        res = broken_result
        assert res.n_violations > 0
        assert res.unrepaired == []
        assert res.patched_satisfied and res.equivalent
        assert len(res.breaks) == BROKEN.n_breaks

    def test_patched_model_passes_netcheck_and_equivalence(
        self, baseline_result
    ):
        # Re-derive the patched netlist from the plan alone and re-check
        # everything from scratch: the plan is self-sufficient.
        from repro.repair.oracle import _equivalence_stage

        netlist, _ = build_model(BASELINE)
        report = check_netlist_ici(netlist, exempt_blocks=BASELINE.exempt)
        patched, log = patch_model(BASELINE, baseline_result.actions)
        assert len(log) == len(baseline_result.actions)
        assert check_netlist_ici(
            patched, exempt_blocks=BASELINE.exempt
        ).satisfied
        base = BaseState.build(
            netlist, report, BASELINE.n_patterns, BASELINE.seed
        )
        verdict, _, _ = _equivalence_stage(base, patched, BASELINE.seed)
        assert verdict is None
        patched.validate()

    def test_result_json_roundtrip(self, baseline_result):
        from repro.repair import RepairResult

        payload = baseline_result.to_json()
        json.dumps(payload)  # JSON-clean
        restored = RepairResult.from_json(payload)
        assert restored.to_json() == payload
        assert restored.summary() == baseline_result.summary()


class TestDeterminism:
    def test_plan_invariant_to_workers_chunking_resume(
        self, tmp_path, baseline_result
    ):
        serial = baseline_result.to_json()
        parallel = run_repair(
            BASELINE, workers=2, checkpoint=False
        ).to_json()
        assert parallel == serial
        import dataclasses

        rechunked = run_repair(
            dataclasses.replace(BASELINE, chunk_size=5),
            checkpoint=False,
        ).to_json()
        # chunk_size is part of the spec (it shapes shards), so compare
        # everything except the spec-derived identity: the *plan*.
        for key in ("violations", "actions", "unrepaired", "extra_area",
                    "patched_satisfied", "equivalent"):
            assert rechunked[key] == serial[key]
        # Interrupt-and-resume: seed the store with a partial run, then
        # resume; the merged plan must be identical.
        from repro.repair.campaign import REPAIR, repair_items
        from repro.runner import context
        from repro.runner.store import CheckpointStore, config_hash

        store = CheckpointStore(
            "repair", config_hash(dataclasses.asdict(BASELINE)),
            root=tmp_path,
        )
        items = repair_items(BASELINE)
        store.append(0, REPAIR.work(context(REPAIR, BASELINE), items[0]))
        resumed = run_repair(
            BASELINE, resume=True, cache_root=tmp_path
        ).to_json()
        assert resumed == serial


# ----------------------------------------------------------------------
# Local verification against the whole-netlist oracles
# ----------------------------------------------------------------------

def assert_local_matches_full(
    base: BaseState,
    patched: Netlist,
    info: PatchInfo,
    *,
    exempt=(),
    n_isolation_faults: int = 6,
    seed: int = 0,
) -> None:
    """Each local oracle result on one candidate equals the full one.

    The cached order must be a valid order of the patched gates; the
    lint's violators must equal :func:`check_netlist_ici`'s; the
    patched good value of every net, and the equivalence verdict, must
    equal :func:`_equivalence_stage`'s; and every sampled fault must fail
    the same flops as a whole-netlist ``PackedWordSimulator`` walk, so
    the isolation verdict agrees too.
    """
    assert_topological(patched)
    view = PatchView(base, patched)
    full = check_netlist_ici(patched, exempt_blocks=exempt)
    assert view.violators(set(exempt), _default_block) == {
        v.observer for v in full.violations
    }, info.log_line()
    verdict, good = view.equivalence(seed)
    full_verdict, sim, values = _equivalence_stage(base, patched, seed)
    assert verdict == full_verdict, info.log_line()
    for net in range(patched.n_nets):
        local = good[net] if net in good else base.values.int_of(net)
        assert local == values.int_of(net), (info.log_line(), net)
    for gid in info.sample_gates:
        for value in (0, 1):
            fault = StuckAt(net=patched.gates[gid].output, value=value)
            assert view.failing_fids(good, fault) == (
                sim.failing_observations(values, fault)[0]
            ), (info.log_line(), fault.describe())
    args = (info.sample_gates, n_isolation_faults, seed, exempt, None)
    assert _isolation_stage(
        patched, lambda f: view.failing_fids(good, f), *args
    ) == _isolation_stage(
        patched, lambda f: sim.failing_observations(values, f)[0], *args
    ), info.log_line()


def assert_candidates_local_match_full(spec: RepairSpec, limit=None) -> int:
    """Check every candidate of ``spec``'s first ``limit`` violations;
    returns the number of candidates checked."""
    from repro.repair.campaign import REPAIR
    from repro.runner import context

    base = context(REPAIR, spec)["base"]
    checked = 0
    for v in base.report.violations[:limit]:
        if v.observer.startswith("po["):
            continue
        for kind in CANDIDATE_KINDS:
            patched = base.netlist.copy()
            try:
                info = apply_candidate(
                    patched, kind, v.observer, exempt=spec.exempt
                )
            except NotApplicable:
                continue
            assert_local_matches_full(
                base, patched, info, exempt=spec.exempt,
                n_isolation_faults=spec.n_isolation_faults, seed=spec.seed,
            )
            checked += 1
    return checked


class TestLocalVerification:
    @pytest.mark.parametrize("build,observer,kind", [
        (_two_block_netlist, "b.f", "redrive"),
        (_two_block_netlist, "b.f", "latch"),
        (_relabel_netlist, "c.f", "relabel"),
        (_relabel_netlist, "c.f", "redrive"),
    ])
    def test_hand_built_candidates(self, build, observer, kind):
        n = build()
        base = BaseState.build(n, check_netlist_ici(n), 64, seed=1)
        patched = n.copy()
        info = apply_candidate(patched, kind, observer)
        assert_local_matches_full(base, patched, info, seed=1)

    def test_patch_that_reorders_gates(self):
        # Rewiring a gate to a later driver re-sorts the patched order;
        # the local stages then position every gate anew.
        n = _two_block_netlist()
        base = BaseState.build(n, check_netlist_ici(n), 64, seed=1)
        patched = n.copy()
        x = patched.primary_inputs[0]
        nx = patched.add_gate(GateType.NOT, [x], component="a/logic")
        patched.rewire_gate(0, [x, nx])
        order = patched.topo_gate_order()
        assert order != n.topo_gate_order() + [2]
        info = PatchInfo(kind="test", observer="a.f", sample_gates=(0, 2))
        assert_local_matches_full(base, patched, info, seed=1)
        assert not verify_candidate(base, patched, "b.f", (0, 2)).ok

    @pytest.mark.parametrize("model", ["baseline", "rescue-broken"])
    def test_model_candidates(self, model):
        spec = RepairSpec(model=model, n_patterns=96, seed=2)
        assert assert_candidates_local_match_full(spec, limit=4) >= 8


# ----------------------------------------------------------------------
# Plan composition: earlier actions may discharge later violations
# ----------------------------------------------------------------------

class TestComposition:
    # 192 patterns is the campaign default, 96 the bench gate's count;
    # the 28 cases take about 15 s together.
    @pytest.mark.parametrize("n_patterns", [192, 96])
    @pytest.mark.parametrize("seed", range(14))
    def test_rescue_broken_composes(self, seed, n_patterns):
        spec = RepairSpec(model="rescue-broken", seed=seed,
                          n_patterns=n_patterns)
        res = run_repair(spec, checkpoint=False)
        assert res.n_repaired == res.n_violations > 0
        assert not res.unrepaired
        assert res.patched_satisfied and res.equivalent
        _patched, log = patch_model(spec, res.actions)
        assert len(log) == len(res.actions)
        assert res.extra_area == pytest.approx(sum(
            a.extra_area for a, line in zip(res.actions, log)
            if not line.startswith("skip ")
        ))

    def test_discharged_action_is_skipped_and_logged(self):
        spec = RepairSpec(model="rescue-broken", seed=2)
        res = run_repair(spec, checkpoint=False)
        _patched, log = patch_model(spec, res.actions)
        skipped = [line for line in log if line.startswith("skip ")]
        assert skipped
        assert all(
            line.endswith(": discharged by earlier actions")
            for line in skipped
        )


# ----------------------------------------------------------------------
# Verification cost: setup plus compose, never per candidate
# ----------------------------------------------------------------------

class TestVerificationCost:
    def test_no_per_candidate_sort_lint_or_compile(self, monkeypatch):
        from repro.core import netcheck
        from repro.netlist.compiled import CompiledNetlist
        from repro.repair import campaign
        from repro.runner import clear_contexts

        counts: Counter = Counter()

        def counting(key, fn):
            def wrapper(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(Netlist, "_sort_gates",
                            counting("sort", Netlist._sort_gates))
        monkeypatch.setattr(CompiledNetlist, "__init__",
                            counting("compile", CompiledNetlist.__init__))
        for module in (netcheck, campaign):
            monkeypatch.setattr(
                module, "check_netlist_ici",
                counting("lint", module.check_netlist_ici),
            )
        clear_contexts()  # count the setup too
        res = run_repair(dataclasses.replace(BASELINE, seed=11),
                         checkpoint=False)
        assert res.candidate_counts()["generated"] > 200
        # Setup: one sort of the built model, one lint, one compile.
        # Compose: one lint and one compile of the patched model.
        assert counts == {"sort": 1, "lint": 2, "compile": 2}


# ----------------------------------------------------------------------
# ``repro repair --apply`` outputs, pinned byte for byte
# ----------------------------------------------------------------------

class TestApplyOutputPins:
    @pytest.mark.parametrize("args,v_sha,plan_sha", [
        ([],
         "d505ae0d51099f9fe2c1789149e9d18cac60cc1054bdba4e896f0fc04d3df649",
         "14e6dd9303d27bf0ab800bba30ab75b34e6dcfbc2e787046113bc93a1c22b61f"),
        (["--model", "rescue-broken"],
         "eec530eccf5fafef98427f7dc18d8f612ac468b185916a2be107e5199a34ab25",
         "8166756449cfa58c08491ca06e09d496cbe95096079753b9e60dbf8e53c32566"),
    ])
    def test_outputs_match_pins(self, tmp_path, capsys, args, v_sha,
                                plan_sha):
        from repro.cli import main

        prefix = tmp_path / "P"
        code = main(["repair", "--tiny", "--no-checkpoint", *args,
                     "--apply", str(prefix)])
        assert code == 0
        capsys.readouterr()

        def sha(path):
            return hashlib.sha256(path.read_bytes()).hexdigest()

        assert sha(tmp_path / "P.v") == v_sha
        assert sha(tmp_path / "P.plan.json") == plan_sha


# ----------------------------------------------------------------------
# Registry / CLI / service integration
# ----------------------------------------------------------------------

class TestIntegration:
    def test_registry_entry_roundtrip(self):
        from repro.runner.registry import get_campaign

        entry = get_campaign("repair")
        spec = entry.make_spec({"model": "rescue", "exempt": ["chipkill"]})
        assert spec == RepairSpec(model="rescue")
        result = entry.run(spec, checkpoint=False)
        payload = entry.result_to_json(result)
        json.dumps(payload)
        restored = entry.result_from_json(payload)
        assert entry.result_to_json(restored) == payload
        assert "repair" in entry.summarize(restored)

    def test_cli_repair_apply(self, tmp_path, capsys):
        from repro.cli import main

        prefix = str(tmp_path / "patched")
        code = main([
            "repair", "--model", "rescue-broken", "--tiny",
            "--patterns", "96", "--no-checkpoint", "--apply", prefix,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "netcheck PASS" in out and "bit-exact" in out
        verilog = (tmp_path / "patched.v").read_text()
        assert "module repaired_core" in verilog
        plan = json.loads((tmp_path / "patched.plan.json").read_text())
        assert plan["campaign"] == "repair"
        assert plan["spec"]["model"] == "rescue-broken"
        assert plan["result"]["patched_satisfied"]
        assert len(plan["transform_log"]) == len(plan["result"]["actions"])

    def test_cli_run_repair_dispatch(self, capsys):
        from repro.cli import main

        code = main([
            "run", "repair", "--model", "rescue", "--tiny",
            "--no-checkpoint",
        ])
        assert code == 0
        assert "0 violations" in capsys.readouterr().out

    def test_cli_lint_json(self, capsys):
        from repro.cli import main

        code = main(["lint", "--tiny", "--baseline", "--json"])
        assert code == 1  # violations present -> documented exit code
        report = json.loads(capsys.readouterr().out)
        assert report["satisfied"] is False
        assert report["violations"]
        first = report["violations"][0]
        assert first["id"].startswith("ici-")
        assert set(first) == {
            "id", "observer", "observer_block", "blocks", "example_gates"
        }

    def test_cli_lint_json_clean_exit_zero(self, capsys):
        from repro.cli import main

        assert main(["lint", "--tiny", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["satisfied"] is True


class TestViolationIds:
    def test_ids_stable_across_rebuilds(self):
        n1, _ = build_model(BASELINE)
        n2, _ = build_model(BASELINE)
        r1 = check_netlist_ici(n1, exempt_blocks=BASELINE.exempt)
        r2 = check_netlist_ici(n2, exempt_blocks=BASELINE.exempt)
        assert [v.vid for v in r1.violations] == [
            v.vid for v in r2.violations
        ]
        assert len({v.vid for v in r1.violations}) == len(r1.violations)

    def test_report_json_roundtrip(self):
        from repro.core.netcheck import NetIciReport

        n, _ = build_model(BASELINE)
        report = check_netlist_ici(n, exempt_blocks=BASELINE.exempt)
        payload = report.to_json()
        json.dumps(payload)
        restored = NetIciReport.from_json(payload)
        assert restored.to_json() == payload
        assert restored.satisfied == report.satisfied


# ----------------------------------------------------------------------
# Graph-level planning
# ----------------------------------------------------------------------

class TestGraphPlan:
    def test_baseline_graph_plans_clean(self):
        from repro.core import build_baseline_graph, rescue_map_out_groups
        from repro.core.checker import ici_violations

        g = build_baseline_graph(width=2)
        partition = rescue_map_out_groups(2)
        assert ici_violations(g, partition)
        plan = plan_graph_repairs(g, partition)
        assert plan.satisfied
        assert plan.steps
        assert not ici_violations(plan.graph, partition)
        if g.comb_is_acyclic():  # acyclicity must never regress
            assert plan.graph.comb_is_acyclic()
        # Original graph untouched.
        assert ici_violations(g, partition)

    def test_steps_record_cheapest_candidate(self):
        from repro.core import build_baseline_graph, rescue_map_out_groups

        g = build_baseline_graph(width=2)
        plan = plan_graph_repairs(g, rescue_map_out_groups(2))
        for step in plan.steps:
            assert step.considered
            assert step.cost == min(c for _, c in step.considered)


# ----------------------------------------------------------------------
# Scan cache (first-effect disk cache beside the golden prefix)
# ----------------------------------------------------------------------

class TestScanCache:
    def test_scan_cache_roundtrip_and_invalidation(self, tmp_path):
        from repro.inject.goldencache import (
            load_scan, scan_cache_path, scan_key, store_scan,
        )
        from repro.inject.harness import FirstEffect

        scan = {0: FirstEffect(first=12, armed_cycle=3, armed_commits=1)}
        key = scan_key("gkey", 8, 0, "both", None, "uniform")
        store_scan(scan, key, 8, root=tmp_path)
        assert load_scan(key, 8, root=tmp_path) == scan
        # Fault-count mismatch is a miss.
        assert load_scan(key, 9, root=tmp_path) is None
        # Version skew is a miss.
        import pickle

        path = scan_cache_path(key, root=tmp_path)
        payload = pickle.loads(path.read_bytes())
        payload["version"] = -1
        path.write_bytes(pickle.dumps(payload))
        assert load_scan(key, 8, root=tmp_path) is None
        # Corrupt file is a miss, not an error.
        path.write_bytes(b"not a pickle")
        assert load_scan(key, 8, root=tmp_path) is None

    def test_key_separates_fault_samples_and_golden(self):
        from repro.inject.goldencache import scan_key

        base = scan_key("g1", 8, 0, "both", None, "uniform")
        assert scan_key("g2", 8, 0, "both", None, "uniform") != base
        assert scan_key("g1", 9, 0, "both", None, "uniform") != base
        assert scan_key("g1", 8, 1, "both", None, "uniform") != base
        assert scan_key(
            "g1", 8, 0, "both", ["rob.half1"], "uniform"
        ) != base
        assert scan_key("g1", 8, 0, "both", None, "weighted") != base

    def test_injection_campaign_hits_scan_cache(
        self, tmp_path, monkeypatch
    ):
        from repro.inject import InjectionSpec, run_injection
        from repro.runner import clear_contexts
        from repro.telemetry import TELEMETRY

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = InjectionSpec(
            n_faults=6, n_instructions=400, chunk_size=3,
            golden_cache=True,
        )
        cold = run_injection(spec, checkpoint=False)
        assert any(
            p.name.startswith("scan-") for p in tmp_path.iterdir()
        )
        clear_contexts()  # force a cold context build
        TELEMETRY.reset()
        TELEMETRY.enable()
        try:
            warm = run_injection(spec, checkpoint=False)
            counters = dict(TELEMETRY.metrics.counters)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert warm.to_json() == cold.to_json()
        assert counters.get("inject.scan_cache_hits") == 1
        assert counters.get("inject.golden_cache_hits") == 1
