"""Equivalence and invariant tests for the compiled event-driven PODEM.

The compiled engine must be *verdict-equivalent* to the reference
``Podem``: with a budget generous enough that neither engine aborts,
"untestable" is a complete-search proof and "detected" means a pattern
exists, so the per-fault status must agree exactly even though the two
engines walk different search paths and return different patterns.
Patterns themselves are validated semantically — every one must detect
its target under the fault simulator.
"""

import hashlib
import itertools
import random as pyrandom
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.atpg import (
    CompiledPodem,
    Podem,
    collapse_faults,
    compute_scoap,
    full_fault_universe,
    grade_faults,
    run_atpg,
)
from repro.atpg import flow
from repro.atpg.podem import X, _eval3
from repro.atpg.podem_compiled import SCOAP_INF
from repro.netlist import GateType, Netlist
from repro.netlist.compiled import PackedWordSimulator
from repro.netlist.faults import StuckAt
from repro.netlist.simulate import PackedSimulator, _eval_gate_scalar
from repro.telemetry import TELEMETRY

_KINDS = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
          GateType.NOR, GateType.NOT, GateType.MUX2]


def _circuit(seed: int, n_inputs: int, n_gates: int,
             n_flops: int = 0, n_consts: int = 0) -> Netlist:
    rng = pyrandom.Random(seed)
    nl = Netlist(f"pc{seed}")
    nets = [nl.add_input(f"i{k}") for k in range(n_inputs)]
    for fid in range(n_flops):
        nets.append(nl.add_flop(rng.choice(nets), name=f"f{fid}").q_net)
    for k in range(n_consts):
        kind = GateType.CONST1 if k % 2 else GateType.CONST0
        nets.append(nl.add_gate(kind, []))
    for _ in range(n_gates):
        kind = rng.choice(_KINDS)
        if kind is GateType.NOT:
            nets.append(nl.add_gate(kind, [rng.choice(nets)]))
        elif kind is GateType.MUX2:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets) for _ in range(3)])
            )
        else:
            nets.append(
                nl.add_gate(kind, [rng.choice(nets), rng.choice(nets)])
            )
    nl.mark_output(nets[-1])
    return nl


def _pattern_row(sim, pattern, fill):
    row = np.full((1, sim.n_sources), fill, dtype=bool)
    for net, val in pattern.items():
        row[0, sim.source_col[net]] = bool(val)
    return row


class TestVerdictEquivalence:
    @given(
        seed=st.integers(0, 5000),
        n_gates=st.integers(3, 25),
        n_flops=st.integers(0, 3),
    )
    @settings(max_examples=25, deadline=None)
    def test_status_matches_legacy(self, seed, n_gates, n_flops):
        nl = _circuit(seed, 4, n_gates, n_flops)
        legacy = Podem(nl, backtrack_limit=5_000)
        compiled = CompiledPodem(nl, backtrack_limit=5_000)
        sim = PackedWordSimulator(nl)
        for fault in collapse_faults(nl, full_fault_universe(nl))[:30]:
            r_legacy = legacy.generate(fault)
            r_compiled = compiled.generate(fault)
            assert r_legacy.status == r_compiled.status, (
                f"{fault.describe()}: legacy={r_legacy.status} "
                f"compiled={r_compiled.status}"
            )
            if r_compiled.status != "detected":
                continue
            # The compiled pattern must detect its target under both
            # all-0 and all-1 X-fill (X bits are genuinely don't-care).
            for fill in (False, True):
                row = _pattern_row(sim, r_compiled.pattern, fill)
                grade = grade_faults(nl, [fault], row, sim=sim)
                assert fault in grade.detected, (
                    f"{fault.describe()} not detected by compiled "
                    f"pattern under fill={fill}"
                )

    @given(
        seed=st.integers(0, 5000),
        n_gates=st.integers(4, 40),
        n_flops=st.integers(0, 3),
    )
    @settings(max_examples=20, deadline=None)
    def test_run_atpg_statistics_match_across_backends(
        self, seed, n_gates, n_flops
    ):
        """The flow's statistics, checked against the oracles: every
        collapsed fault the reference PODEM proves untestable is reported
        untestable, and the flow's (batch-dropped, compacted) patterns
        detect every other one under the reference simulator."""
        nl = _circuit(seed, 5, n_gates, n_flops)
        result = run_atpg(nl, seed=7, backtrack_limit=5_000)
        targets = collapse_faults(nl, full_fault_universe(nl))
        oracle = Podem(nl, backtrack_limit=5_000)
        untestable = {
            f for f in targets
            if oracle.generate(f).status == "untestable"
        }
        assert result.n_aborted == 0
        assert result.n_collapsed_faults == len(targets)
        assert result.n_untestable == len(untestable)
        assert result.n_detected == len(targets) - len(untestable)
        grade = grade_faults(
            nl, targets, result.patterns, sim=PackedSimulator(nl)
        )
        assert set(grade.detected) == set(targets) - untestable


class TestBatchedDropping:
    @given(seed=st.integers(0, 3000), n_gates=st.integers(10, 40))
    @settings(max_examples=10, deadline=None)
    def test_batched_equals_per_pattern_dropping(self, seed, n_gates):
        """``DROP_BATCH`` changes which faults PODEM targets, never which
        faults the final pattern set covers."""
        nl = _circuit(seed, 5, n_gates, n_flops=2)
        batched = run_atpg(nl, seed=7, backtrack_limit=5_000)
        with mock.patch.object(flow, "DROP_BATCH", 1):
            per_pattern = run_atpg(nl, seed=7, backtrack_limit=5_000)
        assert batched.n_aborted == 0 and per_pattern.n_aborted == 0
        assert batched.n_detected == per_pattern.n_detected
        assert batched.n_untestable == per_pattern.n_untestable
        targets = collapse_faults(nl, full_fault_universe(nl))
        g_b = grade_faults(nl, targets, batched.patterns)
        g_p = grade_faults(nl, targets, per_pattern.patterns)
        assert set(g_b.detected) == set(g_p.detected)

class TestUndoTrail:
    def test_assign_undo_restores_state_exactly(self):
        nl = _circuit(23, 5, 25, n_flops=2)
        podem = CompiledPodem(nl)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem._reset(fault)
        good0 = list(podem.good)
        faulty0 = list(podem.faulty)
        d0 = set(podem._d_nets)
        sources = sorted(podem._sources)
        marks = []
        for i, src in enumerate(sources[:4]):
            marks.append(podem._assign(src, i % 2))
        # Unwind in reverse order; the base state must come back exactly.
        for mark in reversed(marks):
            podem._undo(mark)
        assert podem.good == good0
        assert podem.faulty == faulty0
        assert podem._d_nets == d0
        assert len(podem._trail) == 0

    def test_incremental_matches_full_resimulation(self):
        """Event-driven propagation must land in the same state a fresh
        reset+replay reaches (cone walk misses nothing)."""
        nl = _circuit(31, 5, 30)
        fault = collapse_faults(nl, full_fault_universe(nl))[3]
        a = CompiledPodem(nl)
        a._reset(fault)
        sources = sorted(a._sources)
        assigns = [(src, (i * 7) % 2) for i, src in enumerate(sources)]
        for src, val in assigns:
            a._assign(src, val)
        # Reference: reset then replay on a fresh instance -> same state
        # regardless of event ordering.
        b = CompiledPodem(nl)
        b._reset(fault)
        for src, val in assigns:
            b._assign(src, val)
        assert a.good == b.good
        assert a.faulty == b.faulty
        assert a._d_nets == b._d_nets


def full_sweep_reset(podem, fault):
    """Reference for the cone-only ``CompiledPodem._reset``: one full
    topological 3-valued pass under the all-X assignment, per target.

    Returns the ``(good, faulty, d_nets)`` base state it reaches for
    ``fault``.
    """
    n = podem.c.n_nets
    good = [X] * n
    faulty = [X] * n
    d_nets = set()
    stem = fault.net if fault.is_stem else -1
    fgate = fault.gate if fault.gate is not None else -1
    fpin = fault.pin if fault.pin is not None else 0
    fval = fault.value
    if stem >= 0:
        faulty[stem] = fval
    for gid in podem.nl.topo_gate_order():
        gtype, ins, out = podem.c.gate_tuples[gid]
        g = _eval3(gtype, [good[i] for i in ins])
        fins = [faulty[i] for i in ins]
        if gid == fgate:
            fins[fpin] = fval
        f = _eval3(gtype, fins)
        if out == stem:
            f = fval
        good[out] = g
        faulty[out] = f
        if g != X and f != X and g != f:
            d_nets.add(out)
    return good, faulty, d_nets


def assert_reset_matches_full_sweep(podem, faults, label=""):
    """Every fault's cone-only reset lands in the full sweep's state.

    Each fault is reset from the dirty state its predecessor's search
    left behind, so the check also covers state carried between targets.
    """
    for fault in faults:
        podem._reset(fault)
        good, faulty, d_nets = full_sweep_reset(podem, fault)
        site = f"{label}{fault.describe()}"
        assert podem.good == good, f"{site}: good state differs"
        assert podem.faulty == faulty, f"{site}: faulty state differs"
        assert podem._d_nets == d_nets, f"{site}: D nets differ"
        assert not podem._trail, f"{site}: reset left a trail"
        podem.generate(fault)


class TestConeOnlyReset:
    def test_reset_matches_full_sweep_on_every_collapsed_fault(self):
        classes = set()
        for seed in range(6):
            nl = _circuit(seed, 5, 30, n_flops=2, n_consts=2)
            faults = collapse_faults(nl, full_fault_universe(nl))
            sources = set(nl.source_nets())
            for f in faults:
                if f.flop is not None:
                    classes.add("flop")
                elif f.gate is not None:
                    classes.add("branch")
                elif f.net in sources:
                    classes.add("source stem")
                elif nl.gates[nl.driver_of(f.net)].gtype in (
                    GateType.CONST0, GateType.CONST1
                ):
                    classes.add("const stem")
                else:
                    classes.add("gate stem")
            assert_reset_matches_full_sweep(
                CompiledPodem(nl), faults, label=f"seed {seed} "
            )
        assert classes == {
            "flop", "branch", "source stem", "const stem", "gate stem"
        }


def _kleene(gtype, ins):
    """Brute-force 3-valued definition: the output is defined iff every
    0/1 completion of the X inputs gives the same value."""
    completions = [[]]
    for v in ins:
        completions = [
            c + [b] for c in completions for b in ((0, 1) if v == X else (v,))
        ]
    outs = {_eval_gate_scalar(gtype, c) for c in completions}
    return outs.pop() if len(outs) == 1 else X


class TestEval3:
    def test_truth_tables_match_kleene_completion(self):
        for gtype in GateType:
            if gtype is GateType.MUX2:
                fan_ins = (3,)
            elif gtype in (GateType.CONST0, GateType.CONST1):
                fan_ins = (0,)
            else:
                fan_ins = range(1, 5)
            for k in fan_ins:
                for ins in itertools.product((0, 1, X), repeat=k):
                    assert _eval3(gtype, list(ins)) == _kleene(gtype, ins), (
                        f"{gtype.value}{ins}"
                    )


_PINNED_COUNTERS = (
    "targets", "backtracks", "cone_evals", "undo_restores", "xpath_prunes"
)


def _atpg_fingerprint(run):
    """(pattern sha256, verdict counts, PODEM search counters) of one
    ATPG run; the counters pin the search path, not just its result."""
    TELEMETRY.enable()
    try:
        with TELEMETRY.collect() as metrics:
            result = run()
    finally:
        TELEMETRY.disable()
        TELEMETRY.reset()
    patterns = np.ascontiguousarray(result.patterns)
    return (
        hashlib.sha256(patterns.tobytes()).hexdigest(),
        (result.n_vectors, result.n_detected, result.n_untestable,
         result.n_aborted),
        {k: metrics.counters.get(f"podem.{k}", 0) for k in _PINNED_COUNTERS},
    )


class TestAtpgBitIdentity:
    """Speed work on PODEM must not change a single decision: the ATPG
    patterns and the search counters are pinned exactly."""

    def test_random_circuit_pinned(self):
        nl = _circuit(12, 5, 60, n_flops=3)
        assert _atpg_fingerprint(lambda: run_atpg(nl, seed=7)) == (
            "7810bfb9f80e6525595956109a374509"
            "670ac19b264c7aa2273815207e61214e",
            (8, 76, 174, 0),
            {"targets": 174, "backtracks": 1263, "cone_evals": 44069,
             "undo_restores": 27602, "xpath_prunes": 312},
        )

    def test_tiny_rescue_pinned(self):
        from repro.rtl import RtlParams, build_rescue_rtl
        from repro.rtl.experiment import generate_tests

        model = build_rescue_rtl(RtlParams.tiny())
        fingerprint = _atpg_fingerprint(
            lambda: generate_tests(model, seed=0).atpg
        )
        assert fingerprint == (
            "ff6479462b09659c223bcdca057c1bd0"
            "f2927843a736add22c5957fd2ab911ba",
            (144, 7157, 437, 122),
            {"targets": 559, "backtracks": 6872, "cone_evals": 725738,
             "undo_restores": 408973, "xpath_prunes": 128},
        )


class TestScoap:
    def test_and_chain_controllability(self):
        nl = Netlist("scoap")
        a = nl.add_input("a")
        b = nl.add_input("b")
        c = nl.add_input("c")
        t = nl.add_gate(GateType.AND, [a, b])
        y = nl.add_gate(GateType.AND, [t, c])
        nl.mark_output(y)
        s = compute_scoap(PackedWordSimulator(nl).compiled)
        assert s.cc0[a] == 1 and s.cc1[a] == 1
        assert s.cc1[t] == 3  # both inputs to 1: 1 + 1 + 1
        assert s.cc0[t] == 2  # one input to 0: min(1, 1) + 1
        assert s.cc1[y] == 5  # cc1(t) + cc1(c) + 1
        assert s.co[y] == 0  # primary output
        # Observing a: through both ANDs, side inputs at 1.
        assert s.co[a] == 0 + 1 + s.cc1[c] + 1 + s.cc1[b]

    def test_constant_nets_are_uncontrollable(self):
        nl = Netlist("const")
        a = nl.add_input("a")
        k = nl.add_gate(GateType.CONST0, [])
        y = nl.add_gate(GateType.OR, [a, k])
        nl.mark_output(y)
        s = compute_scoap(PackedWordSimulator(nl).compiled)
        assert s.cc0[k] == 0
        assert s.cc1[k] >= SCOAP_INF


class TestTelemetryCounters:
    def test_compiled_counters_emitted(self):
        nl = _circuit(3, 4, 15)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem = CompiledPodem(nl)
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                podem.generate(fault)
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        counters = metrics.counters
        assert counters.get("podem.targets") == 1
        assert counters.get("podem.cone_evals", 0) > 0
        assert counters.get("podem.reset_evals", 0) > 0
        assert "podem.undo_restores" in counters
        assert "podem.xpath_prunes" in counters

    def test_reset_evals_counts_the_fault_cone(self):
        """``podem.reset_evals`` is the gates the cone-only reset
        re-evaluates, flushed once per ``generate``."""
        nl = Netlist("cone")
        a = nl.add_input("a")
        b = nl.add_input("b")
        t = nl.add_gate(GateType.AND, [a, b])
        y = nl.add_gate(GateType.NOT, [t])
        nl.mark_output(nl.add_gate(GateType.OR, [y, b]))
        nl.mark_output(nl.add_gate(GateType.BUF, [b]))
        podem = CompiledPodem(nl)
        TELEMETRY.enable()
        try:
            with TELEMETRY.collect() as metrics:
                # a/SA0 forces AND -> 0, NOT -> 1, OR -> 1 under all-X;
                # the BUF reading only b is outside the cone.
                podem.generate(StuckAt(net=a, value=0))
                podem.generate(StuckAt(net=a, value=0))
        finally:
            TELEMETRY.disable()
            TELEMETRY.reset()
        assert metrics.counters.get("podem.targets") == 2
        assert metrics.counters.get("podem.reset_evals") == 2 * 3

    def test_counters_silent_when_disabled(self):
        nl = _circuit(3, 4, 15)
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        podem = CompiledPodem(nl)
        assert not TELEMETRY.enabled
        result = podem.generate(fault)
        assert result.status in ("detected", "untestable", "aborted")


class TestCompiledPodemUnits:
    def test_detects_simple_fault(self):
        nl = Netlist("and2")
        a = nl.add_input("a")
        b = nl.add_input("b")
        y = nl.add_gate(GateType.AND, [a, b])
        nl.mark_output(y)
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=0))
        assert res.detected
        assert res.pattern[a] == 1 and res.pattern[b] == 1

    def test_proves_redundant_fault_untestable(self):
        nl = Netlist("redundant")
        a = nl.add_input("a")
        b = nl.add_input("b")
        t = nl.add_gate(GateType.AND, [a, b])
        y = nl.add_gate(GateType.OR, [a, t])
        nl.mark_output(y)
        res = CompiledPodem(nl).generate(StuckAt(net=t, value=0))
        assert res.status == "untestable"

    def test_flop_pin_fault(self):
        nl = Netlist()
        a = nl.add_input("a")
        y = nl.add_gate(GateType.NOT, [a])
        f = nl.add_flop(y, name="r")
        nl.add_gate(GateType.BUF, [f.q_net])
        res = CompiledPodem(nl).generate(StuckAt(net=y, value=1, flop=f.fid))
        assert res.detected
        assert res.pattern[a] == 1

    def test_shares_prebuilt_compiled_netlist(self):
        nl = _circuit(9, 4, 12)
        sim = PackedWordSimulator(nl)
        podem = CompiledPodem(nl, compiled=sim.compiled)
        assert podem.c is sim.compiled
        fault = collapse_faults(nl, full_fault_universe(nl))[0]
        assert podem.generate(fault).status in (
            "detected", "untestable", "aborted"
        )

    def test_pattern_values_are_binary(self):
        nl = _circuit(17, 5, 20)
        podem = CompiledPodem(nl)
        for fault in collapse_faults(nl, full_fault_universe(nl))[:10]:
            res = podem.generate(fault)
            if res.detected:
                assert all(v in (0, 1) for v in res.pattern.values())
                assert all(net in podem._sources for net in res.pattern)
