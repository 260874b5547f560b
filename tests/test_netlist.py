"""Unit tests for the gate-level netlist substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.netlist import GateType, NetBuilder, Netlist, NetlistError, Simulator
from repro.netlist.simulate import PackedSimulator


def _tiny_mux_circuit():
    """y = s ? b : a, captured into a flop; also a PO."""
    nl = Netlist("tiny")
    a = nl.add_input("a")
    b = nl.add_input("b")
    s = nl.add_input("s")
    y = nl.add_gate(GateType.MUX2, [a, b, s])
    nl.mark_output(y)
    nl.add_flop(y, name="r0", component="mux_stage")
    return nl, (a, b, s, y)


class TestConstruction:
    def test_new_net_ids_are_sequential(self):
        nl = Netlist()
        assert [nl.new_net() for _ in range(3)] == [0, 1, 2]

    def test_gate_arity_enforced(self):
        nl = Netlist()
        a = nl.add_input("a")
        with pytest.raises(ValueError):
            nl.add_gate(GateType.NOT, [a, a])
        with pytest.raises(ValueError):
            nl.add_gate(GateType.AND, [a])
        with pytest.raises(ValueError):
            nl.add_gate(GateType.MUX2, [a, a])

    def test_unknown_net_rejected(self):
        nl = Netlist()
        with pytest.raises(NetlistError):
            nl.add_gate(GateType.NOT, [42])

    def test_double_drive_detected(self):
        nl = Netlist()
        a = nl.add_input("a")
        y = nl.add_gate(GateType.NOT, [a])
        nl.add_gate(GateType.BUF, [a], output=y)
        with pytest.raises(NetlistError, match="driven by gates"):
            nl.validate()

    def test_combinational_cycle_detected(self):
        nl = Netlist()
        a = nl.add_input("a")
        loop = nl.new_net("loop")
        y = nl.add_gate(GateType.AND, [a, loop])
        nl.add_gate(GateType.BUF, [y], output=loop)
        with pytest.raises(NetlistError, match="levelizable"):
            nl.validate()

    def test_flop_breaks_cycle(self):
        nl = Netlist()
        a = nl.add_input("a")
        f_placeholder = nl.new_net()
        y = nl.add_gate(GateType.XOR, [a, f_placeholder])
        # Proper sequential loop: route y through a flop back to the xor.
        flop = nl.add_flop(y, name="acc")
        nl.add_gate(GateType.BUF, [flop.q_net], output=f_placeholder)
        nl.validate()  # should not raise

    def test_stats_and_components(self):
        nl, _ = _tiny_mux_circuit()
        s = nl.stats()
        assert s["gates"] == 1 and s["flops"] == 1
        assert nl.components() == {"mux_stage"}


class TestScalarSimulation:
    @pytest.mark.parametrize(
        "gtype,ins,expect",
        [
            (GateType.AND, (1, 1), 1),
            (GateType.AND, (1, 0), 0),
            (GateType.OR, (0, 0), 0),
            (GateType.OR, (0, 1), 1),
            (GateType.NAND, (1, 1), 0),
            (GateType.NOR, (0, 0), 1),
            (GateType.XOR, (1, 1), 0),
            (GateType.XOR, (1, 0), 1),
            (GateType.XNOR, (1, 1), 1),
        ],
    )
    def test_two_input_gates(self, gtype, ins, expect):
        nl = Netlist()
        a = nl.add_input("a")
        b = nl.add_input("b")
        y = nl.add_gate(gtype, [a, b])
        nl.mark_output(y)
        sim = Simulator(nl)
        _, po, _ = sim.evaluate({a: ins[0], b: ins[1]})
        assert po[y] == expect

    def test_mux_select(self):
        nl, (a, b, s, y) = _tiny_mux_circuit()
        sim = Simulator(nl)
        _, po, _ = sim.evaluate({a: 1, b: 0, s: 0})
        assert po[y] == 1
        _, po, _ = sim.evaluate({a: 1, b: 0, s: 1})
        assert po[y] == 0

    def test_flop_capture_and_state(self):
        nl, (a, b, s, y) = _tiny_mux_circuit()
        sim = Simulator(nl)
        _, _, nxt = sim.evaluate({a: 1, b: 0, s: 0})
        assert nxt[0] == 1

    def test_run_cycles_accumulator(self):
        """XOR accumulator flips state each cycle the input is 1."""
        nl = Netlist()
        a = nl.add_input("a")
        fb = nl.new_net()
        y = nl.add_gate(GateType.XOR, [a, fb])
        flop = nl.add_flop(y, name="acc")
        nl.add_gate(GateType.BUF, [flop.q_net], output=fb)
        nl.mark_output(y)
        sim = Simulator(nl)
        outs, state = sim.run_cycles([{a: 1}, {a: 1}, {a: 0}, {a: 1}])
        assert [o[y] for o in outs] == [1, 0, 0, 1]
        assert state[flop.fid] == 1

    def test_const_gates(self):
        nl = Netlist()
        one = nl.add_gate(GateType.CONST1, [])
        zero = nl.add_gate(GateType.CONST0, [])
        y = nl.add_gate(GateType.AND, [one, zero])
        nl.mark_output(y)
        _, po, _ = Simulator(nl).evaluate({})
        assert po[y] == 0


class TestPackedSimulation:
    def test_matches_scalar_on_random_logic(self):
        rng = np.random.default_rng(7)
        nl = Netlist("rand")
        nets = [nl.add_input(f"i{k}") for k in range(6)]
        two_in = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
                  GateType.NOR, GateType.XNOR]
        for k in range(40):
            gt = two_in[int(rng.integers(len(two_in)))]
            a, b = rng.choice(len(nets), size=2)
            nets.append(nl.add_gate(gt, [nets[int(a)], nets[int(b)]]))
        nl.mark_output(nets[-1])
        nl.add_flop(nets[-2], name="f")
        scalar = Simulator(nl)
        packed = PackedSimulator(nl)
        patterns = rng.integers(0, 2, size=(17, packed.n_sources)).astype(bool)
        vals = packed.good_values(patterns)
        po, state = packed.capture(vals)
        for p in range(patterns.shape[0]):
            pi = {
                net: int(patterns[p, packed.source_col[net]])
                for net in nl.primary_inputs
            }
            st = {
                f.fid: int(patterns[p, packed.source_col[f.q_net]])
                for f in nl.flops
            }
            _, spo, snxt = scalar.evaluate(pi, st)
            assert bool(po[p, 0]) == bool(spo[nets[-1]])
            assert bool(state[p, 0]) == bool(snxt[0])

    def test_shape_validation(self):
        nl, _ = _tiny_mux_circuit()
        sim = PackedSimulator(nl)
        with pytest.raises(ValueError):
            sim.good_values(np.zeros((4, 99), dtype=bool))


class TestFaultInjection:
    def test_stem_stuck_at_changes_output(self):
        from repro.netlist.faults import StuckAt

        nl, (a, b, s, y) = _tiny_mux_circuit()
        sim = Simulator(nl)
        fault = StuckAt(net=y, value=0)
        _, po, _ = sim.evaluate({a: 1, b: 1, s: 0}, fault=fault)
        assert po[y] == 0

    def test_pin_fault_affects_single_reader(self):
        """A branch SA on one reader pin must not disturb the other reader."""
        from repro.netlist.faults import StuckAt

        nl = Netlist()
        a = nl.add_input("a")
        y1 = nl.add_gate(GateType.BUF, [a])
        y2 = nl.add_gate(GateType.BUF, [a])
        nl.mark_output(y1)
        nl.mark_output(y2)
        sim = Simulator(nl)
        fault = StuckAt(net=a, value=0, gate=0, pin=0)
        _, po, _ = sim.evaluate({a: 1}, fault=fault)
        assert po[y1] == 0 and po[y2] == 1

    def test_packed_faulty_cone_matches_scalar(self):
        from repro.netlist.faults import StuckAt

        rng = np.random.default_rng(3)
        nl = Netlist()
        nets = [nl.add_input(f"i{k}") for k in range(4)]
        for _ in range(20):
            a, b = rng.choice(len(nets), size=2)
            nets.append(
                nl.add_gate(GateType.NAND, [nets[int(a)], nets[int(b)]])
            )
        nl.mark_output(nets[-1])
        scalar = Simulator(nl)
        packed = PackedSimulator(nl)
        patterns = rng.integers(0, 2, size=(8, packed.n_sources)).astype(bool)
        good = packed.good_values(patterns)
        fault = StuckAt(net=nets[6], value=1)
        delta = packed.faulty_values(good, fault)
        po, _ = packed.capture(good, fault=fault, delta=delta)
        for p in range(8):
            pi = {
                net: int(patterns[p, packed.source_col[net]])
                for net in nl.primary_inputs
            }
            _, spo, _ = scalar.evaluate(pi, fault=fault)
            assert bool(po[p, 0]) == bool(spo[nets[-1]])


class TestNetBuilder:
    def test_adder_matches_integer_addition(self):
        bld = NetBuilder(name="adder")
        a = bld.input_word(5, "a")
        b = bld.input_word(5, "b")
        s = bld.adder(a, b)
        bld.output_word(s)
        sim = Simulator(bld.nl)
        for x, y in [(0, 0), (3, 5), (17, 14), (31, 31), (21, 10)]:
            pi = {a[i]: (x >> i) & 1 for i in range(5)}
            pi.update({b[i]: (y >> i) & 1 for i in range(5)})
            _, po, _ = sim.evaluate(pi)
            got = sum(po[s[i]] << i for i in range(5))
            assert got == (x + y) % 32

    def test_increment_wraps(self):
        bld = NetBuilder()
        a = bld.input_word(3, "a")
        inc = bld.increment(a)
        bld.output_word(inc)
        sim = Simulator(bld.nl)
        for x in range(8):
            pi = {a[i]: (x >> i) & 1 for i in range(3)}
            _, po, _ = sim.evaluate(pi)
            got = sum(po[inc[i]] << i for i in range(3))
            assert got == (x + 1) % 8

    def test_eq_w(self):
        bld = NetBuilder()
        a = bld.input_word(4, "a")
        b = bld.input_word(4, "b")
        eq = bld.eq_w(a, b)
        bld.nl.mark_output(eq)
        sim = Simulator(bld.nl)
        for x, y in [(5, 5), (5, 4), (0, 0), (15, 15), (8, 0)]:
            pi = {a[i]: (x >> i) & 1 for i in range(4)}
            pi.update({b[i]: (y >> i) & 1 for i in range(4)})
            _, po, _ = sim.evaluate(pi)
            assert po[eq] == int(x == y)

    def test_popcount(self):
        bld = NetBuilder()
        bits = [bld.nl.add_input(f"b{i}") for i in range(5)]
        total = bld.popcount(bits, 3)
        bld.output_word(total)
        sim = Simulator(bld.nl)
        for mask in range(32):
            pi = {bits[i]: (mask >> i) & 1 for i in range(5)}
            _, po, _ = sim.evaluate(pi)
            got = sum(po[total[i]] << i for i in range(3))
            assert got == bin(mask).count("1") % 8

    def test_priority_select_grants_oldest_first(self):
        bld = NetBuilder()
        reqs = [bld.nl.add_input(f"r{i}") for i in range(4)]
        grants = bld.priority_select(reqs, 2)
        for g in grants:
            bld.output_word(g)
        sim = Simulator(bld.nl)
        pi = {reqs[0]: 0, reqs[1]: 1, reqs[2]: 1, reqs[3]: 1}
        _, po, _ = sim.evaluate(pi)
        # First grant goes to request 1, second to request 2.
        assert [po[g] for g in grants[0]] == [0, 1, 0, 0]
        assert [po[g] for g in grants[1]] == [0, 0, 1, 0]

    def test_priority_select_fewer_requests_than_grants(self):
        bld = NetBuilder()
        reqs = [bld.nl.add_input(f"r{i}") for i in range(3)]
        grants = bld.priority_select(reqs, 3)
        for g in grants:
            bld.output_word(g)
        sim = Simulator(bld.nl)
        pi = {reqs[0]: 0, reqs[1]: 0, reqs[2]: 1}
        _, po, _ = sim.evaluate(pi)
        assert [po[g] for g in grants[0]] == [0, 0, 1]
        assert all(po[g] == 0 for g in grants[1])
        assert all(po[g] == 0 for g in grants[2])

    def test_component_labels_nested(self):
        bld = NetBuilder()
        a = bld.nl.add_input("a")
        with bld.component("issue"):
            with bld.component("old_half"):
                bld.gate(GateType.NOT, a)
        assert bld.nl.gates[0].component == "issue/old_half"

    def test_mux_many_one_hot(self):
        bld = NetBuilder()
        sels = [bld.nl.add_input(f"s{i}") for i in range(3)]
        words = [bld.const_word(v, 4) for v in (3, 12, 9)]
        out = bld.mux_many(sels, words)
        bld.output_word(out)
        sim = Simulator(bld.nl)
        for pick, want in [(0, 3), (1, 12), (2, 9)]:
            pi = {s: int(i == pick) for i, s in enumerate(sels)}
            _, po, _ = sim.evaluate(pi)
            got = sum(po[out[i]] << i for i in range(4))
            assert got == want


# ----------------------------------------------------------------------
# The maintained topological order
# ----------------------------------------------------------------------

def assert_topological(nl: Netlist) -> None:
    """``nl``'s (cached) order lists each gate once, after its drivers."""
    order = nl.topo_gate_order()
    assert sorted(order) == list(range(len(nl.gates)))
    ready = set(nl.source_nets())
    for gid in order:
        g = nl.gates[gid]
        assert all(i in ready for i in g.inputs), (gid, g.inputs)
        ready.add(g.output)


_SHAPES = [
    (GateType.AND, 2), (GateType.OR, 3), (GateType.XOR, 2),
    (GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX2, 3),
]


def _draw_netlist(data) -> Netlist:
    """A random acyclic netlist with primary inputs, flops and gates."""
    nl = Netlist("prop")
    nets = [nl.add_input(f"i{k}") for k in range(data.draw(st.integers(1, 4)))]
    for k in range(data.draw(st.integers(0, 3))):
        nets.append(nl.add_flop(nets[0], name=f"f{k}").q_net)
    for _ in range(data.draw(st.integers(1, 12))):
        gtype, arity = data.draw(st.sampled_from(_SHAPES))
        ins = [data.draw(st.sampled_from(nets)) for _ in range(arity)]
        nets.append(nl.add_gate(gtype, ins))
    for f in nl.flops:
        nl.set_flop_d(f.fid, data.draw(st.sampled_from(nets)))
    return nl


def _draw_edit(data, nl: Netlist) -> None:
    """One random edit; rewires and drives may close a cycle."""
    any_net = st.integers(0, nl.n_nets - 1)
    op = data.draw(st.sampled_from(
        ["add_gate", "add_flop", "set_flop_d", "rewire", "new_net",
         "drive", "check"]
    ))
    if op == "add_gate":
        gtype, arity = data.draw(st.sampled_from(_SHAPES))
        nl.add_gate(gtype, [data.draw(any_net) for _ in range(arity)])
    elif op == "add_flop":
        nl.add_flop(data.draw(any_net))
    elif op == "set_flop_d" and nl.flops:
        fid = data.draw(st.integers(0, len(nl.flops) - 1))
        nl.set_flop_d(fid, data.draw(any_net))
    elif op == "rewire":
        gid = data.draw(st.integers(0, len(nl.gates) - 1))
        arity = len(nl.gates[gid].inputs)
        nl.rewire_gate(gid, [data.draw(any_net) for _ in range(arity)])
    elif op == "new_net":
        nl.new_net()
    elif op == "drive":
        # Drive a floating net: closes a loop when the input reads it.
        driven = {g.output for g in nl.gates} | set(nl.source_nets())
        floating = [n for n in range(nl.n_nets) if n not in driven]
        if floating:
            nl.add_gate(GateType.BUF, [data.draw(any_net)],
                        output=data.draw(st.sampled_from(floating)))
    elif op == "check":
        _assert_order_matches_full_sort(nl)


def _assert_order_matches_full_sort(nl: Netlist) -> None:
    """The maintained order is valid exactly when a full sort succeeds."""
    try:
        nl._sort_gates()
    except NetlistError:
        with pytest.raises(NetlistError):
            nl.topo_gate_order()
        with pytest.raises(NetlistError):
            nl.validate()
        return
    assert_topological(nl)
    nl.validate()


class TestMaintainedOrder:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edits_keep_a_valid_order_or_detect_the_cycle(self, data):
        nl = _draw_netlist(data)
        if data.draw(st.booleans()):
            nl.topo_gate_order()  # start from a cached order
        for _ in range(data.draw(st.integers(1, 12))):
            _draw_edit(data, nl)
        _assert_order_matches_full_sort(nl)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_editing_a_copy_leaves_the_base_alone(self, data):
        base = _draw_netlist(data)
        order = list(base.topo_gate_order())
        gates, flops = list(base.gates), [f.d_net for f in base.flops]
        copy = base.copy()
        for _ in range(data.draw(st.integers(1, 12))):
            _draw_edit(data, copy)
        _assert_order_matches_full_sort(copy)
        assert base.gates == gates
        assert [f.d_net for f in base.flops] == flops
        assert base.topo_gate_order() == order
        assert base._sort_gates()[0] == order
        # The base's caches stay its own: a net the copy created is
        # floating in the base, so reading it there breaks the order.
        while base.n_nets < copy.n_nets:
            base.new_net()
        base.add_gate(GateType.NOT, [base.n_nets - 1])
        _assert_order_matches_full_sort(base)

    def test_fresh_netlist_gets_the_full_sort(self):
        nl, _ = _tiny_mux_circuit()
        nl.add_gate(GateType.NOT, [nl.primary_inputs[0]])
        assert nl.topo_gate_order() == nl._sort_gates()[0]

    def test_rewire_to_a_later_driver_resorts(self):
        nl = Netlist()
        a = nl.add_input("a")
        for _ in range(2):
            nl.add_gate(GateType.NOT, [a])
        first, second = nl.topo_gate_order()
        nl.rewire_gate(first, [nl.gates[second].output])
        assert nl.topo_gate_order() == [second, first]
