"""The :class:`Netlist` container.

A netlist is a set of nets (integer ids), combinational gates, flip-flops,
primary inputs, and primary outputs.  Flop Q nets act as additional sources
("pseudo-primary inputs" in scan-test terms) and flop D nets as additional
observation points ("pseudo-primary outputs"), which is exactly the
full-scan combinational test model the paper assumes (Section 2).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.netlist.gates import Flop, Gate, GateType


class NetlistError(Exception):
    """Raised for structural problems: undriven nets, cycles, double drive."""


class Netlist:
    """A mutable gate-level netlist with levelization and cone queries."""

    def __init__(self, name: str = "netlist") -> None:
        self.name = name
        self.n_nets = 0
        self.net_names: Dict[int, str] = {}
        self.gates: List[Gate] = []
        self.flops: List[Flop] = []
        self.primary_inputs: List[int] = []
        self.primary_outputs: List[int] = []
        # Structure caches.  The topological order survives edits that
        # cannot break it (see the patch primitives); ``_ready`` holds the
        # nets it makes available: sources plus ordered gate outputs.
        self._topo: Optional[List[int]] = None
        self._ready: Optional[Set[int]] = None
        self._driver: Optional[Dict[int, int]] = None
        self._fanout: Optional[Dict[int, List[Tuple[int, int]]]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def new_net(self, name: str = "") -> int:
        """Allocate a fresh net id, optionally with a debug name."""
        nid = self.n_nets
        self.n_nets += 1
        if name:
            self.net_names[nid] = name
        return nid

    def new_nets(self, count: int, prefix: str = "") -> List[int]:
        """Allocate ``count`` nets; named ``prefix[i]`` when a prefix is given."""
        return [
            self.new_net(f"{prefix}[{i}]" if prefix else "") for i in range(count)
        ]

    def add_input(self, name: str = "") -> int:
        """Create a primary input net."""
        nid = self.new_net(name)
        self.primary_inputs.append(nid)
        if self._ready is not None:
            self._ready.add(nid)
        return nid

    def mark_output(self, net: int) -> None:
        """Mark an existing net as a primary output."""
        self._check_net(net)
        self.primary_outputs.append(net)

    def add_gate(
        self,
        gtype: GateType,
        inputs: Sequence[int],
        output: Optional[int] = None,
        component: str = "",
    ) -> int:
        """Add a gate; returns its output net (allocated when not given).

        A gate whose inputs are all sources or outputs of ordered gates is
        appended to the cached topological order; any other gate drops it.
        """
        for net in inputs:
            self._check_net(net)
        if output is None:
            output = self.new_net()
        else:
            self._check_net(output)
        gate = Gate(
            gid=len(self.gates),
            gtype=gtype,
            inputs=tuple(inputs),
            output=output,
            component=component,
        )
        self.gates.append(gate)
        ready = self._ready
        if ready is not None and all(i in ready for i in gate.inputs):
            self._topo.append(gate.gid)
            ready.add(output)
        else:
            self._topo = self._ready = None
        if self._driver is not None:
            self._driver[output] = gate.gid
        if self._fanout is not None:
            for pin, src in enumerate(gate.inputs):
                self._fanout.setdefault(src, []).append((gate.gid, pin))
        return output

    def add_flop(
        self, d_net: int, name: str = "", component: str = ""
    ) -> Flop:
        """Add a D flip-flop capturing ``d_net``; returns the flop (Q is new)."""
        self._check_net(d_net)
        q_net = self.new_net(f"{name}.q" if name else "")
        flop = Flop(
            fid=len(self.flops),
            d_net=d_net,
            q_net=q_net,
            name=name or f"ff{len(self.flops)}",
            component=component,
        )
        self.flops.append(flop)
        if self._ready is not None:
            self._ready.add(q_net)
        return flop

    # ------------------------------------------------------------------
    # Surgical edits (the repair subsystem's patch primitives)
    # ------------------------------------------------------------------
    def rewire_gate(self, gid: int, inputs: Sequence[int]) -> None:
        """Re-point gate ``gid``'s input pins; type and output stay.

        The cached topological order survives only when every new input
        is a source or is driven earlier in that order; otherwise the
        next :meth:`topo_gate_order` re-sorts (and so detects a cycle
        the rewire closed).
        """
        g = self.gates[gid]
        for net in inputs:
            self._check_net(net)
        self.gates[gid] = Gate(
            gid=g.gid,
            gtype=g.gtype,
            inputs=tuple(inputs),
            output=g.output,
            component=g.component,
        )
        if self._topo is not None and not self._precede(inputs, gid):
            self._topo = self._ready = None
        self._fanout = None

    def set_flop_d(self, fid: int, d_net: int) -> None:
        """Re-point flop ``fid``'s D input to ``d_net``."""
        self._check_net(d_net)
        self.flops[fid].d_net = d_net

    def copy(self, name: Optional[str] = None) -> "Netlist":
        """Independent copy; edits to either netlist leave the other alone.

        Gates are immutable and shared; flops (mutable) are duplicated.
        The structure caches are carried over as copies, so a patched
        copy starts from the base's topological order.
        """
        out = Netlist(name or self.name)
        out.n_nets = self.n_nets
        out.net_names = dict(self.net_names)
        out.gates = list(self.gates)
        out.flops = [
            Flop(
                fid=f.fid,
                d_net=f.d_net,
                q_net=f.q_net,
                name=f.name,
                component=f.component,
                scan=f.scan,
                scan_index=f.scan_index,
            )
            for f in self.flops
        ]
        out.primary_inputs = list(self.primary_inputs)
        out.primary_outputs = list(self.primary_outputs)
        if self._topo is not None:
            out._topo = list(self._topo)
            out._ready = set(self._ready)
        if self._driver is not None:
            out._driver = dict(self._driver)
        if self._fanout is not None:
            out._fanout = {
                net: list(pins) for net, pins in self._fanout.items()
            }
        return out

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def driver_of(self, net: int) -> Optional[int]:
        """Gate id driving ``net``; None for PIs, flop Qs, and floating nets."""
        if self._driver is None:
            self._driver = {g.output: g.gid for g in self.gates}
        return self._driver.get(net)

    def fanout_of(self, net: int) -> List[Tuple[int, int]]:
        """List of (gate id, pin index) pairs reading ``net``."""
        if self._fanout is None:
            fan: Dict[int, List[Tuple[int, int]]] = {}
            for g in self.gates:
                for pin, src in enumerate(g.inputs):
                    fan.setdefault(src, []).append((g.gid, pin))
            self._fanout = fan
        return self._fanout.get(net, [])

    def source_nets(self) -> List[int]:
        """All combinational sources: primary inputs plus flop Q nets."""
        return list(self.primary_inputs) + [f.q_net for f in self.flops]

    def observe_nets(self) -> List[int]:
        """All observation points: primary outputs plus flop D nets."""
        return list(self.primary_outputs) + [f.d_net for f in self.flops]

    def topo_gate_order(self) -> List[int]:
        """Gate ids in topological (source-to-sink) order.

        The order is cached and kept across the edits that cannot break
        it, so a patched copy extends its base's order instead of
        re-sorting; the returned list is that cache, not a copy.

        Raises :class:`NetlistError` if the combinational logic contains a
        cycle — combinational cycles break both simulation and the
        single-cycle scan-test model.
        """
        if self._topo is None:
            self._topo, self._ready = self._sort_gates()
        return self._topo

    def _sort_gates(self) -> Tuple[List[int], Set[int]]:
        """The full sort: (gate order, nets it makes available)."""
        seen_net: Set[int] = set(self.source_nets())
        fan_by_net: Dict[int, List[int]] = {}
        for g in self.gates:
            for src in set(g.inputs):
                fan_by_net.setdefault(src, []).append(g.gid)
        order: List[int] = []
        queued: Set[int] = set()
        frontier = [
            g.gid
            for g in self.gates
            if all(i in seen_net for i in g.inputs)
        ]
        queued.update(frontier)
        while frontier:
            gid = frontier.pop()
            order.append(gid)
            out = self.gates[gid].output
            if out in seen_net:
                continue
            seen_net.add(out)
            for reader in fan_by_net.get(out, []):
                if reader in queued:
                    continue
                g = self.gates[reader]
                if all(i in seen_net for i in g.inputs):
                    queued.add(reader)
                    frontier.append(reader)
        # Gates never scheduled either read floating nets or sit on a cycle.
        if len(order) != len(self.gates):
            unscheduled = [g.gid for g in self.gates if g.gid not in queued]
            raise NetlistError(
                f"{self.name}: {len(self.gates) - len(order)} gates not "
                f"levelizable (cycle or floating input); first few: "
                f"{unscheduled[:5]}"
            )
        return order, seen_net

    def validate(self) -> None:
        """Check double-driven nets and levelizability; raise on failure."""
        drivers: Dict[int, int] = {}
        for g in self.gates:
            if g.output in drivers:
                raise NetlistError(
                    f"net {g.output} driven by gates {drivers[g.output]} "
                    f"and {g.gid}"
                )
            drivers[g.output] = g.gid
        for net in self.primary_inputs:
            if net in drivers:
                raise NetlistError(f"primary input net {net} is also driven")
        for f in self.flops:
            if f.q_net in drivers:
                raise NetlistError(f"flop {f.name} Q net {f.q_net} is driven")
        self.topo_gate_order()

    # ------------------------------------------------------------------
    # Cone queries (used by fault simulation and ICI checking)
    # ------------------------------------------------------------------
    def fanout_cone_gates(self, net: int) -> List[int]:
        """Gate ids in the transitive combinational fanout of ``net``,
        returned in topological order."""
        affected_nets: Set[int] = {net}
        cone: Set[int] = set()
        for gid in self.topo_gate_order():
            g = self.gates[gid]
            if any(i in affected_nets for i in g.inputs):
                cone.add(gid)
                affected_nets.add(g.output)
        order = [gid for gid in self.topo_gate_order() if gid in cone]
        return order

    def fanin_cone_sources(self, net: int) -> Set[int]:
        """Source nets (PIs and flop Qs) feeding ``net`` combinationally."""
        sources = set(self.source_nets())
        result: Set[int] = set()
        stack = [net]
        seen: Set[int] = set()
        while stack:
            cur = stack.pop()
            if cur in seen:
                continue
            seen.add(cur)
            if cur in sources:
                result.add(cur)
                continue
            gid = self.driver_of(cur)
            if gid is not None:
                stack.extend(self.gates[gid].inputs)
        return result

    def observers_of_cone(self, net: int) -> Tuple[List[int], List[int]]:
        """(flop fids, PO nets) reachable from ``net`` combinationally."""
        affected: Set[int] = {net}
        for gid in self.fanout_cone_gates(net):
            affected.add(self.gates[gid].output)
        flops = [f.fid for f in self.flops if f.d_net in affected]
        pos = [p for p in self.primary_outputs if p in affected]
        return flops, pos

    # ------------------------------------------------------------------
    def prune_unobservable(self) -> int:
        """Remove gates that reach no primary output or flop D input.

        Synthesis tools sweep such dead logic away; doing the same here
        keeps fault universes (and untestable-fault counts) realistic.
        Returns the number of gates removed.  Gate ids are renumbered.
        """
        observed: Set[int] = set(self.observe_nets())
        keep_net: Set[int] = set(observed)
        # Walk backwards from observation points through drivers.
        stack = list(observed)
        driver = {g.output: g for g in self.gates}
        while stack:
            net = stack.pop()
            gate = driver.get(net)
            if gate is None:
                continue
            for src in gate.inputs:
                if src not in keep_net:
                    keep_net.add(src)
                    stack.append(src)
        kept = [g for g in self.gates if g.output in keep_net]
        removed = len(self.gates) - len(kept)
        if removed:
            self.gates = [
                Gate(
                    gid=i,
                    gtype=g.gtype,
                    inputs=g.inputs,
                    output=g.output,
                    component=g.component,
                )
                for i, g in enumerate(kept)
            ]
            self._invalidate()
        return removed

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Size summary used by the Table 3 reproduction."""
        return {
            "nets": self.n_nets,
            "gates": len(self.gates),
            "flops": len(self.flops),
            "primary_inputs": len(self.primary_inputs),
            "primary_outputs": len(self.primary_outputs),
        }

    def components(self) -> Set[str]:
        """All distinct ICI component labels on gates and flops."""
        labels = {g.component for g in self.gates if g.component}
        labels |= {f.component for f in self.flops if f.component}
        return labels

    # ------------------------------------------------------------------
    def _check_net(self, net: int) -> None:
        if not (0 <= net < self.n_nets):
            raise NetlistError(f"unknown net id {net}")

    def _precede(self, inputs: Sequence[int], gid: int) -> bool:
        """True when each net is a source or driven before ``gid``."""
        order = self._topo
        earlier = set(order[: order.index(gid)])
        for net in inputs:
            driver = self.driver_of(net)
            if driver is None:
                if net not in self._ready:
                    return False
            elif driver not in earlier:
                return False
        return True

    def _invalidate(self) -> None:
        self._topo = None
        self._ready = None
        self._driver = None
        self._fanout = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        s = self.stats()
        return (
            f"<Netlist {self.name}: {s['gates']} gates, {s['flops']} flops, "
            f"{s['nets']} nets>"
        )
