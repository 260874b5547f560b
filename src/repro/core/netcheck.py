"""Gate-level ICI verification — a lint for testable-by-construction RTL.

The component-graph checker (:mod:`repro.core.checker`) reasons about a
design's *intended* structure; this module verifies the property on the
actual gates: a netlist satisfies ICI at block granularity iff every
observation point (flop D input or primary output) has a combinational
fan-in cone whose labeled gates all belong to one map-out block.

When that holds, a failing scan bit implicates exactly its writer block —
the invariant the isolation table relies on.  Violations are reported
per observation point with the offending blocks and example gates, which
is what a designer needs to decide between cycle splitting, privatization,
or rotation.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.netlist.gates import Gate
from repro.netlist.netlist import Netlist


def _default_block(component: str) -> str:
    return component.split("/", 1)[0] if component else ""


@dataclass
class ConeViolation:
    """One observation point whose cone spans several blocks."""

    observer: str  # flop name or "po[i]"
    observer_block: str
    blocks: Tuple[str, ...]
    example_gates: Tuple[int, ...]

    @property
    def vid(self) -> str:
        """Stable violation id: a hash of (observer, cone blocks).

        Independent of gate numbering and violation ordering, so reruns
        of the checker — and the repair subsystem's plans — refer to the
        same violation by the same id.
        """
        text = f"{self.observer}|{self.observer_block}|" + ",".join(
            sorted(self.blocks)
        )
        return "ici-" + hashlib.sha1(text.encode()).hexdigest()[:10]

    def describe(self) -> str:
        return (
            f"{self.observer} (block {self.observer_block or '?'}) reads "
            f"in-cycle from blocks {', '.join(self.blocks)}; e.g. gates "
            f"{list(self.example_gates)}"
        )

    def to_json(self) -> Dict[str, Any]:
        return {
            "id": self.vid,
            "observer": self.observer,
            "observer_block": self.observer_block,
            "blocks": list(self.blocks),
            "example_gates": list(self.example_gates),
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "ConeViolation":
        return cls(
            observer=d["observer"],
            observer_block=d["observer_block"],
            blocks=tuple(d["blocks"]),
            example_gates=tuple(d["example_gates"]),
        )


@dataclass
class NetIciReport:
    """Result of gate-level ICI verification."""

    satisfied: bool
    violations: List[ConeViolation] = field(default_factory=list)
    checked_observers: int = 0
    cone_blocks: Dict[str, Set[str]] = field(default_factory=dict)
    # Per net, the non-exempt blocks feeding it in-cycle (the sweep's
    # state; a patch re-derives only the nets it can change).
    net_blocks: Dict[int, frozenset] = field(default_factory=dict)

    def describe(self) -> str:
        if self.satisfied:
            return (
                f"gate-level ICI holds: {self.checked_observers} "
                "observation points, each fed by a single block"
            )
        lines = [
            f"gate-level ICI violated at {len(self.violations)} of "
            f"{self.checked_observers} observation points:"
        ]
        for v in self.violations[:8]:
            lines.append("  " + v.describe())
        if len(self.violations) > 8:
            lines.append(f"  ... and {len(self.violations) - 8} more")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, Any]:
        """Machine-readable report (the format ``repro repair`` consumes).

        ``cone_blocks`` and ``net_blocks`` are omitted — they scale with
        the netlist and are derivable by rerunning the checker; the
        violation list with stable ids is the contract.
        """
        return {
            "satisfied": self.satisfied,
            "checked_observers": self.checked_observers,
            "violations": [v.to_json() for v in self.violations],
        }

    @classmethod
    def from_json(cls, d: Mapping[str, Any]) -> "NetIciReport":
        return cls(
            satisfied=bool(d["satisfied"]),
            violations=[
                ConeViolation.from_json(v) for v in d["violations"]
            ],
            checked_observers=int(d["checked_observers"]),
        )


_EMPTY: frozenset = frozenset()


def gate_blocks(
    gate: Gate,
    blocks_of: Callable[[int], frozenset],
    resolve: Callable[[str], str],
    exempt: Set[str],
) -> frozenset:
    """Blocks feeding ``gate``'s output: its inputs' blocks plus its own."""
    acc: Set[str] = set()
    for src in gate.inputs:
        acc |= blocks_of(src)
    b = resolve(gate.component)
    if b and b not in exempt:
        acc.add(b)
    return frozenset(acc)


def offending_blocks(
    cone: frozenset, own_block: str, exempt: Set[str]
) -> Set[str]:
    """The violation rule: cone blocks other than the observer's own.

    An observer in an exempt block is never in violation.
    """
    if own_block in exempt:
        return set()
    return {b for b in cone if b != own_block}


def check_netlist_ici(
    netlist: Netlist,
    block_of: Optional[Callable[[str], str]] = None,
    exempt_blocks: Sequence[str] = (),
) -> NetIciReport:
    """Verify the gate-level ICI property of a netlist.

    Args:
        netlist: the design (validated; labels on gates/flops).
        block_of: component-label → block mapping (default: outermost
            ``/`` segment, matching :class:`IsolationTable`).
        exempt_blocks: blocks allowed to feed anyone (e.g. ``chipkill`` —
            a fault there scraps the core regardless, so cross-block
            cones ending in chipkill logic do not break isolation of the
            *disableable* blocks; pass what your fault-map treats as
            non-isolatable).

    Returns:
        A :class:`NetIciReport`; ``violations`` lists every observation
        point whose cone mixes two or more non-exempt blocks (or a
        non-exempt block different from its own).
    """
    netlist.validate()
    resolve = block_of or _default_block
    exempt = set(exempt_blocks)

    # One topological sweep computes, per net, the set of non-exempt
    # blocks whose gates feed it combinationally.
    blocks_of_net: Dict[int, frozenset] = {}
    for net in netlist.source_nets():
        blocks_of_net[net] = _EMPTY

    def blocks_of(net: int) -> frozenset:
        return blocks_of_net.get(net, _EMPTY)

    for gid in netlist.topo_gate_order():
        g = netlist.gates[gid]
        blocks_of_net[g.output] = gate_blocks(g, blocks_of, resolve, exempt)

    # Map each block to one example gate for the report.
    example_gate: Dict[Tuple[int, str], int] = {}
    for gid in netlist.topo_gate_order():
        g = netlist.gates[gid]
        b = resolve(g.component)
        if b:
            example_gate.setdefault((0, b), g.gid)

    report = NetIciReport(satisfied=True, net_blocks=blocks_of_net)
    observers: List[Tuple[str, str, int]] = [
        (f.name, resolve(f.component), f.d_net) for f in netlist.flops
    ]
    observers += [
        (f"po[{i}]", "", net)
        for i, net in enumerate(netlist.primary_outputs)
    ]
    for name, own_block, net in observers:
        cone = blocks_of(net)
        report.checked_observers += 1
        report.cone_blocks[name] = set(cone)
        offending = offending_blocks(cone, own_block, exempt)
        if offending:
            report.satisfied = False
            report.violations.append(
                ConeViolation(
                    observer=name,
                    observer_block=own_block,
                    blocks=tuple(sorted(cone)),
                    example_gates=tuple(
                        example_gate.get((0, b), -1)
                        for b in sorted(offending)
                    )[:4],
                )
            )
    return report
