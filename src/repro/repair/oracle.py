"""The repair check oracle: netcheck, equivalence screen, isolation sample.

A candidate patch is *verified* only when three independent checks pass,
in increasing order of cost:

1. **netcheck** — the gate-level ICI lint of
   :func:`~repro.core.netcheck.check_netlist_ici` on the patched
   netlist: the target violation must be discharged and no observation
   point may regress (the patched violation set must be a strict subset
   of the base set).
2. **equivalence** — a functional-equivalence screen on the packed
   engine's values (64 patterns per uint64 word): on a shared random
   pattern batch, every primary output and every *original* flop's
   captured next-state bit must match the base netlist exactly.
   Candidates that add state (the latch shape) extend the pattern matrix
   with fresh columns for the new flops; their captured bits are not
   compared — they are new state — but everything the base design
   observes must be bit-identical.
3. **isolation sample** — stuck-at faults sampled on the patch's gates
   must be detected only by observers of the faulted gate's block (or by
   primary outputs, which are tester pins, not scan-isolation points).
   This dynamically confirms what netcheck proved structurally: the
   patch did not open a new cross-block detection path.

The screen is sound for rejection (a mismatch is a real functional
change) and sampling-complete for acceptance, which is the standard
fast-equivalence contract; candidates that survive are additionally
exact by construction for the redrive/relabel shapes.

**Local verification.**  A candidate edits one observer's cone, so each
stage is computed on the patch alone, against the base state kept in
:class:`BaseState`, and costs the size of the patch rather than the
size of the netlist.  The patched copy carries the base's topological
order with the new gates appended (:meth:`Netlist.copy` and the patch
primitives keep it), so every gate's position is the base compiled
netlist's ``topo_pos`` or, for a new gate, its place after the base
gates.  :class:`PatchView` lists what the patch changed — added or
rewired gates, new flops, flops whose D net or label moved — overlays
the changed gates' reads on the base compiled ``readers``, and runs one
event-driven walk in topological order that re-derives a per-net value
for the changed gates and their forward cone, stopping wherever it
equals the base's:

- netcheck re-derives the lint's per-net block sets
  (:attr:`NetIciReport.net_blocks`, through the lint's own
  :func:`~repro.core.netcheck.gate_blocks`) and re-judges, with the
  lint's :func:`~repro.core.netcheck.offending_blocks`, only the
  observers the patch can affect;
- equivalence re-evaluates packed-int good values over the base
  :class:`WordValues` (new flops' Q columns drawn exactly as the
  whole-netlist screen draws them) and compares only the observers
  whose value changed;
- isolation walks each sampled fault over those patched good values.

The whole-netlist functions stay: :func:`check_netlist_ici` and
:func:`_equivalence_stage` verify the composed plan end to end, and
``benchmarks/bench_repair.py --check`` compares every candidate's local
results with them and with a whole-netlist
:class:`PackedWordSimulator` fault walk.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

import numpy as np

from repro.core.netcheck import (
    NetIciReport,
    _default_block,
    gate_blocks,
    offending_blocks,
)
from repro.netlist.compiled import (
    PackedWordSimulator,
    WordValues,
    _eval_gate_int,
    _words_to_int,
    pack_patterns,
)
from repro.netlist.faults import StuckAt
from repro.netlist.gates import Gate
from repro.netlist.netlist import Netlist
from repro.telemetry import TELEMETRY

V = TypeVar("V")


@dataclass(frozen=True)
class OracleVerdict:
    """Outcome of verifying one candidate."""

    ok: bool
    stage: str  # "netcheck" | "equivalence" | "isolation" | "verified"
    reason: str = ""


def random_patterns(
    n_patterns: int, n_sources: int, seed: int
) -> np.ndarray:
    """The shared (P, n_sources) bool pattern batch for a repair run."""
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n_patterns, n_sources), dtype=np.uint8
                        ).astype(bool)


@dataclass
class BaseState:
    """Base-netlist simulation state shared by every candidate check."""

    netlist: Netlist
    report: NetIciReport
    sim: PackedWordSimulator
    patterns: np.ndarray
    values: WordValues
    po: np.ndarray
    state: np.ndarray

    @classmethod
    def build(
        cls,
        netlist: Netlist,
        report: NetIciReport,
        n_patterns: int,
        seed: int,
    ) -> "BaseState":
        sim = PackedWordSimulator(netlist)
        patterns = random_patterns(n_patterns, sim.n_sources, seed)
        values = sim.good_values(patterns)
        po, state = sim.capture(values)
        return cls(
            netlist=netlist,
            report=report,
            sim=sim,
            patterns=patterns,
            values=values,
            po=po,
            state=state,
        )


class PatchView:
    """A patched copy of the base netlist, seen as edits to the base.

    ``patched`` must come from ``base.netlist.copy()`` edited only through
    the :class:`Netlist` patch primitives (gates and flops added, gate
    inputs and flop D nets re-pointed, flop labels changed).
    """

    def __init__(self, base: BaseState, patched: Netlist) -> None:
        bn, c = base.netlist, base.sim.compiled
        self.base, self.patched, self.compiled = base, patched, c
        self.n_nets = bn.n_nets
        n_gates = len(bn.gates)
        # rewire_gate replaces a Gate object; a copy shares the others.
        self.gates: List[int] = [
            gid for gid, (g, h) in enumerate(zip(patched.gates, bn.gates))
            if g is not h
        ] + list(range(n_gates, len(patched.gates)))
        self.moved: List[int] = []  # base flops whose D net changed
        self.relabeled: List[int] = []
        for f, h in zip(patched.flops, bn.flops):
            if f.d_net != h.d_net:
                self.moved.append(f.fid)
            if f.component != h.component:
                self.relabeled.append(f.fid)
        self.new_flops = patched.flops[len(bn.flops):]
        self._reads: Dict[int, List[int]] = {}
        for gid in self.gates:
            for net in set(patched.gates[gid].inputs):
                self._reads.setdefault(net, []).append(gid)
        order = patched.topo_gate_order()
        tail = list(range(n_gates, len(order)))
        if order == bn.topo_gate_order() + tail:
            self.pos = c.topo_pos + tail
        else:  # the patch re-sorted the order: position every gate anew
            self.pos = [0] * len(order)
            for i, gid in enumerate(order):
                self.pos[gid] = i

    def readers(self, net: int) -> List[int]:
        """Gates that may read ``net`` in the patched netlist.

        A superset: a rewired gate stays listed under its old inputs,
        which at most evaluates it once without need.
        """
        base = self.compiled.readers[net] if net < self.n_nets else []
        extra = self._reads.get(net)
        return base + extra if extra else base

    def walk(
        self,
        start: Dict[int, V],
        seeds: Iterable[int],
        evaluate: Callable[[Gate, Callable[[int], V]], V],
        before: Callable[[int], Optional[V]],
    ) -> Dict[int, V]:
        """Re-derive a per-net value over the patch's forward cone.

        ``start`` presets net values; ``seeds`` are gates to evaluate
        regardless.  Gates pop in topological position, so each is
        evaluated once, after all its inputs; a gate whose value differs
        from ``before`` (``None`` for nets the base lacks) stores it and
        wakes its readers.  Returns every preset or changed net, in walk
        order.
        """
        out = dict(start)
        gates, pos = self.patched.gates, self.pos
        heap: List[Tuple[int, int]] = []
        queued: Set[int] = set()

        def wake(gid: int) -> None:
            if gid not in queued:
                queued.add(gid)
                heapq.heappush(heap, (pos[gid], gid))

        def value(net: int) -> V:
            return out[net] if net in out else before(net)

        for net in start:
            for gid in self.readers(net):
                wake(gid)
        for gid in seeds:
            wake(gid)
        while heap:
            _, gid = heapq.heappop(heap)
            g = gates[gid]
            v = evaluate(g, value)
            if v != before(g.output):
                out[g.output] = v
                for reader in self.readers(g.output):
                    wake(reader)
        return out

    # ------------------------------------------------------------------
    # The three stages, locally
    # ------------------------------------------------------------------
    def violators(
        self, exempt: Set[str], resolve: Callable[[str], str]
    ) -> Set[str]:
        """Observers the lint reports on the patched netlist."""
        report, c, patched = self.base.report, self.compiled, self.patched
        net_blocks = report.net_blocks
        empty: frozenset = frozenset()

        def base_blocks(net: int) -> Optional[frozenset]:
            return net_blocks.get(net, empty) if net < self.n_nets else None

        blocks = self.walk(
            {f.q_net: empty for f in self.new_flops},
            self.gates,
            lambda g, value: gate_blocks(g, value, resolve, exempt),
            base_blocks,
        )
        fids = set(self.moved) | set(self.relabeled)
        fids.update(f.fid for f in self.new_flops)
        po_idx: Set[int] = set()
        for net in blocks:
            fids.update(c.d_fids.get(net, ()))
            po_idx.update(c.po_cols.get(net, ()))

        def judge(name: str, own: str, net: int) -> None:
            cone = blocks[net] if net in blocks else base_blocks(net)
            if offending_blocks(cone, own, exempt):
                after.add(name)
            else:
                after.discard(name)

        after = {v.observer for v in report.violations}
        for fid in fids:
            f = patched.flops[fid]
            judge(f.name, resolve(f.component), f.d_net)
        for i in po_idx:
            judge(f"po[{i}]", "", patched.primary_outputs[i])
        return after

    def _int_of(self, net: int) -> Optional[int]:
        return self.base.values.int_of(net) if net < self.n_nets else None

    def _eval(self, g: Gate, value: Callable[[int], int]) -> int:
        return _eval_gate_int(
            g.gtype, [value(i) for i in g.inputs], self.base.values.mask
        )

    def good_values(self, seed: int) -> Dict[int, int]:
        """Patched good values (packed ints) of nets that differ from
        the base or that the base lacks."""
        base = self.base
        start: Dict[int, int] = {}
        if self.new_flops:
            # New flops' Q columns, drawn as _equivalence_stage draws them.
            cols = pack_patterns(random_patterns(
                base.patterns.shape[0], len(self.new_flops), seed + 1
            ))
            mask = base.values.mask
            for f, row in zip(self.new_flops, cols):
                start[f.q_net] = _words_to_int(row) & mask
        return self.walk(start, self.gates, self._eval, self._int_of)

    def equivalence(
        self, seed: int
    ) -> Tuple[Optional[OracleVerdict], Dict[int, int]]:
        """The equivalence stage on the changed observers only."""
        c, base_int = self.compiled, self.base.values.int_of
        good = self.good_values(seed)
        if TELEMETRY.enabled:
            TELEMETRY.count("repair.oracle_cycles",
                            self.base.patterns.shape[0])
        if any(net in c.po_cols for net in good):
            return (
                OracleVerdict(False, "equivalence", "primary outputs differ"),
                good,
            )
        fids = set(self.moved)
        for net in good:
            fids.update(c.d_fids.get(net, ()))
        base_flops = self.base.netlist.flops
        for fid in fids:
            d = self.patched.flops[fid].d_net
            now = good[d] if d in good else base_int(d)
            if now != base_int(base_flops[fid].d_net):
                return (
                    OracleVerdict(False, "equivalence",
                                  "captured state differs"),
                    good,
                )
        return None, good

    def _d_fids(self, net: int) -> List[int]:
        """Flops capturing ``net`` in the patched netlist, in fid order."""
        moved = set(self.moved)
        fids = [
            fid for fid in self.compiled.d_fids.get(net, ())
            if fid not in moved
        ]
        flops = self.patched.flops
        fids += [fid for fid in moved if flops[fid].d_net == net]
        fids += [f.fid for f in self.new_flops if f.d_net == net]
        return sorted(fids)

    def failing_fids(self, good: Dict[int, int], fault: StuckAt) -> Set[int]:
        """Flops that capture a stem ``fault``'s effect on any pattern."""
        base_int = self.base.values.int_of

        def good_of(net: int) -> int:
            return good[net] if net in good else base_int(net)

        const = self.base.values.mask if fault.value else 0
        if const == good_of(fault.net):
            return set()
        faulty = self.walk({fault.net: const}, (), self._eval, good_of)
        fids: Set[int] = set()
        for net in faulty:
            fids.update(self._d_fids(net))
        return fids


def _netcheck_stage(
    base: BaseState, after: Set[str], observer: str
) -> Optional[OracleVerdict]:
    """Judge the patched lint's violators against the base's."""
    if observer in after:
        return OracleVerdict(False, "netcheck", "violation survives")
    before = {v.observer for v in base.report.violations}
    fresh = after - before
    if fresh:
        return OracleVerdict(
            False, "netcheck", f"introduces {len(fresh)} new violations"
        )
    return None


def _equivalence_stage(
    base: BaseState, patched: Netlist, seed: int
) -> Tuple[Optional[OracleVerdict], PackedWordSimulator, WordValues]:
    """The whole-netlist equivalence screen (compiles ``patched``)."""
    sim = PackedWordSimulator(patched)
    patterns = base.patterns
    extra = sim.n_sources - patterns.shape[1]
    if extra:
        # New flops appended fresh state columns; drive them randomly so
        # a patch that *reads* new state cannot hide behind a constant.
        patterns = np.concatenate(
            [patterns,
             random_patterns(patterns.shape[0], extra, seed + 1)],
            axis=1,
        )
    values = sim.good_values(patterns)
    po, state = sim.capture(values)
    if TELEMETRY.enabled:
        TELEMETRY.count("repair.oracle_cycles", patterns.shape[0])
    n_flops = base.state.shape[1]
    if not np.array_equal(po, base.po):
        return (
            OracleVerdict(False, "equivalence", "primary outputs differ"),
            sim, values,
        )
    if not np.array_equal(state[:, :n_flops], base.state):
        return (
            OracleVerdict(False, "equivalence", "captured state differs"),
            sim, values,
        )
    return None, sim, values


def _isolation_stage(
    patched: Netlist,
    failing_fids: Callable[[StuckAt], Iterable[int]],
    sample_gates: Sequence[int],
    n_faults: int,
    seed: int,
    exempt: Sequence[str],
    block_of,
) -> Optional[OracleVerdict]:
    """Sample stem faults on ``sample_gates``; ``failing_fids`` walks one."""
    resolve = block_of or _default_block
    ex = set(exempt)
    sites = [
        gid for gid in sorted(sample_gates)
        if resolve(patched.gates[gid].component)
        and resolve(patched.gates[gid].component) not in ex
    ]
    if not sites:
        return None
    rng = random.Random(seed)
    chosen = (
        sites if len(sites) <= n_faults
        else sorted(rng.sample(sites, n_faults))
    )
    for gid in chosen:
        gate = patched.gates[gid]
        block = resolve(gate.component)
        for value in (0, 1):
            fault = StuckAt(net=gate.output, value=value)
            fids = failing_fids(fault)
            if TELEMETRY.enabled:
                TELEMETRY.count("repair.isolation_faults")
            for fid in fids:
                fb = resolve(patched.flops[fid].component)
                if fb != block and fb not in ex:
                    return OracleVerdict(
                        False, "isolation",
                        f"{fault.describe()} in {block} detected by "
                        f"{patched.flops[fid].name} ({fb})",
                    )
    return None


def verify_candidate(
    base: BaseState,
    patched: Netlist,
    observer: str,
    sample_gates: Sequence[int] = (),
    *,
    exempt: Sequence[str] = (),
    n_isolation_faults: int = 6,
    seed: int = 0,
    block_of: Optional[Callable[[str], str]] = None,
) -> OracleVerdict:
    """Run the three-stage oracle on one candidate patch, locally.

    ``patched`` is ``base.netlist.copy()`` edited by the patch
    primitives (see :class:`PatchView`).
    """
    resolve = block_of or _default_block
    with TELEMETRY.span("repair.oracle"):
        view = PatchView(base, patched)
        verdict = _netcheck_stage(
            base, view.violators(set(exempt), resolve), observer
        )
        if verdict is not None:
            return verdict
        verdict, good = view.equivalence(seed)
        if verdict is not None:
            return verdict
        verdict = _isolation_stage(
            patched, lambda fault: view.failing_fids(good, fault),
            sample_gates, n_isolation_faults, seed, exempt, block_of,
        )
        if verdict is not None:
            return verdict
    return OracleVerdict(True, "verified")
