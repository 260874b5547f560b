"""Oracle test of the core's cached operand readiness.

The scheduler caches each waiting instruction's earliest ready cycle and
refreshes it only where ``opt_done`` changes.  An ``on_cycle`` observer
compares, for every un-issued issue-queue entry at every cycle, the
cached answer against :func:`scratch_ready` — a side-effect-free
from-scratch predicate that re-derives readiness from ``opt_done`` and
the fault layer's ``forced_ready`` set, exactly as the scheduler did
before it cached anything.
"""

import pytest

from repro.cpu import Core, MachineConfig
from repro.cpu.archstate import ArchState
from repro.inject.models import FaultSpec, FaultyArchState
from repro.inject.sites import Site
from repro.workloads import generate_trace, profile

#: Cycles ahead of the current one at which readiness is compared: the
#: next few cycles plus one past an L2 miss.
HORIZON = (0, 1, 2, 3, 16, 300)


def scratch_ready(core, instr, cycle) -> bool:
    """Readiness re-derived from scratch (no cached state read)."""
    forced = core._forced
    if forced and instr.seq in forced:
        return True
    opt = core.opt_done
    for d in instr.deps:
        t = opt.get(instr.seq - d)
        if t is not None and t > cycle:
            return False
    return True


class Oracle:
    """``on_cycle`` observer; records what it saw for coverage checks.

    :meth:`attach` also wraps the core's readiness query, so every read
    the scheduler makes mid-cycle (after commit, load fixes and queue
    compaction) is checked against scratch too.
    """

    def __init__(self) -> None:
        self.checked = 0
        self.reads = 0
        self.forced_overrides = 0
        self.pending_fix_cycles = 0
        self.forced_cycles = 0

    def attach(self, core):
        cached = core._ready

        def ready(instr, cycle):
            got = cached(instr, cycle)
            assert got == scratch_ready(core, instr, cycle), (
                cycle, instr.seq
            )
            self.reads += 1
            forced = core._forced
            if forced and instr.seq in forced and any(
                core.opt_done.get(instr.seq - d, 0) > cycle
                for d in instr.deps
            ):
                self.forced_overrides += 1
            return got

        core._ready = ready
        return core

    def __call__(self, core) -> bool:
        cyc = core.cycle
        for queue in (core.iq_int, core.iq_fp):
            for e in queue.entries:
                if e.issued_at is not None:
                    continue
                for t in HORIZON:
                    got = core._ready(e.instr, cyc + t)
                    want = scratch_ready(core, e.instr, cyc + t)
                    assert got == want, (cyc, t, e.instr.seq)
                self.checked += 1
        if any(d <= cyc for d, _ in core.pending_fixes):
            self.pending_fix_cycles += 1
        if core._forced:
            self.forced_cycles += 1
        return False


@pytest.mark.parametrize("bench", ["gzip", "mcf"])
def test_cache_matches_scratch_on_rescue(bench):
    cfg = MachineConfig(rescue=True)
    trace = generate_trace(profile(bench), 1200, seed=3)
    oracle = Oracle()
    r = oracle.attach(Core(cfg, trace)).run(1200, on_cycle=oracle)
    assert oracle.checked > 1000 and oracle.reads > 1000
    assert oracle.pending_fix_cycles > 0  # L1 misses downgrade wakeups
    assert r.load_squashes > 0
    if bench == "gzip":
        assert r.replays > 0  # Rescue half replays


def test_cache_matches_scratch_on_baseline():
    trace = generate_trace(profile("mcf"), 800, seed=3)
    oracle = Oracle()
    core = oracle.attach(Core(MachineConfig(), trace))
    r = core.run(800, on_cycle=oracle)
    assert oracle.checked > 500 and r.load_squashes > 0


def test_cache_matches_scratch_under_forced_ready():
    """A stuck-at-1 ready bit forces an issue-queue slot's occupant ready
    every cycle; the cache must defer to ``forced_ready`` first."""
    cfg = MachineConfig(rescue=True)
    trace = generate_trace(profile("mcf"), 1200, seed=3)
    fault = FaultSpec(Site("iq_int", 1, "ready", "iq_int.0"), "stuckat",
                      0, 1, 0)
    arch = FaultyArchState(cfg, fault)
    oracle = Oracle()
    oracle.attach(Core(cfg, trace, arch=arch)).run(1200, on_cycle=oracle)
    assert oracle.forced_cycles > 0
    assert oracle.forced_overrides > 0  # forcing decided some reads
    assert oracle.checked > 100


def test_cache_rebuilt_by_restore_and_rearm():
    """Restored and re-armed machines rebuild the cache from the
    snapshot; it must agree with scratch from the first cycle on."""
    cfg = MachineConfig(rescue=True)
    trace = generate_trace(profile("mcf"), 900, seed=3)
    snaps = []

    def take(core):
        if core.cycle >= 300 and core.pending_fixes:
            snaps.append(core.snapshot())
            return True
        return False

    Core(cfg, trace, arch=ArchState(cfg)).run(900, on_cycle=take)
    (snap,) = snaps
    assert snap["iq_int"]["entries"] and snap["pending_fixes"]
    core = Core(cfg, trace, arch=ArchState(cfg))
    core.restore(snap, trace, track=True)
    first = Oracle()
    r1 = first.attach(core).run(900, on_cycle=first)
    core.rearm(snap, trace)
    second = Oracle()
    r2 = second.attach(core).run(900, on_cycle=second)
    assert r1 == r2
    assert first.checked == second.checked > 100
