"""Differential property test: incremental segmented queue vs reference.

:class:`ReferenceSegmentedQueue` is the filter-based queue the core used
to run: one global age-ordered entry list, each segment rebuilt by
filtering on ``segment`` whenever it is needed, and a selection that
re-derives every candidate's resource class.  It is the oracle for
:class:`repro.cpu.queues.SegmentedIssueQueue`, which keeps the three
segments as lists updated in place.  Hypothesis drives both with the
same random insert / tick / select / replay / snapshot→restore
sequences; selections, segment contents and snapshots must agree.
"""

from typing import Dict, List

from hypothesis import given, settings, strategies as st

from repro.cpu.isa import Instr, OpClass
from repro.cpu.queues import (
    IqEntry,
    SegmentedIssueQueue,
    _entry_from_tuple,
    _entry_tuple,
    replay_entries,
    resource_of,
)

LIMITS = {"slots": 3, "alu": 2, "mul": 1, "mem": 1}
OPS = (OpClass.IALU, OpClass.IMUL, OpClass.LOAD, OpClass.STORE,
       OpClass.BRANCH)


def _ref_select(entries, cycle, ready, limits):
    used = {r: 0 for r in limits}
    picked = []
    for e in entries:
        if e.issued_at is not None or e.blocked_until > cycle:
            continue
        if not ready(e.instr, cycle):
            continue
        res = resource_of(e.instr.op)
        if used["slots"] + 1 > limits["slots"]:
            break
        if used.get(res, 0) + 1 > limits.get(res, 0):
            continue
        used["slots"] += 1
        used[res] = used.get(res, 0) + 1
        picked.append(e)
    for e in picked:
        e.issued_at = cycle
    return picked


class ReferenceSegmentedQueue:
    """The filter-based segmented queue (one list, filtered segments)."""

    def __init__(self, size, compaction_buffer=4, issue_to_free=3,
                 halves=2):
        self.halves = halves
        self.issue_to_free = issue_to_free
        if halves == 1:
            self.size = size // 2
            self.half_cap = self.size
            self.buffer_cap = 0
        else:
            self.buffer_cap = compaction_buffer
            self.half_cap = (size - compaction_buffer) // 2
            self.size = size
        self.entries: List[IqEntry] = []
        self._request_pending = False

    def _seg(self, name):
        return [e for e in self.entries if e.segment == name]

    def tick(self, cycle):
        self.entries = [
            e for e in self.entries
            if e.issued_at is None or cycle < e.issued_at + self.issue_to_free
        ]
        if self.halves == 1:
            return
        old = self._seg("old")
        buf = self._seg("buf")
        new = self._seg("new")
        holes = self.half_cap - len(old)
        moved = 0
        for e in buf:
            if moved >= holes:
                break
            if e.entered_segment_at < cycle:
                e.segment = "old"
                e.entered_segment_at = cycle
                moved += 1
        if self._request_pending:
            space = self.buffer_cap - len(self._seg("buf"))
            moved_new = 0
            for e in new:
                if moved_new >= space:
                    break
                e.segment = "buf"
                e.entered_segment_at = cycle
                moved_new += 1
        self._request_pending = len(self._seg("old")) < self.half_cap

    def can_insert(self):
        if self.halves == 1:
            return len(self.entries) < self.half_cap
        return len(self._seg("new")) < self.half_cap

    def insert(self, instr, cycle):
        seg = "old" if self.halves == 1 else "new"
        self.entries.append(IqEntry(instr, seg, cycle))

    def select_halves(self, cycle, ready, limits):
        old_sel = _ref_select(self._seg("old"), cycle, ready, limits)
        if self.halves == 1:
            return old_sel, []
        return old_sel, _ref_select(self._seg("new"), cycle, ready, limits)

    def replay(self, entries):
        for e in entries:
            e.issued_at = None

    def occupancy(self):
        return len(self.entries)

    def snapshot(self):
        return {
            "entries": tuple(_entry_tuple(e) for e in self.entries),
            "request_pending": self._request_pending,
        }

    def restore(self, snap, resolve):
        self.entries = [_entry_from_tuple(t, resolve) for t in snap["entries"]]
        self._request_pending = snap["request_pending"]


def _seqs(sel):
    return [e.instr.seq for e in sel]


def _by_seq(queue, seqs):
    want = set(seqs)
    return [e for e in queue.entries if e.instr.seq in want]


def _assert_same(ref, inc):
    for name in ("old", "buf", "new"):
        assert [_entry_tuple(e) for e in getattr(inc, name)] == [
            _entry_tuple(e) for e in ref._seg(name)
        ]
    assert [_entry_tuple(e) for e in inc.entries] == [
        _entry_tuple(e) for e in ref.entries
    ]
    assert inc.snapshot() == ref.snapshot()
    assert inc.occupancy() == ref.occupancy()
    assert inc.can_insert() == ref.can_insert()


step = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(OPS)),
    st.tuples(st.just("tick"), st.integers(0, 2)),
    st.tuples(st.just("select"), st.integers(0, 3)),
    st.tuples(st.just("replay"), st.integers(1, 3)),
    st.tuples(st.just("squash"), st.integers(0, 2)),
    st.tuples(st.just("restore"), st.just(0)),
)


@given(
    halves=st.sampled_from([1, 2]),
    size=st.integers(8, 24),
    buf=st.integers(1, 4),
    itf=st.integers(2, 3),
    salt=st.integers(0, 1000),
    steps=st.lists(step, max_size=120),
)
@settings(max_examples=150, deadline=None)
def test_incremental_queue_matches_reference(
    halves, size, buf, itf, salt, steps
):
    if size - buf < 2:
        return
    ref = ReferenceSegmentedQueue(size, buf, itf, halves)
    inc = SegmentedIssueQueue(size, buf, itf, halves)
    instrs: Dict[int, Instr] = {}
    cycle = 0
    last: List[int] = []

    for kind, arg in steps:
        if kind == "insert":
            if ref.can_insert():
                seq = len(instrs)
                instrs[seq] = Instr(seq=seq, op=arg, pc=4 * seq)
                ref.insert(instrs[seq], cycle)
                inc.insert(instrs[seq], cycle)
        elif kind == "tick":
            cycle += arg
            ref.tick(cycle)
            inc.tick(cycle)
        elif kind == "select":
            # Deterministic pseudo-random readiness, the same for both.
            def ready(instr, c, k=arg):
                return (instr.seq * 7 + c * 13 + salt) % 4 >= k

            r_old, r_new = ref.select_halves(cycle, ready, LIMITS)
            i_old, i_new = inc.select_halves(cycle, ready, LIMITS)
            assert _seqs(i_old) == _seqs(r_old)
            assert _seqs(i_new) == _seqs(r_new)
            last = _seqs(r_old) + _seqs(r_new)
        elif kind == "replay":
            # The paper's half replay: un-issue and hold for a penalty.
            replay_entries(_by_seq(ref, last), cycle, arg)
            replay_entries(_by_seq(inc, last), cycle, arg)
            last = []
        elif kind == "squash":
            # A load squash un-issues one selected entry with no penalty.
            pick = last[arg:arg + 1]
            ref.replay(_by_seq(ref, pick))
            inc.replay(_by_seq(inc, pick))
        else:
            snap = inc.snapshot()
            assert snap == ref.snapshot()

            def resolve(seq, pc):
                return instrs[seq]

            ref.restore(snap, resolve)
            inc.restore(snap, resolve)
            last = []
        _assert_same(ref, inc)
