"""Issue queues and the load/store queue.

Two issue-queue models:

- :class:`CompactingIssueQueue` — the baseline: one compacting window,
  oldest-first global selection, freed slots reusable the next cycle.
- :class:`SegmentedIssueQueue` — Rescue's ICI-transformed queue: an old
  half, a new half, and a small temporary compaction buffer between them.
  Entries move new→buffer only after the old half *requested* room in a
  previous cycle (the cycle-split inter-segment compaction), sit in the
  buffer for a cycle (selectable never, wakeable always — wakeup is
  implicit in the readiness predicate), and each half selects
  independently; the pipeline applies the paper's replay rule when the
  combined selection oversubscribes the backend.  The three segments are
  kept as separate age-ordered lists whose concatenation
  ``old + buf + new`` is the global age order.

Both queues release an issued entry's slot ``issue_to_free`` cycles after
issue (2 baseline, 3 Rescue — the extra shift stage), and un-issue entries
on replay.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cpu.isa import Instr, OpClass

_NEVER = float("inf")

#: Resource names used in selection limits.
RESOURCES = ("slots", "alu", "mul", "fadd", "fmul", "mem")


_RESOURCE = {
    OpClass.IALU: "alu",
    OpClass.BRANCH: "alu",
    OpClass.IMUL: "mul",
    OpClass.FADD: "fadd",
    OpClass.FMUL: "fmul",
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
}


def resource_of(op: OpClass) -> str:
    """Execution resource class an operation consumes."""
    return _RESOURCE[op]


class IqEntry:
    """One issue-queue entry; ``resource`` is fixed at insert."""

    __slots__ = (
        "instr", "segment", "issued_at", "entered_segment_at",
        "blocked_until", "resource",
    )

    def __init__(self, instr: Instr, segment: str, cycle: int) -> None:
        self.instr = instr
        self.segment = segment
        self.issued_at: Optional[int] = None
        self.entered_segment_at = cycle
        # Earliest cycle this entry may be selected again after a replay
        # (the replay is discovered from latched counts a cycle later).
        self.blocked_until = 0
        self.resource = _RESOURCE[instr.op]


def _entry_tuple(e: IqEntry) -> tuple:
    """Plain-data form of an entry (the instr is keyed by seq + pc)."""
    return (
        e.instr.seq, e.instr.pc, e.segment, e.issued_at,
        e.entered_segment_at, e.blocked_until,
    )


def _entry_from_tuple(t: tuple, resolve) -> IqEntry:
    """Rebuild an entry; ``resolve(seq, pc)`` supplies the Instr."""
    seq, pc, segment, issued_at, entered_at, blocked = t
    e = IqEntry(resolve(seq, pc), segment, entered_at)
    e.issued_at = issued_at
    e.blocked_until = blocked
    return e


def _select_from(
    entries: List[IqEntry],
    cycle: int,
    ready: Callable[[Instr, int], bool],
    limits: Dict[str, int],
) -> List[IqEntry]:
    """Oldest-first selection under resource limits."""
    picked: List[IqEntry] = []
    slots = limits["slots"]
    for e in entries:
        if e.issued_at is not None or e.blocked_until > cycle:
            continue
        if not ready(e.instr, cycle):
            continue
        if len(picked) >= slots:
            break
        res = e.resource
        if sum(p.resource == res for p in picked) >= limits.get(res, 0):
            continue
        picked.append(e)
    for e in picked:
        e.issued_at = cycle
    return picked


def combined_violates(
    sel_a: List[IqEntry], sel_b: List[IqEntry], limits: Dict[str, int]
) -> bool:
    """True when the union of two selections oversubscribes a resource."""
    both = sel_a + sel_b
    if len(both) > limits["slots"]:
        return True
    used: Dict[str, int] = {}
    for e in both:
        used[e.resource] = used.get(e.resource, 0) + 1
    return any(n > limits[r] for r, n in used.items())


def _release(
    segments: List[List[IqEntry]], cycle: int, itf: int
) -> float:
    """Drop entries issued at least ``itf`` cycles ago from each list (in
    place); return the cycle the next remaining issued entry frees."""
    nxt = _NEVER
    for seg in segments:
        keep = []
        for e in seg:
            t = e.issued_at
            if t is not None:
                t += itf
                if cycle >= t:
                    continue
                if t < nxt:
                    nxt = t
            keep.append(e)
        seg[:] = keep
    return nxt


def replay_entries(entries: List[IqEntry], cycle: int, penalty: int) -> None:
    """Un-issue ``entries`` and hold them out of selection for
    ``penalty`` cycles (replay discovery is one cycle late, so the
    earliest legal re-selection is ``cycle + 2`` for the paper's rule)."""
    for e in entries:
        e.issued_at = None
        e.blocked_until = max(e.blocked_until, cycle + penalty)


class CompactingIssueQueue:
    """Baseline single-window compacting queue.

    ``_release_at`` is a lower bound on the next cycle an issued entry's
    slot frees, so :meth:`tick` skips the release pass until then:
    selection lowers it, a release pass recomputes it, and a replay can
    only leave it early, which costs one idle pass.
    """

    def __init__(self, size: int, issue_to_free: int = 2) -> None:
        self.size = size
        self.issue_to_free = issue_to_free
        self.entries: List[IqEntry] = []
        self._release_at = _NEVER

    def tick(self, cycle: int) -> None:
        """Release the slots of entries issued long enough ago."""
        if cycle >= self._release_at:
            self._release_at = _release(
                [self.entries], cycle, self.issue_to_free
            )

    def can_insert(self) -> bool:
        return len(self.entries) < self.size

    def insert(self, instr: Instr, cycle: int) -> None:
        if not self.can_insert():
            raise RuntimeError("issue queue overflow")
        self.entries.append(IqEntry(instr, "old", cycle))

    def select(
        self,
        cycle: int,
        ready: Callable[[Instr, int], bool],
        limits: Dict[str, int],
    ) -> List[IqEntry]:
        picked = _select_from(self.entries, cycle, ready, limits)
        if picked:
            self._release_at = min(
                self._release_at, cycle + self.issue_to_free
            )
        return picked

    def replay(self, entries: List[IqEntry]) -> None:
        for e in entries:
            e.issued_at = None

    def occupancy(self) -> int:
        return len(self.entries)

    def snapshot(self) -> dict:
        """Entries in age order as plain tuples."""
        return {"entries": tuple(_entry_tuple(e) for e in self.entries)}

    def restore(self, snap: dict, resolve) -> None:
        """Rebuild entries; ``resolve(seq, pc)`` maps back to Instrs."""
        self.entries = [
            _entry_from_tuple(t, resolve) for t in snap["entries"]
        ]
        self._release_at = 0  # recomputed by the next tick


class SegmentedIssueQueue:
    """Rescue's two-half queue with the temporary compaction latch.

    The old half, the compaction buffer and the new half are three
    age-ordered lists (``old``, ``buf``, ``new``), updated in place by
    :meth:`tick`, :meth:`insert` and :meth:`restore`.  Entries only ever
    move old-ward in age order, so ``old + buf + new`` is the global age
    order (:attr:`entries`) and each list is exactly the entries whose
    ``segment`` names it.  ``_release_at`` bounds the next slot release
    as in :class:`CompactingIssueQueue`.

    When ``halves == 1`` (one half mapped out), the queue degrades to a
    single window of half the size fed directly from rename (Section
    4.1.3) and behaves like the baseline policy at that size; every
    entry then lives in ``old``.
    """

    def __init__(
        self,
        size: int,
        compaction_buffer: int = 4,
        issue_to_free: int = 3,
        halves: int = 2,
    ) -> None:
        if halves not in (1, 2):
            raise ValueError("halves must be 1 or 2")
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
        self.old: List[IqEntry] = []
        self.buf: List[IqEntry] = []
        self.new: List[IqEntry] = []
        self._request_pending = False
        self._release_at = _NEVER

    @property
    def entries(self) -> List[IqEntry]:
        """All entries in global age order (a fresh list)."""
        return self.old + self.buf + self.new

    # ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        """Release issued slots, then run the cycle-split compaction."""
        old, buf, new = self.old, self.buf, self.new
        if cycle >= self._release_at:
            self._release_at = _release(
                [old, buf, new], cycle, self.issue_to_free
            )
        if self.halves == 1:
            return
        # Buffer -> old: entries that spent a full cycle in the latch.
        holes = self.half_cap - len(old)
        if buf and holes > 0:
            stay = []
            for e in buf:
                if holes > 0 and e.entered_segment_at < cycle:
                    e.segment = "old"
                    e.entered_segment_at = cycle
                    old.append(e)
                    holes -= 1
                else:
                    stay.append(e)
            buf[:] = stay
        # New -> buffer, only if the old half asked last cycle.
        if self._request_pending:
            space = self.buffer_cap - len(buf)
            if space > 0 and new:
                moving = new[:space]
                for e in moving:
                    e.segment = "buf"
                    e.entered_segment_at = cycle
                buf.extend(moving)
                del new[:space]
        # Latch this cycle's request for the next one (cycle splitting).
        self._request_pending = len(old) < self.half_cap

    # ------------------------------------------------------------------
    def can_insert(self) -> bool:
        if self.halves == 1:
            return len(self.old) < self.half_cap
        return len(self.new) < self.half_cap

    def insert(self, instr: Instr, cycle: int) -> None:
        if not self.can_insert():
            raise RuntimeError("issue queue overflow")
        if self.halves == 1:
            self.old.append(IqEntry(instr, "old", cycle))
        else:
            self.new.append(IqEntry(instr, "new", cycle))

    # ------------------------------------------------------------------
    def select_halves(
        self,
        cycle: int,
        ready: Callable[[Instr, int], bool],
        limits: Dict[str, int],
    ):
        """(old selection, new selection); buffer entries never issue."""
        old_sel = _select_from(self.old, cycle, ready, limits)
        new_sel = (
            _select_from(self.new, cycle, ready, limits)
            if self.halves == 2 else []
        )
        if old_sel or new_sel:
            self._release_at = min(
                self._release_at, cycle + self.issue_to_free
            )
        return old_sel, new_sel

    def replay(self, entries: List[IqEntry]) -> None:
        for e in entries:
            e.issued_at = None

    def occupancy(self) -> int:
        return len(self.old) + len(self.buf) + len(self.new)

    def snapshot(self) -> dict:
        """Entries in global age order plus the compaction-request latch."""
        return {
            "entries": tuple(_entry_tuple(e) for e in self.entries),
            "request_pending": self._request_pending,
        }

    def restore(self, snap: dict, resolve) -> None:
        """Rebuild the segments (age order preserved) and the latch."""
        segs: Dict[str, List[IqEntry]] = {"old": [], "buf": [], "new": []}
        for t in snap["entries"]:
            e = _entry_from_tuple(t, resolve)
            segs[e.segment].append(e)
        self.old, self.buf, self.new = segs["old"], segs["buf"], segs["new"]
        self._request_pending = snap["request_pending"]
        self._release_at = 0  # recomputed by the next tick


class LoadStoreQueue:
    """Capacity + store-to-load forwarding model of the LSQ.

    Entries are (seq, is_store, block address); they retire with commit.
    A load whose address matches an older in-flight store forwards at L1
    latency.  Degraded mode halves the capacity (Section 4.7).
    """

    def __init__(self, size: int, halves: int = 2, block: int = 32) -> None:
        if halves not in (1, 2):
            raise ValueError("halves must be 1 or 2")
        self.size = size * halves // 2
        self.block = block
        self.entries: List[tuple] = []  # (seq, is_store, blk)

    def can_insert(self) -> bool:
        return len(self.entries) < self.size

    def insert(self, seq: int, is_store: bool, addr: int) -> None:
        if not self.can_insert():
            raise RuntimeError("LSQ overflow")
        self.entries.append((seq, is_store, addr // self.block))

    def forwards(self, seq: int, addr: int) -> bool:
        """True when an older store to the same block is still queued."""
        return self.forward_from(seq, addr) is not None

    def forward_from(self, seq: int, addr: int) -> Optional[int]:
        """Sequence number of the *youngest* older queued store to the
        same block (the one a load actually forwards from), or None."""
        blk = addr // self.block
        found: Optional[int] = None
        for s, is_store, b in self.entries:
            if s >= seq:
                break
            if is_store and b == blk:
                found = s
        return found

    def retire_upto(self, seq: int) -> None:
        """Drop entries at or below the committed sequence number."""
        self.entries = [e for e in self.entries if e[0] > seq]

    def occupancy(self) -> int:
        return len(self.entries)

    def snapshot(self) -> dict:
        """Entries are already plain tuples; copy them in order."""
        return {"entries": tuple(self.entries)}

    def restore(self, snap: dict) -> None:
        """Load a :meth:`snapshot` back in order."""
        self.entries = list(snap["entries"])
