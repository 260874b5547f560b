"""Per-site occupancy/residency profiling of the golden run.

DAVOS-style SBFI flows profile the design once to learn where state
actually lives before spending injections; :class:`SiteProfile` is that
pass for this simulator.  During the golden run the injection harness
samples the machine every ``stride`` cycles (through the core's
``on_cycle`` hook, so the profiled run stays bit-identical) and counts,
per injection site, how many samples found live state under it:

- ``rob`` — an occupant in the slot (slot = seq mod rob_size);
- ``iq_int``/``iq_fp`` — an entry in the physical slot, using the same
  old/new/buffer slot convention as site enumeration;
- ``lsq`` — an entry at the queue position;
- ``prf_int``/``prf_fp`` — the register is referenced by a live
  rename/value record (as an allocated destination or a captured
  source), i.e. a fault there could reach a future read;
- ``rmap_int``/``rmap_fp`` — the map entry points at a register;
- ``fetch`` — the way participates in fetch (ways below
  ``fetch_width``).

The resulting counts feed the opt-in ``weighted`` fault-sampling mode
(draw sites proportional to residency) and the ``repro inject
--profile`` report.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.cpu.params import MachineConfig
from repro.cpu.queues import SegmentedIssueQueue


class SiteProfile:
    """Sampled per-site residency counts from one golden run."""

    def __init__(self, config: MachineConfig, stride: int = 16) -> None:
        if stride <= 0:
            raise ValueError("profile stride must be positive")
        self.config = config
        self.stride = stride
        self.samples = 0
        self.counts: Dict[Tuple[str, int], int] = {}

    # ------------------------------------------------------------------
    def observe(self, core) -> None:
        """Record one occupancy sample of the running core."""
        self.samples += 1
        counts = self.counts
        cfg = self.config
        rob_size = cfg.core.rob_size
        for e in core.rob:
            k = ("rob", e.instr.seq % rob_size)
            counts[k] = counts.get(k, 0) + 1
        for struct, queue, size in (
            ("iq_int", core.iq_int, cfg.core.iq_int_size),
            ("iq_fp", core.iq_fp, cfg.core.iq_fp_size),
        ):
            half = size // 2
            if (
                isinstance(queue, SegmentedIssueQueue)
                and queue.halves == 2
            ):
                # Each segment packs from its physical slot offset (site
                # numbering: old half, new half, latch); visit in age order.
                for off, seg in (
                    (0, queue.old), (2 * half, queue.buf), (half, queue.new)
                ):
                    for i in range(off, off + len(seg)):
                        k = (struct, i)
                        counts[k] = counts.get(k, 0) + 1
            else:
                # Compacting or degraded-segmented: entries pack from 0.
                for i in range(queue.occupancy()):
                    k = (struct, i)
                    counts[k] = counts.get(k, 0) + 1
        for i in range(len(core.lsq.entries)):
            k = ("lsq", i)
            counts[k] = counts.get(k, 0) + 1
        arch = core.arch
        if arch is not None:
            n_pregs = arch.n_pregs
            live = set()  # dedupe: a preg counts once per sample
            for info in arch.info.values():
                if info.preg is not None:
                    live.add((info.cls, info.preg))
                for cls, p in info.srcs:
                    if cls >= 0 and 0 <= p < n_pregs:
                        live.add((cls, p))
            for cls, p in live:
                k = ("prf_int" if cls == 0 else "prf_fp", p)
                counts[k] = counts.get(k, 0) + 1
            for cls, struct in ((0, "rmap_int"), (1, "rmap_fp")):
                for a, p in enumerate(arch.rmap[cls]):
                    if p is not None:
                        k = (struct, a)
                        counts[k] = counts.get(k, 0) + 1
        for way in range(cfg.fetch_width):
            k = ("fetch", way)
            counts[k] = counts.get(k, 0) + 1

    # ------------------------------------------------------------------
    def residency(self, struct: str, index: int) -> int:
        """Samples that found live state under ``struct[index]``."""
        return self.counts.get((struct, index), 0)

    def struct_totals(self) -> Dict[str, int]:
        """Summed residency counts per structure."""
        totals: Dict[str, int] = {}
        for (struct, _idx), c in self.counts.items():
            totals[struct] = totals.get(struct, 0) + c
        return totals

    def top_sites(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """The ``n`` hottest (struct, index, count) sites."""
        ranked = sorted(
            ((s, i, c) for (s, i), c in self.counts.items()),
            key=lambda t: (-t[2], t[0], t[1]),
        )
        return ranked[:n]

    def report(self, top: int = 12) -> str:
        """Human-readable profile summary for the CLI."""
        lines = [
            f"site profile: {self.samples} samples"
            f" (every {self.stride} cycles)"
        ]
        totals = self.struct_totals()
        for struct in sorted(totals):
            mean = totals[struct] / self.samples if self.samples else 0.0
            lines.append(
                f"  {struct:<10s} mean occupied slots/sample {mean:8.2f}"
            )
        lines.append(f"  hottest {top} sites:")
        for struct, idx, c in self.top_sites(top):
            frac = c / self.samples if self.samples else 0.0
            lines.append(
                f"    {struct}[{idx}]"
                f" residency {frac:6.1%} ({c}/{self.samples})"
            )
        return "\n".join(lines)
