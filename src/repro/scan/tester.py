"""Scan test application: scan-in / capture / scan-out / compare.

:class:`ScanTester` drives the combinational test model of a full-scan
design with packed pattern matrices.  A *pattern* assigns every source
(primary input and scan bit); the *response* is every observation point
(primary output and captured scan bit).  Comparing a faulty response to the
gold response yields the failing scan-bit positions — the raw material of
the paper's fault isolation (Section 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.netlist.compiled import PackedWordSimulator, WordValues
from repro.netlist.faults import StuckAt
from repro.netlist.netlist import Netlist
from repro.scan.chain import ScanChain
from repro.telemetry import TELEMETRY


@dataclass
class TestResponse:
    """Response of one pattern set: PO matrix and captured-state matrix.

    Both are (n_patterns, width) bool arrays; state columns follow flop id
    order (the chain maps flop ids to scan-bit positions).
    """

    po: np.ndarray
    state: np.ndarray

    def mismatches(self, other: "TestResponse") -> np.ndarray:
        """(n_patterns,) bool: any PO or state bit differs."""
        po_bad = (
            (self.po != other.po).any(axis=1)
            if self.po.size
            else np.zeros(self.state.shape[0], dtype=bool)
        )
        st_bad = (
            (self.state != other.state).any(axis=1)
            if self.state.size
            else np.zeros(self.po.shape[0], dtype=bool)
        )
        return po_bad | st_bad


class ScanTester:
    """Applies packed scan tests and reports failing bits."""

    def __init__(self, netlist: Netlist, chain: ScanChain) -> None:
        self.netlist = netlist
        self.chain = chain
        self.sim = PackedWordSimulator(netlist)
        # id(patterns) -> (pinned array, net values, gold response).
        self._good_cache: Dict[int, tuple] = {}

    def good_response(self, patterns: np.ndarray) -> TestResponse:
        """Gold response of the fault-free design for ``patterns``."""
        _, resp = self._good(patterns)
        return resp

    def _good(
        self, patterns: np.ndarray
    ) -> Tuple[WordValues, TestResponse]:
        key = id(patterns)
        cached = self._good_cache.get(key)
        if cached is not None:
            if TELEMETRY.enabled:
                TELEMETRY.count("scan.good_cache_hits")
            return cached[1], cached[2]
        if TELEMETRY.enabled:
            TELEMETRY.count("scan.good_cache_misses")
            TELEMETRY.count("scan.patterns_applied", int(patterns.shape[0]))
        values = self.sim.good_values(patterns)
        po, state = self.sim.capture(values)
        # Keep only the most recent pattern set to bound memory; the
        # array itself is pinned in the cache so its id cannot be
        # recycled by a different array while the entry lives.
        self._good_cache = {key: (patterns, values,
                                  TestResponse(po=po, state=state))}
        return values, self._good_cache[key][2]

    def detecting_patterns(
        self, patterns: np.ndarray, fault: StuckAt
    ) -> np.ndarray:
        """(n_patterns,) bool: which patterns detect ``fault``."""
        values, _ = self._good(patterns)
        return self.sim.detection_vector(values, fault)

    def failing_bits(
        self, patterns: np.ndarray, fault: StuckAt
    ) -> Tuple[List[int], List[int]]:
        """Failing (scan-bit positions, PO indices) across the pattern set.

        Scan-bit positions are chain indices — exactly what a tester reads
        off the scan-out pin and what the isolation table consumes.
        """
        if TELEMETRY.enabled:
            TELEMETRY.count("scan.failing_bits_queries")
        # Mismatching observation points come straight from the packed
        # fault delta, no unpacking.
        values, _ = self._good(patterns)
        fids, po_cols = self.sim.failing_observations(values, fault)
        return (
            sorted(self.chain.bit_of_flop[fid] for fid in fids),
            sorted(po_cols),
        )

    def test_cycles(self, n_vectors: int) -> int:
        """Tester cycle count for ``n_vectors`` (chain fill/drain overlap)."""
        return self.chain.test_cycles(n_vectors)
