"""ATPG and fault simulation substrate.

Stands in for the commercial ATPG/fault-simulation tool (TetraMax) the
paper used:

- :mod:`repro.atpg.faults` — the single stuck-at fault universe,
- :mod:`repro.atpg.collapse` — structural equivalence collapsing,
- :mod:`repro.atpg.podem` — deterministic test generation (reference
  PODEM with a 5-valued D-calculus; the oracle tests and gates use),
- :mod:`repro.atpg.podem_compiled` — event-driven PODEM on the compiled
  netlist (undo trail, SCOAP guidance, X-path pruning; the flow's
  engine),
- :mod:`repro.atpg.faultsim` — packed-pattern fault grading,
- :mod:`repro.atpg.flow` — the combined random + deterministic flow that
  produces the scan vector set and its statistics (Table 3).
"""

from repro.atpg.collapse import collapse_faults
from repro.atpg.compaction import reverse_order_compaction
from repro.atpg.diagnosis import ConeDiagnoser, DiagnosisResult
from repro.atpg.dictionary import FaultDictionary
from repro.atpg.faults import full_fault_universe
from repro.atpg.faultsim import FaultGrade, grade_faults
from repro.atpg.flow import AtpgResult, run_atpg
from repro.atpg.podem import Podem, PodemResult
from repro.atpg.podem_compiled import CompiledPodem, Scoap, compute_scoap

__all__ = [
    "AtpgResult",
    "CompiledPodem",
    "ConeDiagnoser",
    "DiagnosisResult",
    "FaultDictionary",
    "FaultGrade",
    "Podem",
    "Scoap",
    "compute_scoap",
    "PodemResult",
    "collapse_faults",
    "full_fault_universe",
    "grade_faults",
    "reverse_order_compaction",
    "run_atpg",
]
