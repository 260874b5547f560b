"""Gate-level netlist substrate.

This package stands in for the commercial RTL/synthesis tooling the paper
used (Synopsys Design Compiler over a Verilog model).  It provides:

- :mod:`repro.netlist.gates` — gate and flip-flop primitives,
- :mod:`repro.netlist.netlist` — the :class:`Netlist` container with
  levelization, fanout maps, and cone queries,
- :mod:`repro.netlist.simulate` — scalar and numpy parallel-pattern
  simulation with stuck-at fault overrides (the reference oracles tests
  and gates check the compiled engine against),
- :mod:`repro.netlist.compiled` — the levelized structure-of-arrays
  netlist form and the bit-packed 64-patterns-per-word fault-simulation
  engine the ATPG/diagnosis stack runs on,
- :mod:`repro.netlist.build` — word-level construction helpers used by the
  gate-level pipeline models in :mod:`repro.rtl`.
"""

from repro.netlist.gates import Flop, Gate, GateType
from repro.netlist.netlist import Netlist, NetlistError
from repro.netlist.simulate import PackedSimulator, Simulator
from repro.netlist.compiled import CompiledNetlist, PackedWordSimulator
from repro.netlist.build import NetBuilder

__all__ = [
    "CompiledNetlist",
    "Flop",
    "Gate",
    "GateType",
    "NetBuilder",
    "Netlist",
    "NetlistError",
    "PackedSimulator",
    "PackedWordSimulator",
    "Simulator",
]
