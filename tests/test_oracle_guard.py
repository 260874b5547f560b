"""Production paths never construct a reference oracle.

The dict-of-arrays ``PackedSimulator`` and the reference ``Podem`` are
the oracles tests and gates check the bit-packed simulator and compiled
PODEM against; no production path may build one.  With both constructors
patched to raise, an isolation campaign (netlist, scan, ATPG, fault
isolation) and a plain ATPG run must still complete.
"""

import pytest

from repro.atpg import Podem, run_atpg
from repro.netlist import GateType, Netlist
from repro.netlist.simulate import PackedSimulator
from repro.runner import IsolationSpec, clear_contexts, run_isolation


@pytest.fixture
def no_oracles(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError(
            f"a production path constructed {type(self).__name__}"
        )

    monkeypatch.setattr(PackedSimulator, "__init__", refuse)
    monkeypatch.setattr(Podem, "__init__", refuse)
    clear_contexts()  # force the campaign to rebuild its setup
    yield
    clear_contexts()


def test_guard_trips_on_oracle_construction(no_oracles):
    nl = Netlist("guard")
    nl.mark_output(nl.add_gate(GateType.NOT, [nl.add_input("a")]))
    with pytest.raises(AssertionError):
        PackedSimulator(nl)
    with pytest.raises(AssertionError):
        Podem(nl)


def test_isolation_campaign_and_atpg_build_no_oracle(no_oracles):
    spec = IsolationSpec(
        tiny=True, n_faults=20, chunk_size=10, max_deterministic=40
    )
    stats = run_isolation(spec, workers=1, checkpoint=False)
    assert stats.inserted == 20

    nl = Netlist("guard_atpg")
    a, b, c = (nl.add_input(name) for name in "abc")
    ab = nl.add_gate(GateType.AND, [a, b])
    nl.mark_output(nl.add_gate(GateType.OR, [ab, c]))
    nl.add_flop(ab, name="q")
    result = run_atpg(nl, seed=1)
    assert result.n_aborted == 0
    assert result.coverage == 1.0
