"""In-memory span recorder for the traced run.

:class:`Tracer` wraps the public functions listed in
:data:`TARGETS` where callers look them up — every ``repro.*``
module attribute bound to the function, or the class attribute for a
method — and records one span per call: name, start, end, parent span,
the campaign it belongs to, and an optional value taken from the call
(``Core.run``'s cycles, a verdict's stage).  Spans stay in memory until
the run ends.  :meth:`Tracer.uninstall` puts every original object back
and :meth:`Tracer.leftovers` proves it did.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, List, Optional, Tuple

def _cycle_before(args):
    return args[0].cycle


def _cycle_after(token, args, result):
    return args[0].cycle - token


def _status_after(token, args, result):
    return result.status


def _stage_after(token, args, result):
    return result.stage


#: (span name, module, attribute path, before-hook, after-hook) of every
#: wrapped function.  ``before(args)`` returns a token;
#: ``after(token, args, result)`` returns the value stored on the span.
TARGETS: Tuple[Tuple[str, str, str, Any, Any], ...] = (
    ("cpu.run", "repro.cpu.pipeline", "Core.run",
     _cycle_before, _cycle_after),
    ("cpu.snapshot", "repro.cpu.pipeline", "Core.snapshot", None, None),
    ("cpu.restore", "repro.cpu.pipeline", "Core.restore", None, None),
    ("cpu.rearm", "repro.cpu.pipeline", "Core.rearm", None, None),
    ("workloads.trace", "repro.workloads.generator", "generate_trace",
     None, None),
    ("inject.golden", "repro.inject.harness", "run_golden", None, None),
    ("inject.scan", "repro.inject.harness", "first_effect_scan",
     None, None),
    ("inject.fault_run", "repro.inject.harness", "run_with_fault",
     None, None),
    ("inject.session_run", "repro.inject.harness", "ReplaySession.run",
     None, None),
    ("inject.arena_append", "repro.inject.arena", "SnapshotArena.append",
     None, None),
    ("inject.arena_get", "repro.inject.arena", "SnapshotArena.get",
     None, None),
    ("netlist.compile", "repro.netlist.compiled",
     "CompiledNetlist.__init__", None, None),
    ("netlist.good_values", "repro.netlist.compiled",
     "PackedWordSimulator.good_values", None, None),
    ("netlist.faulty_values", "repro.netlist.compiled",
     "PackedWordSimulator.faulty_values", None, None),
    ("atpg.run", "repro.atpg.flow", "run_atpg", None, None),
    ("atpg.grade", "repro.atpg.faultsim", "grade_faults", None, None),
    ("atpg.podem", "repro.atpg.podem_compiled", "CompiledPodem.generate",
     None, _status_after),
    ("atpg.compaction", "repro.atpg.compaction",
     "reverse_order_compaction", None, None),
    ("scan.failing_bits", "repro.scan.tester", "ScanTester.failing_bits",
     None, None),
    ("core.isolate", "repro.core.isolation", "IsolationTable.isolate",
     None, None),
    ("core.netcheck", "repro.core.netcheck", "check_netlist_ici",
     None, None),
    ("rtl.build", "repro.rtl.model", "build_rescue_rtl", None, None),
    ("rtl.build", "repro.rtl.model", "build_baseline_rtl", None, None),
    ("repair.apply", "repro.repair.candidates", "apply_candidate",
     None, None),
    ("repair.verify", "repro.repair.oracle", "verify_candidate",
     None, _stage_after),
    ("runner.run_shards", "repro.runner.executor", "run_shards",
     None, None),
    ("runner.store_append", "repro.runner.store", "CheckpointStore.append",
     None, None),
)

#: Modules imported before wrapping, so that every module which binds a
#: target function by name already holds it when the bindings are
#: rewritten (a later ``from x import f`` would copy the wrapper).
PRELOAD = (
    "repro.cpu.degraded",
    "repro.inject.campaign",
    "repro.repair.campaign",
    "repro.rtl.experiment",
    "repro.runner.campaigns",
    "repro.workloads",
)

_MARK = "__perfbench_span__"


class Tracer:
    """Records spans for the wrapped calls of one traced run."""

    def __init__(self) -> None:
        # Span rows: [name, start, end, parent, campaign, value].
        self.spans: List[List[Any]] = []
        self.campaign: Optional[int] = None
        self._stack: List[int] = []
        # (owner, attribute, original) for every binding rewritten.
        self._patched: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def _open(self, name: str) -> List[Any]:
        parent = self._stack[-1] if self._stack else None
        row = [name, time.perf_counter(), 0.0, parent, self.campaign, None]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        return row

    def _close(self, row: List[Any]) -> None:
        row[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        row = self._open(name)
        try:
            yield row
        finally:
            self._close(row)

    def _wrap(self, name: str, fn: Callable, before, after) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            token = before(args) if before is not None else None
            row = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(row)
            if after is not None:
                row[5] = after(token, args, result)
            return result

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installing -----------------------------------------------------
    def install(self) -> None:
        """Wrap every target where callers look it up."""
        for mod in PRELOAD:
            importlib.import_module(mod)
        for name, mod_name, path, before, after in TARGETS:
            owner = importlib.import_module(mod_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            if outer:  # a method: the class attribute is the lookup
                original = owner.__dict__[attr]
                self._set(owner, attr, original,
                          self._wrap(name, original, before, after))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            for module in _repro_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, original, wrapper)

    def _set(self, owner: Any, attr: str, original: Any, new: Any) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        """Put every original object back, newest binding first."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)

    def leftovers(self) -> List[str]:
        """Bindings not back to their original (empty after uninstall).

        Checks every binding :meth:`install` rewrote, then scans every
        ``repro`` module and class for any wrapper still reachable.
        """
        found = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patched
            if vars(owner).get(attr) is not original
        ]
        for module in _repro_modules():
            for key, value in vars(module).items():
                if hasattr(value, _MARK):
                    found.append(f"{module.__name__}.{key}")
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        if hasattr(member, _MARK):
                            found.append(
                                f"{module.__name__}.{key}.{attr}"
                            )
        return found

    # -- reading --------------------------------------------------------
    def self_times(self, durations: List[float]) -> List[float]:
        """Each span's duration minus the part its child spans cover.

        Spans nest strictly (one thread, stack discipline), so the
        children of a span are disjoint and their durations add.
        ``durations`` gives each span's duration (scaled or wall).
        """
        out = list(durations)
        for row, dur in zip(self.spans, durations):
            if row[3] is not None:
                out[row[3]] -= dur
        return out


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None
        and (name == "repro" or name.startswith("repro."))
    ]
