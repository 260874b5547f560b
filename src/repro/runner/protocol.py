"""The campaign protocol and the one generic runner that drives it.

A campaign is a :class:`Campaign` object.  It names a frozen spec
dataclass (``spec_cls``) and a merged result class (``result_cls``) and
supplies four steps:

- ``setup(spec) -> ctx`` builds the heavy shared state (a netlist with
  its ATPG vectors, a golden run, a lint report) once per process;
- ``items(spec)`` lists the shard inputs, a pure function of the spec;
- ``work(ctx, item) -> payload`` computes one shard's JSON payload;
- ``merge(spec, ctx, payloads) -> result`` folds the payloads, in shard
  order, into the result.

:func:`run_campaign` does the rest for every campaign alike: it builds
the :class:`~repro.runner.store.CheckpointStore` keyed by the spec hash
and hands the items to :func:`~repro.runner.executor.run_shards` with a
picklable worker bound to ``(campaign, spec)``.

Contexts live in one process-wide cache that holds **at most one
context per campaign name**.  Every shard looks up the context for its
own ``(campaign, spec)`` and rebuilds it on a mismatch, so two jobs in
one process (the campaign service's threads, or decide's injection
shards next to an inject job) can never read each other's state.  Under
the POSIX ``fork`` start method, workers inherit the parent's cache, so
a context built before the pool starts is never rebuilt.

Every spec field is declared once, with :func:`param`: its default,
help text, CLI flag and legal values.  The shared
:meth:`Spec.__post_init__` checks each field against its declaration
and ``repro``'s campaign commands generate their flags from it, so the
CLI, the campaign service and library callers accept exactly the same
specs.
"""

from __future__ import annotations

import math
import typing
from dataclasses import asdict, dataclass, field, fields
from functools import lru_cache, partial
from typing import (
    Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union,
)

from repro.runner.executor import ProgressFn, run_shards
from repro.runner.store import CheckpointStore, config_hash
from repro.telemetry import TELEMETRY

#: campaign name -> (spec, context) of the last spec set up in this process.
_CONTEXTS: Dict[str, Tuple[Any, Any]] = {}


def context(campaign: "Campaign", spec: Any) -> Any:
    """The campaign's shared state for ``spec``, built on a cache miss."""
    hit = _CONTEXTS.get(campaign.name)
    if hit is not None and hit[0] == spec:
        return hit[1]
    # Drop the stale context first: one context per campaign at a time.
    _CONTEXTS.pop(campaign.name, None)
    ctx = campaign.setup(spec)
    _CONTEXTS[campaign.name] = (spec, ctx)
    return ctx


def clear_contexts() -> None:
    """Forget every cached context (the next shard rebuilds cold)."""
    _CONTEXTS.clear()


def _work(campaign: "Campaign", spec: Any, item: Any) -> Any:
    return campaign.work(context(campaign, spec), item)


def run_campaign(
    campaign: "Campaign",
    spec: Any,
    *,
    workers: int = 1,
    resume: bool = False,
    checkpoint: bool = True,
    cache_root: Optional[str] = None,
    store: Optional[CheckpointStore] = None,
    progress: Optional[ProgressFn] = None,
) -> Any:
    """Run one campaign through the sharded runner; returns its result.

    Bit-identical for any ``workers``/chunking/resume history as long as
    the campaign keeps the runner contract: shard ``i``'s payload is a
    function of ``(spec, items[i])`` alone.  An explicit ``store``
    overrides the default checkpoint store (the campaign service's
    seam); ``checkpoint=False`` runs without one.
    """
    ctx = context(campaign, spec)
    items = campaign.items(spec)
    if store is None and checkpoint:
        store = campaign.store_for(spec, cache_root)
    with TELEMETRY.span(f"{campaign.name}.campaign"):
        payloads = run_shards(
            items,
            partial(_work, campaign, spec),
            workers=workers,
            initializer=context,
            initargs=(campaign, spec),
            store=store,
            resume=resume,
            progress=progress,
        )
        return campaign.merge(spec, ctx, payloads)


@dataclass(frozen=True)
class Param:
    """The declaration of one spec field; see :func:`param`.

    ``lo``/``hi`` are inclusive bounds on a number, or on a tuple's
    length; ``choices`` lists the legal values (of every element, for a
    tuple).  ``flags`` name the field's CLI flag and its aliases; a
    field without one has no flag.  A bool field's flag is a switch that
    sets the field to ``sets`` and leaves it ``not sets`` when absent.
    ``parse`` turns a flag's text into the field value where the
    annotated type does not.
    """

    help: str
    flags: Tuple[str, ...] = ()
    lo: Optional[float] = None
    hi: Optional[float] = None
    choices: Optional[Tuple[Any, ...]] = None
    sets: bool = True
    parse: Optional[Callable[[str], Any]] = None


def param(default: Any, *, flag: Union[None, str, Tuple[str, ...]] = None,
          **decl: Any) -> Any:
    """Declare a spec field once: ``dataclasses.field(default)`` carrying
    its :class:`Param` (``help``, ``lo``, ``hi``, ``choices``, ...) as
    metadata.  The field's type comes from its annotation."""
    flags = (flag,) if isinstance(flag, str) else tuple(flag or ())
    return field(default=default,
                 metadata={"param": Param(flags=flags, **decl)})


_TYPES = {
    bool: lambda v: type(v) is bool,
    int: lambda v: isinstance(v, int) and type(v) is not bool,
    float: lambda v: isinstance(v, (int, float)) and type(v) is not bool,
    str: lambda v: isinstance(v, str),
}


def _shape(hint: Any) -> Tuple[type, bool, bool]:
    """``(element type, optional, tuple)`` of a field annotation."""
    optional = tuple_ = False
    if typing.get_origin(hint) is Union:
        (hint,) = [a for a in typing.get_args(hint) if a is not type(None)]
        optional = True
    if typing.get_origin(hint) is tuple:
        hint = typing.get_args(hint)[0]
        tuple_ = True
    if hint not in _TYPES:
        raise TypeError(f"unsupported spec field type {hint!r}")
    return hint, optional, tuple_


@lru_cache(maxsize=None)
def spec_params(spec_cls: type) -> Tuple[Tuple[Any, Param, tuple], ...]:
    """``(field, declaration, shape)`` of every field of a spec class;
    ``TypeError`` if a field is not declared with :func:`param`."""
    hints = typing.get_type_hints(spec_cls)
    bare = [f.name for f in fields(spec_cls) if "param" not in f.metadata]
    if bare:
        raise TypeError(f"{spec_cls.__name__} fields {bare} lack param()")
    return tuple((f, f.metadata["param"], _shape(hints[f.name]))
                 for f in fields(spec_cls))


def format_choices(choices: Sequence[Any]) -> str:
    """``a, b, c``, with floats in ``%g`` form (``90``, not ``90.0``)."""
    return ", ".join(format(c, "g") if isinstance(c, float) else str(c)
                     for c in choices)


def check_param(name: str, value: Any, decl: Param, shape: tuple) -> None:
    """Raise ``ValueError`` naming the field, value and violated bound."""
    kind, optional, tuple_ = shape
    if value is None and optional:
        return
    if tuple_ and type(value) is not tuple:
        raise ValueError(f"{name}={value!r} is not a tuple")
    for v in value if tuple_ else (value,):
        if not _TYPES[kind](v):
            raise ValueError(f"{name}={value!r}: {v!r} is not a "
                             f"{kind.__name__}")
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"{name}={value!r} is not finite")
        if decl.choices is not None and v not in decl.choices:
            raise ValueError(f"{name}={value!r}: {v!r} is not one of "
                             f"{format_choices(decl.choices)}")
    size, what = (len(value), " values") if tuple_ else (value, "")
    if decl.lo is not None and size < decl.lo:
        raise ValueError(f"{name}={value!r} is below the minimum "
                         f"{decl.lo}{what}")
    if decl.hi is not None and size > decl.hi:
        raise ValueError(f"{name}={value!r} is above the maximum "
                         f"{decl.hi}{what}")


class Spec:
    """Base of the frozen campaign specs.

    Each field is declared with :func:`param`; the one ``__post_init__``
    checks every field against its declaration and never rewrites a
    value, so ``asdict(spec)`` (spec hashes, job ids, checkpoint keys)
    is exactly what the caller passed.
    """

    def __post_init__(self) -> None:
        for f, decl, shape in spec_params(type(self)):
            check_param(f.name, getattr(self, f.name), decl, shape)


class Campaign:
    """One sharded experiment; see the module docstring for the protocol.

    Subclasses set ``name``, ``title`` (one line for ``repro run``'s
    help), ``spec_cls`` and ``result_cls`` and define
    ``items`` and ``work``.  ``setup`` defaults to the spec itself, and
    ``merge`` to folding the payloads with the result class's own
    ``from_json`` and ``merge``.
    Everything else here is generic: running, building specs from JSON
    params, the checkpoint store and the result codec (every result
    class has ``to_json``, ``from_json`` and ``summary``).
    """

    name: str
    title: str
    spec_cls: type
    result_cls: type

    def setup(self, spec: Any) -> Any:
        """Default, for campaigns without heavy state: the spec itself."""
        return spec

    def items(self, spec: Any) -> Sequence[Any]:
        raise NotImplementedError

    def work(self, ctx: Any, item: Any) -> Any:
        raise NotImplementedError

    def merge(self, spec: Any, ctx: Any, payloads: List[Any]) -> Any:
        """Default: fold ``result_cls.from_json`` payloads with ``merge``."""
        merged = self.result_cls()
        for payload in payloads:
            merged = merged.merge(self.result_cls.from_json(payload))
        return merged

    #: ``campaign.run(spec, ...)`` is ``run_campaign(campaign, spec, ...)``.
    run = run_campaign

    def make_spec(self, params: Optional[Mapping[str, Any]] = None) -> Any:
        """The frozen spec from a JSON params dict.

        JSON lists become tuples (specs hold hashable tuples).  Unknown
        keys raise ``TypeError`` and invalid values ``ValueError``; the
        service maps both to HTTP 400.
        """
        if not isinstance(params or {}, Mapping):
            raise TypeError(f"params must be an object, not {params!r}")
        return self.spec_cls(**{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in (params or {}).items()
        })

    def job_key(self, spec: Any) -> str:
        """The service's job id: campaign name + full canonical spec."""
        return config_hash({"campaign": self.name, "spec": asdict(spec)})

    def store_for(
        self, spec: Any, cache_root: Optional[str] = None
    ) -> CheckpointStore:
        """The checkpoint store of ``spec``, shared by CLI and service."""
        return CheckpointStore(
            self.name, config_hash(asdict(spec)), root=cache_root
        )

    def result_to_json(self, result: Any) -> Any:
        return result.to_json()

    def result_from_json(self, payload: Any) -> Any:
        return self.result_cls.from_json(payload)

    def summarize(self, result: Any) -> str:
        return result.summary()
