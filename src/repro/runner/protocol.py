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
"""

from __future__ import annotations

from dataclasses import asdict
from functools import partial
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

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


class Campaign:
    """One sharded experiment; see the module docstring for the protocol.

    Subclasses set ``name``, ``spec_cls`` and ``result_cls`` and define
    ``items`` and ``work``.  ``setup`` defaults to the spec itself, and
    ``merge`` to folding the payloads with the result class's own
    ``from_json`` and ``merge``.
    Everything else here is generic: running, building specs from JSON
    params, the checkpoint store and the result codec (every result
    class has ``to_json``, ``from_json`` and ``summary``).
    """

    name: str
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
