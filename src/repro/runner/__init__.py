"""Parallel experiment orchestration with checkpoint/resume.

Every campaign is a :class:`~repro.runner.protocol.Campaign`: a frozen
spec class, a result class with ``to_json``/``from_json``/``summary``,
and four steps — ``setup(spec)`` builds the heavy shared context,
``items(spec)`` lists the shards, ``work(ctx, item)`` computes one
shard's JSON payload, and ``merge(spec, ctx, payloads)`` folds the
payloads in shard order.  One generic :func:`run_campaign` runs any of
them: it shards the items across a process pool
(:func:`run_shards`), checkpoints completed shards to ``.repro_cache/``
under a hash of the spec so an interrupted campaign resumes, and merges.

Contexts live in one process-wide cache with at most one context per
campaign name; every shard looks up the context of its own
``(campaign, spec)`` and rebuilds it on a mismatch, so concurrent jobs
never share state.  See DESIGN.md §"Parallel experiment runner" for the
sharding/seeding/merge/checkpoint contract and
``tests/test_runner_determinism.py`` for the bit-for-bit guarantees.

The registry and the campaign definitions (:data:`REGISTRY`,
:func:`run_isolation`, :func:`run_montecarlo`, :func:`run_ipc_sweep`
and their spec dataclasses) are re-exported lazily: the campaign
modules import experiment modules which themselves use
:mod:`repro.runner.seeding`, and the lazy hop keeps that cycle open.
"""

from repro.runner.executor import ProgressFn, ShardProgress, run_shards
from repro.runner.protocol import (
    Campaign,
    clear_contexts,
    context,
    run_campaign,
)
from repro.runner.seeding import derive_seed, shard_ranges
from repro.runner.store import CheckpointStore, config_hash

_CAMPAIGN_EXPORTS = (
    "IsolationSpec",
    "MonteCarloSpec",
    "IpcSweepSpec",
    "IpcSweepResult",
    "run_isolation",
    "run_montecarlo",
    "run_ipc_sweep",
    "prepare_isolation",
    "analytic_penalty_table",
    "ipc_sweep_items",
)
_REGISTRY_EXPORTS = ("REGISTRY", "get_campaign")

__all__ = [
    "Campaign",
    "CheckpointStore",
    "ProgressFn",
    "ShardProgress",
    "clear_contexts",
    "config_hash",
    "context",
    "derive_seed",
    "run_campaign",
    "run_shards",
    "shard_ranges",
    *_REGISTRY_EXPORTS,
    *_CAMPAIGN_EXPORTS,
]


def __getattr__(name: str):
    if name in _CAMPAIGN_EXPORTS:
        from repro.runner import campaigns

        return getattr(campaigns, name)
    if name in _REGISTRY_EXPORTS:
        from repro.runner import registry

        return getattr(registry, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
