"""Sharded campaign execution over a process pool.

:func:`run_shards` is the one orchestration primitive the campaigns
share: given a list of picklable shard specs and a top-level worker
function, it runs the shards inline (``workers <= 1``) or across a
``concurrent.futures.ProcessPoolExecutor``, checkpoints each completed
shard to a :class:`~repro.runner.store.CheckpointStore`, and returns the
payloads in shard order.

Determinism contract: the worker must compute shard ``i``'s payload from
``specs[i]`` (plus state built by ``initializer``) alone — never from
completion order or worker identity.  Under that contract the merged
result is identical for any worker count and any scheduling, which is
what ``tests/test_runner_determinism.py`` asserts.

Heavy shared state (a compiled netlist with its ATPG vectors) is *not*
pickled per shard: ``initializer`` runs once per worker process.
:func:`~repro.runner.protocol.run_campaign` passes the context cache's
lookup there, so a worker that forked from a parent holding the context
skips the rebuild entirely.

Telemetry: when the parent's :data:`~repro.telemetry.TELEMETRY` is
enabled, each shard runs inside a fresh
:meth:`~repro.telemetry.core.Telemetry.collect` scope — in the worker
process or inline — and its metrics ride home next to the payload in the
checkpoint record (``{"result": ..., "metrics": ...}``).  After all
shards land, the parent folds the shard metrics back into its own
registry **in shard-index order**, so the aggregated deterministic view
(integer counters, histograms) is bit-identical for any worker count,
chunking, or resume history — the campaign determinism contract extended
to the metrics.  Workers never stream trace events (a trace file has one
writer: the parent); their spans aggregate into the shard metrics
instead.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runner.store import CheckpointStore
from repro.telemetry import TELEMETRY


@dataclass(frozen=True)
class ShardProgress:
    """One progress event, emitted as each shard lands."""

    shard: int  # shard index within the campaign
    done: int  # shards finished so far (including this one)
    total: int  # total shards in the campaign
    cached: bool  # satisfied from the checkpoint store, not recomputed
    seconds: float  # wall-clock of this shard (0.0 when cached)


ProgressFn = Callable[[ShardProgress], None]


def _emit(
    progress: Optional[ProgressFn],
    shard: int,
    done: int,
    total: int,
    cached: bool,
    seconds: float,
) -> None:
    if progress is not None:
        progress(ShardProgress(shard, done, total, cached, seconds))


class _MeteredWorker:
    """Wraps the campaign worker: payload + per-shard telemetry metrics.

    Picklable (the wrapped worker is a module-level function), so the
    same object serves the inline path and the process pool.  With
    telemetry off the wrapper adds one attribute test per shard.
    """

    __slots__ = ("fn", "enabled")

    def __init__(self, fn: Callable[[Any], Any], enabled: bool) -> None:
        self.fn = fn
        self.enabled = enabled

    def __call__(self, spec: Any) -> Dict[str, Any]:
        if not self.enabled:
            return {"result": self.fn(spec), "metrics": None}
        with TELEMETRY.collect() as metrics:
            payload = self.fn(spec)
        return {"result": payload, "metrics": metrics.to_json()}


def _pool_init(
    tele_enabled: bool,
    inner: Optional[Callable[..., None]],
    inner_args: Tuple[Any, ...],
) -> None:
    """Per-worker-process setup: telemetry state, then the campaign's own.

    Runs in the child.  The sink is always detached — a forked worker
    inherits the parent's open trace file and must never write to it —
    and the enabled flag is made explicit so ``spawn`` start methods
    (which inherit nothing) still collect.
    """
    TELEMETRY.sink = None
    TELEMETRY.enabled = tele_enabled
    if inner is not None:
        inner(*inner_args)


def _unwrap(rec: Any) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Split a checkpoint record into (payload, metrics).

    Records written by this version are ``{"result":..., "metrics":...}``;
    anything else (hand-written stores, pre-telemetry payloads) is
    treated as a bare payload with no metrics.
    """
    if (
        isinstance(rec, dict)
        and set(rec) == {"result", "metrics"}
    ):
        return rec["result"], rec["metrics"]
    return rec, None


def run_shards(
    specs: Sequence[Any],
    worker: Callable[[Any], Any],
    *,
    workers: int = 1,
    initializer: Optional[Callable[..., None]] = None,
    initargs: Tuple[Any, ...] = (),
    store: Optional[CheckpointStore] = None,
    resume: bool = False,
    progress: Optional[ProgressFn] = None,
) -> List[Any]:
    """Run every shard, return payloads ordered by shard index.

    With ``store`` set and ``resume=True``, shards already present in the
    checkpoint are reported as cached and skipped; without ``resume`` the
    store is cleared first so a fresh run never merges stale partials.
    Payloads must be JSON-serializable when a store is used.
    """
    n = len(specs)
    tele_enabled = TELEMETRY.enabled
    metered = _MeteredWorker(worker, tele_enabled)
    completed: Dict[int, Any] = {}
    if store is not None:
        if resume:
            completed = {
                s: p for s, p in store.load().items() if 0 <= s < n
            }
        else:
            store.clear()

    results = dict(completed)
    done = 0
    for shard in sorted(completed):
        done += 1
        _emit(progress, shard, done, n, cached=True, seconds=0.0)

    pending = [i for i in range(n) if i not in completed]

    def _record(shard: int, rec: Any, seconds: float) -> None:
        nonlocal done
        results[shard] = rec
        if store is not None:
            store.append(shard, rec)
        done += 1
        _emit(progress, shard, done, n, cached=False, seconds=seconds)

    if pending:
        if workers <= 1:
            if initializer is not None:
                initializer(*initargs)
            for shard in pending:
                t0 = time.perf_counter()
                rec = metered(specs[shard])
                _record(shard, rec, time.perf_counter() - t0)
        else:
            pool_size = min(workers, len(pending))
            with ProcessPoolExecutor(
                max_workers=pool_size,
                initializer=_pool_init,
                initargs=(tele_enabled, initializer, initargs),
            ) as pool:
                t_start = {}
                futures = {}
                for shard in pending:
                    t_start[shard] = time.perf_counter()
                    futures[pool.submit(metered, specs[shard])] = shard
                for fut in as_completed(futures):
                    shard = futures[fut]
                    rec = fut.result()  # propagate worker exceptions
                    _record(
                        shard, rec, time.perf_counter() - t_start[shard]
                    )

    payloads: List[Any] = []
    n_cached = len(completed)
    for shard in range(n):
        payload, metrics = _unwrap(results[shard])
        payloads.append(payload)
        if tele_enabled and metrics:
            # Shard-index order: fixed regardless of completion order or
            # worker count, keeping even float-valued histogram sums
            # deterministic.
            TELEMETRY.merge_json(metrics)
    if tele_enabled:
        TELEMETRY.count("runner.shards.computed", n - n_cached)
        TELEMETRY.count("runner.shards.cached", n_cached)
    return payloads
