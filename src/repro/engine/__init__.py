"""Batch evaluation engine: parallel, content-hash-cached chip modeling.

McPAT's headline use case is sweeping hundreds-to-thousands of candidate
architectures through the integrated power/area/timing model. This
package is the single entry point for evaluating *many* configurations:

* :func:`evaluate_many` — evaluate a batch of
  :class:`~repro.config.schema.SystemConfig` candidates, fanned out over
  worker processes and deduplicated through a content-hash cache.
* :class:`~repro.engine.cache.EvalCache` — in-memory LRU with an
  optional on-disk JSONL store, keyed by
  :func:`~repro.engine.cache.config_key`.
* :class:`~repro.engine.sweep.SweepSpec` / :func:`~repro.engine.sweep.run_sweep`
  — declarative parameter grids with checkpoint/resume.

Example::

    from repro import presets
    from repro.engine import evaluate_many

    configs = [presets.manycore_cluster(n_cores=n) for n in (16, 32, 64)]
    records = evaluate_many(configs, jobs=4)
    for record in records:
        print(record.name, record.tdp_w, record.area_mm2)

Results are bitwise-identical to a serial loop regardless of ``jobs``,
and repeated or overlapping batches are served from the cache.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro import obs
from repro.config.schema import SystemConfig
from repro.engine.cache import (
    CACHE_SCHEMA_VERSION,
    DEFAULT_CACHE,
    EvalCache,
    config_key,
)
from repro.engine.pool import (
    default_jobs,
    evaluate_payloads,
    fork_available,
)
from repro.engine.record import EvalRecord, evaluate_config
from repro.engine.sweep import (
    SweepAxis,
    SweepPoint,
    SweepPointResult,
    SweepSpec,
    format_sweep_table,
    run_sweep,
)
from repro.perf.workload import Workload

#: Objective names that require a workload simulation (mirrors
#: :class:`repro.optimizer.search.DesignObjective`, which is accepted
#: here duck-typed to keep the dependency one-way).
_RUNTIME_OBJECTIVES = frozenset({"runtime", "energy", "edp", "ed2p"})


def metrics_snapshot(
    cache: EvalCache | None = None,
) -> "obs.MetricsSnapshot":
    """Current engine observability state as a metrics snapshot.

    Combines the process-wide registry (pool counters, merged worker
    deltas), the fast-path memo collectors, and — when given — the
    counters of one :class:`EvalCache`.
    """
    extra = None
    if cache is not None:
        extra = {
            "engine.cache.hits": float(cache.hits),
            "engine.cache.misses": float(cache.misses),
            "engine.cache.evictions": float(cache.evictions),
            "engine.cache.entries": float(len(cache)),
            "engine.cache.corrupt_lines_skipped": float(
                cache.corrupt_lines_skipped
            ),
        }
    return obs.snapshot(extra_counters=extra)


def evaluate_many(
    configs: Sequence[SystemConfig] | Iterable[SystemConfig],
    objective: "object | None" = None,
    workload: Workload | None = None,
    jobs: int = 1,
    cache: EvalCache | None = DEFAULT_CACHE,
    with_metrics: bool = False,
    backend: str | None = None,
    exact: bool = True,
    rel_tol: float | None = None,
    surrogate: "object | None" = None,
) -> "list[EvalRecord] | tuple[list[EvalRecord], obs.MetricsSnapshot]":
    """Evaluate many configurations through the cache and worker pool.

    Args:
        configs: Candidate configurations.
        objective: Optional objective (a
            :class:`~repro.optimizer.search.DesignObjective` or its
            string value) used to validate that runtime objectives come
            with a workload; ranking itself is the optimizer's job.
        workload: Optional workload for runtime metrics.
        jobs: Worker processes (``1`` = serial, in-process).
        cache: Result cache. Defaults to the process-wide shared cache;
            pass ``None`` to force fresh evaluation.
        with_metrics: Also return a
            :class:`~repro.obs.MetricsSnapshot` of the evaluation stack
            (cache hit rates, memo counters, pool throughput) taken
            after the batch completes — ``(records, snapshot)``.
        backend: ``None``/``"scalar"`` (default) evaluates every point
            on the exact per-point path; ``"numpy"`` (or ``"auto"``)
            routes TDP-only points through the vectorized batch backend
            (:mod:`repro.batch`), which groups them by chip structure
            and evaluates shared frequency/temperature axes as array
            math — within 1e-9 relative of scalar. Points the backend
            cannot vectorize (workload runs, tiny groups, validation
            fallbacks) transparently use the scalar path. Cache
            accounting is identical either way: every point is looked
            up and stored per key.
        exact: ``True`` (default) never serves approximate results.
            ``False`` admits the learned surrogate tier
            (:mod:`repro.surrogate`): after cache hits, uncached points
            inside a trained segment's domain are answered in O(µs)
            with ``backend="surrogate"`` records carrying a declared
            relative error bound; everything else (out-of-domain,
            too-loose bounds, workload runs) transparently falls back
            to the exact engine. Surrogate answers are *never* stored
            in the exact-result cache, and exact paths stay
            bit-identical whether or not a surrogate is configured.
        rel_tol: With ``exact=False``, the caller's relative error
            tolerance: a surrogate answer is only served when its
            declared bound is at or below this. ``None`` accepts any
            in-domain answer. Must be positive; rejected with
            ``exact=True`` (an exact result has no tolerance to spend).
        surrogate: The :class:`~repro.surrogate.tier.SurrogateTier` to
            consult when ``exact=False`` (duck-typed to keep the
            dependency one-way). ``None`` uses the process-wide tier
            over the packaged model artifact
            (:func:`repro.surrogate.default_tier`); when that is also
            unavailable, every point is computed exactly.

    Returns:
        One :class:`EvalRecord` per config, in input order. Records for
        configs already cached (or repeated within the batch) are
        computed once; ``record.from_cache`` tells which and
        ``record.backend`` tells how. With ``with_metrics=True``, a
        ``(records, snapshot)`` tuple instead.

    Raises:
        ValueError: If ``configs`` is empty, a runtime objective is
            requested without a workload, an unknown backend is named,
            ``rel_tol`` is non-positive or combined with ``exact=True``,
            or a config holds a value that cannot be content-hashed
            (the message names the offending field path).
    """
    configs = list(configs)
    if not configs:
        raise ValueError("need at least one configuration to evaluate")
    if objective is not None:
        name = str(getattr(objective, "value", objective))
        if name in _RUNTIME_OBJECTIVES and workload is None:
            raise ValueError(
                f"objective {name!r} requires a workload"
            )
    if rel_tol is not None:
        if exact:
            raise ValueError(
                "rel_tol only applies to approximate evaluation; pass "
                "exact=False to admit the surrogate tier"
            )
        if not rel_tol > 0.0:
            raise ValueError(
                f"rel_tol must be a positive relative error bound, "
                f"got {rel_tol!r}"
            )
    tier = None
    if not exact:
        if surrogate is not None:
            tier = surrogate
        else:
            from repro.surrogate.tier import default_tier

            tier = default_tier()
    # repro.batch imports numpy: load it only when a caller opts in.
    resolved_backend = "scalar"
    if backend is not None and backend != "scalar":
        from repro import batch

        resolved_backend = batch.resolve_backend(backend)

    keys = [config_key(config, workload) for config in configs]
    records: dict[str, EvalRecord] = {}

    # Serve cache hits, and deduplicate repeats within the batch.
    to_compute: list[tuple[str, SystemConfig]] = []
    seen: set[str] = set()
    for key, config in zip(keys, configs):
        if key in seen:
            continue
        seen.add(key)
        hit = cache.get(key) if cache is not None else None
        if hit is not None:
            records[key] = hit
        else:
            to_compute.append((key, config))

    # The surrogate tier answers admissible uncached points; the rest
    # stay on the exact path and are fed back as training misses below.
    surrogate_fallbacks: list[tuple[str, SystemConfig]] = []
    if tier is not None and to_compute:
        remaining: list[tuple[str, SystemConfig]] = []
        for key, config in to_compute:
            answered = tier.try_predict(
                config, key=key, rel_tol=rel_tol, workload=workload,
            )
            if answered is not None:
                records[key] = answered[0]
                continue
            surrogate_fallbacks.append((key, config))
            remaining.append((key, config))
        to_compute = remaining

    if to_compute and resolved_backend == "numpy" and workload is None:
        from repro import batch

        batched, to_compute = batch.evaluate_batch(to_compute)
        for key, record in batched.items():
            records[key] = record
            if cache is not None:
                cache.put(key, record)

    if to_compute:
        fresh = evaluate_payloads(
            [(key, config, workload) for key, config in to_compute],
            jobs=jobs,
        )
        for (key, _), record in zip(to_compute, fresh):
            records[key] = record
            if cache is not None:
                cache.put(key, record)

    if tier is not None:
        for key, config in surrogate_fallbacks:
            tier.observe_miss(config, records[key])

    ordered = [records[key] for key in keys]
    if with_metrics:
        return ordered, metrics_snapshot(cache)
    return ordered


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE",
    "EvalCache",
    "EvalRecord",
    "SweepAxis",
    "SweepPoint",
    "SweepPointResult",
    "SweepSpec",
    "config_key",
    "default_jobs",
    "evaluate_config",
    "evaluate_many",
    "evaluate_payloads",
    "fork_available",
    "format_sweep_table",
    "metrics_snapshot",
    "run_sweep",
]
