"""Worker-pool fan-out for batch evaluation.

Evaluations are pure CPU-bound functions of their config, so they
parallelize trivially across processes. Payloads are split into one
contiguous, order-preserving chunk per worker and submitted to a
fork-context process pool.

One chunk per worker is about memo locality, not load balance. Almost
all of a cold evaluation is filling the process-wide circuit memos
(:mod:`repro.fastpath`: gate constants, repeater optima, built arrays),
and points with the same technology node and array specs share those
entries. Sweep grids (``SweepSpec.iter_points``) put their first axis
outermost, as do candidate lists built by nested loops, so a contiguous
range covers whole blocks of such points and its worker fills each
shared entry once. Many small chunks handed out dynamically would let every
worker see every block and fill every entry again.

Any chunk whose worker fails — including a hard crash that breaks the
pool — is re-run serially in the parent, so a flaky worker degrades
throughput instead of losing results; if the serial recovery fails too,
the raised error carries the original worker failure text so no
traceback is silently dropped. Platforms without ``fork`` (and
``jobs=1``) fall back to a plain serial loop.

When :mod:`repro.obs` is active, each worker accumulates trace spans
and metric deltas locally (its registry is reset per chunk) and ships
them back with its records; the parent merges them at join, so a traced
parallel run produces one coherent timeline and one combined metrics
snapshot.
"""

from __future__ import annotations

import multiprocessing
import os
import traceback
from concurrent.futures import ProcessPoolExecutor

from repro import fastpath
from repro import obs
from repro.config.schema import SystemConfig
from repro.engine.record import EvalRecord, evaluate_config
from repro.obs import runtime as _obs_runtime
from repro.perf.workload import Workload

#: One payload: (cache key, config, workload-or-None).
Payload = tuple[str, SystemConfig, Workload | None]


def default_jobs() -> int:
    """A sensible worker count for this machine."""
    return os.cpu_count() or 1


def fork_available() -> bool:
    """Whether the platform supports fork-based worker processes."""
    return "fork" in multiprocessing.get_all_start_methods()


def _evaluate_chunk(chunk: list[Payload]) -> list[EvalRecord]:
    """Evaluate one contiguous chunk of payloads (runs in a worker)."""
    return [
        evaluate_config(config, workload, key=key)
        for key, config, workload in chunk
    ]


def _memo_totals() -> dict[str, float]:
    """Flat memo counters, for before/after deltas across a chunk."""
    out: dict[str, float] = {}
    for name, counts in fastpath.stats().items():
        for field in ("hits", "misses", "evictions"):
            out[f"memo.{name}.{field}"] = float(counts[field])
    return out


def _evaluate_chunk_instrumented(
    chunk: list[Payload],
) -> tuple[list[EvalRecord], obs.MetricsSnapshot, tuple[obs.Span, ...]]:
    """Worker-side chunk evaluation that ships observability home.

    The worker's registry and span buffer are reset at chunk start, so
    what ships back is exactly this chunk's contribution. Memo counters
    persist across chunks (clearing them would kill the fast path), so
    their contribution is shipped as a before/after delta folded into
    the metric counters.
    """
    obs.reset()
    before = _memo_totals()
    chunk_timer = obs.timer()
    records = _evaluate_chunk(chunk)
    chunk_timer.observe("pool.chunk_s")
    after = _memo_totals()
    delta = obs.export_state()
    for name, total in after.items():
        moved = total - before.get(name, 0.0)
        if moved:
            delta.counters[name] = delta.counters.get(name, 0.0) + moved
    return records, delta, obs.spans()


def split_chunks(payloads: list[Payload], jobs: int) -> list[list[Payload]]:
    """Split payloads into ``min(jobs, len(payloads))`` contiguous chunks.

    Chunks are near-equal in size and concatenate back to ``payloads``
    in order. One chunk per worker keeps each worker's memo fills local
    (see the module docstring).
    """
    n_chunks = min(len(payloads), max(1, jobs))
    base, extra = divmod(len(payloads), n_chunks)
    chunks: list[list[Payload]] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        chunks.append(payloads[start:start + size])
        start += size
    return chunks


class WorkerRecoveryError(RuntimeError):
    """A chunk failed in a worker *and* during serial recovery.

    The message carries the original worker failure text (which the
    recovery attempt would otherwise discard) and the recovery failure
    is chained as ``__cause__``.
    """


def _format_failure(exc: BaseException) -> str:
    """One-line ``Type: message`` form of an exception."""
    return "".join(traceback.format_exception_only(exc)).strip()


def evaluate_payloads(
    payloads: list[Payload],
    jobs: int = 1,
) -> list[EvalRecord]:
    """Evaluate payloads, fanned out over ``jobs`` processes.

    Results come back in payload order regardless of which worker
    computed them, and are bitwise-identical to a serial run (each
    evaluation is a pure function). With ``jobs <= 1``, a single payload,
    or no ``fork`` support, the loop runs serially in-process.

    Raises:
        WorkerRecoveryError: When a chunk fails in its worker and the
            serial recovery attempt fails as well; the message preserves
            the original worker exception text.
    """
    pool_timer = obs.timer()
    obs.counter_add("pool.tasks", float(len(payloads)))
    if jobs <= 1 or len(payloads) <= 1 or not fork_available():
        return _evaluate_chunk(payloads)

    jobs = min(jobs, len(payloads))
    chunks = split_chunks(payloads, jobs)
    obs.counter_add("pool.chunks", float(len(chunks)))
    obs.gauge_set("pool.queue_depth", float(len(chunks)))
    instrumented = _obs_runtime.ACTIVE
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(
            max_workers=jobs, mp_context=context,
        ) as pool:
            worker = (
                _evaluate_chunk_instrumented if instrumented
                else _evaluate_chunk
            )
            futures = [pool.submit(worker, c) for c in chunks]
            records: list[EvalRecord] = []
            for chunk, future in zip(chunks, futures):
                try:
                    result = future.result()
                except Exception as exc:
                    # Worker died or errored. Recover this chunk
                    # serially; keep the worker's own failure text so it
                    # is never silently dropped.
                    obs.counter_add("pool.worker_recoveries")
                    worker_failure = _format_failure(exc)
                    try:
                        records.extend(_evaluate_chunk(chunk))
                    except Exception as retry_exc:
                        raise WorkerRecoveryError(
                            f"chunk of {len(chunk)} evaluation(s) failed "
                            f"in a worker and again during serial "
                            f"recovery; original worker failure: "
                            f"{worker_failure}"
                        ) from retry_exc
                else:
                    if instrumented:
                        chunk_records, delta, spans = result
                        records.extend(chunk_records)
                        obs.absorb(delta)
                        obs.merge(spans, parent_id=obs.current_span_id())
                    else:
                        records.extend(result)
                obs.gauge_set(
                    "pool.queue_depth",
                    float(sum(1 for f in futures if not f.done())),
                )
            pool_timer.gauge_rate("pool.tasks_per_s", len(payloads))
            return records
    except OSError:
        # Pool creation itself failed (sandbox, fd limits, ...).
        obs.counter_add("pool.fallbacks_serial")
        return _evaluate_chunk(payloads)
