"""Tests for the worker pool: chunking, fallbacks, crash recovery."""

import os
import signal

import pytest

from repro import fastpath, obs
from repro.engine import config_key
from repro.engine import pool
from repro.engine.pool import (
    WorkerRecoveryError,
    evaluate_payloads,
    split_chunks,
)

from tests.conftest import make_tiny_config

#: Captured in the parent at import time, so forked workers see a
#: different ``os.getpid()``.
_PARENT_PID = os.getpid()

#: The real chunk evaluator, saved before any monkeypatching.
_REAL_CHUNK = pool._evaluate_chunk


def _suicidal_chunk(chunk):
    """Kill the process when running in a worker; evaluate in the parent.

    Module-level so the pool can pickle it by reference; forked workers
    inherit the monkeypatched module state and resolve it here.
    """
    if os.getpid() != _PARENT_PID:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_CHUNK(chunk)


def _poison_chunk(chunk):
    """Fail everywhere: in the worker and during serial recovery."""
    raise ValueError("poison task exploded")


def _payload(**overrides):
    config = make_tiny_config(**overrides)
    return (config_key(config), config, None)


class TestSplitChunks:
    def test_preserves_order_and_content(self):
        payloads = list(range(10))
        chunks = split_chunks(payloads, jobs=3)
        assert [x for chunk in chunks for x in chunk] == payloads

    def test_chunk_sizes_balanced(self):
        chunks = split_chunks(list(range(103)), jobs=4)
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert all(size > 0 for size in sizes)

    def test_never_more_chunks_than_payloads(self):
        assert len(split_chunks([1, 2], jobs=8)) == 2

    @pytest.mark.parametrize("jobs", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_one_chunk_per_worker(self, jobs, n):
        chunks = split_chunks(list(range(n)), jobs=jobs)
        assert len(chunks) == min(jobs, n)
        assert [x for chunk in chunks for x in chunk] == list(range(n))


class TestFallbacks:
    def test_jobs_one_is_serial(self, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not be created for jobs=1")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", boom)
        records = evaluate_payloads([_payload()], jobs=1)
        assert len(records) == 1
        assert records[0].tdp_w > 0

    def test_no_fork_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setattr(pool, "fork_available", lambda: False)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("pool must not be created without fork")

        monkeypatch.setattr(pool, "ProcessPoolExecutor", boom)
        records = evaluate_payloads(
            [_payload(n_cores=1), _payload(n_cores=2)], jobs=4)
        assert len(records) == 2

    def test_keys_threaded_through(self):
        payload = _payload()
        record, = evaluate_payloads([payload], jobs=1)
        assert record.key == payload[0]


class TestCrashRecovery:
    def test_dead_worker_chunk_reruns_serially(self, monkeypatch):
        """A SIGKILLed worker must not lose results: the parent re-runs
        the failed chunks serially and still returns them in order."""
        if not pool.fork_available():
            pytest.skip("needs fork")
        monkeypatch.setattr(pool, "_evaluate_chunk", _suicidal_chunk)

        payloads = [_payload(n_cores=1), _payload(n_cores=2)]
        records = evaluate_payloads(payloads, jobs=2)

        assert [r.key for r in records] == [p[0] for p in payloads]
        assert all(r.tdp_w > 0 for r in records)
        # And the recovered results match a clean serial run exactly.
        assert records == _REAL_CHUNK(payloads)

    def test_poison_task_preserves_worker_traceback(self, monkeypatch):
        """When a chunk fails in its worker *and* again during serial
        recovery, the raised error must carry the original worker
        failure text instead of silently dropping it."""
        if not pool.fork_available():
            pytest.skip("needs fork")
        monkeypatch.setattr(pool, "_evaluate_chunk", _poison_chunk)

        with pytest.raises(WorkerRecoveryError) as excinfo:
            evaluate_payloads(
                [_payload(n_cores=1), _payload(n_cores=2)], jobs=2,
            )
        message = str(excinfo.value)
        assert "original worker failure" in message
        assert "poison task exploded" in message
        # The recovery failure is chained, not lost either.
        assert isinstance(excinfo.value.__cause__, ValueError)


class TestInstrumentedPool:
    def test_spans_and_metrics_survive_fork(self):
        """With obs active, worker spans and metric deltas ship back to
        the parent and merge into one timeline / one registry."""
        if not pool.fork_available():
            pytest.skip("needs fork")
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            payloads = [_payload(n_cores=n) for n in (1, 2, 4)]
            with obs.span("test.batch"):
                records = evaluate_payloads(payloads, jobs=2)
            assert len(records) == 3
            names = {s.name for s in obs.spans()}
            assert "engine.evaluate" in names  # recorded in workers
            # Worker roots were re-anchored under the parent's open span.
            by_id = {s.span_id: s for s in obs.spans()}
            batch = next(s for s in by_id.values()
                         if s.name == "test.batch")
            evaluates = [s for s in by_id.values()
                         if s.name == "engine.evaluate"]
            assert all(s.parent_id == batch.span_id for s in evaluates)
            assert all(s.pid != os.getpid() for s in evaluates)
            snap = obs.snapshot()
            assert snap.counter("pool.tasks") == pytest.approx(3.0)
            assert snap.counter("pool.chunks") >= 2.0
            assert "pool.chunk_s" in snap.histograms
        finally:
            obs.disable()
            obs.reset()

    def test_results_identical_to_uninstrumented_run(self):
        if not pool.fork_available():
            pytest.skip("needs fork")
        payloads = [_payload(n_cores=n) for n in (1, 2)]
        baseline = evaluate_payloads(payloads, jobs=2)
        obs.enable()
        try:
            traced = evaluate_payloads(payloads, jobs=2)
        finally:
            obs.disable()
            obs.reset()
        assert traced == baseline


class TestMemoLocality:
    """One contiguous chunk per worker fills each memo entry once."""

    @staticmethod
    def _build_array_misses(payloads, jobs):
        """Worker-summed ``build_array`` misses of one run, cold memos."""
        fastpath.clear_all()
        obs.disable()
        obs.reset()
        obs.enable()
        try:
            records = evaluate_payloads(payloads, jobs=jobs)
            misses = obs.snapshot().counter("memo.build_array.misses")
        finally:
            obs.disable()
            obs.reset()
        return records, misses

    def test_two_node_families_miss_like_a_serial_run(self):
        if not pool.fork_available():
            pytest.skip("needs fork")
        # Node outermost, as SweepSpec.iter_points orders a grid: each
        # worker's contiguous chunk holds exactly one node family.
        payloads = [
            _payload(node_nm=node, n_cores=cores)
            for node in (90, 45) for cores in (1, 2, 4)
        ]
        serial, serial_misses = self._build_array_misses(payloads, jobs=1)
        pooled, pooled_misses = self._build_array_misses(payloads, jobs=2)
        assert serial_misses > 0
        assert pooled_misses == serial_misses
        assert pooled == serial
