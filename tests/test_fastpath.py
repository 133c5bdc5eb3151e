"""Unit tests for the fast-path memo substrate."""

import ast
import dataclasses
import enum
import hashlib
import json
import sys
import threading
from pathlib import Path

import pytest

from repro import fastpath
from repro.analysis.runner import iter_python_files
from repro.config.schema import NocTopology


class TestMemo:
    def test_computes_once(self):
        memo = fastpath.Memo("t-once", max_entries=4)
        calls = []
        for _ in range(3):
            value = memo.get_or_compute("k", lambda: calls.append(1) or 42)
        assert value == 42
        assert len(calls) == 1
        assert memo.hits == 2
        assert memo.misses == 1

    def test_lru_eviction(self):
        memo = fastpath.Memo("t-lru", max_entries=2)
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("b", lambda: 2)
        memo.get_or_compute("a", lambda: 1)   # refresh a
        memo.get_or_compute("c", lambda: 3)   # evicts b
        assert len(memo) == 2
        calls = []
        memo.get_or_compute("b", lambda: calls.append(1) or 2)
        assert calls  # b was recomputed

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            fastpath.Memo("t-bad", max_entries=0)

    def test_clear_resets_counters(self):
        memo = fastpath.Memo("t-clear")
        memo.get_or_compute("a", lambda: 1)
        memo.get_or_compute("a", lambda: 1)
        memo.clear()
        assert len(memo) == 0
        assert memo.hits == 0 and memo.misses == 0


class TestDisabledContext:
    def test_bypasses_memo(self):
        memo = fastpath.Memo("t-disabled")
        calls = []
        with fastpath.disabled():
            assert not fastpath.enabled()
            for _ in range(2):
                memo.get_or_compute("k", lambda: calls.append(1) or 7)
        assert len(calls) == 2          # recomputed every time
        assert len(memo) == 0           # nothing stored
        assert fastpath.enabled()

    def test_nesting_restores(self):
        with fastpath.disabled():
            with fastpath.disabled():
                assert not fastpath.enabled()
            assert not fastpath.enabled()
        assert fastpath.enabled()

    def test_existing_entries_survive(self):
        memo = fastpath.Memo("t-survive")
        memo.get_or_compute("k", lambda: 1)
        with fastpath.disabled():
            memo.get_or_compute("k", lambda: 2)
        assert memo.get_or_compute("k", lambda: 3) == 1

    def test_stats_and_clear_all(self):
        memo = fastpath.Memo("t-stats")
        memo.get_or_compute("k", lambda: 1)
        assert fastpath.stats()["t-stats"] == {
            "hits": 0, "misses": 1, "evictions": 0, "entries": 1}
        fastpath.clear_all()
        assert fastpath.stats()["t-stats"]["entries"] == 0


class TestMemoThreadSafety:
    def test_threaded_eviction_pressure(self):
        """N threads, shared keys, capacity far below the key space."""
        memo = fastpath.Memo("t-threads", max_entries=8)
        n_threads, n_calls = 8, 400
        errors = []
        barrier = threading.Barrier(n_threads)

        def work(tid):
            barrier.wait()
            for i in range(n_calls):
                key = (tid * 7 + i) % 32
                value = memo.get_or_compute(  # repro: noqa[KEY002]
                    key, lambda k=key: k * 3,
                )
                if value != key * 3:
                    errors.append((tid, key, value))

        threads = [
            threading.Thread(target=work, args=(tid,))
            for tid in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
        assert len(memo) <= 8
        # Every call increments exactly one of the two counters, even
        # under eviction pressure.
        assert memo.hits + memo.misses == n_threads * n_calls

    def test_after_fork_reinit_replaces_held_locks(self):
        """The at-fork hook swaps a (possibly held) lock for a fresh one."""
        memo = fastpath.Memo("t-fork")
        stale = memo._lock
        stale.acquire()
        try:
            fastpath._reinit_after_fork()
            assert memo._lock is not stale
            assert memo._lock.acquire(blocking=False)
            memo._lock.release()
        finally:
            stale.release()


@dataclasses.dataclass(frozen=True)
class _Point:
    x: int
    y: str = "z"


@dataclasses.dataclass(frozen=True)
class _Holder:
    head: object
    rest: list


@dataclasses.dataclass(frozen=True)
class _Wrap:
    inner: object


@dataclasses.dataclass  # repro: noqa[SPEC001] -- mutable on purpose
class _Box:
    value: int


class _Level(enum.IntEnum):
    HIGH = 3


class _Ratio(float, enum.Enum):
    HALF = 0.5


class _Opaque:
    def __str__(self) -> str:
        return "opaque"


def _reference_hash(payload) -> str:
    """The canonical form spelled with ``asdict`` and ``json.dumps``."""
    def flatten(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return dataclasses.asdict(obj)
        return str(obj)

    if dataclasses.is_dataclass(payload):
        payload = dataclasses.asdict(payload)
    blob = json.dumps(
        payload, sort_keys=True, separators=(",", ":"), default=flatten,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class TestStableHash:
    def test_deterministic(self):
        assert fastpath.stable_hash({"a": 1}) == fastpath.stable_hash({"a": 1})

    def test_content_not_identity(self):
        assert fastpath.stable_hash(_Point(1)) == fastpath.stable_hash(
            _Point(1))
        assert fastpath.stable_hash(_Point(1)) != fastpath.stable_hash(
            _Point(2))

    def test_nested_dataclasses(self):
        a = fastpath.stable_hash({"p": _Point(1), "q": [_Point(2)]})
        b = fastpath.stable_hash({"p": _Point(1), "q": [_Point(2)]})
        assert a == b

    def test_canonical_form_is_json_dumps(self):
        """Byte-identical to sorted, compact ``json.dumps`` + ``str``."""
        payloads = [
            {"nan": float("nan"), "inf": float("inf"),
             "-inf": float("-inf"), "zero": -0.0, "tiny": 5e-324},
            {"t": (1, 2.5, "x", None), "b": [True, False], "big": 2 ** 70},
            {"s": 'é"\n\x00', "enum": NocTopology.RING},
            {"int_enum": _Level.HIGH, "float_enum": _Ratio.HALF},
            {"int keys": {2: "a", 1: "b"}, "odd": _Opaque()},
            {"p": _Point(1), "q": [_Point(2)], "r": (_Point(3, "é"),)},
            _Holder(_Point(4), [_Point(5)]),
            [1, "two", 3.0],
        ]
        for payload in payloads:
            assert fastpath.stable_hash(payload) == _reference_hash(payload)

    def test_frozen_instances_memoize_their_encoding(self):
        point = _Point(1)
        assert fastpath._ENCODED_ATTR not in vars(point)
        first = fastpath.stable_hash({"p": point})
        assert fastpath._ENCODED_ATTR in vars(point)
        assert fastpath.stable_hash({"p": point}) == first
        assert point == _Point(1)  # equality ignores the memo
        assert fastpath._ENCODED_ATTR not in vars(
            dataclasses.replace(point))

    def test_mutable_leaf_disables_the_memo_of_every_encloser(self):
        inner = _Holder(_Point(1), [])
        wrapped = _Wrap(_Wrap(inner))
        before = fastpath.stable_hash(wrapped)
        inner.rest.append(_Point(2))
        assert fastpath.stable_hash(wrapped) != before
        for node in (inner, wrapped, wrapped.inner):
            assert fastpath._ENCODED_ATTR not in vars(node)
        assert fastpath._ENCODED_ATTR in vars(inner.head)

    def test_mutable_dataclass_is_never_memoized(self):
        box = _Box(1)
        before = fastpath.stable_hash(_Wrap(box))
        box.value = 2
        assert fastpath.stable_hash(_Wrap(box)) != before

    def test_concurrent_first_encodings_agree(self):
        """Threads racing on fresh plans and memos see one canonical form."""
        from tests.conftest import make_tiny_config

        configs = [make_tiny_config(n_cores=n) for n in range(1, 5)]
        expected = [_reference_hash(config) for config in configs]
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        results: list[list[str]] = [[] for _ in range(n_threads)]

        def work(tid):
            barrier.wait()
            for _ in range(50):
                results[tid].append(fastpath.stable_hash(
                    configs[tid % len(configs)]
                ))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        fastpath._PLANS.clear()
        try:
            threads = [
                threading.Thread(target=work, args=(tid,))
                for tid in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        for tid, digests in enumerate(results):
            assert digests == [expected[tid % len(configs)]] * 50

    def test_matches_engine_cache_keys(self):
        """config_key must keep producing the same on-disk cache keys."""
        from repro.engine.cache import config_key
        from tests.conftest import make_tiny_config

        config = make_tiny_config()
        assert config_key(config) == config_key(
            dataclasses.replace(config))


class _Counted:
    def __init__(self):
        self.calls = 0

    @fastpath.cached_property
    def value(self):
        """The answer."""
        self.calls += 1
        return 42


@dataclasses.dataclass(frozen=True)
class _FrozenSquare:
    side: int

    @fastpath.cached_property
    def area(self):
        return self.side * self.side


class TestCachedProperty:
    def test_computes_once_and_stores_in_instance_dict(self):
        obj = _Counted()
        assert obj.value == 42
        assert obj.value == 42
        assert obj.calls == 1
        assert obj.__dict__["value"] == 42

    def test_class_access_returns_the_descriptor(self):
        descriptor = _Counted.value
        assert isinstance(descriptor, fastpath.cached_property)
        assert descriptor.attrname == "value"
        assert descriptor.__doc__ == "The answer."

    def test_works_on_frozen_dataclasses(self):
        square = _FrozenSquare(3)
        assert square.area == 9
        assert square.__dict__["area"] == 9
        assert square == _FrozenSquare(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            square.side = 4

    def test_del_makes_next_access_recompute(self):
        obj = _Counted()
        assert obj.value == 42
        del obj.value
        assert "value" not in obj.__dict__
        assert obj.value == 42
        assert obj.calls == 2

    def test_racing_first_accesses_agree(self):
        """No lock: racing threads may each compute, but a pure compute
        hands every reader an equal value and one of them is kept."""

        class Table:
            @fastpath.cached_property
            def rows(self):
                return tuple(i * i for i in range(2000))

        n_threads = 8
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):
                table = Table()
                barrier = threading.Barrier(n_threads)
                seen = []

                def read():
                    barrier.wait(timeout=10)
                    seen.append(table.rows)

                threads = [
                    threading.Thread(target=read) for _ in range(n_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert len(seen) == n_threads
                assert all(rows == table.rows for rows in seen)
                assert any(rows is table.rows for rows in seen)
        finally:
            sys.setswitchinterval(previous)

    def test_instance_without_dict_is_a_type_error(self):
        class Slotted:
            __slots__ = ()

            @fastpath.cached_property
            def value(self):
                return 1

        with pytest.raises(TypeError, match="__dict__"):
            Slotted().value

    def test_one_descriptor_under_two_names_is_rejected(self):
        shared = fastpath.cached_property(lambda self: 1)
        with pytest.raises((TypeError, RuntimeError)):
            type("Twice", (), {"a": shared, "b": shared})


class TestNoStdlibCachedProperty:
    def test_src_imports_cached_property_from_fastpath_only(self):
        """``functools.cached_property`` locks on every first access
        (Python 3.11); model code uses the lock-free fastpath one."""
        src = Path(__file__).resolve().parents[1] / "src"
        offenders = []
        for path in iter_python_files([src]):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) \
                        and node.module == "functools" \
                        and any(a.name == "cached_property"
                                for a in node.names):
                    offenders.append(f"{path}:{node.lineno}")
                elif isinstance(node, ast.Attribute) \
                        and node.attr == "cached_property" \
                        and isinstance(node.value, ast.Name) \
                        and node.value.id == "functools":
                    offenders.append(f"{path}:{node.lineno}")
        assert offenders == []
