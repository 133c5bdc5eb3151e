"""Process-wide memoization fast path for single-chip evaluation.

Profiling one cold :meth:`~repro.chip.processor.Processor.report` shows
~95% of the work is recomputation of pure functions of immutable inputs:
the repeated-wire optimizer re-solves the same ``(tech, plane, penalty)``
design point hundreds of times per chip, every sized :class:`Gate`
re-derives the same RC constants, and structurally identical arrays are
rebuilt from scratch. This module provides the shared machinery those
layers use to remember their answers:

* :class:`Memo` — a small bounded (LRU) process-wide cache with hit/miss
  counters, automatically registered for :func:`clear_all` / :func:`stats`.
* :func:`enabled` / :func:`disabled` — a global switch. Inside a
  ``with fastpath.disabled():`` block every memo is bypassed *and* the
  search heuristics that ride on the fast path (repeater-grid windowing,
  organization-search pruning) fall back to their exhaustive exact forms.
  The parity suite uses this to assert that memoized and unmemoized
  evaluations produce numerically identical reports.
* :func:`stable_hash` — the one canonical encoder behind every content
  key (:func:`repro.engine.cache.config_key`, the batch structure key,
  the ``build_array`` memo), so every cache layer keys on *content*,
  never object identity. Frozen dataclass instances memoize their
  encoding, which makes keying a ``dataclasses.replace`` variant cheap.
* :class:`cached_property` — the per-instance memo every model component
  uses for its derived quantities: a lock-free drop-in for
  :func:`functools.cached_property`.

Memos are per-process. Worker processes forked by ``repro.engine`` each
warm their own copy, which is exactly what makes repeated points inside
one worker cheap without any cross-process coordination.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from contextlib import contextmanager
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Generic, Iterator, TypeVar, cast, overload

from repro.obs import metrics as _obs_metrics

T = TypeVar("T")

_enabled: bool = True

#: Every Memo ever constructed, for clear_all()/stats().
_REGISTRY: list["Memo"] = []


def enabled() -> bool:
    """Whether the fast path (memos + pruned searches) is active."""
    return _enabled


@contextmanager
def disabled() -> Iterator[None]:
    """Context manager: run the enclosed block on the exact, unmemoized path.

    All :class:`Memo` lookups are bypassed (values are recomputed and not
    stored) and fast-path search heuristics revert to exhaustive sweeps.
    Existing memo contents are left untouched and become live again on
    exit.
    """
    global _enabled
    previous = _enabled
    _enabled = False
    try:
        yield
    finally:
        _enabled = previous


class Memo:
    """A bounded process-wide LRU memo table.

    Thread-safe: the serve tier calls memoized code from executor
    threads, so lookup/insert/evict and the counters are serialized by a
    per-memo lock. The compute callback runs *outside* the lock — two
    threads missing the same key may both compute (pure functions, same
    value) rather than one blocking the other's unrelated lookups.

    Args:
        name: Label used in :func:`stats` output.
        max_entries: Capacity; least-recently-used entries are evicted.

    Attributes:
        hits: Successful lookups.
        misses: Lookups that had to compute.
        evictions: Entries dropped to stay within ``max_entries``.
    """

    def __init__(self, name: str, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.name = name
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Any, Any] = OrderedDict()
        self._lock = threading.Lock()
        _REGISTRY.append(self)

    def get_or_compute(self, key: Any, compute: Callable[[], T]) -> T:
        """Return the memoized value for ``key``, computing on a miss.

        When the fast path is :func:`disabled`, always computes and never
        touches the table, so the exact path has zero memo coupling.
        """
        if not _enabled:
            return compute()
        with self._lock:
            try:
                value = self._entries[key]
            except KeyError:
                self.misses += 1
            else:
                self._entries.move_to_end(key)
                self.hits += 1
                return cast(T, value)
        value = compute()
        with self._lock:
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return value

    def clear(self) -> None:
        """Drop all entries and reset the counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)


class cached_property(Generic[T]):
    """Per-instance memoized property, without a lock.

    Same semantics as :func:`functools.cached_property` on Python 3.12+:
    the first access calls the decorated method and stores its value in
    the instance ``__dict__`` under the property's name, where it shadows
    this non-data descriptor, so later reads are plain attribute lookups.
    ``del obj.name`` drops the value and the next access recomputes it.
    The store goes straight to ``__dict__``, so frozen dataclasses work.

    Unlike ``functools.cached_property`` before 3.12, no lock is taken:
    the 3.11 stdlib version holds an ``RLock`` on every first access,
    which was the top self-time entry of a cold model build. Two threads
    racing on a first access may therefore both compute the value and
    the last store wins. That is safe only because memoized computes
    must be pure (the CP002 contract, which ``lint --keysound`` checks
    on every ``cached_property`` site as DET001/DET002): both
    computations yield equal values and neither has side effects.

    The name matters: the analysis passes recognise memo sites by the
    ``cached_property`` decorator name. Once the package requires
    Python 3.12, the stdlib descriptor can take this one's place.
    """

    def __init__(self, func: Callable[[Any], T]) -> None:
        self.func = func
        self.attrname: str | None = None
        self.__doc__ = func.__doc__
        self.__module__ = func.__module__

    def __set_name__(self, owner: type, name: str) -> None:
        if self.attrname is None:
            self.attrname = name
        elif name != self.attrname:
            raise TypeError(
                "Cannot assign the same cached_property to two different "
                f"names ({self.attrname!r} and {name!r})."
            )

    @overload
    def __get__(
        self, instance: None, owner: type | None = None,
    ) -> "cached_property[T]": ...

    @overload
    def __get__(self, instance: object, owner: type | None = None) -> T: ...

    def __get__(
        self, instance: object | None, owner: type | None = None,
    ) -> "T | cached_property[T]":
        if instance is None:
            return self
        name = self.attrname
        if name is None:
            raise TypeError(
                "Cannot use cached_property instance without calling "
                "__set_name__ on it."
            )
        try:
            cache = instance.__dict__
        except AttributeError:
            raise TypeError(
                f"No '__dict__' attribute on {type(instance).__name__!r} "
                f"instance to cache {name!r} property."
            ) from None
        value = self.func(instance)
        cache[name] = value
        return value


def _reinit_after_fork() -> None:
    """Replace every memo's lock in a freshly forked child.

    A fork can land while another thread in the parent holds a memo
    lock; the child would inherit it locked forever (the owning thread
    does not exist there). Same pattern the stdlib ``logging`` module
    uses for its handler locks.
    """
    global _PLAN_LOCK
    for memo in _REGISTRY:
        memo._lock = threading.Lock()
    _PLAN_LOCK = threading.Lock()


if hasattr(os, "register_at_fork"):  # not on every platform
    os.register_at_fork(after_in_child=_reinit_after_fork)


def clear_all() -> None:
    """Empty every registered memo (cold-start state, e.g. for benchmarks)."""
    for memo in _REGISTRY:
        memo.clear()


def stats() -> dict[str, dict[str, int]]:
    """Per-memo hit/miss/eviction/size counters, keyed by memo name."""
    return {
        memo.name: {
            "hits": memo.hits,
            "misses": memo.misses,
            "evictions": memo.evictions,
            "entries": len(memo),
        }
        for memo in _REGISTRY
    }


def _obs_collect() -> dict[str, float]:
    """Memo counters in the flat form the metrics registry snapshots.

    Registered as a pull-side collector so the memo hot path carries no
    instrumentation at all — the registry reads these counters (which
    the memos keep anyway) only when a snapshot is taken.
    """
    out: dict[str, float] = {}
    for memo in _REGISTRY:
        out[f"memo.{memo.name}.hits"] = float(memo.hits)
        out[f"memo.{memo.name}.misses"] = float(memo.misses)
        out[f"memo.{memo.name}.evictions"] = float(memo.evictions)
        out[f"memo.{memo.name}.entries"] = float(len(memo))
    return out


_obs_metrics.register_collector("fastpath.memos", _obs_collect)


#: Canonical-JSON plan per dataclass type: whether instances are
#: frozen, and ``(field name, pre-escaped '"name":' head)`` pairs in
#: sorted name order. Read lock-free (one dict probe per instance);
#: written under ``_PLAN_LOCK`` (keys are derived on serve threads).
_PLANS: dict[
    type, tuple[bool, tuple[tuple[str, str], ...]],
] = {}  # repro: guarded-by[_PLAN_LOCK]
_PLAN_LOCK = threading.Lock()

#: Instance ``__dict__`` slot holding a frozen dataclass's encoding.
_ENCODED_ATTR = "_repro_canonical_json"

_FLOAT_SPECIALS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode_float(value: float) -> str:
    text = float.__repr__(value)
    return _FLOAT_SPECIALS.get(text, text)


#: Encoders for the exact JSON scalar types (subclasses such as
#: ``IntEnum`` must not match: ``json`` renders them differently).
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: _encode_float,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def _plan_for(obj: Any) -> tuple[bool, tuple[tuple[str, str], ...]]:
    """Build and record the plan of ``obj``'s dataclass type."""
    names = sorted(f.name for f in dataclasses.fields(obj))
    plan = (bool(obj.__dataclass_params__.frozen), tuple(
        (name, encode_basestring_ascii(name) + ":") for name in names
    ))
    with _PLAN_LOCK:
        _PLANS[type(obj)] = plan
    return plan


def _json_default(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    return str(obj)


def _encode(obj: Any) -> tuple[str, bool]:
    """Canonical JSON of ``obj`` and whether its subtree is immutable.

    Byte-identical to ``json.dumps(obj, sort_keys=True,
    separators=(",", ":"), default=str)`` with dataclass instances
    flattened as by :func:`dataclasses.asdict`. A frozen dataclass whose
    subtree holds no list, dict, set or other unknown object stores its
    encoding in its own ``__dict__``, so a ``dataclasses.replace`` of a
    config re-encodes only the replaced instance's own fields.
    """
    kind = type(obj)
    scalar = _SCALARS.get(kind)
    if scalar is not None:
        return scalar(obj), True
    plan = _PLANS.get(kind)
    if plan is None and dataclasses.is_dataclass(obj) \
            and not isinstance(obj, type):
        plan = _plan_for(obj)
    if plan is not None:
        frozen, heads = plan
        memo = getattr(obj, "__dict__", None) if frozen else None
        if memo is not None:
            cached = memo.get(_ENCODED_ATTR)
            if cached is not None:
                return cached, True
        fields = []
        immutable = frozen
        for name, head in heads:
            value = getattr(obj, name)
            scalar = _SCALARS.get(type(value))
            if scalar is not None:
                fields.append(head + scalar(value))
                continue
            text, field_immutable = _encode(value)
            fields.append(head + text)
            immutable = immutable and field_immutable
        encoded = "{" + ",".join(fields) + "}"
        if immutable and memo is not None:
            memo[_ENCODED_ATTR] = encoded
        return encoded, immutable
    if kind is tuple or kind is list:
        items = []
        immutable = kind is tuple
        for item in obj:
            text, item_immutable = _encode(item)
            items.append(text)
            immutable = immutable and item_immutable
        return "[" + ",".join(items) + "]", immutable
    if kind is dict and all(type(key) is str for key in obj):
        return "{" + ",".join(
            encode_basestring_ascii(key) + ":" + _encode(obj[key])[0]
            for key in sorted(obj)
        ) + "}", False
    if isinstance(obj, str):  # str-valued enums
        return encode_basestring_ascii(obj), True
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), default=_json_default,
    ), False


def stable_hash(payload: Any) -> str:
    """Deterministic sha256 over the canonical JSON form of ``payload``.

    The canonical form is ``json.dumps(..., sort_keys=True,
    separators=(",", ":"), default=str)`` with dataclass instances
    flattened to their fields, so two structurally equal payloads always
    hash identically regardless of how they were built. Frozen
    dataclasses memoize their encoding (see :func:`_encode`); they must
    therefore really be immutable, which the ``frozen`` contract and the
    no-mutable-leaf rule guarantee.
    """
    return hashlib.sha256(_encode(payload)[0].encode("utf-8")).hexdigest()
