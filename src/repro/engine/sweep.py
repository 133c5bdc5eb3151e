"""Declarative parameter sweeps with checkpoint/resume.

A :class:`SweepSpec` names parameter axes over a base
:class:`~repro.config.schema.SystemConfig`; the cross product of the
axis values defines the candidate grid. Axes address config fields by
name or dotted path (``core.issue_width``), with short aliases for the
common sweep dimensions (``cores``, ``tech_nm``).

:func:`run_sweep` evaluates the grid through the batch engine and can
append every finished point to a JSONL checkpoint; re-running with the
same checkpoint file resumes with exactly the unevaluated remainder.

The grid is streamed, never materialized: :meth:`SweepSpec.iter_points`
builds one config at a time (copy-on-write along the axis paths instead
of a deep copy per point), so a 100k-point grid holds one chunk of
pending work in memory, not 100k config dicts. Each point is keyed by
:func:`~repro.engine.cache.config_key` like any other evaluation.
Points that differ only in top-level fields share their nested
sub-configs, whose canonical encodings :func:`repro.fastpath.stable_hash`
memoizes, so such a key costs little more than encoding those fields.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro import obs
from repro.config.loader import (
    system_config_from_dict,
    system_config_to_dict,
)
from repro.config.schema import SystemConfig
from repro.engine.cache import DEFAULT_CACHE, EvalCache, config_key
from repro.engine.record import EvalRecord
from repro.perf.workload import Workload

#: Short axis names for the usual sweep dimensions.
AXIS_ALIASES = {
    "cores": "n_cores",
    "tech_nm": "node_nm",
    "node": "node_nm",
}

#: Minimum evaluation chunk under the numpy backend: a compiled group is
#: amortized over the points of one chunk, so batch chunks must be large
#: even when ``checkpoint_every`` is small. Purely an efficiency knob —
#: results and resume semantics are chunk-size independent.
_BATCH_CHUNK_POINTS = 1024


def _resolve_path(base_dict: dict[str, Any], name: str) -> str:
    """Resolve an axis name to a dotted config path, validating it."""
    path = AXIS_ALIASES.get(name, name)
    node: Any = base_dict
    parts = path.split(".")
    for i, part in enumerate(parts):
        if not isinstance(node, dict) or part not in node:
            where = ".".join(parts[:i]) or "the config root"
            options = (
                ", ".join(sorted(node)) if isinstance(node, dict)
                else "no sub-fields"
            )
            raise ValueError(
                f"unknown sweep axis {name!r}: {part!r} not found under "
                f"{where} (available: {options})"
            )
        node = node[part]
    return path


def _overlay(
    base_dict: dict[str, Any],
    paths: Sequence[Sequence[str]],
    values: Sequence[Any],
) -> dict[str, Any]:
    """Set axis values into a copy-on-write overlay of ``base_dict``.

    Only the dicts along the written paths are copied; untouched
    subtrees are shared with ``base_dict`` (they are read-only
    downstream). This replaces the per-point deep copy that dominated
    grid construction time.
    """
    out = dict(base_dict)
    copied: dict[int, dict[str, Any]] = {id(base_dict): out}
    for parts, value in zip(paths, values):
        node = out
        for part in parts[:-1]:
            child = node[part]
            fresh = copied.get(id(child))
            if fresh is None:
                fresh = dict(child)
                copied[id(child)] = fresh
                copied[id(fresh)] = fresh
            node[part] = fresh
            node = fresh
        node[parts[-1]] = value
    return out


@dataclass(frozen=True)
class SweepAxis:
    """One named parameter axis.

    Attributes:
        name: Axis name as given (possibly an alias).
        path: Resolved dotted path into the config.
        values: The values swept, in order.
    """

    name: str
    path: str
    values: tuple[Any, ...]


@dataclass(frozen=True)
class SweepPoint:
    """One candidate of the grid: its axis settings and built config."""

    overrides: dict[str, Any]
    config: SystemConfig


@dataclass(frozen=True)
class SweepPointResult:
    """One evaluated grid point."""

    overrides: dict[str, Any]
    config: SystemConfig
    record: EvalRecord


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: named axes crossed over a base config."""

    base: SystemConfig
    axes: tuple[SweepAxis, ...]

    @classmethod
    def from_axes(
        cls,
        base: SystemConfig,
        axes: Mapping[str, Sequence[Any]],
    ) -> "SweepSpec":
        """Build a spec from ``{axis name: values}``.

        Raises:
            ValueError: On an unknown axis name/path or an empty axis.
        """
        base_dict = system_config_to_dict(base)
        resolved = []
        for name, values in axes.items():
            if not values:
                raise ValueError(f"axis {name!r} has no values")
            path = _resolve_path(base_dict, name)
            resolved.append(SweepAxis(
                name=name, path=path, values=tuple(values),
            ))
        if not resolved:
            raise ValueError("a sweep needs at least one axis")
        return cls(base=base, axes=tuple(resolved))

    @property
    def n_points(self) -> int:
        """Grid size (product of axis lengths)."""
        total = 1
        for axis in self.axes:
            total *= len(axis.values)
        return total

    def iter_points(self) -> Iterator[SweepPoint]:
        """Stream the cross product lazily, last axis varying fastest.

        Each point is built on demand — the grid is never materialized,
        so arbitrarily large sweeps use constant memory here.

        A point whose nested-axis values equal those of the last point
        built from the config dict differs from it only in top-level
        fields, so it is a ``dataclasses.replace`` of that point: the
        frozen sub-configs are shared (and so are their memoized key
        encodings, see :func:`repro.fastpath.stable_hash`), and only the
        top-level dataclass and its validators are rebuilt. The shortcut
        only fires when each top-level axis value is an instance of the
        field's built type (``from_dict`` converts enum-typed fields,
        which ``replace`` must not skip); any other point takes the
        general dict-overlay path.
        """
        base_dict = system_config_to_dict(self.base)
        paths = [axis.path.split(".") for axis in self.axes]
        names = [axis.name for axis in self.axes]
        flat = [
            i for i, parts in enumerate(paths)
            if len(parts) == 1 and not isinstance(base_dict[parts[0]], dict)
        ]
        nested = [i for i in range(len(paths)) if i not in flat]
        template: SystemConfig | None = None
        built: tuple[Any, ...] = ()
        field_types: list[type] = []
        for combo in itertools.product(*(a.values for a in self.axes)):
            if (
                template is not None
                and all(combo[i] is built[i] for i in nested)
                and all(
                    isinstance(combo[i], kind)
                    for i, kind in zip(flat, field_types)
                )
            ):
                config = dataclasses.replace(
                    template, **{paths[i][0]: combo[i] for i in flat},
                )
            else:
                config = system_config_from_dict(
                    _overlay(base_dict, paths, combo)
                )
                template, built = config, combo
                field_types = [
                    type(getattr(config, paths[i][0])) for i in flat
                ]
            yield SweepPoint(
                overrides=dict(zip(names, combo)), config=config,
            )

    def points(self) -> list[SweepPoint]:
        """The full cross product as a list (see :meth:`iter_points`)."""
        return list(self.iter_points())


def _load_checkpoint(path: Path) -> dict[str, EvalRecord]:
    """Read finished points from a checkpoint, skipping bad lines."""
    done: dict[str, EvalRecord] = {}
    if not path.exists():
        return done
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            done[entry["key"]] = EvalRecord.from_dict(entry["record"])
        except (json.JSONDecodeError, KeyError, TypeError):
            continue
    return done


def run_sweep(
    spec: SweepSpec,
    workload: Workload | None = None,
    jobs: int = 1,
    cache: EvalCache | None = DEFAULT_CACHE,
    checkpoint_path: str | Path | None = None,
    checkpoint_every: int = 16,
    backend: str | None = None,
) -> list[SweepPointResult]:
    """Evaluate a sweep grid, optionally checkpointing each point.

    Args:
        spec: The sweep definition.
        workload: Optional workload for runtime metrics.
        jobs: Worker processes for the evaluation engine.
        cache: Result cache (defaults to the engine's shared cache; pass
            ``None`` to force re-evaluation).
        checkpoint_path: JSONL file appended to as points finish. If it
            already holds points of this grid, they are not re-evaluated.
        checkpoint_every: Points evaluated between checkpoint appends
            (bounds how much work an interrupt can lose). Under the
            numpy backend, chunks grow to at least ``_BATCH_CHUNK_POINTS``
            so each compiled group amortizes over enough points.
        backend: Evaluation backend, per
            :func:`repro.engine.evaluate_many`: ``None``/``"scalar"``
            (exact, default), ``"numpy"``, or ``"auto"``. Frequency and
            temperature axes vectorize; axes that change chip structure
            partition the grid into groups evaluated one compile each.

    Returns:
        One result per grid point, in grid order.
    """
    from repro import batch as _batch
    from repro.engine import evaluate_many

    if checkpoint_every < 1:
        raise ValueError("checkpoint_every must be >= 1")
    resolved = _batch.resolve_backend(backend)
    chunk_size = (
        checkpoint_every if resolved == "scalar"
        else max(checkpoint_every, _BATCH_CHUNK_POINTS)
    )

    checkpoint = Path(checkpoint_path) if checkpoint_path else None
    done: dict[str, EvalRecord] = (
        _load_checkpoint(checkpoint) if checkpoint is not None else {}
    )

    results: list[SweepPointResult | None] = []
    buf_slots: list[int] = []
    buf_points: list[SweepPoint] = []
    buf_keys: list[str] = []

    def flush() -> None:
        if not buf_points:
            return
        fresh = evaluate_many(
            [point.config for point in buf_points],
            workload=workload,
            jobs=jobs,
            cache=cache,
            backend=resolved,
        )
        lines = []
        for slot, point, key, record in zip(
            buf_slots, buf_points, buf_keys, fresh,
        ):
            results[slot] = SweepPointResult(
                overrides=point.overrides,
                config=point.config,
                record=record,
            )
            if checkpoint is not None:
                lines.append(json.dumps(
                    {
                        "key": key,
                        "overrides": point.overrides,
                        "record": record.to_dict(),
                    },
                    sort_keys=True,
                ))
        if checkpoint is not None and lines:
            with checkpoint.open("a") as handle:
                handle.write("\n".join(lines) + "\n")
        buf_slots.clear()
        buf_points.clear()
        buf_keys.clear()

    with obs.span(
        "engine.run_sweep", category="engine",
        points=spec.n_points, jobs=jobs, backend=resolved,
    ):
        for point in spec.iter_points():
            key = config_key(point.config, workload)
            if key in done:
                results.append(SweepPointResult(
                    overrides=point.overrides,
                    config=point.config,
                    record=dataclasses.replace(
                        done[key], from_cache=True,
                    ),
                ))
                continue
            buf_slots.append(len(results))
            results.append(None)
            buf_points.append(point)
            buf_keys.append(key)
            if len(buf_points) >= chunk_size:
                flush()
        flush()

    return [result for result in results if result is not None]


def format_sweep_table(results: Iterable[SweepPointResult]) -> str:
    """Render sweep results as an aligned text table."""
    results = list(results)
    if not results:
        return "(empty sweep)"
    axis_names = list(results[0].overrides)
    has_runtime = results[0].record.runtime_s is not None
    header = "".join(f"{name:>12} " for name in axis_names)
    header += f"{'area mm2':>9} {'TDP W':>8} {'leak W':>8}"
    if has_runtime:
        header += f" {'time s':>9} {'EDP':>10}"
    lines = [header, "-" * len(header)]
    for result in results:
        row = "".join(
            f"{result.overrides[name]!s:>12} " for name in axis_names
        )
        record = result.record
        row += (
            f"{record.area_mm2:>9.1f} {record.tdp_w:>8.1f} "
            f"{record.leakage_w:>8.2f}"
        )
        if has_runtime:
            row += f" {record.runtime_s:>9.3f} {record.edp:>10.2f}"
        lines.append(row)
    return "\n".join(lines)
