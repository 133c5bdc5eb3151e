"""Sweep-workload child: one fresh process running both sweep grids.

Usage: ``python child_sweep.py '<job json>'`` with ``src`` on
``PYTHONPATH``. The job holds the two grids from
``harness.inputs.sweep_grids`` plus ``check`` (compare against the
scalar path after timing) and ``traced`` (record spans and counters).
Prints one JSON object. Timestamps are ``time.monotonic()``, which the
parent shares, so it can time the start-up from its own spawn.
"""

from __future__ import annotations

import collections
import dataclasses
import hashlib
import json
import sys
import time


def _dvfs_spec(grid, presets, SweepSpec):
    base = presets.VALIDATION_PRESETS[grid["base"]]()
    axes = dict(grid["axes"])
    factors = axes.pop("clock_factor")
    axes["clock_hz"] = [base.clock_hz * f for f in factors]
    return SweepSpec.from_axes(base, axes)


def _dse_spec(grid, presets, SweepSpec):
    base = presets.VALIDATION_PRESETS[grid["base"]]()
    base = dataclasses.replace(
        base, clock_hz=base.clock_hz * grid["clock_factor"],
    )
    return SweepSpec.from_axes(base, grid["axes"])


def _rel_err(a: float | None, b: float | None) -> float:
    if a is None or b is None:
        return 0.0 if a is b else float("inf")
    return abs(a - b) / abs(b) if b else abs(a - b)


def main(job: dict) -> dict:
    from repro import obs
    from repro.config import presets
    from repro.engine import EvalCache, SweepSpec, evaluate_config, run_sweep
    from repro.engine.cache import config_key

    dvfs_spec = _dvfs_spec(job["dvfs"], presets, SweepSpec)
    dse_spec = _dse_spec(job["dse"], presets, SweepSpec)
    out: dict = {"ready": time.monotonic()}

    if job["traced"]:
        obs.enable(detail=True)
    caches = {
        "dvfs": EvalCache(max_entries=dvfs_spec.n_points + 1),
        "dse": EvalCache(max_entries=dse_spec.n_points + 1),
    }
    started = time.monotonic()
    dvfs = run_sweep(dvfs_spec, jobs=1, cache=caches["dvfs"], backend="auto")
    dvfs_done = time.monotonic()
    dse = run_sweep(dse_spec, jobs=2, cache=caches["dse"], backend="auto")
    out["done"] = time.monotonic()
    out["dvfs_s"] = dvfs_done - started
    out["dse_s"] = out["done"] - dvfs_done
    if job["traced"]:
        obs.disable()
        out["profile"] = {
            name: [e.count, e.total_s, e.self_s]
            for name, e in obs.profile().items()
        }
        snap = obs.snapshot()
        out["counters"] = snap.counters
        out["histograms"] = snap.histograms

    for name, results in (("dvfs", dvfs), ("dse", dse)):
        out[f"{name}_points"] = len(results)
        out[f"{name}_backends"] = dict(collections.Counter(
            r.record.backend for r in results
        ))
        out[f"{name}_cache"] = [caches[name].hits, caches[name].misses]
    out["dvfs_sample"] = [dvfs[i].record.to_dict() for i in job["dvfs_sample"]]
    out["dse_digest"] = hashlib.sha256(json.dumps(
        [r.record.to_dict() for r in dse], sort_keys=True,
    ).encode()).hexdigest()

    if job["check"]:
        # Scalar reference, after timing: dvfs within 1e-9 relative on
        # the sample, dse exactly equal, every key the exact config key.
        worst = 0.0
        bad_keys = 0
        for i in job["dvfs_sample"]:
            point = dvfs[i]
            ref = evaluate_config(point.config, key=config_key(point.config))
            bad_keys += point.record.key != ref.key
            got = point.record.to_dict()
            for field, value in ref.to_dict().items():
                if isinstance(value, float) or value is None:
                    worst = max(worst, _rel_err(got[field], value))
        dse_mismatches = 0
        for point in dse:
            ref = evaluate_config(point.config, key=config_key(point.config))
            dse_mismatches += point.record != ref
        out["dvfs_max_rel_err"] = worst
        out["dvfs_bad_keys"] = bad_keys
        out["dse_mismatches"] = dse_mismatches
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
