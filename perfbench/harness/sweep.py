"""``sweep`` workload: fresh processes each running two ``run_sweep`` grids.

* ``dvfs`` - 6 niagara1 structures (cores x L2 capacity) x 4
  temperatures x 128 clocks with ``backend="auto"``: batch compile, the
  vectorized kernels and the templated sweep keys.
* ``dse`` - 48 alpha21364 structures (node x cores x issue width):
  every point is its own structure, so the grid takes the scalar path
  through the fork pool with ``jobs=2``.

An operation is one process, from spawn until its last grid point is
back (the scalar cross-check that follows in the first process of a
run is not timed). A run holds only about ten processes, and the fork
pool makes an occasional one slow, so the tail is their p75: a p90
would be the run's slowest process.
"""

from __future__ import annotations

import json
import math
import time

from harness import inputs
from harness.core import (
    Context,
    Outcome,
    latency_metrics,
    median,
    memo_ratios,
    python_cmd,
    ratio,
    span_layers,
    strict_json,
)

#: Tail percentile over the run's processes (see the module docstring).
TAIL_PCT = 75.0
#: dvfs points may differ from the scalar path by this much, relative.
DVFS_REL_TOL = 1e-9


def _structures(axes: dict) -> int:
    count = 1
    for name, values in axes.items():
        if name not in ("clock_factor", "temperature_k"):
            count *= len(values)
    return count


def run(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()
    grids = inputs.sweep_grids(ctx.seed)
    child = str(ctx.root / "perfbench/harness/child_sweep.py")
    first: dict | None = None
    setups, ops, dvfs_us, dse_ms, results = [], [], [], [], []
    points = 0
    started = time.monotonic()
    while time.monotonic() - started < ctx.seconds:
        job = dict(grids, check=first is None, traced=traced)
        spawned = time.monotonic()
        _, code, stdout, err = ctx.children.run(
            python_cmd(child, json.dumps(job)))
        try:
            res = strict_json(stdout)
        except ValueError:
            out.check(False, f"sweep child exit {code}: {err[-300:]}")
            continue
        if first is None:
            first = res
            ok = (res["dvfs_max_rel_err"] <= DVFS_REL_TOL
                  and res["dvfs_bad_keys"] == 0
                  and res["dse_mismatches"] == 0)
            why = (f"scalar cross-check: dvfs err "
                   f"{res['dvfs_max_rel_err']:.3g}, "
                   f"{res['dvfs_bad_keys']} bad keys, "
                   f"{res['dse_mismatches']} dse mismatches")
        else:
            ok = (res["dvfs_sample"] == first["dvfs_sample"]
                  and res["dse_digest"] == first["dse_digest"])
            why = "sweep results differ between processes"
        if not out.check(code == 0 and ok, why):
            continue
        setups.append(res["ready"] - spawned)
        ops.append(res["done"] - spawned)
        n = res["dvfs_points"] + res["dse_points"]
        points += n
        dvfs_us.append(res["dvfs_s"] / res["dvfs_points"] * 1e6)
        dse_ms.append(res["dse_s"] / res["dse_points"] * 1e3)
        results.append(res)

    out.end_to_end["setup_s"] = median(setups) if setups else math.nan
    latency_metrics(out, ops, points, sum(ops) or math.nan,
                    tail_pct=TAIL_PCT)
    if not results:
        return out
    last = results[-1]
    out.detail["shares"] = {
        "processes": len(results),
        "dvfs": {
            "points": last["dvfs_points"],
            "structures": _structures(grids["dvfs"]["axes"]),
            "backends": last["dvfs_backends"],
        },
        "dse": {
            "points": last["dse_points"],
            "structures": _structures(grids["dse"]["axes"]),
            "backends": last["dse_backends"],
        },
    }
    out.detail["dvfs_us_per_point"] = median(dvfs_us)
    out.detail["dse_ms_per_point"] = median(dse_ms)
    if traced:
        out.layers.update(_traced_layers(results))
    return out


def _traced_layers(results: list[dict]) -> dict[str, float]:
    """Per-process means of the sweep's spans and counters."""
    n = len(results)
    profiles = [r["profile"] for r in results]
    layers = span_layers(profiles)

    def total(span: str, field: int) -> float:
        return sum(p.get(span, (0, 0.0, 0.0))[field] for p in profiles) / n

    def counter(name: str) -> float:
        return sum(r["counters"].get(name, 0.0) for r in results) / n

    points = sum(r["dvfs_points"] + r["dse_points"] for r in results) / n
    dvfs_points = sum(r["dvfs_points"] for r in results) / n
    chunk_s = sum(
        r["histograms"].get("pool.chunk_s", {}).get("sum", 0.0)
        for r in results
    ) / n
    vectorized = counter("batch.points_vectorized")
    hits = sum(r["dvfs_cache"][0] + r["dse_cache"][0] for r in results)
    lookups = hits + sum(r["dvfs_cache"][1] + r["dse_cache"][1]
                         for r in results)
    layers.update({
        "engine.run_sweep.self_us_per_point":
            total("engine.run_sweep", 2) / points * 1e6,
        "engine.pool.tasks": counter("pool.tasks"),
        "engine.pool.wall_ms": chunk_s * 1e3,
        "engine.cache.hit_ratio": ratio(hits, lookups),
        "batch.compile_group_ms": total("batch.compile_group", 1) * 1e3,
        "batch.groups_compiled": counter("batch.groups_compiled"),
        "batch.compile_probes": counter("batch.compile_probes"),
        "batch.evaluate.us_per_point":
            total("batch.evaluate", 2) / dvfs_points * 1e6,
        "batch.vectorized_ratio": ratio(
            vectorized, vectorized + counter("batch.points_fallback")),
    })
    counters: dict[str, float] = {}
    for r in results:
        for name, value in r["counters"].items():
            counters[name] = counters.get(name, 0.0) + value
    layers.update(memo_ratios(counters))
    return layers
