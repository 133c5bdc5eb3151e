"""Benchmark of the McPAT reproduction over four seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

Workloads: ``cli``, ``serve``, ``sweep``, ``lint`` (see
``perfbench/README.md``). With ``--trace 0`` the last stdout line holds
every end-to-end metric of ``BENCHMARK.json``; with ``--trace 1`` half
the time runs untraced, half traced, the other workloads each run one
traced second, and the line holds every per-layer metric. The line before it is a detail object: provenance, input
shares, and the first failures. The exit code is 0 only when every
operation and correctness gate passed.
"""

from __future__ import annotations

import argparse
import compileall
import dataclasses
import json
import math
import re
import shutil
import signal
import statistics
import sys
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from harness import cli, lint, serve, sweep  # noqa: E402
from harness.core import (  # noqa: E402
    Children,
    Context,
    Outcome,
    median,
    peak_child_rss_mb,
    provenance,
    python_cmd,
)

WORKLOADS = {"cli": cli, "serve": serve, "sweep": sweep, "lint": lint}

#: Seconds of each other workload's traced run inside a traced run.
FILL_SECONDS = 1.0
#: Start-up samples behind each import metric; the median is reported.
IMPORT_SAMPLES = 3
_IMPORTTIME = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|\s+repro\.cli$",
                         re.MULTILINE)


def model_err_pct() -> float:
    """Mean |modeled - published| / published of chip power and area
    over the four chips of ``run_validation()``, in percent."""
    from repro.experiments import run_validation

    rows = [r for r in run_validation()
            if r.metric in ("power_w", "area_mm2")]
    return 100.0 * statistics.fmean(abs(r.error_fraction) for r in rows)


def import_layers(ctx: Context, out: Outcome) -> dict[str, float]:
    """Interpreter start and ``import repro.cli`` cost, from children."""
    bare, cli_import = [], []
    for _ in range(IMPORT_SAMPLES):
        wall, code, _, _ = ctx.children.run(python_cmd("-c", "pass"))
        if out.check(code == 0, "bare interpreter start failed"):
            bare.append(wall)
        _, code, _, err = ctx.children.run(
            python_cmd("-X", "importtime", "-c", "import repro.cli"))
        found = _IMPORTTIME.search(err)
        if out.check(code == 0 and found is not None,
                     "import repro.cli failed"):
            cli_import.append(int(found[1]) / 1e6)
    return {
        "import.bare_python_ms": median(bare) * 1e3 if bare else 0.0,
        "import.repro_cli_ms": median(cli_import) * 1e3 if cli_import
        else 0.0,
    }


def probe_layers(ctx: Context, out: Outcome) -> dict[str, float]:
    """The harness-timer probes of ``child_layers.py`` plus imports."""
    layers = import_layers(ctx, out)
    _, code, stdout, err = ctx.children.run(python_cmd(
        str(HERE / "harness/child_layers.py"), "probe"))
    if out.check(code == 0, f"layer probe failed: {err[-300:]}"):
        layers.update(json.loads(stdout))
    return layers


def _detail_layers(outcome: Outcome) -> dict[str, float]:
    """Per-layer metrics a workload leaves in its detail line."""
    return {
        f"sweep.{key}": outcome.detail[key]
        for key in ("dvfs_us_per_point", "dse_ms_per_point")
        if key in outcome.detail
    }


def measure(ctx: Context, name: str, traced: bool) -> Outcome:
    """One workload run; traced runs add the per-layer breakdown.

    A traced run measures half the time untraced and half traced. The
    layers its own operations do not reach are then measured by a short
    traced run of each other workload; ``layer_sources`` in the detail
    line names the workload every such metric came from.
    """
    workload = WORKLOADS[name]
    if not traced:
        return workload.run(ctx, traced=False)
    half = dataclasses.replace(ctx, seconds=ctx.seconds / 2)
    base = workload.run(half, traced=False)
    outcome = workload.run(half, traced=True)
    own = {**outcome.layers, **_detail_layers(base)}
    untraced = base.end_to_end.get("op_p50_ms", math.nan)
    traced_ms = outcome.end_to_end.get("op_p50_ms", math.nan)
    own["trace.overhead_frac"] = (traced_ms - untraced) / untraced

    layers = probe_layers(ctx, outcome)
    sources: dict[str, str] = {}
    short = dataclasses.replace(ctx, seconds=FILL_SECONDS)
    for other_name, other in WORKLOADS.items():
        if other_name == name:
            continue
        fill = other.run(short, traced=True)
        for key, value in {**fill.layers, **_detail_layers(fill)}.items():
            if key not in own and key not in sources:
                layers[key] = value
                sources[key] = other_name
        outcome.attempted += fill.attempted
        outcome.failed += fill.failed
        outcome.failures += fill.failures
    layers.update(own)
    outcome.layers = layers
    outcome.attempted += base.attempted
    outcome.failed += base.failed
    outcome.failures = base.failures + outcome.failures
    outcome.detail["untraced"] = base.detail
    outcome.detail["layer_sources"] = sources
    return outcome


def _result(spec: dict, outcome: Outcome, traced: bool) -> tuple[dict, list]:
    """The result line, plus the metrics with nothing to report.

    A missing per-layer metric reads 0 (and is listed in the detail
    line); a missing end-to-end metric is a failure of the run.
    """
    values = outcome.layers if traced else outcome.end_to_end
    metrics, missing = {}, []
    for metric in spec["per_layer" if traced else "end_to_end"]:
        value = values.get(metric["name"])
        if value is None or not math.isfinite(value):
            if not traced:
                outcome.check(False, f"no value for {metric['name']}")
            missing.append(metric["name"])
            value = 0.0
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }, missing


def _stop(signum: int, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for sig in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(sig, _stop)
    sys.path.insert(0, str(ROOT / "src"))
    # Byte-compile once so no timed child pays for it.
    compileall.compile_dir(ROOT / "src", quiet=1)
    work = HERE / ".work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()

    traced = bool(args.trace)
    try:
        with Children(ROOT) as children:
            ctx = Context(ROOT, args.seed, args.seconds, work, children)
            outcome = measure(ctx, args.workload, traced)
        outcome.end_to_end["peak_rss_mb"] = peak_child_rss_mb()
        outcome.end_to_end["model_err_pct"] = model_err_pct()
        outcome.end_to_end["ok_frac"] = (
            (outcome.attempted - outcome.failed) / max(1, outcome.attempted)
        )
    except Exception:  # report, exit non-zero, print no result
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result, missing = _result(spec, outcome, traced)
    detail = {
        "workload": args.workload,
        "provenance": provenance(ROOT, args.seed, traced),
        **outcome.detail,
        "failures": outcome.failures,
    }
    if traced:
        detail["missing_layers"] = missing
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result, allow_nan=False))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
