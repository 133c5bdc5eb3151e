"""``cli`` workload: fresh ``mcpat-repro report <preset>`` processes.

Each process pays for interpreter start, imports, a cold model build
with empty memos, and report rendering; the key, cache, HTTP and batch
layers do no work here. Presets run in seeded rounds of all four. The
median is taken over rounds, of each round's mean report time, so
every sample weighs the four chips equally however the window ends
(a median over single reports would sit on the edge between the fast
and the slow chips and jump between them); the tail is the p90 over
single reports.
"""

from __future__ import annotations

import json
import re
import statistics
import time

from harness import inputs
from harness.core import (
    Context,
    Outcome,
    latency_metrics,
    median,
    memo_ratios,
    python_cmd,
    repro_cmd,
    span_layers,
)

#: Start-up samples per run; the median is reported.
SETUP_SAMPLES = 7

_TRACE_LINE = re.compile(r"\ntrace: \d+ spans -> .*\n\Z")


def startup_s(ctx: Context, out: Outcome) -> float:
    """Median wall time of ``mcpat-repro --help`` (CLI start-up)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        wall, code, stdout, _ = ctx.children.run(repro_cmd("--help"))
        if out.check(code == 0 and "usage: mcpat-repro" in stdout,
                     f"--help exited {code}"):
            samples.append(wall)
    return median(samples) if samples else float("nan")


def expected_reports() -> dict[str, str]:
    """``report`` stdout per preset, rendered in this process."""
    from repro.chip import Processor, render_report_text
    from repro.config import presets

    return {
        name: render_report_text(
            Processor(presets.VALIDATION_PRESETS[name]())
        ) + "\n"
        for name in inputs.PRESETS
    }


def _read_profile(path) -> dict[str, tuple[int, float, float]]:
    from repro import obs

    return {
        name: (e.count, e.total_s, e.self_s)
        for name, e in obs.profile(obs.read_jsonl(path)).items()
    }


def _cold_memo_counters(ctx: Context, out: Outcome) -> dict[str, float]:
    """Memo counters of one cold report per preset, summed."""
    totals: dict[str, float] = {}
    for preset in inputs.PRESETS:
        _, code, stdout, err = ctx.children.run(python_cmd(
            str(ctx.root / "perfbench/harness/child_layers.py"),
            "report", preset,
        ))
        if not out.check(code == 0, f"cold report probe: {err[-200:]}"):
            continue
        for name, value in json.loads(stdout).items():
            totals[name] = totals.get(name, 0.0) + value
    return totals


def run(ctx: Context, traced: bool) -> Outcome:
    from repro.goldens import compare_to_goldens

    out = Outcome()
    out.check(not compare_to_goldens(), "goldens differ")
    expected = expected_reports()
    out.end_to_end["setup_s"] = startup_s(ctx, out)

    rounds = inputs.cli_rounds(ctx.seed)
    round_means: list[float] = []
    report_s: list[float] = []
    profiles = []
    reports = 0
    started = time.monotonic()
    while time.monotonic() - started < ctx.seconds:
        walls = []
        for preset in next(rounds):
            argv = repro_cmd("report", preset)
            if traced:
                path = ctx.work / f"report-{reports}.jsonl"
                argv += ["--trace", str(path), "--trace-detail"]
            wall, code, stdout, err = ctx.children.run(argv)
            if traced:
                stdout = _TRACE_LINE.sub("", stdout)
            if out.check(code == 0 and stdout == expected[preset],
                         f"report {preset}: exit {code} {err[-200:]}"):
                walls.append(wall)
                reports += 1
                if traced:
                    profiles.append(_read_profile(path))
        report_s += walls
        if len(walls) == len(inputs.PRESETS):
            round_means.append(statistics.fmean(walls))
    latency_metrics(out, round_means, reports, time.monotonic() - started,
                    tail_s=report_s)
    out.detail["reports"] = reports
    if traced:
        out.layers.update(span_layers(profiles))
        out.layers.update(memo_ratios(_cold_memo_counters(ctx, out)))
    return out
