"""``lint`` workload: ``mcpat-repro lint --all src`` at its default jobs.

``repro.analysis`` is close to a third of ``src`` and runs in no other
workload. Its input is ``src`` itself, so the seed changes nothing
here; the files and lines analysed are recorded with each run.
"""

from __future__ import annotations

import re
import statistics
import time

from harness import cli
from harness.core import (
    Context,
    Outcome,
    latency_metrics,
    python_cmd,
    repro_cmd,
    strict_json,
)

TARGET = "src"
_SUMMARY = re.compile(r"^0 finding\(s\) in (\d+) file\(s\)", re.MULTILINE)


def source_size(ctx: Context) -> tuple[int, int]:
    """``(files, lines)`` of the Python sources the lint analyses."""
    files = lines = 0
    for path in (ctx.root / TARGET).rglob("*.py"):
        parts = path.relative_to(ctx.root).parts
        if "__pycache__" in parts or any(p.startswith(".") for p in parts):
            continue
        files += 1
        lines += path.read_text().count("\n")
    return files, lines


def run(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()
    out.end_to_end["setup_s"] = cli.startup_s(ctx, out)
    files, lines = source_size(ctx)
    out.detail["shares"] = {"files": files, "lines": lines}

    walls, replays = [], []
    started = time.monotonic()
    while time.monotonic() - started < ctx.seconds:
        if traced:
            wall, code, stdout, err = ctx.children.run(python_cmd(
                str(ctx.root / "perfbench/harness/child_lint.py"), TARGET))
            try:
                replay = strict_json(stdout)
            except ValueError:
                replay = {}
            ok = code == 0 and replay.get("files") == files
            if out.check(ok, f"lint replay exit {code}: {err[-300:]}"):
                walls.append(wall)
                replays.append(replay)
            continue
        wall, code, stdout, err = ctx.children.run(
            repro_cmd("lint", "--all", TARGET))
        found = _SUMMARY.search(stdout)
        ok = code == 0 and found is not None and int(found[1]) == files
        if out.check(ok, f"lint exit {code}: {stdout[-300:]}{err[-300:]}"):
            walls.append(wall)
    latency_metrics(out, walls, lines * len(walls),
                    time.monotonic() - started)
    if replays:
        out.layers["analysis.files"] = float(files)
        out.layers["analysis.lines"] = float(lines)
        for key in replays[0]:
            if key.endswith("_ms"):
                out.layers[f"analysis.{key}"] = statistics.fmean(
                    r[key] for r in replays)
    return out
