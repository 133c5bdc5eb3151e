"""Shared pieces of the benchmark: statistics, strict JSON, processes.

Nothing here imports :mod:`repro`; the workloads reach the program only
through child processes, HTTP, and timed calls into its public API.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Sequence

#: How long a stopped child gets between SIGTERM and SIGKILL.
_TERM_GRACE_S = 5.0


# -- statistics ----------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it.

    Raises:
        ValueError: On no samples or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside [0, 100]")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Nearest-rank median (always one of the samples)."""
    return percentile(values, 50.0)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when nothing was attempted."""
    return num / den if den else 0.0


# -- strict JSON ---------------------------------------------------------


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-JSON token {token!r}")


def strict_json(data: bytes | str) -> Any:
    """Parse JSON, rejecting the NaN/Infinity tokens Python accepts.

    Raises:
        ValueError: On malformed JSON or a non-standard constant.
    """
    return json.loads(data, parse_constant=_reject_constant)


# -- outcome of one measurement -----------------------------------------


@dataclass
class Outcome:
    """What one workload measured.

    Attributes:
        attempted: Operations tried (timed operations plus gates).
        failed: Operations that failed or answered wrongly.
        end_to_end: Metric name -> value, with tracing off or on.
        layers: Per-layer metric name -> value (traced runs).
        detail: Shares and counts for the detail line.
        failures: The first few failure notes.
    """

    attempted: int = 0
    failed: int = 0
    end_to_end: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    detail: dict[str, Any] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        """Count one gated operation; remember why it failed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def latency_metrics(
    outcome: Outcome, op_s: Sequence[float], items: float, wall_s: float,
    tail_s: Sequence[float] | None = None, tail_pct: float = 90.0,
) -> None:
    """Fill the latency/throughput end-to-end metrics from op times.

    ``op_tail_ms`` is the ``tail_pct`` percentile of ``tail_s`` (by
    default the operations the median is taken over).
    """
    tail_s = op_s if tail_s is None else tail_s
    if not op_s or not tail_s:
        outcome.check(False, "no operation completed in the window")
        return
    outcome.end_to_end["op_p50_ms"] = median(op_s) * 1e3
    outcome.end_to_end["op_tail_ms"] = percentile(tail_s, tail_pct) * 1e3
    outcome.end_to_end["items_per_s"] = items / wall_s
    outcome.detail["op_samples"] = len(op_s)
    outcome.detail["tail"] = {"pct": tail_pct, "samples": len(tail_s)}
    if len(op_s) <= 100:
        outcome.detail["op_ms"] = [round(s * 1e3, 3) for s in op_s]


#: Spans already in ``src`` -> per-layer metric prefix. Every span
#: gets ``<prefix>.self_ms``; the solver and array spans also get
#: ``<prefix>.count``.
SPAN_LAYERS = {
    "array.build": "array.build",
    "circuit.repeater.solve": "circuit.repeater",
    "circuit.logical_effort.solve": "circuit.logical_effort",
    "chip.cores": "chip.cores",
    "chip.l2": "chip.l2",
    "chip.l3": "chip.l3",
    "chip.noc": "chip.noc",
    "chip.memory_controller": "chip.memory_controller",
    "chip.clock_network": "chip.clock_network",
}
_COUNTED_SPANS = ("array.build", "circuit.repeater", "circuit.logical_effort")


def span_layers(
    profiles: Sequence[dict[str, Sequence[float]]],
) -> dict[str, float]:
    """Per-operation mean self time and count of the model's spans.

    Spans no operation recorded (an L3 on chips without one) are left
    out rather than reported as zero.

    Args:
        profiles: One ``{span name: (count, total_s, self_s)}`` per
            traced operation.
    """
    out: dict[str, float] = {}
    n_ops = max(1, len(profiles))
    for span, prefix in SPAN_LAYERS.items():
        entries = [p[span] for p in profiles if span in p]
        if not entries:
            continue
        out[f"{prefix}.self_ms"] = (
            sum(e[2] for e in entries) * 1e3 / n_ops
        )
        if prefix in _COUNTED_SPANS:
            out[f"{prefix}.count"] = sum(e[0] for e in entries) / n_ops
    return out


def memo_ratios(counters: dict[str, float]) -> dict[str, float]:
    """Hit ratios of the model's memos from ``memo.<name>.*`` counters."""
    out = {}
    for memo in ("gate_constants", "repeater_optimum", "build_array"):
        hits = counters.get(f"memo.{memo}.hits", 0.0)
        misses = counters.get(f"memo.{memo}.misses", 0.0)
        out[f"memo.{memo}.hit_ratio"] = ratio(hits, hits + misses)
    return out


# -- the program's child processes ---------------------------------------


def child_env(root: Path) -> dict[str, str]:
    """Environment for children: the checkout's ``src`` on the path."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH")
        else src
    )
    return env


class Children:
    """Every process a run starts, stopped and reaped on :meth:`close`.

    Each child leads its own session, so stopping it also stops the
    workers it forked.
    """

    def __init__(self, root: Path) -> None:
        self.root = root
        self.env = child_env(root)
        self._procs: list[subprocess.Popen] = []

    def __enter__(self) -> "Children":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def spawn(self, argv: Sequence[str], **kwargs: Any) -> subprocess.Popen:
        """Start a child in its own session (tracked until closed)."""
        kwargs.setdefault("cwd", self.root)
        kwargs.setdefault("env", self.env)
        proc = subprocess.Popen(list(argv), start_new_session=True, **kwargs)
        self._procs.append(proc)
        return proc

    def run(
        self, argv: Sequence[str], timeout_s: float = 120.0,
    ) -> tuple[float, int, str, str]:
        """Run a child to completion: ``(wall s, code, stdout, stderr)``.

        The wall time spans process creation to exit, as a user of the
        command sees it.
        """
        started = time.monotonic()
        proc = self.spawn(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            out, err = "", "timed out"
        wall_s = time.monotonic() - started
        self.stop(proc)
        return wall_s, proc.returncode, out, err

    @staticmethod
    def _signal_group(proc: subprocess.Popen, sig: int) -> None:
        try:
            os.killpg(proc.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def stop(self, proc: subprocess.Popen) -> None:
        """Terminate a child and its process group; reap the child."""
        if proc in self._procs:
            self._procs.remove(proc)
        if proc.poll() is None:
            self._signal_group(proc, signal.SIGTERM)
            try:
                proc.wait(timeout=_TERM_GRACE_S)
            except subprocess.TimeoutExpired:
                self._signal_group(proc, signal.SIGKILL)
                proc.wait()
        # Workers the child forked share its group and may outlive it.
        self._signal_group(proc, signal.SIGKILL)
        for stream in (proc.stdout, proc.stderr, proc.stdin):
            if stream is not None:
                stream.close()

    def close(self) -> None:
        """Stop every child still running and wait for each group."""
        procs = list(self._procs)
        for proc in procs:
            self.stop(proc)
        deadline = time.monotonic() + _TERM_GRACE_S
        for proc in procs:
            while time.monotonic() < deadline and _group_alive(proc.pid):
                time.sleep(0.01)

    def alive(self) -> list[int]:
        """Pids of tracked children that have not exited."""
        return [p.pid for p in self._procs if p.poll() is None]


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def peak_child_rss_mb() -> float:
    """Peak resident set of any reaped descendant, in MB."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def free_port() -> int:
    """A TCP port on localhost that was free a moment ago."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


def python_cmd(*args: str) -> list[str]:
    """Argv for a child on this interpreter."""
    return [sys.executable, *args]


def repro_cmd(*args: str) -> list[str]:
    """Argv for ``mcpat-repro <args>`` run from source."""
    return python_cmd("-m", "repro.cli", *args)


@dataclass
class Context:
    """One benchmark run: where, which seed, how long, which children."""

    root: Path
    seed: int
    seconds: float
    work: Path
    children: Children


# -- provenance ----------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` when there is one."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def _numpy_version() -> str | None:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def provenance(root: Path, seed: int, traced: bool) -> dict[str, Any]:
    """The envelope every result carries."""
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": _git_commit(root),
        "seed": seed,
        "traced": traced,
    }
