"""Tests of the benchmark harness's own code.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import http.server
import itertools
import json
import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from harness import inputs, serve  # noqa: E402
from harness.core import (  # noqa: E402
    Children,
    Outcome,
    median,
    percentile,
    python_cmd,
    repro_cmd,
    strict_json,
)


# -- nearest-rank percentiles --------------------------------------------


def test_percentile_single_sample_is_every_percentile():
    for q in (0, 1, 50, 90, 100):
        assert percentile([7.0], q) == 7.0


def test_percentile_bounds_are_min_and_max():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 5.0


def test_percentile_is_always_a_sample():
    assert median([1.0, 2.0, 3.0, 4.0]) == 2.0  # lower middle, no mean
    assert percentile(list(range(1, 11)), 90) == 9
    assert percentile(list(range(1, 11)), 91) == 10
    assert percentile(list(range(1, 101)), 90) == 90


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)
    with pytest.raises(ValueError):
        percentile([1.0], -1)


def test_strict_json_rejects_non_standard_constants():
    assert strict_json(b'{"a": 1.5}') == {"a": 1.5}
    for token in ("NaN", "Infinity", "-Infinity"):
        with pytest.raises(ValueError):
            strict_json('{"a": %s}' % token)


# -- seeded inputs -------------------------------------------------------


def _take(stream, n):
    return list(itertools.islice(stream, n))


def test_same_seed_same_requests_and_grids():
    assert (_take(inputs.serve_requests(3), 2000)
            == _take(inputs.serve_requests(3), 2000))
    assert inputs.working_set(3) == inputs.working_set(3)
    assert inputs.sweep_grids(3) == inputs.sweep_grids(3)
    rounds_a, rounds_b = inputs.cli_rounds(3), inputs.cli_rounds(3)
    assert [next(rounds_a) for _ in range(5)] == [
        next(rounds_b) for _ in range(5)]


def test_other_seed_other_inputs_same_amount_of_work():
    a, b = inputs.sweep_grids(3), inputs.sweep_grids(4)
    assert a != b
    for grid in ("dvfs", "dse"):
        assert ([len(v) for v in a[grid]["axes"].values()]
                == [len(v) for v in b[grid]["axes"].values()])
    assert (_take(inputs.serve_requests(3), 100)
            != _take(inputs.serve_requests(4), 100))


def test_serve_mix_shares_and_unique_misses():
    hot = inputs.working_set(5)
    assert len({r.config_id for r in hot}) == 32
    assert {r.preset for r in hot if r.clock_factor == 1.0} == set(
        inputs.PRESETS)
    requests = _take(inputs.serve_requests(5), 20000)
    shares = {
        kind: sum(r.kind == kind for r in requests) / len(requests)
        for kind in ("hit", "miss", "approx")
    }
    assert shares["hit"] == pytest.approx(0.70, abs=0.02)
    assert shares["miss"] == pytest.approx(0.20, abs=0.02)
    assert shares["approx"] == pytest.approx(0.10, abs=0.02)
    misses = [r.config_id for r in requests if r.kind == "miss"]
    assert len(set(misses)) == len(misses)
    assert not set(misses) & {r.config_id for r in hot}
    hits = [r for r in requests if r.kind == "hit"]
    assert sum(r.report for r in hits) / len(hits) == pytest.approx(
        0.25, abs=0.02)


# -- a fake server's wrong answers are failures, not latencies ----------


class _FakeHandler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    answers: list[tuple[int, bytes]] = []

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        self.rfile.read(int(self.headers["Content-Length"]))
        status, body = self.answers.pop(0)
        self.send_response(status)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def test_fake_server_errors_count_as_failures_not_latencies():
    hot = [inputs.Request("hit", "niagara1", 1.0)]
    bodies = serve.Bodies()
    checker = serve.Checker(bodies, hot)
    good = {"record": checker.expected[hot[0].config_id],
            "from_cache": True, "tier": "exact"}
    wrong = dict(good, record=dict(good["record"], tdp_w=1.0))
    nan_body = json.dumps(good).replace(
        str(good["record"]["tdp_w"]), "NaN").encode()
    _FakeHandler.answers = [
        (500, b'{"error": "boom"}'),
        (200, b"not json"),
        (200, nan_body),
        (200, json.dumps(wrong).encode()),
        (200, json.dumps(good).encode()),
    ]
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _FakeHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        client = serve.Client(server.server_address[1], iter(hot * 5),
                              bodies.body)
        replies = client.send_all()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()
    out = Outcome()
    tally = serve.Tally.of(replies, checker, out)
    assert (out.attempted, out.failed) == (5, 4)
    assert len(tally.latencies) == 1
    assert tally.latencies[0] == replies[-1].latency_s


def test_surrogate_answer_outside_its_bound_fails():
    req = inputs.Request("approx", "niagara1", 1.01, 1.01)
    checker = serve.Checker(serve.Bodies(), [])
    exact = serve.exact_record(checker.bodies.config(req))
    close = dict(exact, tdp_w=exact["tdp_w"] * 1.004)
    doc = {"record": close, "tier": "surrogate", "rel_err_bound": 0.005}
    assert checker.deep_check(req, doc)[0]
    doc["rel_err_bound"] = 0.003
    assert not checker.deep_check(req, doc)[0]


# -- process hygiene ----------------------------------------------------


def _running(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except FileNotFoundError:
        return False
    return state.split()[0] not in ("Z", "X")


def _wait_gone(pid: int, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if not _running(pid):
            return True
        time.sleep(0.02)
    return False


FORKER = (
    "import os, sys, time\n"
    "pid = os.fork()\n"
    "if pid == 0:\n"
    "    time.sleep(60)\n"
    "    os._exit(0)\n"
    "print(pid, flush=True)\n"
    "time.sleep(60)\n"
)


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_close_kills_children_and_their_forks_even_on_failure(tmp_path):
    log = tmp_path / "grandchild"
    with pytest.raises(RuntimeError):
        with Children(ROOT) as children:
            with open(log, "w") as out:
                child = children.spawn(python_cmd("-c", FORKER), stdout=out)
            deadline = time.monotonic() + 10
            while not log.read_text().strip():
                assert time.monotonic() < deadline
                time.sleep(0.02)
            grandchild = int(log.read_text())
            raise RuntimeError("workload failed")
    assert child.poll() is not None
    assert _wait_gone(grandchild)
    assert children.alive() == []


@pytest.mark.skipif(not Path("/proc").is_dir(), reason="needs /proc")
def test_no_server_outlives_its_run(tmp_path):
    from harness.core import Context

    with Children(ROOT) as children:
        ctx = Context(ROOT, 0, 1.0, tmp_path, children)
        proc, port, ready_s = serve.start_server(ctx, False, "test")
        status, body = serve.get_json(port, "/healthz")
        assert status == 200 and body["status"] == "ok"
        assert ready_s > 0
    assert proc.poll() is not None
    assert _wait_gone(proc.pid)


def test_run_times_a_child_and_reaps_it():
    with Children(ROOT) as children:
        wall, code, stdout, _ = children.run(repro_cmd("--help"))
        assert code == 0 and "usage: mcpat-repro" in stdout
        assert 0 < wall < 60
        assert children.alive() == []


def test_run_without_program_source_exits_nonzero_without_result(tmp_path):
    import shutil
    import subprocess

    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_every_metric_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == [
        "cli", "serve", "sweep", "lint"]
    names = {m["name"] for m in spec["end_to_end"]}
    assert names == {"setup_s", "peak_rss_mb", "ok_frac", "model_err_pct",
                     "op_p50_ms", "op_tail_ms", "items_per_s"}
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    layers = [m["name"] for m in spec["per_layer"]]
    assert len(layers) == len(set(layers))
    assert "trace.overhead_frac" in layers
