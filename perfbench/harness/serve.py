"""``serve`` workload: a ``mcpat-repro serve`` process under a seeded mix.

The loop is closed: two client connections, each sending its next
``POST /evaluate`` only after the previous reply, because served
callers wait for their answer. Before timing, the working set (4
presets x 8 clocks) is filled, so repeats take the hit path (key
derivation, cache lookup, JSON, framing) and new clock variants the
miss path (a model evaluation on warm memos, then a cache put).
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

from harness import inputs
from harness.core import (
    Context,
    Outcome,
    free_port,
    latency_metrics,
    median,
    memo_ratios,
    ratio,
    repro_cmd,
    strict_json,
)
from harness.inputs import Request

#: Server start-ups per run; the median is reported.
SETUP_SAMPLES = 5
#: Client connections (at most the 2 CPUs of the reference box).
CONNECTIONS = 2
#: Misses and approximate answers re-evaluated exactly in this process,
#: after timing (a full check of every one would take longer than the
#: run; working-set repeats are all checked).
MISS_CHECKS = 32
APPROX_CHECKS = 8
_STARTUP_TIMEOUT_S = 60.0
_REQUEST_TIMEOUT_S = 60.0

RECORD_FIELDS = (
    "area_mm2", "tdp_w", "peak_dynamic_w", "leakage_w",
    "core_area_mm2", "core_peak_dynamic_w", "core_leakage_w",
)


@dataclass
class Reply:
    """One exchange: the request, what came back, and how long it took."""

    request: Request
    status: int | None
    body: bytes
    latency_s: float
    error: str = ""


def get_json(port: int, path: str) -> tuple[int, Any]:
    """One GET on a fresh connection: ``(status, strict JSON body)``."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5.0)
    try:
        conn.request("GET", path)
        resp = conn.getresponse()
        return resp.status, strict_json(resp.read())
    finally:
        conn.close()


def start_server(ctx: Context, traced: bool, tag: str):
    """Spawn a server; return ``(proc, port, spawn-to-healthy s)``.

    ``serve --port 0`` prints the requested port, not the bound one,
    so the harness picks a free port itself.
    """
    port = free_port()
    argv = repro_cmd("serve", "--host", "127.0.0.1", "--port", str(port))
    if traced:
        argv.append("--trace")
    with open(ctx.work / f"serve-{tag}.log", "wb") as log:
        started = time.monotonic()
        proc = ctx.children.spawn(argv, stdout=log, stderr=log)
    while time.monotonic() - started < _STARTUP_TIMEOUT_S:
        if proc.poll() is not None:
            break
        try:
            status, _ = get_json(port, "/healthz")
        except (OSError, http.client.HTTPException, ValueError):
            time.sleep(0.002)
            continue
        if status == 200:
            return proc, port, time.monotonic() - started
    ctx.children.stop(proc)
    log_text = (ctx.work / f"serve-{tag}.log").read_text(errors="replace")
    raise RuntimeError(f"server did not become healthy: {log_text[-500:]}")


class Bodies:
    """Request bodies and the configs they carry."""

    def __init__(self) -> None:
        from repro.config import presets
        from repro.config.loader import system_config_to_dict

        self._bases = {
            name: system_config_to_dict(presets.VALIDATION_PRESETS[name]())
            for name in inputs.PRESETS
        }

    def config_dict(self, req: Request) -> dict[str, Any]:
        base = self._bases[req.preset]
        return dict(
            base,
            clock_hz=base["clock_hz"] * req.clock_factor,
            temperature_k=base["temperature_k"] * req.temp_factor,
        )

    def body(self, req: Request) -> bytes:
        payload: dict[str, Any] = {
            "config": self.config_dict(req), "report": req.report,
        }
        if not req.exact:
            payload["exact"] = False
        return json.dumps(payload).encode()

    def config(self, req: Request):
        from repro.config.loader import system_config_from_dict

        return system_config_from_dict(self.config_dict(req))


def exact_record(config) -> dict[str, Any]:
    """The record ``evaluate_config`` gives, as the server serializes it."""
    from repro.engine import evaluate_config
    from repro.engine.cache import config_key

    return evaluate_config(config, key=config_key(config)).to_dict()


class Client:
    """A closed-loop client: ``CONNECTIONS`` threads share one stream."""

    def __init__(self, port: int, stream: Iterator[Request],
                 body: Callable[[Request], bytes]) -> None:
        self.port = port
        self._stream = stream
        self._body = body
        self._lock = threading.Lock()

    def _next(self) -> tuple[Request, bytes]:
        with self._lock:
            req = next(self._stream)
            return req, self._body(req)

    def _exchange(self, conn: http.client.HTTPConnection, req: Request,
                  body: bytes) -> Reply:
        started = time.perf_counter()
        try:
            conn.request("POST", "/evaluate", body,
                         {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()  # the next request reconnects
            return Reply(req, None, b"", time.perf_counter() - started,
                         repr(exc))
        return Reply(req, resp.status, data, time.perf_counter() - started)

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_REQUEST_TIMEOUT_S,
        )

    def _loop(self, deadline: float, replies: list[Reply]) -> None:
        conn = self._connect()
        try:
            while time.monotonic() < deadline:
                replies.append(self._exchange(conn, *self._next()))
        finally:
            conn.close()

    def send_all(self) -> list[Reply]:
        """Send the whole (finite) stream in order on one connection."""
        conn = self._connect()
        try:
            return [self._exchange(conn, req, self._body(req))
                    for req in self._stream]
        finally:
            conn.close()

    def run(self, seconds: float) -> tuple[list[Reply], float]:
        """Drive the server for ``seconds``; ``(replies, wall s)``."""
        per_thread: list[list[Reply]] = [[] for _ in range(CONNECTIONS)]
        started = time.monotonic()
        threads = [
            threading.Thread(target=self._loop,
                             args=(started + seconds, replies))
            for replies in per_thread
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started
        return [r for replies in per_thread for r in replies], wall


class Checker:
    """Decides whether a reply is correct.

    Working-set repeats are compared field for field with records and
    report texts computed in this process; misses and approximate
    answers are checked for shape here and, on a seeded sample, against
    an exact evaluation (:meth:`deep_check`).
    """

    def __init__(self, bodies: Bodies, hot: list[Request]) -> None:
        from repro.chip import Processor, render_report_text

        self.bodies = bodies
        self.expected: dict[tuple, dict[str, Any]] = {}
        self.reports: dict[tuple, str] = {}
        for req in hot:
            config = bodies.config(req)
            self.expected[req.config_id] = exact_record(config)
            self.reports[req.config_id] = render_report_text(
                Processor(config)) + "\n"

    def check(self, reply: Reply, warm: bool = True,
              ) -> tuple[bool, str, dict | None]:
        """``(ok, why not, parsed body)`` for one reply.

        ``warm`` replies to working-set configs must come from the cache.
        """
        req = reply.request
        if reply.status != 200:
            return False, f"status {reply.status} {reply.error}", None
        try:
            doc = strict_json(reply.body)
        except ValueError as exc:
            return False, f"body is not strict JSON: {exc}", None
        record = doc.get("record") if isinstance(doc, dict) else None
        if not isinstance(record, dict):
            return False, "no record in reply", None
        if not all(
            isinstance(record.get(f), (int, float)) and record[f] > 0
            for f in RECORD_FIELDS
        ):
            return False, "record has missing or non-positive fields", doc
        if req.kind == "hit":
            if record != self.expected[req.config_id]:
                return False, f"wrong record for {req}", doc
            if warm and not doc.get("from_cache"):
                return False, "working-set repeat missed the cache", doc
            want = self.reports[req.config_id] if req.report else None
            if doc.get("report_text") != want:
                return False, f"wrong report text for {req}", doc
        elif req.kind == "miss":
            if doc.get("tier") != "exact" or "report_text" in doc:
                return False, f"unexpected miss reply shape {req}", doc
        else:
            tier = doc.get("tier")
            bound = doc.get("rel_err_bound")
            if tier == "surrogate" and not (
                isinstance(bound, float) and 0.0 < bound < 1.0
            ):
                return False, f"surrogate reply without a bound: {req}", doc
            if tier not in ("surrogate", "exact"):
                return False, f"unknown tier {tier!r}", doc
        return True, "", doc

    def deep_check(self, req: Request, doc: dict) -> tuple[bool, str]:
        """Compare one miss or approximate reply with an exact eval."""
        exact = exact_record(self.bodies.config(req))
        got = doc["record"]
        if req.kind == "miss" or doc.get("tier") == "exact":
            return got == exact, f"record differs from exact for {req}"
        bound = doc["rel_err_bound"]
        worst = max(
            abs(got[f] - exact[f]) / abs(exact[f]) for f in RECORD_FIELDS
        )
        return worst <= bound, (
            f"surrogate error {worst:.3g} above its bound {bound:.3g}"
        )


@dataclass
class Tally:
    """Correct replies only: latencies, kinds and what to check deeper.

    A failed, refused, non-JSON or wrong reply counts as a failed
    operation in the outcome and never as a latency sample.
    """

    latencies: list[float]
    kinds: dict[str, int]
    from_cache: int
    surrogate: int
    deep: list[tuple[Request, dict]]

    @classmethod
    def of(cls, replies: list[Reply], checker: Checker,
           out: Outcome) -> "Tally":
        tally = cls([], {"hit": 0, "miss": 0, "approx": 0}, 0, 0, [])
        for reply in replies:
            ok, why, doc = checker.check(reply)
            if not out.check(ok, why):
                continue
            tally.latencies.append(reply.latency_s)
            tally.kinds[reply.request.kind] += 1
            tally.from_cache += bool(doc.get("from_cache"))
            tally.surrogate += doc.get("tier") == "surrogate"
            if reply.request.kind != "hit":
                tally.deep.append((reply.request, doc))
        return tally


def _delta(after: dict, before: dict, name: str) -> float:
    return (after["counters"].get(name, 0.0)
            - before["counters"].get(name, 0.0))


def run(ctx: Context, traced: bool) -> Outcome:
    out = Outcome()
    samples = []
    for i in range(SETUP_SAMPLES):
        proc, port, ready_s = start_server(ctx, traced, str(i))
        samples.append(ready_s)
        if i < SETUP_SAMPLES - 1:
            ctx.children.stop(proc)
    out.end_to_end["setup_s"] = median(samples)

    bodies = Bodies()
    hot = inputs.working_set(ctx.seed)
    checker = Checker(bodies, hot)
    for reply in Client(port, iter(hot), bodies.body).send_all():
        ok, why, _ = checker.check(reply, warm=False)
        out.check(ok, f"working-set fill: {why}")

    _, before = get_json(port, "/metrics")
    replies, wall = Client(
        port, inputs.serve_requests(ctx.seed), bodies.body,
    ).run(ctx.seconds)
    _, after = get_json(port, "/metrics")

    tally = Tally.of(replies, checker, out)
    kinds, latencies = tally.kinds, tally.latencies

    # Every miss must carry the exact content key; a seeded sample of
    # misses and approximate answers is re-evaluated exactly.
    from repro.engine.cache import config_key

    rng = random.Random(f"{ctx.seed}:serve-check")
    misses = [(r, d) for r, d in tally.deep if r.kind == "miss"]
    approx = [(r, d) for r, d in tally.deep if r.kind == "approx"]
    for req, doc in misses:
        out.check(doc["record"]["key"] == config_key(bodies.config(req)),
                  f"miss keyed wrongly: {req}")
    for req, doc in (rng.sample(misses, min(MISS_CHECKS, len(misses)))
                     + rng.sample(approx, min(APPROX_CHECKS, len(approx)))):
        out.check(*checker.deep_check(req, doc))

    latency_metrics(out, latencies, len(latencies), wall)
    n_ok = max(1, len(latencies))
    served = kinds["hit"] + kinds["miss"]
    hits = _delta(after, before, "engine.cache.hits")
    lookups = hits + _delta(after, before, "engine.cache.misses")
    memo_hits = _delta(after, before, "memo.serve.report_text.hits")
    memo_lookups = memo_hits + _delta(
        after, before, "memo.serve.report_text.misses")
    out.detail["shares"] = {
        "requests": len(replies),
        "hit": kinds["hit"] / n_ok,
        "miss": kinds["miss"] / n_ok,
        "approx": kinds["approx"] / n_ok,
        "exact_from_cache": ratio(tally.from_cache, served),
        "server_cache_hit": ratio(hits, lookups),
        "report_memo_hit": ratio(memo_hits, memo_lookups),
        "surrogate_admitted": ratio(tally.surrogate, kinds["approx"]),
    }
    if traced:
        out.layers.update(_server_layers(before, after, latencies))
        out.layers["engine.cache.hit_ratio"] = ratio(hits, lookups)
        out.layers["serve.report_memo.hit_ratio"] = ratio(
            memo_hits, memo_lookups)
    return out


def _server_layers(before: dict, after: dict,
                   latencies: list[float]) -> dict[str, float]:
    """Per-layer numbers the traced server reports over ``/metrics``."""
    def hist(snapshot: dict) -> dict:
        return snapshot["histograms"].get("serve.request_s", {})

    count = hist(after).get("count", 0.0) - hist(before).get("count", 0.0)
    total = hist(after).get("sum", 0.0) - hist(before).get("sum", 0.0)
    handler_ms = ratio(total, count) * 1e3
    client_ms = ratio(sum(latencies), len(latencies)) * 1e3
    predictions = _delta(after, before, "surrogate.predictions")
    counters = {
        name: _delta(after, before, name) for name in after["counters"]
    }
    layers = {
        "serve.handler_ms": handler_ms,
        "serve.outside_ms": client_ms - handler_ms,
        "surrogate.admit_ratio": ratio(
            _delta(after, before, "surrogate.hits"), predictions),
    }
    layers.update(memo_ratios(counters))
    return layers
