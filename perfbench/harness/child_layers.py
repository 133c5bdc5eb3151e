"""Layer probes: the harness's own timers around public calls.

Usage, with ``src`` on ``PYTHONPATH``:

* ``python child_layers.py probe`` - times one call into each layer
  (tech tables, cold and warm model builds, report rendering, key
  derivation, cache lookup, config parsing, HTTP framing, surrogate
  prediction) in a fresh process;
* ``python child_layers.py report <preset>`` - one cold ``report``
  rendering, printing the memo counters it left behind.

Prints one JSON object of per-layer metrics.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import statistics
import sys
import time

PRESETS = ("niagara1", "niagara2", "alpha21364", "xeon_tulsa")


def _mean_us(fn, args_list) -> float:
    started = time.perf_counter()
    for args in args_list:
        fn(*args)
    return (time.perf_counter() - started) / len(args_list) * 1e6


def _clock_variants(config, n: int, start: float = 1.0):
    return [
        dataclasses.replace(config, clock_hz=config.clock_hz
                            * (start + 0.0007 * i))
        for i in range(1, n + 1)
    ]


def probe() -> dict[str, float]:
    from repro import fastpath
    from repro.chip import Processor, render_report_text
    from repro.config import presets
    from repro.config.loader import (
        system_config_from_dict,
        system_config_to_dict,
    )
    from repro.engine import EvalCache, evaluate_config
    from repro.engine.cache import config_key
    from repro.serve.http import encode_json, read_request
    from repro.surrogate.tier import default_tier
    from repro.tech import SUPPORTED_NODES_NM, Technology

    out: dict[str, float] = {}

    def build_tech(node: int) -> None:
        tech = Technology(node_nm=node)
        for attr in ("device", "sram_device", "wire_local",
                     "wire_semi_global", "wire_global", "c_gate_min"):
            getattr(tech, attr)

    out["tech.build_us"] = _mean_us(
        build_tech, [(n,) for n in SUPPORTED_NODES_NM])

    bases = {name: presets.VALIDATION_PRESETS[name]() for name in PRESETS}
    built = {}
    warm = []
    for name, config in bases.items():
        fastpath.clear_all()
        started = time.perf_counter()
        built[name] = Processor(config)
        built[name].report()
        out[f"model.cold_ms.{name}"] = (time.perf_counter() - started) * 1e3
        for variant in _clock_variants(config, 2, start=1.01):
            started = time.perf_counter()
            Processor(variant).report()
            warm.append(time.perf_counter() - started)
    out["model.warm_ms"] = statistics.fmean(warm) * 1e3
    out["chip.render_ms"] = statistics.fmean(
        _mean_us(render_report_text, [(p,)] * 3) for p in built.values()
    ) / 1e3

    alpha = bases["alpha21364"]
    record = evaluate_config(alpha, key=config_key(alpha))  # warms memos
    variants = _clock_variants(alpha, 200, start=1.05)
    out["engine.config_key_us"] = _mean_us(
        config_key, [(c,) for c in variants])
    out["engine.evaluate_ms"] = _mean_us(
        evaluate_config, [(c,) for c in variants[:8]]) / 1e3

    cache = EvalCache()
    keys = []
    for i in range(256):
        key = f"{i:064x}"
        cache.put(key, dataclasses.replace(record, key=key))
        keys.append(key)
    out["engine.cache.get_us"] = _mean_us(
        cache.get, [(k,) for k in keys * 8])

    tier = default_tier()
    if tier is not None:
        out["surrogate.predict_us"] = _mean_us(
            tier.try_predict, [(c,) for c in _clock_variants(alpha, 200)])

    as_dict = system_config_to_dict(alpha)
    out["serve.config_parse_us"] = _mean_us(
        system_config_from_dict, [(dict(as_dict),)] * 200)
    reply = {
        "trace_id": "0" * 16, "record": record.to_dict(),
        "from_cache": True, "tier": "exact",
        "report_text": render_report_text(built["alpha21364"]) + "\n",
    }
    out["serve.http.encode_us"] = _mean_us(encode_json, [(reply,)] * 500)

    body = json.dumps({"config": as_dict, "report": False}).encode()
    raw = (b"POST /evaluate HTTP/1.1\r\nHost: localhost\r\n"
           b"Content-Type: application/json\r\n"
           b"Content-Length: " + str(len(body)).encode() + b"\r\n\r\n"
           + body)

    async def read_many(n: int) -> float:
        total = 0.0
        for _ in range(n):
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            started = time.perf_counter()
            await read_request(reader)
            total += time.perf_counter() - started
        return total / n * 1e6

    out["serve.http.read_us"] = asyncio.run(read_many(500))
    return out


def cold_report(preset: str) -> dict[str, float]:
    from repro import fastpath
    from repro.chip import Processor, render_report_text
    from repro.config import presets

    render_report_text(Processor(presets.VALIDATION_PRESETS[preset]()))
    return {
        f"memo.{name}.{field}": float(counts[field])
        for name, counts in fastpath.stats().items()
        for field in ("hits", "misses")
    }


if __name__ == "__main__":
    if sys.argv[1] == "probe":
        print(json.dumps(probe()))
    else:
        print(json.dumps(cold_report(sys.argv[2])))
