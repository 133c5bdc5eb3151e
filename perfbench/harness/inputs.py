"""Seeded inputs. The same seed always yields the same inputs.

The program never sees the seed, only what is generated from it. Seeds
vary clocks, temperatures and orders, never the amount of work, so runs
on different seeds stay comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: The four published validation chips.
PRESETS = ("niagara1", "niagara2", "alpha21364", "xeon_tulsa")

#: Clocks per preset in the serve working set (the first is the
#: preset's own clock, so its report equals ``mcpat-repro report``).
WORKING_CLOCKS = 8

#: Serve mix: shares of working-set repeats and of new exact clock
#: variants; the rest are approximate (``exact: false``) requests.
HIT_SHARE = 0.70
MISS_SHARE = 0.20
#: One in four working-set repeats asks for the report text.
REPORT_SHARE = 0.25

#: Factor ranges on the preset's clock and temperature. Approximate
#: requests stay strictly inside the surrogate's trained box
#: (clock 0.8-1.2x, temperature 0.92-1.08x); exact misses keep the
#: preset temperature, because a temperature change rebuilds every
#: array (the cold cost the ``cli`` workload already measures).
WORKING_CLOCK_RANGE = (0.8, 1.2)
MISS_CLOCK_RANGE = (0.7, 1.3)
APPROX_CLOCK_RANGE = (0.82, 1.18)
APPROX_TEMP_RANGE = (0.94, 1.06)


def _rng(seed: int, stream: str) -> random.Random:
    # String seeds hash with sha512: stable across processes and
    # independent of PYTHONHASHSEED.
    return random.Random(f"{seed}:{stream}")


def cli_rounds(seed: int) -> Iterator[tuple[str, ...]]:
    """Endless rounds of ``report`` presets, each round all four once."""
    rng = _rng(seed, "cli")
    while True:
        order = list(PRESETS)
        rng.shuffle(order)
        yield tuple(order)


@dataclass(frozen=True)
class Request:
    """One ``POST /evaluate`` of the serve mix.

    Attributes:
        kind: ``hit`` (working-set repeat), ``miss`` (new exact clock
            variant) or ``approx`` (``exact: false`` variant).
        preset: Base chip.
        clock_factor: Multiplier on the preset clock.
        temp_factor: Multiplier on the preset temperature.
        report: Whether the report text is requested.
    """

    kind: str
    preset: str
    clock_factor: float
    temp_factor: float = 1.0
    report: bool = False

    @property
    def exact(self) -> bool:
        return self.kind != "approx"

    @property
    def config_id(self) -> tuple[str, float, float]:
        return (self.preset, self.clock_factor, self.temp_factor)


def working_set(seed: int) -> list[Request]:
    """The configs filled before timing: presets x working clocks."""
    rng = _rng(seed, "working-set")
    out = []
    for preset in PRESETS:
        factors = [1.0]
        while len(factors) < WORKING_CLOCKS:
            factor = round(rng.uniform(*WORKING_CLOCK_RANGE), 4)
            if factor not in factors:
                factors.append(factor)
        out += [Request("hit", preset, f, report=True) for f in factors]
    return out


def serve_requests(seed: int) -> Iterator[Request]:
    """The endless seeded request stream of the serve workload."""
    rng = _rng(seed, "serve-mix")
    hot = working_set(seed)
    seen = {r.config_id for r in hot}
    while True:
        draw = rng.random()
        if draw < HIT_SHARE:
            base = rng.choice(hot)
            yield Request(
                "hit", base.preset, base.clock_factor,
                report=rng.random() < REPORT_SHARE,
            )
            continue
        preset = rng.choice(PRESETS)
        if draw < HIT_SHARE + MISS_SHARE:
            while True:
                factor = round(rng.uniform(*MISS_CLOCK_RANGE), 6)
                if (preset, factor, 1.0) not in seen:
                    break
            seen.add((preset, factor, 1.0))
            yield Request("miss", preset, factor)
        else:
            yield Request(
                "approx", preset,
                round(rng.uniform(*APPROX_CLOCK_RANGE), 6),
                round(rng.uniform(*APPROX_TEMP_RANGE), 6),
            )


#: dvfs grid: 2 core counts x 3 L2 capacities of niagara1 (6
#: structures), each swept over clocks and temperatures.
DVFS_CORES = (4, 8)
DVFS_L2_BYTES = (1536 * 1024, 3 * 1024 * 1024, 6 * 1024 * 1024)
DVFS_CLOCKS = 128
DVFS_TEMPERATURES = 4
#: Temperatures (K) at which every dvfs structure compiles. Below about
#: 345 K the 1.5 MB-L2 groups fail their fit check and fall back to
#: the scalar path, which would make the seed change the work done.
DVFS_TEMPERATURE_RANGE = (350.0, 390.0)
#: dse grid: structural axes of alpha21364 only (48 structures).
DSE_NODES_NM = (180, 90, 65)
DSE_CORES = (1, 2, 4, 8)
DSE_ISSUE_WIDTHS = (2, 4, 6, 8)
#: dvfs points compared against the scalar path in each run.
DVFS_CHECK_SAMPLE = 16


def sweep_grids(seed: int) -> dict:
    """Both sweep grids plus the dvfs points checked against scalar.

    Returns a JSON-ready dict: clocks are factors on the base preset's
    clock, resolved by the sweep child.
    """
    rng = _rng(seed, "sweep")
    clocks: set[float] = set()
    while len(clocks) < DVFS_CLOCKS:
        clocks.add(round(rng.uniform(0.7, 1.3), 6))
    temps: set[float] = set()
    while len(temps) < DVFS_TEMPERATURES:
        temps.add(round(rng.uniform(*DVFS_TEMPERATURE_RANGE), 3))
    dvfs_axes = {
        "cores": list(DVFS_CORES),
        "l2.capacity_bytes": list(DVFS_L2_BYTES),
        "temperature_k": sorted(temps),
        "clock_factor": sorted(clocks),
    }
    n_dvfs = (len(DVFS_CORES) * len(DVFS_L2_BYTES) * DVFS_TEMPERATURES
              * DVFS_CLOCKS)
    return {
        "dvfs": {"base": "niagara1", "axes": dvfs_axes},
        "dse": {
            "base": "alpha21364",
            "clock_factor": round(rng.uniform(0.9, 1.1), 6),
            "axes": {
                "node": list(DSE_NODES_NM),
                "cores": list(DSE_CORES),
                "core.issue_width": list(DSE_ISSUE_WIDTHS),
            },
        },
        "dvfs_sample": sorted(rng.sample(range(n_dvfs), DVFS_CHECK_SAMPLE)),
    }
