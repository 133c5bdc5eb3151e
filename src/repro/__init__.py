"""repro — a reproduction of McPAT (MICRO 2009).

An integrated power, area, and timing modeling framework for multicore
and manycore architectures. Describe a chip at the architecture level
(:class:`~repro.config.schema.SystemConfig` or a preset), build a
:class:`~repro.chip.processor.Processor`, and get hierarchical
power/area/timing results; pair it with the analytical performance
substrate in :mod:`repro.perf` for runtime power, EDP, and design-space
studies.

Quickstart::

    from repro import Processor, presets, format_report

    chip = Processor(presets.niagara1())
    print(f"TDP  = {chip.tdp:.1f} W")
    print(f"Area = {chip.area * 1e6:.1f} mm^2")
    print(format_report(chip.report()))

The public names below load on first access (PEP 562), so importing a
submodule such as :mod:`repro.cli` or :mod:`repro.analysis` does not pull
in the chip model.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name -> the module that defines it.
_EXPORTS: dict[str, str] = {
    "CacheActivity": "repro.activity",
    "CoreActivity": "repro.activity",
    "MemoryControllerActivity": "repro.activity",
    "NocActivity": "repro.activity",
    "SystemActivity": "repro.activity",
    "ComponentResult": "repro.chip",
    "Processor": "repro.chip",
    "format_report": "repro.chip",
    "BranchPredictorConfig": "repro.config",
    "CacheGeometry": "repro.config",
    "CoreConfig": "repro.config",
    "MemoryControllerConfig": "repro.config",
    "NocConfig": "repro.config",
    "NocTopology": "repro.config",
    "SharedCacheConfig": "repro.config",
    "SystemConfig": "repro.config",
    "load_system_config": "repro.config",
    "presets": "repro.config",
    "save_system_config": "repro.config",
    "MulticoreSimulator": "repro.perf",
    "SPLASH2_PROFILES": "repro.perf",
    "Workload": "repro.perf",
    "DeviceType": "repro.tech",
    "Technology": "repro.tech",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    """Load a public name from its defining module on first access."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value
